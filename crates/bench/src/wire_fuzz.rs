//! The `wire` kind of the `fuzz` gate: pdpd's one-pass body decoders
//! against the tree-based reference, on seeded, perturbed wire bodies.
//!
//! Each case serializes a refsem policy set's request stream as one
//! `/decide_batch` body and a few `/decide` bodies, perturbed in ways the
//! wire form allows — whitespace, member order, `\uXXXX` escapes,
//! duplicate category objects (which merge), duplicate attributes (the
//! last wins), attributes no policy references, integers at the `i64`
//! bounds — and injects at most one fault per body: a non-integral or
//! overflowing number, an unknown category, a non-object request or
//! category, a non-scalar value, over-deep nesting, or truncation.
//!
//! Every body goes through [`agenp_pdpd::server::decide_body`], the
//! handler the daemon runs, and through the reference:
//! [`wire::reference_decode`] (`json::parse` plus `request_from_json`),
//! `PdpPin::decide`/`decide_batch` on the resulting `Request`s, and the
//! pre-buffer `format!` encoding below. Both must give the same status and
//! the same response bytes — the same error text, or the same outcomes —
//! and every reference outcome must match
//! [`reference::effects_reference`].
//!
//! One divergence is deliberate: a batch body with two `"requests"`
//! members. The reference takes the last (`Json::get`); the decoder
//! refuses the body, and the case checks that it does.

use agenp_core::arch::{DecisionOutcome, DecisionSnapshot, PdpHandle, PdpPin};
use agenp_pdpd::{json, server, wire};
use agenp_policy::{AttrValue, CombiningAlg, Policy, Request};
use agenp_refsem::{gen, reference};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt::Write as _;

/// At most one fault per body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// An attribute valued `1.0`, `1e2`, or one past `i64::MAX`.
    Number,
    /// A category name outside the four.
    UnknownCategory,
    /// A request that is not an object.
    NonObjectRequest,
    /// A category whose value is not an object.
    NonObjectCategory,
    /// An attribute valued `null`, an array or an object.
    NonScalar,
    /// A skipped top-level member (or an attribute) nested 70 deep.
    Deep,
    /// The body cut short.
    Truncated,
    /// A second `"requests"` member (batch bodies only).
    DuplicateRequests,
}

const FAULTS: [Fault; 8] = [
    Fault::Number,
    Fault::UnknownCategory,
    Fault::NonObjectRequest,
    Fault::NonObjectCategory,
    Fault::NonScalar,
    Fault::Deep,
    Fault::Truncated,
    Fault::DuplicateRequests,
];

/// A JSON writer that perturbs what the wire form leaves free.
struct Writer<'r> {
    rng: &'r mut StdRng,
    out: String,
}

impl Writer<'_> {
    /// Optional whitespace between tokens.
    fn ws(&mut self) {
        if self.rng.gen_bool(0.3) {
            for _ in 0..self.rng.gen_range(1..=3) {
                let c = [' ', '\t', '\n', '\r'][self.rng.gen_range(0..4)];
                self.out.push(c);
            }
        }
    }

    fn raw(&mut self, s: &str) {
        self.out.push_str(s);
    }

    /// A string literal, some characters written as `\uXXXX` escapes (in
    /// either hex case, surrogate pairs past the BMP).
    fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            if self.rng.gen_bool(0.15) {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    if self.rng.gen_bool(0.5) {
                        let _ = write!(self.out, "\\u{:04x}", unit);
                    } else {
                        let _ = write!(self.out, "\\u{:04X}", unit);
                    }
                }
            } else {
                match c {
                    '"' => self.out.push_str("\\\""),
                    '\\' => self.out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(self.out, "\\u{:04x}", c as u32);
                    }
                    c => self.out.push(c),
                }
            }
        }
        self.out.push('"');
    }

    fn key(&mut self, key: &str) {
        self.ws();
        self.string(key);
        self.ws();
        self.raw(":");
        self.ws();
    }

    fn value(&mut self, value: &AttrValue) {
        match value {
            AttrValue::Str(s) => self.string(s),
            AttrValue::Int(i) => {
                let _ = write!(self.out, "{i}");
            }
            AttrValue::Bool(b) => self.raw(if *b { "true" } else { "false" }),
        }
    }

    /// A value that is not a scalar the wire form accepts.
    fn non_scalar(&mut self) {
        match self.rng.gen_range(0..3) {
            0 => self.raw("null"),
            1 => self.raw("[1, \"a\"]"),
            _ => self.raw("{\"x\": [true]}"),
        }
    }

    fn bad_number(&mut self) {
        let n = ["1.0", "1e2", "9223372036854775808", "-9223372036854775809"];
        let i = self.rng.gen_range(0..n.len());
        self.raw(n[i]);
    }

    fn deep(&mut self) {
        self.raw(&("[".repeat(70) + &"]".repeat(70)));
    }

    /// One request object, perturbed, with `fault` injected if it is a
    /// request-level one.
    fn request(&mut self, request: &Request, fault: Option<Fault>) {
        if fault == Some(Fault::NonObjectRequest) {
            let forms = ["5", "\"subject\"", "[]", "null"];
            let i = self.rng.gen_range(0..forms.len());
            self.raw(forms[i]);
            return;
        }
        // Group per category, in a shuffled category order.
        let mut groups: Vec<(&'static str, Vec<(String, AttrValue)>)> = Vec::new();
        for (category, name, value) in request.iter() {
            match groups.iter_mut().find(|(c, _)| *c == category.name()) {
                Some((_, attrs)) => attrs.push((name.to_owned(), value.clone())),
                None => groups.push((category.name(), vec![(name.to_owned(), value.clone())])),
            }
        }
        groups.shuffle(self.rng);
        let mut members: Vec<(&'static str, Vec<(String, AttrValue)>)> = Vec::new();
        for (category, mut attrs) in groups {
            attrs.shuffle(self.rng);
            // A decoy written first, then overwritten by the real value.
            if self.rng.gen_bool(0.2) {
                let (name, _) = attrs[self.rng.gen_range(0..attrs.len())].clone();
                attrs.insert(0, (name, decoy(self.rng)));
            }
            // An attribute no policy references.
            if self.rng.gen_bool(0.3) {
                let at = self.rng.gen_range(0..=attrs.len());
                attrs.insert(at, ("unreferenced".into(), decoy(self.rng)));
            }
            // Split into two objects of the same category, which merge.
            if attrs.len() > 1 && self.rng.gen_bool(0.25) {
                let tail = attrs.split_off(self.rng.gen_range(1..attrs.len()));
                members.push((category, attrs));
                members.push((category, tail));
            } else {
                members.push((category, attrs));
            }
        }
        let attr_fault = matches!(fault, Some(Fault::Number | Fault::NonScalar | Fault::Deep));
        if self.rng.gen_bool(0.1) || (attr_fault && members.is_empty()) {
            members.push(("environment", Vec::new()));
        }
        let faulty = self.rng.gen_range(0..members.len().max(1));
        self.ws();
        self.raw("{");
        if let Some(f @ (Fault::UnknownCategory | Fault::NonObjectCategory)) = fault {
            if f == Fault::NonObjectCategory {
                self.key("subject");
                self.raw("3");
            } else {
                self.key("tenant");
                self.raw("{}");
            }
            if !members.is_empty() {
                self.raw(",");
            }
        }
        for (i, (category, attrs)) in members.iter().enumerate() {
            if i > 0 {
                self.raw(",");
            }
            self.key(category);
            self.raw("{");
            for (j, (name, value)) in attrs.iter().enumerate() {
                if j > 0 {
                    self.raw(",");
                }
                self.key(name);
                self.value(value);
            }
            if faulty == i && attr_fault {
                if let Some(f) = fault {
                    if !attrs.is_empty() {
                        self.raw(",");
                    }
                    // The handler echoes the name raw in its error text,
                    // so odd characters exercise the error encoder.
                    let name = ["faulty", "fa\tu\"l\\ty\u{1}\n\r/é\u{1F600}"];
                    let pick = self.rng.gen_range(0..name.len());
                    self.key(name[pick]);
                    match f {
                        Fault::Number => self.bad_number(),
                        Fault::NonScalar => self.non_scalar(),
                        _ => self.deep(),
                    }
                }
            }
            self.ws();
            self.raw("}");
        }
        self.ws();
        self.raw("}");
        self.ws();
    }

    /// A `/decide_batch` body, skipped members around `"requests"`.
    fn batch(&mut self, requests: &[Request], fault: Option<Fault>) {
        let bad = self.rng.gen_range(0..requests.len().max(1));
        self.ws();
        self.raw("{");
        if self.rng.gen_bool(0.3) || fault == Some(Fault::Deep) {
            self.key("meta");
            if fault == Some(Fault::Deep) {
                self.deep();
            } else {
                self.raw("{\"trace\": [1, {\"x\": null}, \"s\"]}");
            }
            self.raw(",");
        }
        if fault == Some(Fault::DuplicateRequests) {
            self.key("requests");
            self.raw("[{}],");
        }
        self.key("requests");
        self.raw("[");
        for (i, request) in requests.iter().enumerate() {
            if i > 0 {
                self.raw(",");
            }
            let f = fault.filter(|f| i == bad && *f != Fault::Deep);
            self.request(request, f);
        }
        self.ws();
        self.raw("]");
        if self.rng.gen_bool(0.2) {
            self.raw(",");
            self.key("tail");
            self.raw("\"end\"");
        }
        self.ws();
        self.raw("}");
        self.ws();
    }

    /// Cuts the body at a random char boundary short of its end.
    fn truncate(&mut self) {
        let cuts: Vec<usize> = (0..self.out.len())
            .filter(|&i| self.out.is_char_boundary(i))
            .collect();
        let at = cuts[self.rng.gen_range(0..cuts.len())];
        self.out.truncate(at);
    }
}

/// A value for a decoy or unreferenced attribute, `i64` bounds included.
fn decoy(rng: &mut StdRng) -> AttrValue {
    match rng.gen_range(0..4) {
        0 => AttrValue::Int(i64::MIN),
        1 => AttrValue::Int(i64::MAX),
        2 => AttrValue::Str("é\"\\/\u{1F600}\t".into()),
        _ => gen::attr_value(rng),
    }
}

/// A JSON string literal, escaped one char at a time.
fn reference_escaped(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The outcome encoding the buffer encoders must reproduce byte for byte.
fn reference_outcome(o: &DecisionOutcome) -> String {
    let mut out = format!(
        "{{\"decision\": \"{}\", \"enforcement\": {}, \"obligations\": [",
        o.decision,
        match &o.enforcement {
            Some(e) => format!("\"{e}\""),
            None => "null".to_string(),
        },
    );
    for (i, ob) in o.obligations.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"id\": {}, \"action\": {}, \"deadline\": {}, \"penalty\": {}}}",
            reference_escaped(&ob.id),
            reference_escaped(&ob.action),
            ob.deadline,
            ob.penalty
        );
    }
    let _ = write!(
        out,
        "], \"penalty\": {}, \"epoch\": {}, \"degraded\": {}}}",
        o.penalty,
        o.epoch,
        o.error.is_some()
    );
    out
}

fn reference_batch(outcomes: &[DecisionOutcome]) -> String {
    let epoch = outcomes
        .first()
        .map_or("null".to_string(), |o| o.epoch.to_string());
    let items: Vec<String> = outcomes.iter().map(reference_outcome).collect();
    format!(
        "{{\"count\": {}, \"epoch\": {epoch}, \"outcomes\": [{}]}}",
        outcomes.len(),
        items.join(", ")
    )
}

/// One body through the handler and through the reference.
fn check_body(
    pin: &mut PdpPin,
    policies: &[Policy],
    combining: CombiningAlg,
    body: &str,
    batch: bool,
    fault: Option<Fault>,
) -> Result<(), String> {
    let mut got = String::new();
    let (status, decisions) = server::decide_body(pin, batch, body.as_bytes(), &mut got);
    if fault == Some(Fault::DuplicateRequests) {
        // The deliberate divergence: refused, where the tree path takes
        // the last member.
        if status != 400 || !got.contains("duplicate") {
            return Err(format!("duplicate \"requests\" answered {status} {got}"));
        }
        return Ok(());
    }
    let (want_status, want, want_decisions) = match wire::reference_decode(body.as_bytes(), batch) {
        Err(msg) => (
            400,
            format!("{{\"error\": {}}}", reference_escaped(&msg)),
            0,
        ),
        Ok(requests) => {
            let outcomes: Vec<DecisionOutcome> = if batch {
                pin.decide_batch(&requests)
            } else {
                requests.iter().map(|r| pin.decide(r)).collect()
            };
            for (i, (o, r)) in outcomes.iter().zip(&requests).enumerate() {
                let reference = reference::effects_reference(policies, combining, r);
                if o.effects() != reference {
                    return Err(format!(
                        "request[{i}] served {:?} != reference {reference:?}",
                        o.effects()
                    ));
                }
            }
            let encoded = if batch {
                reference_batch(&outcomes)
            } else {
                reference_outcome(&outcomes[0])
            };
            (200, encoded, requests.len())
        }
    };
    if (status, &got, decisions) != (want_status, &want, want_decisions) {
        return Err(format!(
            "handler answered {status} ({decisions} decisions) {got}\n  \
             reference {want_status} ({want_decisions} decisions) {want}"
        ));
    }
    // A truncated body may still be whole (cut in trailing whitespace).
    if status == 200 && fault.is_some_and(|f| f != Fault::Truncated) {
        return Err(format!("fault {fault:?} was accepted"));
    }
    Ok(())
}

/// One seeded wire case (see the module docs). The error message leads
/// with the seed and ends with the repro call.
///
/// # Errors
///
/// The first disagreement, with the body that shows it.
pub fn run_wire_case(seed: u64) -> Result<(), String> {
    let ctx = |msg: String| format!("seed={seed} kind=wire: {msg} (repro: run_wire_case({seed}))");
    let mut rng = gen::rng_for(seed);
    let (policies, combining) = gen::policy_set(&mut rng);
    let mut requests = gen::request_stream(&mut rng, 12);
    requests.extend(gen::out_of_vocabulary_requests(&mut rng, 4));
    if rng.gen_bool(0.3) {
        let at = rng.gen_range(0..requests.len());
        requests[at].set(agenp_policy::Category::Subject, "level", i64::MAX);
    }
    let handle = PdpHandle::new();
    handle.publish(DecisionSnapshot::new(policies.clone(), combining));
    let mut pin = handle.pin();

    let pick = |rng: &mut StdRng, batch: bool| -> Option<Fault> {
        if rng.gen_bool(0.5) {
            return None;
        }
        let f = FAULTS[rng.gen_range(0..FAULTS.len())];
        (batch || f != Fault::DuplicateRequests).then_some(f)
    };
    let mut bodies: Vec<(String, bool, Option<Fault>)> = Vec::new();
    let fault = pick(&mut rng, true);
    let mut w = Writer {
        rng: &mut rng,
        out: String::new(),
    };
    w.batch(&requests, fault);
    if fault == Some(Fault::Truncated) {
        w.truncate();
    }
    bodies.push((w.out, true, fault));
    for request in requests.iter().take(4) {
        let fault = pick(&mut rng, false);
        let mut w = Writer {
            rng: &mut rng,
            out: String::new(),
        };
        w.request(request, fault);
        if fault == Some(Fault::Truncated) {
            w.truncate();
        }
        bodies.push((w.out, false, fault));
    }
    for (body, batch, fault) in &bodies {
        check_body(&mut pin, &policies, combining, body, *batch, *fault)
            .map_err(|m| ctx(format!("{m}\n  body {}", json_preview(body))))?;
    }
    Ok(())
}

/// The body, shortened for a failure message.
fn json_preview(body: &str) -> String {
    let mut end = body.len().min(600);
    while !body.is_char_boundary(end) {
        end -= 1;
    }
    let mut out = String::new();
    json::push_escaped(&mut out, &body[..end]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_cases_agree() {
        for seed in 0..64 {
            run_wire_case(seed).unwrap();
        }
    }
}
