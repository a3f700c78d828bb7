//! The PDP wire protocol: JSON shapes for requests and decision outcomes
//! (documented in `docs/SERVING.md`).
//!
//! A request is an object of per-category attribute objects; values may be
//! strings, integers, or booleans — exactly the [`AttrValue`] model:
//!
//! ```json
//! {"subject": {"role": "dba", "age": 30},
//!  "resource": {"type": "internal"},
//!  "action": {"action-id": "read"},
//!  "environment": {"emergency": false}}
//! ```
//!
//! An outcome carries the decision, its obligations and penalty
//! annotation, the PEP enforcement, the serving epoch, and degradation
//! status:
//!
//! ```json
//! {"decision": "Permit", "enforcement": "Granted",
//!  "obligations": [{"id": "audit", "action": "audit-log",
//!                   "deadline": 10, "penalty": 2}],
//!  "penalty": 0, "epoch": 7, "degraded": false}
//! ```
//!
//! The serving path never builds a [`Json`] tree or a [`Request`]:
//! [`decode_request`] and [`decode_batch`] read the body in one pass of
//! the [`Lexer`] and resolve each attribute straight into a
//! [`ResolvedBatch`] of value codes; [`push_outcome`] and [`push_batch`]
//! append the response to one buffer. [`request_from_json`] over
//! [`json::parse`] stays as the tree-based reference the decoder is
//! tested against.

use crate::json::{self, Json, JsonError, Lexer, Token};
use agenp_core::arch::DecisionOutcome;
use agenp_policy::{AttrRef, AttrValue, Category, Request, ResolvedBatch};
use std::fmt::Write as _;

/// Decodes the wire form of an access request.
///
/// # Errors
///
/// A message naming the offending member on shape violations.
pub fn request_from_json(value: &Json) -> Result<Request, String> {
    let members = value
        .as_obj()
        .ok_or_else(|| "request must be a JSON object".to_string())?;
    let mut request = Request::new();
    for (key, attrs) in members {
        let category = match key.as_str() {
            "subject" => Category::Subject,
            "resource" => Category::Resource,
            "action" => Category::Action,
            "environment" => Category::Environment,
            other => return Err(format!("unknown attribute category {other:?}")),
        };
        let attrs = attrs
            .as_obj()
            .ok_or_else(|| format!("category {key:?} must be an object"))?;
        for (name, v) in attrs {
            let value: AttrValue = match v {
                Json::Str(s) => s.as_str().into(),
                Json::Int(i) => (*i).into(),
                Json::Bool(b) => (*b).into(),
                other => {
                    return Err(format!(
                        "attribute {key}.{name} must be a string, integer, or boolean \
                         (got {other:?})"
                    ))
                }
            };
            request.set(category, name, value);
        }
    }
    Ok(request)
}

/// The tree-based reference for [`decode_request`] (`batch` false) and
/// [`decode_batch`]: the body through [`json::parse`] and
/// [`request_from_json`] into [`Request`]s, failing with the same texts.
/// The one-pass decoders are tested against it; it is not on the serving
/// path.
///
/// # Errors
///
/// The 400 message the handler answers with.
pub fn reference_decode(body: &[u8], batch: bool) -> Result<Vec<Request>, String> {
    let value = json::parse(utf8(body)?).map_err(|e| format!("bad JSON: {e}"))?;
    if !batch {
        let request = request_from_json(&value).map_err(|e| format!("bad request shape: {e}"))?;
        return Ok(vec![request]);
    }
    let items = value
        .get("requests")
        .and_then(Json::as_arr)
        .ok_or_else(|| BATCH_SHAPE.to_string())?;
    items
        .iter()
        .enumerate()
        .map(|(i, v)| request_from_json(v).map_err(|e| format!("bad request at index {i}: {e}")))
        .collect()
}

/// Encodes a request in the wire form (the client half).
pub fn request_to_json(request: &Request) -> String {
    let mut out = String::with_capacity(64);
    out.push('{');
    let mut current: Option<Category> = None;
    for (category, name, value) in request.iter() {
        if current != Some(category) {
            if current.is_some() {
                out.push_str("}, ");
            }
            json::push_escaped(&mut out, category.name());
            out.push_str(": {");
            current = Some(category);
        } else {
            out.push_str(", ");
        }
        json::push_escaped(&mut out, name);
        out.push_str(": ");
        match value {
            AttrValue::Str(s) => json::push_escaped(&mut out, s),
            AttrValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    if current.is_some() {
        out.push('}');
    }
    out.push('}');
    out
}

/// Why a body failed to decode: malformed JSON, or well-formed JSON of the
/// wrong shape (the message as [`request_from_json`] words it).
enum Fault {
    Json(JsonError),
    Shape(String),
}

impl From<JsonError> for Fault {
    fn from(e: JsonError) -> Fault {
        Fault::Json(e)
    }
}

impl Fault {
    /// A shape fault's message prefixed with `context`.
    fn within(self, context: impl FnOnce() -> String) -> Fault {
        match self {
            Fault::Shape(msg) => Fault::Shape(context() + &msg),
            json => json,
        }
    }

    /// The error text the handler answers with for body `text`. A shape
    /// fault defers to any syntax error anywhere in the body, as parsing
    /// the whole tree first would.
    fn message(self, text: &str) -> String {
        match self {
            Fault::Json(e) => format!("bad JSON: {e}"),
            Fault::Shape(msg) => match json::validate(text) {
                Err(e) => format!("bad JSON: {e}"),
                Ok(()) => msg,
            },
        }
    }
}

/// What [`decode_batch`] answers for a body that is not
/// `{"requests": [...]}`.
const BATCH_SHAPE: &str = "body must be {\"requests\": [...]}";

/// One body's decode: the lexer, two escape buffers (an attribute's name
/// and value are held at once) and the batch being filled.
struct Decoder<'t, 'b, 's> {
    text: &'t str,
    lexer: Lexer<'t>,
    names: String,
    values: String,
    batch: &'b mut ResolvedBatch<'s>,
}

impl<'t, 'b, 's> Decoder<'t, 'b, 's> {
    fn new(text: &'t str, batch: &'b mut ResolvedBatch<'s>) -> Decoder<'t, 'b, 's> {
        Decoder {
            text,
            lexer: Lexer::new(text),
            names: String::new(),
            values: String::new(),
            batch,
        }
    }

    /// One request object at nesting `depth`, appended to the batch.
    /// Duplicate category objects merge and a duplicated attribute keeps
    /// its last value, as in [`request_from_json`].
    fn request(&mut self, depth: usize) -> Result<(), Fault> {
        if self.lexer.value(depth, &mut self.values)? != Token::Obj {
            return Err(Fault::Shape("request must be a JSON object".into()));
        }
        self.batch.push();
        let mut first = true;
        while let Some(key) = self.lexer.next_key(first, &mut self.names)? {
            first = false;
            let category = match key {
                "subject" => Category::Subject,
                "resource" => Category::Resource,
                "action" => Category::Action,
                "environment" => Category::Environment,
                other => {
                    return Err(Fault::Shape(format!(
                        "unknown attribute category {other:?}"
                    )))
                }
            };
            if self.lexer.value(depth + 1, &mut self.values)? != Token::Obj {
                return Err(Fault::Shape(format!(
                    "category {:?} must be an object",
                    category.name()
                )));
            }
            let mut first_attr = true;
            while let Some(name) = self.lexer.next_key(first_attr, &mut self.names)? {
                first_attr = false;
                let start = self.lexer.pos();
                let value = match self.lexer.value(depth + 2, &mut self.values)? {
                    Token::Str(s) => AttrRef::Str(s),
                    Token::Int(i) => AttrRef::Int(i),
                    Token::Bool(b) => AttrRef::Bool(b),
                    _ => {
                        // Word it as the tree path does, over the value's
                        // tree; a syntax error inside it wins anyway.
                        let got = Lexer::at(self.text, start)
                            .tree(depth + 2, &mut String::new())
                            .map_or_else(|_| String::new(), |v| format!("{v:?}"));
                        return Err(Fault::Shape(format!(
                            "attribute {}.{name} must be a string, integer, or boolean \
                             (got {got})",
                            category.name()
                        )));
                    }
                };
                self.batch.set(category, name, value);
            }
        }
        Ok(())
    }

    /// A `/decide_batch` body: `{"requests": [...]}`, other top-level
    /// members skipped. A second `"requests"` member is refused rather
    /// than silently shadowing the first.
    fn batch(&mut self) -> Result<(), Fault> {
        if self.lexer.value(0, &mut self.values)? != Token::Obj {
            return Err(Fault::Shape(BATCH_SHAPE.into()));
        }
        let mut seen = false;
        let mut first = true;
        while let Some(key) = self.lexer.next_key(first, &mut self.names)? {
            first = false;
            if key != "requests" {
                self.lexer.skip_value(1, &mut self.values)?;
                continue;
            }
            if std::mem::replace(&mut seen, true) {
                return Err(Fault::Shape(format!(
                    "{BATCH_SHAPE}: duplicate \"requests\" member"
                )));
            }
            if self.lexer.value(1, &mut self.values)? != Token::Arr {
                return Err(Fault::Shape(BATCH_SHAPE.into()));
            }
            let mut i = 0;
            while self.lexer.next_item(i == 0)? {
                self.request(2)
                    .map_err(|f| f.within(|| format!("bad request at index {i}: ")))?;
                i += 1;
            }
        }
        if !seen {
            return Err(Fault::Shape(BATCH_SHAPE.into()));
        }
        Ok(self.lexer.finish()?)
    }
}

fn utf8(body: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())
}

/// Decodes a `/decide` body — one request in the wire form — straight
/// into `batch`, in one pass and without building a [`Json`] tree or a
/// [`Request`]. Decides exactly as [`request_from_json`] over
/// [`json::parse`] would, and fails with the same text.
///
/// # Errors
///
/// The handler's 400 message: `body is not UTF-8`, `bad JSON: ...` or
/// `bad request shape: ...`.
pub fn decode_request(body: &[u8], batch: &mut ResolvedBatch<'_>) -> Result<(), String> {
    let text = utf8(body)?;
    let mut decoder = Decoder::new(text, batch);
    decoder
        .request(0)
        .map_err(|f| f.within(|| "bad request shape: ".into()))
        .and_then(|()| Ok(decoder.lexer.finish()?))
        .map_err(|f| f.message(text))
}

/// Decodes a `/decide_batch` body, `{"requests": [...]}`, straight into
/// `batch`, as [`decode_request`] does for one request.
///
/// One deliberate difference from the tree path: a body with two
/// `"requests"` members is refused, where [`Json::get`] would silently
/// take the last.
///
/// # Errors
///
/// The handler's 400 message: `body is not UTF-8`, `bad JSON: ...`, `body
/// must be {"requests": [...]}` or `bad request at index N: ...`.
pub fn decode_batch(body: &[u8], batch: &mut ResolvedBatch<'_>) -> Result<(), String> {
    let text = utf8(body)?;
    Decoder::new(text, batch)
        .batch()
        .map_err(|f| f.message(text))
}

/// Appends a decision outcome in the wire form to `out`.
pub fn push_outcome(out: &mut String, outcome: &DecisionOutcome) {
    out.push_str("{\"decision\": \"");
    out.push_str(outcome.decision.name());
    out.push_str("\", \"enforcement\": ");
    match outcome.enforcement {
        Some(e) => {
            out.push('"');
            out.push_str(e.name());
            out.push('"');
        }
        None => out.push_str("null"),
    }
    out.push_str(", \"obligations\": [");
    for (i, ob) in outcome.obligations.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"id\": ");
        json::push_escaped(out, &ob.id);
        out.push_str(", \"action\": ");
        json::push_escaped(out, &ob.action);
        out.push_str(", \"deadline\": ");
        json::push_u64(out, ob.deadline);
        out.push_str(", \"penalty\": ");
        json::push_u64(out, u64::from(ob.penalty));
        out.push('}');
    }
    out.push_str("], \"penalty\": ");
    json::push_u64(out, u64::from(outcome.penalty));
    out.push_str(", \"epoch\": ");
    json::push_u64(out, outcome.epoch);
    out.push_str(", \"degraded\": ");
    out.push_str(if outcome.error.is_some() {
        "true}"
    } else {
        "false}"
    });
}

/// Encodes a decision outcome in the wire form.
pub fn outcome_to_json(outcome: &DecisionOutcome) -> String {
    let mut out = String::with_capacity(96);
    push_outcome(&mut out, outcome);
    out
}

/// Appends a whole batch to `out`: the shared epoch once, then each
/// outcome.
pub fn push_batch(out: &mut String, outcomes: &[DecisionOutcome]) {
    out.push_str("{\"count\": ");
    json::push_u64(out, outcomes.len() as u64);
    out.push_str(", \"epoch\": ");
    // An empty batch has no epoch to report.
    match outcomes.first() {
        Some(o) => json::push_u64(out, o.epoch),
        None => out.push_str("null"),
    }
    out.push_str(", \"outcomes\": [");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_outcome(out, o);
    }
    out.push_str("]}");
}

/// Encodes a whole batch: the shared epoch once, then each outcome.
pub fn batch_to_json(outcomes: &[DecisionOutcome]) -> String {
    let mut out = String::with_capacity(64 + 96 * outcomes.len());
    push_batch(&mut out, outcomes);
    out
}

/// Appends a JSON error body, `{"error": "..."}`, to `out`.
pub fn push_error(out: &mut String, message: &str) {
    out.push_str("{\"error\": ");
    json::push_escaped(out, message);
    out.push('}');
}

/// A JSON error body: `{"error": "..."}`.
pub fn error_body(message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 14);
    push_error(&mut out, message);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_json_round_trips() {
        let request = Request::new()
            .subject("role", "dba")
            .subject("age", 30i64)
            .resource("type", "internal")
            .action("action-id", "read")
            .environment("emergency", true);
        let encoded = request_to_json(&request);
        let decoded = request_from_json(&json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(decoded.canonical_key(), request.canonical_key());
    }

    #[test]
    fn empty_request_round_trips() {
        let encoded = request_to_json(&Request::new());
        assert_eq!(encoded, "{}");
        assert!(request_from_json(&json::parse(&encoded).unwrap())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn outcome_json_carries_obligations_and_penalty() {
        use agenp_policy::{Decision, Enforcement, Obligation};
        let outcome = DecisionOutcome {
            decision: Decision::Permit,
            obligations: vec![
                Obligation::new("audit", "audit-log", 10).with_penalty(2),
                Obligation::new("notify", "notify-owner", 5),
            ],
            penalty: 0,
            enforcement: Some(Enforcement::Granted),
            error: None,
            epoch: 7,
        };
        let encoded = outcome_to_json(&outcome);
        let v = json::parse(&encoded).unwrap();
        let obj = v.as_obj().unwrap();
        let obligations = obj
            .iter()
            .find(|(k, _)| k == "obligations")
            .and_then(|(_, v)| v.as_arr())
            .unwrap();
        assert_eq!(obligations.len(), 2);
        let first = obligations[0].as_obj().unwrap();
        let field = |name: &str| {
            first
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(field("id"), Some(Json::Str("audit".into())));
        assert_eq!(field("action"), Some(Json::Str("audit-log".into())));
        assert_eq!(field("deadline"), Some(Json::Int(10)));
        assert_eq!(field("penalty"), Some(Json::Int(2)));
        assert!(encoded.contains("\"penalty\": 0, \"epoch\": 7"));
        // An annotation-free outcome keeps the fields, empty/zero.
        let bare = DecisionOutcome {
            decision: Decision::Deny,
            obligations: vec![],
            penalty: 4,
            enforcement: Some(Enforcement::Blocked),
            error: None,
            epoch: 7,
        };
        let bare_json = outcome_to_json(&bare);
        assert!(bare_json.contains("\"obligations\": []"));
        assert!(bare_json.contains("\"penalty\": 4"));
        json::parse(&bare_json).unwrap();
    }

    use agenp_policy::{CombiningAlg, CompiledPolicySet, Cond, CondOp, Effect, Policy, PolicyRule};

    /// Two policies over `subject.role`, `subject.age` and `action.id`.
    fn set() -> CompiledPolicySet {
        let policies = vec![
            Policy::new(
                "roles",
                vec![
                    PolicyRule::new(
                        "dba",
                        Effect::Permit,
                        Cond::eq(Category::Subject, "role", "dba"),
                    ),
                    PolicyRule::new(
                        "minor",
                        Effect::Deny,
                        Cond::cmp(Category::Subject, "age", CondOp::Lt, 18i64),
                    ),
                ],
            ),
            Policy::new(
                "writes",
                vec![PolicyRule::new(
                    "no-write",
                    Effect::Deny,
                    Cond::eq(Category::Action, "id", "write"),
                )],
            ),
        ];
        CompiledPolicySet::new(&policies, CombiningAlg::DenyOverrides)
    }

    /// The one-pass decoder and the tree reference agree: the same error
    /// text, or the same effects for every request.
    fn agree(set: &CompiledPolicySet, body: &str, batch: bool) {
        let mut resolved = ResolvedBatch::new(set);
        let got = if batch {
            decode_batch(body.as_bytes(), &mut resolved)
        } else {
            decode_request(body.as_bytes(), &mut resolved)
        };
        match (got, reference_decode(body.as_bytes(), batch)) {
            (Ok(()), Ok(requests)) => {
                let want: Vec<_> = requests.iter().map(|r| set.decide_effects(r)).collect();
                let got: Vec<_> = resolved.effects().collect();
                assert_eq!(got, want, "{body}");
            }
            (got, want) => assert_eq!(got, want.map(drop), "{body}"),
        }
    }

    #[test]
    fn decoder_matches_the_tree_path() {
        let set = set();
        let singles = [
            r#"{"subject": {"role": "dba", "age": 30}, "action": {"id": "read"}}"#,
            r#" { "action" : { "id" : "write" } , "subject" : { "role" : "dba" } } "#,
            // Escapes in names and values resolve like their plain text.
            r#"{"subj\u0065ct": {"r\u006fle": "d\u0062a"}}"#,
            // Duplicate categories merge; a duplicated attribute keeps
            // its last value.
            r#"{"subject": {"role": "dba"}, "subject": {"age": 12}}"#,
            r#"{"subject": {"role": "dba", "role": "guest"}}"#,
            r#"{"subject": {"role": "guest", "role": "dba"}}"#,
            // Attributes no policy references, and integer bounds.
            r#"{"subject": {"shoe": 44, "age": -9223372036854775808}}"#,
            r#"{"subject": {"age": 9223372036854775807}}"#,
            r#"{}"#,
            // Faults, one per body.
            r#"{"subject": {"age": 1.0}}"#,
            r#"{"subject": {"age": 1e2}}"#,
            r#"{"subject": {"age": 9223372036854775808}}"#,
            r#"{"subject": {"role": null}}"#,
            r#"{"subject": {"role": ["dba"]}}"#,
            r#"{"subject": {"role": {"x": [1, {"y": 2}]}}}"#,
            r#"{"tenant": {"id": 1}}"#,
            r#"{"subject": 3}"#,
            r#"[{"subject": {}}]"#,
            r#""subject""#,
            r#"{"subject": {"role": "dba"}"#,
            r#"{"subject": {"role": "dba"}} x"#,
            r#"{"subject": {"role": "d\qba"}}"#,
            "",
            // A shape fault before a syntax fault: the syntax fault wins.
            r#"{"tenant": {}, "subject": {"role": }}"#,
        ];
        for body in singles {
            agree(&set, body, false);
        }
        let deep = "[".repeat(70) + &"]".repeat(70);
        agree(
            &set,
            &format!(r#"{{"subject": {{"role": {deep}}}}}"#),
            false,
        );
        let batches = [
            r#"{"requests": [{"subject": {"role": "dba"}}, {"action": {"id": "write"}}]}"#,
            r#"{"meta": {"trace": [1, 2, {"x": null}]}, "requests": []}"#,
            r#"{"requests": [{}], "meta": "after"}"#,
            r#"{"requests": [{"subject": {"role": "dba"}}, 5]}"#,
            r#"{"requests": [{"subject": {"role": "dba"}}, {"subject": {"age": 2.5}}]}"#,
            r#"{"requests": {"subject": {}}}"#,
            r#"{"request": []}"#,
            r#"[]"#,
            r#"{"requests": [{"subject": {"role": "dba"}},]}"#,
            r#"{"requests": [{"bogus": {}}], "tail": [}"#,
        ];
        for body in batches {
            agree(&set, body, true);
        }
        agree(
            &set,
            &format!(r#"{{"meta": {deep}, "requests": []}}"#),
            true,
        );
    }

    #[test]
    fn a_duplicated_requests_member_is_refused() {
        let body = br#"{"requests": [{"subject": {"role": "dba"}}], "requests": []}"#;
        let set = set();
        let mut resolved = ResolvedBatch::new(&set);
        assert_eq!(
            decode_batch(body, &mut resolved),
            Err(format!("{BATCH_SHAPE}: duplicate \"requests\" member"))
        );
        // The tree path takes the last member.
        assert_eq!(reference_decode(body, true), Ok(vec![]));
    }

    #[test]
    fn non_utf8_bodies_are_refused() {
        let set = set();
        let mut resolved = ResolvedBatch::new(&set);
        let body = b"{\"subject\": {\"role\": \"\xff\"}}";
        assert_eq!(
            decode_request(body, &mut resolved),
            Err("body is not UTF-8".to_string())
        );
        assert_eq!(
            reference_decode(body, false).map(drop),
            decode_request(body, &mut resolved)
        );
    }

    #[test]
    fn bad_shapes_are_rejected() {
        for bad in [
            "[1]",
            "{\"unknown\": {}}",
            "{\"subject\": 3}",
            "{\"subject\": {\"role\": [1]}}",
            "{\"subject\": {\"role\": 2.5}}",
        ] {
            let v = json::parse(bad).unwrap();
            assert!(request_from_json(&v).is_err(), "{bad} should be rejected");
        }
    }
}
