//! The load side of the decide workloads: a keep-alive HTTP/1.1 client and
//! a checker that compares each decision on the wire with the reference
//! effects. Both are the benchmark's own code, so a change to the daemon's
//! HTTP or JSON layer changes only the server side of what is measured.

use agenp_policy::{Decision, DecisionEffects};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a response may take before the request counts as failed.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// One keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Conn {
    /// Connects with Nagle off and the response timeout armed.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
            start: 0,
        })
    }

    /// Writes one request and reads its response: `(status, body)`.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<(u16, &[u8])> {
        self.stream.write_all(request)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<(u16, &[u8])> {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        let head_end = loop {
            if let Some(i) = find(&self.buf[self.start..], b"\r\n\r\n") {
                break self.start + i;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[self.start..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        for line in lines {
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let body_start = head_end + 4;
        while self.buf.len() < body_start + length {
            self.fill()?;
        }
        self.start = body_start + length;
        Ok((status, &self.buf[body_start..body_start + length]))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Checks a `/decide` response body against `expected`: decision,
/// obligations (in order, every field) and penalty must match, and the
/// outcome must not be degraded. Returns the serving epoch.
pub fn check_outcome(body: &[u8], expected: &DecisionEffects) -> Result<u64, String> {
    let mut c = Cursor { b: body, i: 0 };
    let epoch = c.outcome(expected)?;
    c.end()?;
    Ok(epoch)
}

/// Checks a `/decide_batch` response: the envelope's count and epoch, and
/// each outcome against `expected(i)`. Returns the epoch and the indices
/// of mismatched elements with the first mismatch's reason; an error means
/// the envelope itself is unusable.
pub fn check_batch<'e>(
    body: &[u8],
    count: usize,
    expected: impl Fn(usize) -> &'e DecisionEffects,
) -> Result<(u64, usize, Option<String>), String> {
    let mut c = Cursor { b: body, i: 0 };
    let mut epoch = None;
    let mut seen_count = None;
    let mut outcomes = 0usize;
    let mut mismatches = 0usize;
    let mut first_reason = None;
    c.object(|c, key| {
        match key {
            "count" => seen_count = Some(c.int()?),
            "epoch" => epoch = Some(c.int()? as u64),
            "outcomes" => c.array(|c| {
                let i = outcomes;
                outcomes += 1;
                if i >= count {
                    return Err(format!("more than {count} outcomes"));
                }
                match c.outcome(expected(i)) {
                    Ok(e) if Some(e) == epoch => {}
                    Ok(e) => {
                        mismatches += 1;
                        first_reason.get_or_insert(format!(
                            "outcome {i} at epoch {e}, envelope at {epoch:?} (torn batch)"
                        ));
                    }
                    Err(reason) if reason.starts_with("json:") => return Err(reason),
                    Err(reason) => {
                        mismatches += 1;
                        first_reason.get_or_insert(format!("outcome {i}: {reason}"));
                    }
                }
                Ok(())
            })?,
            _ => c.skip()?,
        }
        Ok(())
    })?;
    c.end()?;
    if seen_count != Some(count as i64) || outcomes != count {
        return Err(format!(
            "batch of {count} answered with count {seen_count:?} and {outcomes} outcomes"
        ));
    }
    let epoch = epoch.ok_or("batch envelope without an epoch")?;
    Ok((epoch, mismatches, first_reason))
}

/// The wire name of a decision.
fn decision_name(d: Decision) -> &'static str {
    match d {
        Decision::Permit => "Permit",
        Decision::Deny => "Deny",
        Decision::NotApplicable => "NotApplicable",
        Decision::Indeterminate => "Indeterminate",
    }
}

/// A minimal pull parser over a JSON document. Syntax errors are reported
/// with a `json:` prefix; semantic mismatches without it.
struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl Cursor<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, ch: u8) -> Result<(), String> {
        if self.peek() == Some(ch) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "json: expected '{}' at byte {}",
                ch as char, self.i
            ))
        }
    }

    fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("json: trailing bytes at {}", self.i)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&ch) = self.b.get(self.i) else {
                return Err("json: unterminated string".into());
            };
            self.i += 1;
            match ch {
                b'"' => break,
                b'\\' => {
                    let esc = *self.b.get(self.i).ok_or("json: bad escape")?;
                    self.i += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("json: bad \\u escape")?;
                            self.i += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            let mut tmp = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut tmp).as_bytes());
                        }
                        _ => return Err("json: bad escape".into()),
                    }
                }
                _ => out.push(ch),
            }
        }
        String::from_utf8(out).map_err(|_| "json: string is not UTF-8".into())
    }

    fn int(&mut self) -> Result<i64, String> {
        self.ws();
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("json: expected an integer at byte {start}"))
    }

    fn literal(&mut self) -> Result<&'static str, String> {
        self.ws();
        for word in ["true", "false", "null"] {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                return Ok(word);
            }
        }
        Err(format!("json: expected a literal at byte {}", self.i))
    }

    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            member(self, &key)?;
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(format!("json: bad object at byte {}", self.i)),
            }
        }
    }

    fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'[')?;
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(format!("json: bad array at byte {}", self.i)),
            }
        }
    }

    fn skip(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'{') => self.object(|c, _| c.skip()),
            Some(b'[') => self.array(Cursor::skip),
            Some(b'-' | b'0'..=b'9') => {
                while self
                    .b
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                {
                    self.i += 1;
                }
                Ok(())
            }
            _ => self.literal().map(drop),
        }
    }

    /// One outcome object compared with `expected`; returns its epoch. A
    /// semantic mismatch still consumes the whole object, so a batch can
    /// go on to its next element.
    fn outcome(&mut self, expected: &DecisionEffects) -> Result<u64, String> {
        let mut epoch = None;
        let mut decision_ok = None;
        let mut penalty_ok = None;
        let mut obligations_ok = None;
        let mut degraded = None;
        self.object(|c, key| {
            match key {
                "decision" => decision_ok = Some(c.string()? == decision_name(expected.decision)),
                "penalty" => penalty_ok = Some(c.int()? == i64::from(expected.penalty)),
                "epoch" => epoch = Some(c.int()? as u64),
                "degraded" => degraded = Some(c.literal()?),
                "obligations" => {
                    let mut n = 0usize;
                    let mut ok = true;
                    c.array(|c| {
                        let want = expected.obligations.get(n);
                        n += 1;
                        let (mut id, mut action, mut deadline, mut penalty) =
                            (None, None, None, None);
                        c.object(|c, k| {
                            match k {
                                "id" => id = Some(c.string()?),
                                "action" => action = Some(c.string()?),
                                "deadline" => deadline = Some(c.int()?),
                                "penalty" => penalty = Some(c.int()?),
                                _ => c.skip()?,
                            }
                            Ok(())
                        })?;
                        ok &= want.is_some_and(|w| {
                            id.as_deref() == Some(w.id.as_str())
                                && action.as_deref() == Some(w.action.as_str())
                                && deadline == i64::try_from(w.deadline).ok()
                                && penalty == Some(i64::from(w.penalty))
                        });
                        Ok(())
                    })?;
                    obligations_ok = Some(ok && n == expected.obligations.len());
                }
                _ => c.skip()?,
            }
            Ok(())
        })?;
        let epoch = epoch.ok_or("outcome without an epoch")?;
        if decision_ok != Some(true) {
            return Err(format!(
                "decision differs from {}",
                decision_name(expected.decision)
            ));
        }
        if obligations_ok != Some(true) {
            return Err("obligations differ from the reference".into());
        }
        if penalty_ok != Some(true) {
            return Err(format!("penalty differs from {}", expected.penalty));
        }
        if degraded != Some("false") {
            return Err("degraded or unmarked outcome".into());
        }
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_policy::Obligation;

    fn fx(decision: Decision, obligations: Vec<Obligation>, penalty: u32) -> DecisionEffects {
        DecisionEffects {
            decision,
            obligations,
            penalty,
        }
    }

    #[test]
    fn matching_outcomes_pass_and_return_their_epoch() {
        let want = fx(
            Decision::Deny,
            vec![Obligation::new("ob-log", "ob-log-act", 3).with_penalty(2)],
            4,
        );
        let body = br#"{"decision": "Deny", "enforcement": "Blocked", "obligations": [{"id": "ob-log", "action": "ob-log-act", "deadline": 3, "penalty": 2}], "penalty": 4, "epoch": 9, "cached": true, "degraded": false}"#;
        assert_eq!(check_outcome(body, &want), Ok(9));
    }

    #[test]
    fn every_effect_field_is_compared() {
        let want = fx(Decision::Permit, vec![], 0);
        let good =
            br#"{"decision":"Permit","obligations":[],"penalty":0,"epoch":1,"degraded":false}"#;
        assert_eq!(check_outcome(good, &want), Ok(1));
        for bad in [
            &br#"{"decision":"Deny","obligations":[],"penalty":0,"epoch":1,"degraded":false}"#[..],
            br#"{"decision":"Permit","obligations":[{"id":"x","action":"y","deadline":1,"penalty":0}],"penalty":0,"epoch":1,"degraded":false}"#,
            br#"{"decision":"Permit","obligations":[],"penalty":3,"epoch":1,"degraded":false}"#,
            br#"{"decision":"Permit","obligations":[],"penalty":0,"epoch":1,"degraded":true}"#,
            br#"{"decision":"Permit","obligations":[],"penalty":0,"degraded":false}"#,
            br#"{"decision":"Permit","obligations":[],"penalty":0,"epoch":1,"degraded":false"#,
        ] {
            assert!(check_outcome(bad, &want).is_err(), "{}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn batches_count_mismatches_per_element_and_reject_torn_epochs() {
        let permit = fx(Decision::Permit, vec![], 0);
        let deny = fx(Decision::Deny, vec![], 0);
        let want = [permit.clone(), deny.clone()];
        let body = br#"{"count": 2, "epoch": 4, "outcomes": [{"decision": "Permit", "obligations": [], "penalty": 0, "epoch": 4, "degraded": false}, {"decision": "Permit", "obligations": [], "penalty": 0, "epoch": 4, "degraded": false}]}"#;
        let (epoch, mismatches, reason) = check_batch(body, 2, |i| &want[i]).unwrap();
        assert_eq!((epoch, mismatches), (4, 1));
        assert!(reason.unwrap().starts_with("outcome 1"));
        let torn = br#"{"count": 1, "epoch": 4, "outcomes": [{"decision": "Permit", "obligations": [], "penalty": 0, "epoch": 3, "degraded": false}]}"#;
        assert_eq!(check_batch(torn, 1, |_| &permit).unwrap().1, 1);
        assert!(check_batch(torn, 2, |_| &permit).is_err());
    }
}
