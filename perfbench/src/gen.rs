//! Seeded workload inputs. Everything a workload sends or serves is a pure
//! function of the `--seed` argument: the same seed gives byte-identical
//! request streams and identical policy sets. Requests are serialized by
//! the benchmark's own encoder, so the bytes on the wire do not depend on
//! the program under test.

use agenp_core::scenarios::xacml::{ground_truth_policy, XacmlRequest};
use agenp_grammar::{Asg, ProdId};
use agenp_learn::HypothesisSpace;
use agenp_policy::{AttrValue, CombiningAlg, DecisionEffects, Policy, Request};
use agenp_refsem::{gen as refgen, reference};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Requests in the `decide-hot` pool (all distinct).
pub const HOT_POOL: usize = 256;
/// Partner policies in the `decide-coalition` set.
pub const COALITION_POLICIES: usize = 64;
/// Requests in the `decide-coalition` pool (duplicates included).
pub const COALITION_POOL: usize = 131_072;
/// Seed of the `decide-coalition` policy set.
pub const COALITION_POLICY_SEED: u64 = 0xC0A1_1710;
/// Requests per `/decide_batch` body.
pub const BATCH: usize = 64;
/// Clearance levels of the adaptation workloads' grammar.
pub const LEVELS: usize = 48;

/// `GET /healthz` on a keep-alive connection.
pub const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n";

/// One pre-serialized HTTP request and the pool slice it carries.
#[derive(Clone, Debug)]
pub struct Shot {
    /// The request exactly as written to the socket.
    pub bytes: Vec<u8>,
    /// Index of the first pool request it carries.
    pub first: usize,
    /// Pool requests it carries (1 for `/decide`).
    pub len: usize,
}

/// Requests kept as objects for in-process layer timing.
pub const SAMPLE: usize = 4096;
/// Requests generated (and their new distinct ones evaluated by the
/// oracle) per step, so the pool never sits in memory as objects.
const CHUNK: usize = 8192;

/// A decide workload's inputs.
#[derive(Debug)]
pub struct DecideInputs {
    /// The policy set served.
    pub policies: Vec<Policy>,
    /// Top-level combining algorithm.
    pub combining: CombiningAlg,
    /// The pool as HTTP requests, in send order.
    pub shots: Vec<Shot>,
    /// The first `SAMPLE` pool requests.
    pub sample: Vec<Request>,
    /// Expected effects of every pool request.
    pub oracle: Oracle,
}

/// `decide-hot`: the XACML ground-truth policy (K=1) and 256 distinct
/// seeded XACML requests, one `/decide` each. Ages are drawn from a wider
/// band than the scenario's own sampler so 256 distinct requests exist.
pub fn hot(seed: u64) -> DecideInputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: Vec<XacmlRequest> = Vec::with_capacity(HOT_POOL);
    while seen.len() < HOT_POOL {
        let mut r = XacmlRequest::random(&mut rng);
        r.age = rng.gen_range(18..82);
        if !seen.contains(&r) {
            seen.push(r);
        }
    }
    build(
        vec![ground_truth_policy()],
        CombiningAlg::DenyOverrides,
        seen.iter().map(XacmlRequest::to_request),
        1,
    )
}

/// `decide-coalition`: 64 partner policies from the reference generator
/// (order-insensitive combining, obligations, penalties) and a pool of
/// 131,072 generated requests, sent as `/decide_batch` bodies of 64. The
/// policy set is the coalition under test and stays the same for every
/// seed (evaluation cost and memory depend strongly on its draw); the seed
/// varies the traffic.
pub fn coalition(seed: u64) -> DecideInputs {
    let mut rng = refgen::rng_for(COALITION_POLICY_SEED);
    let combining = refgen::order_insensitive_combining(&mut rng);
    let mut policies: Vec<Policy> = Vec::with_capacity(COALITION_POLICIES);
    while policies.len() < COALITION_POLICIES {
        let (set, _) = refgen::order_insensitive_policy_set(&mut rng);
        for mut p in set {
            if policies.len() < COALITION_POLICIES {
                p.id = format!("partner{}", policies.len());
                policies.push(p);
            }
        }
    }
    let mut rng = refgen::rng_for(seed);
    let requests = (0..COALITION_POOL).map(move |_| refgen::request(&mut rng));
    build(policies, combining, requests, BATCH)
}

/// Serializes `requests` into shots of `batch` (1 = `/decide`) and
/// evaluates each distinct request with the reference PDP, a chunk at a
/// time.
fn build(
    policies: Vec<Policy>,
    combining: CombiningAlg,
    requests: impl Iterator<Item = Request>,
    batch: usize,
) -> DecideInputs {
    let threads = crate::sys::nproc();
    let mut ids: HashMap<String, u32> = HashMap::new();
    let mut oracle = Oracle {
        index: Vec::new(),
        effects: Vec::new(),
    };
    let mut shots = Vec::new();
    let mut sample = Vec::new();
    let mut body = Vec::new();
    let mut fresh: Vec<Request> = Vec::new();
    let mut requests = requests.peekable();
    while requests.peek().is_some() {
        for r in requests.by_ref().take(CHUNK) {
            let next = ids.len() as u32;
            let id = *ids.entry(format!("{r:?}")).or_insert(next);
            oracle.index.push(id);
            body.push(encode_request(&r));
            if body.len() == batch {
                let first = oracle.index.len() - batch;
                shots.push(shot(&body, first, batch > 1));
                body.clear();
            }
            if sample.len() < SAMPLE {
                sample.push(r.clone());
            }
            if id == next {
                fresh.push(r);
            }
        }
        oracle
            .effects
            .extend(reference_effects(&policies, combining, &fresh, threads));
        fresh.clear();
    }
    if !body.is_empty() {
        shots.push(shot(&body, oracle.index.len() - body.len(), batch > 1));
    }
    DecideInputs {
        policies,
        combining,
        shots,
        sample,
        oracle,
    }
}

fn shot(bodies: &[String], first: usize, batched: bool) -> Shot {
    let bytes = if batched {
        http_post(
            "/decide_batch",
            &format!("{{\"requests\": [{}]}}", bodies.join(", ")),
        )
    } else {
        http_post("/decide", &bodies[0])
    };
    Shot {
        bytes,
        first,
        len: bodies.len(),
    }
}

/// The reference PDP's effects for each of `requests`, on `threads`
/// threads, in order.
fn reference_effects(
    policies: &[Policy],
    combining: CombiningAlg,
    requests: &[Request],
    threads: usize,
) -> Vec<DecisionEffects> {
    let chunk = requests.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = requests
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|r| reference::effects_reference(policies, combining, r))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// The expected effects of every pool request, from the reference PDP in
/// `agenp-refsem` (never from the program under test).
#[derive(Debug)]
pub struct Oracle {
    /// Pool index → distinct-request number.
    index: Vec<u32>,
    /// Distinct-request number → expected effects.
    effects: Vec<DecisionEffects>,
}

impl Oracle {
    /// Expected effects of pool request `i`.
    pub fn get(&self, i: usize) -> &DecisionEffects {
        &self.effects[self.index[i] as usize]
    }

    /// Distinct requests in the pool.
    pub fn distinct(&self) -> usize {
        self.effects.len()
    }
}

/// The wire form of a request (`docs/SERVING.md`), written independently
/// of the daemon's own encoder.
pub fn encode_request(request: &Request) -> String {
    let mut out = String::from("{");
    let mut current = None;
    for (category, name, value) in request.iter() {
        if current != Some(category) {
            if current.is_some() {
                out.push_str("}, ");
            }
            push_json_str(&mut out, category.name());
            out.push_str(": {");
            current = Some(category);
        } else {
            out.push_str(", ");
        }
        push_json_str(&mut out, name);
        out.push_str(": ");
        match value {
            AttrValue::Str(s) => push_json_str(&mut out, s),
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

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A keep-alive `POST` of a JSON body.
pub fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The adaptation workloads' permit grammar over `levels` clearance levels,
/// with one hypothesis-space constraint per level (`:- lvl(li).`), so a
/// mined denial of level *i* relearns a GPM whose language drops exactly
/// that permit string.
pub fn leveled_grammar(levels: usize) -> (Asg, HypothesisSpace) {
    let mut text =
        String::from("policy -> \"permit\" \"if\" \"subject\" \"clearance\" \"=\" level\n");
    for i in 0..levels {
        let _ = writeln!(text, "level -> \"l{i}\" {{ lvl(l{i}). }}");
    }
    let gpm: Asg = text.parse().expect("the leveled grammar parses");
    let constraints: Vec<(ProdId, String)> = (0..levels)
        .map(|i| (ProdId::from_index(1 + i), format!(":- lvl(l{i}).")))
        .collect();
    let borrowed: Vec<(ProdId, &str)> = constraints.iter().map(|(p, s)| (*p, s.as_str())).collect();
    (gpm, HypothesisSpace::from_texts(&borrowed))
}

/// The request for clearance level `i`.
pub fn level_request(i: usize) -> Request {
    Request::new().subject("clearance", format!("l{i}"))
}

/// The order in which episode `episode` denies the levels, and the order
/// the serving thread cycles through them.
pub fn level_orders(seed: u64, episode: u64, levels: usize) -> (Vec<usize>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed ^ episode.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut denials: Vec<usize> = (0..levels).collect();
    denials.shuffle(&mut rng);
    let mut serving: Vec<usize> = (0..levels).collect();
    serving.shuffle(&mut rng);
    (denials, serving)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_core::scenarios::xacml::oracle;

    fn bytes(inputs: &DecideInputs) -> Vec<u8> {
        inputs.shots.iter().flat_map(|s| s.bytes.clone()).collect()
    }

    #[test]
    fn the_same_seed_gives_byte_identical_streams_and_policy_sets() {
        let (a, b) = (hot(11), hot(11));
        assert_eq!(bytes(&a), bytes(&b));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let (c, d) = (coalition(11), coalition(11));
        assert_eq!(bytes(&c), bytes(&d));
        assert_eq!(format!("{:?}", c.policies), format!("{:?}", d.policies));
        assert_eq!(format!("{:?}", c.oracle), format!("{:?}", d.oracle));
        assert_eq!(c.combining, d.combining);
        assert_eq!(level_orders(11, 3, LEVELS), level_orders(11, 3, LEVELS));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(bytes(&hot(1)), bytes(&hot(2)));
        assert_ne!(bytes(&coalition(1)), bytes(&coalition(2)));
        assert_eq!(
            format!("{:?}", coalition(1).policies),
            format!("{:?}", coalition(2).policies)
        );
        assert_ne!(level_orders(1, 0, LEVELS), level_orders(2, 0, LEVELS));
    }

    #[test]
    fn workload_shapes_match_their_definitions() {
        let h = hot(5);
        assert_eq!(h.oracle.distinct(), HOT_POOL);
        assert_eq!(h.shots.len(), HOT_POOL);
        assert_eq!(h.sample.len(), HOT_POOL);
        let c = coalition(5);
        assert_eq!(c.policies.len(), COALITION_POLICIES);
        assert_eq!(c.shots.len(), COALITION_POOL / BATCH);
        assert!(c.shots.iter().all(|s| s.len == BATCH));
        assert_eq!(c.sample.len(), SAMPLE);
        // Far more distinct requests than a pin cache holds (8,192).
        let distinct = c.oracle.distinct();
        assert!((40_000..80_000).contains(&distinct), "{distinct} distinct");
        let ids: std::collections::HashSet<&str> =
            c.policies.iter().map(|p| p.id.as_str()).collect();
        assert_eq!(ids.len(), COALITION_POLICIES);
    }

    #[test]
    fn the_hot_oracle_agrees_with_the_scenario_ground_truth() {
        let o = hot(3).oracle;
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen: Vec<XacmlRequest> = Vec::new();
        while seen.len() < HOT_POOL {
            let mut r = XacmlRequest::random(&mut rng);
            r.age = rng.gen_range(18..82);
            if !seen.contains(&r) {
                seen.push(r);
            }
        }
        for (i, x) in seen.iter().enumerate() {
            assert_eq!(o.get(i).decision, oracle(x));
        }
    }

    #[test]
    fn encoded_requests_round_trip_through_the_wire_decoder() {
        for r in &coalition(9).sample[..512] {
            let text = encode_request(r);
            let v = agenp_pdpd::json::parse(&text).expect("valid JSON");
            assert_eq!(&agenp_pdpd::wire::request_from_json(&v).unwrap(), r);
        }
    }

    #[test]
    fn the_leveled_grammar_generates_one_permit_per_level() {
        let (gpm, _) = leveled_grammar(4);
        let lang = agenp_core::arch::Prep::new()
            .generate(&gpm, &agenp_asp::Program::new())
            .unwrap();
        assert_eq!(lang.len(), 4);
        assert_eq!(level_request(2), Request::new().subject("clearance", "l2"));
    }
}
