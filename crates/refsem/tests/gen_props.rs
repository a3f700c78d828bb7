//! Property tests over the generators themselves: the safety and
//! stratification guarantees the reference evaluator's completeness rests
//! on, and injectivity of `Request::canonical_key` on generated requests —
//! the invariant that lets the miner and the shrinker's repro lines key
//! requests without conflating two of them.

use agenp_refsem::gen;
use agenp_refsem::reference;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every generated program is safe and stratified — the contract the
    /// naive reference evaluator's completeness depends on.
    #[test]
    fn generated_programs_are_safe_and_stratified(seed in 0u64..1_000_000) {
        let mut rng = gen::rng_for(seed);
        let program = gen::stratified_program(&mut rng);
        prop_assert!(
            program.unsafe_rule().is_none(),
            "seed={seed}: unsafe rule in\n{program}"
        );
        prop_assert!(
            reference::stratify(&program).is_some(),
            "seed={seed}: unstratifiable program\n{program}"
        );
    }

    /// `canonical_key` is injective on generated requests: two generated
    /// requests share a key only when they are equal attribute-for-
    /// attribute. The generator's value pools deliberately collide at the
    /// Display level (`"3"` vs `3`, `"true"` vs `true`), so a lossy
    /// encoding would fail here.
    #[test]
    fn canonical_key_is_injective_on_generated_requests(seed in 0u64..1_000_000) {
        let mut rng = gen::rng_for(seed);
        let a = gen::request(&mut rng);
        let b = gen::request(&mut rng);
        if a.canonical_key() == b.canonical_key() {
            let a_attrs: Vec<_> = a.iter().map(|(c, n, v)| (c, n.to_owned(), v.clone())).collect();
            let b_attrs: Vec<_> = b.iter().map(|(c, n, v)| (c, n.to_owned(), v.clone())).collect();
            prop_assert_eq!(a_attrs, b_attrs, "seed={}: key collision", seed);
        }
    }

    /// Request streams really do contain duplicates (so the differential
    /// suite's batches really repeat requests) and every duplicate is a
    /// genuine equal request.
    #[test]
    fn request_streams_duplicate_by_equality(seed in 0u64..1_000_000) {
        let mut rng = gen::rng_for(seed);
        let stream = gen::request_stream(&mut rng, 12);
        prop_assert_eq!(stream.len(), 12);
        for (i, a) in stream.iter().enumerate() {
            for b in &stream[i + 1..] {
                let same_key = a.canonical_key() == b.canonical_key();
                let same_attrs = a.iter().count() == b.iter().count()
                    && a.iter().zip(b.iter()).all(|(x, y)| x == y);
                prop_assert_eq!(same_key, same_attrs, "seed={}", seed);
            }
        }
    }
}

/// The obligation/penalty coverage claim is real, not vacuous: across a
/// seed band, generated policy sets carry annotations and a healthy share
/// of *served* decisions actually surface obligations and (on denials)
/// penalties — otherwise the differential suite would be "covering" the
/// new semantics on bare decisions only.
#[test]
fn generated_policy_sets_exercise_obligations_and_penalties() {
    use agenp_policy::{evaluate_policies_effects, Decision};
    let (mut annotated_sets, mut obligation_decisions, mut penalized_denials) = (0u32, 0u32, 0u32);
    for seed in 0..256u64 {
        let mut rng = gen::rng_for(seed);
        let (policies, combining) = gen::policy_set(&mut rng);
        if policies.iter().any(|p| p.has_annotations()) {
            annotated_sets += 1;
        }
        for request in gen::request_stream(&mut rng, 8) {
            let fx = evaluate_policies_effects(&policies, combining, &request);
            if !fx.obligations.is_empty() {
                obligation_decisions += 1;
            }
            if fx.decision == Decision::Deny && fx.penalty > 0 {
                penalized_denials += 1;
            }
        }
    }
    assert!(
        annotated_sets >= 128,
        "only {annotated_sets}/256 generated sets carry annotations"
    );
    assert!(
        obligation_decisions >= 64,
        "only {obligation_decisions} decisions carried obligations"
    );
    assert!(
        penalized_denials >= 32,
        "only {penalized_denials} denials carried penalties"
    );
}
