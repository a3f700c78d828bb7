//! Differential tests for `decide_batch`: over randomized request
//! streams, the batched path must render element-wise identical decisions
//! to sequential `decide()` — including while a control thread swaps
//! snapshots mid-stream. Batches must never tear: every outcome in one
//! batch carries the same epoch, and that epoch's policy set must agree
//! with every decision in the batch.

use agenp_core::arch::{DecisionSnapshot, PdpHandle};
use agenp_core::scenarios::xacml::{ground_truth_policy, XacmlRequest};
use agenp_policy::{
    evaluate_policies, CombiningAlg, Decision, Effect, Policy, PolicyRule, Request,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn workload(distinct: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..distinct)
        .map(|_| XacmlRequest::random(&mut rng).to_request())
        .collect()
}

fn scenario_handle() -> PdpHandle {
    let handle = PdpHandle::new();
    handle.publish(DecisionSnapshot::new(
        vec![ground_truth_policy()],
        CombiningAlg::DenyOverrides,
    ));
    handle
}

/// Random batch shapes over a randomized stream: batched and sequential
/// answers must match element-wise, on both the handle and the pin path.
#[test]
fn batched_decisions_match_sequential_on_random_streams() {
    let handle = scenario_handle();
    let mut pin = handle.pin();
    let requests = workload(96, 0xBA7C);
    let mut rng = StdRng::seed_from_u64(31);

    let mut cursor = 0usize;
    while cursor < requests.len() {
        // Batch sizes from empty-adjacent (1) to larger than the distinct
        // request pool, with duplicates spliced in.
        let size = rng.gen_range(1..=24).min(requests.len() - cursor);
        let mut batch: Vec<Request> = requests[cursor..cursor + size].to_vec();
        if size > 2 {
            let dup = batch[0].clone();
            batch.push(dup); // duplicate keys answer once, identically
        }
        cursor += size;

        let sequential: Vec<Decision> = batch.iter().map(|r| handle.decide(r).decision).collect();
        let via_handle = handle.decide_batch(&batch);
        let via_pin = pin.decide_batch(&batch);
        assert_eq!(via_handle.len(), batch.len());
        assert_eq!(via_pin.len(), batch.len());
        for (i, want) in sequential.iter().enumerate() {
            assert_eq!(via_handle[i].decision, *want, "handle batch slot {i}");
            assert_eq!(via_pin[i].decision, *want, "pin batch slot {i}");
        }
        // One snapshot per batch: every outcome shares the epoch.
        let epoch = via_handle[0].epoch;
        assert!(via_handle.iter().all(|o| o.epoch == epoch));
        let pin_epoch = via_pin[0].epoch;
        assert!(via_pin.iter().all(|o| o.epoch == pin_epoch));
    }
}

/// Swaps snapshots from a control thread while worker threads push
/// batches. Every batch must be answered by exactly one epoch, and every
/// decision must agree with the policy set published at that epoch — a
/// disagreement is a decision served from an older epoch, a torn batch is
/// a mixed-epoch result set.
#[test]
fn mid_batch_snapshot_swaps_never_tear_or_stale() {
    let real = vec![ground_truth_policy()];
    let deny_all = vec![Policy::new(
        "deny-all",
        vec![PolicyRule::unconditional("deny-everything", Effect::Deny)],
    )];
    let requests = workload(24, 0x5EED);
    // Oracle decision per request under each regime. Epoch 0 is the empty
    // initial snapshot; odd published epochs carry the real set, even
    // ones deny-all (same alternation the swapper below applies).
    let under_real: Vec<Decision> = requests
        .iter()
        .map(|r| evaluate_policies(&real, CombiningAlg::DenyOverrides, r))
        .collect();
    let under_empty: Vec<Decision> = requests
        .iter()
        .map(|r| evaluate_policies(&[], CombiningAlg::DenyOverrides, r))
        .collect();

    let handle = PdpHandle::new();
    let stop = AtomicBool::new(false);
    // Workers that have completed a batch: the swapper keeps publishing
    // until every worker has decided under swaps, however late the
    // scheduler starts it.
    let working = AtomicUsize::new(0);
    let mut swap = 0;
    const WORKERS: usize = 3;
    const SWAPS: u64 = 200;

    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let h = handle.clone();
            let (stop, working, requests) = (&stop, &working, &requests);
            let (under_real, under_empty) = (&under_real, &under_empty);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xF00D + w as u64);
                let mut pin = h.pin();
                let mut batches = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let size = rng.gen_range(1..=requests.len());
                    let start = rng.gen_range(0..requests.len());
                    let idxs: Vec<usize> =
                        (0..size).map(|k| (start + k) % requests.len()).collect();
                    let batch: Vec<Request> = idxs.iter().map(|&i| requests[i].clone()).collect();
                    let outcomes = if batches.is_multiple_of(2) {
                        pin.decide_batch(&batch)
                    } else {
                        h.decide_batch(&batch)
                    };
                    assert_eq!(outcomes.len(), batch.len());
                    // Not torn: one epoch answered the whole batch.
                    let epoch = outcomes[0].epoch;
                    for o in &outcomes {
                        assert_eq!(
                            o.epoch, epoch,
                            "worker {w}: torn batch mixed epochs {} and {epoch}",
                            o.epoch
                        );
                    }
                    // Not stale: every decision agrees with its epoch's
                    // published policy set.
                    for (&i, o) in idxs.iter().zip(&outcomes) {
                        let want = match epoch {
                            0 => under_empty[i],
                            e if e % 2 == 1 => under_real[i],
                            _ => Decision::Deny,
                        };
                        assert_eq!(
                            o.decision, want,
                            "worker {w}: stale decision for request {i} at epoch {epoch}"
                        );
                    }
                    if batches == 0 {
                        working.fetch_add(1, Ordering::Relaxed);
                    }
                    batches += 1;
                }
                assert!(batches > 0, "worker {w} never completed a batch");
            });
        }
        while swap < SWAPS || working.load(Ordering::Relaxed) < WORKERS {
            let snapshot = if swap % 2 == 0 {
                DecisionSnapshot::new(real.clone(), CombiningAlg::DenyOverrides)
            } else {
                DecisionSnapshot::new(deny_all.clone(), CombiningAlg::DenyOverrides)
            };
            handle.publish(snapshot);
            std::thread::yield_now();
            swap += 1;
        }
        stop.store(true, Ordering::Relaxed);
    });
    let stats = handle.stats();
    assert!(swap >= SWAPS);
    assert_eq!(stats.publishes, swap, "every swap must have published");
    assert!(stats.decisions > 0);
}

/// A pin that crosses a swap between two batches self-invalidates: the
/// next batch answers at the new epoch, from the new policy set.
#[test]
fn pin_batches_self_invalidate_across_swaps() {
    let real = vec![ground_truth_policy()];
    let deny_all = vec![Policy::new(
        "deny-all",
        vec![PolicyRule::unconditional("deny-everything", Effect::Deny)],
    )];
    let handle = PdpHandle::new();
    handle.publish(DecisionSnapshot::new(
        real.clone(),
        CombiningAlg::DenyOverrides,
    ));
    let mut pin = handle.pin();
    let batch = workload(8, 9);

    let first = pin.decide_batch(&batch);
    let again = pin.decide_batch(&batch);
    assert_eq!(first[0].epoch, again[0].epoch);
    assert!(first
        .iter()
        .zip(&again)
        .all(|(a, b)| a.decision == b.decision));
    assert!(
        first.iter().any(|o| o.decision != Decision::Deny),
        "the real set must decide some of the batch differently from deny-all"
    );

    handle.publish(DecisionSnapshot::new(deny_all, CombiningAlg::DenyOverrides));
    let post = pin.decide_batch(&batch);
    assert!(
        post.iter().all(|o| o.epoch == again[0].epoch + 1),
        "post-swap batch answered from an older epoch"
    );
    assert!(post.iter().all(|o| o.decision == Decision::Deny));
    // And the sequential path agrees with the batch at the new epoch.
    for (r, o) in batch.iter().zip(&post) {
        assert_eq!(handle.decide(r).decision, o.decision);
    }
}
