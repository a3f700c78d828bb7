//! Multi-threaded stress for the shared-snapshot serving tier: worker
//! threads hammer an AMS's serving handle while the control thread adopts
//! a new GPM and refreshes mid-stream. Every decision must agree with the
//! policy set of the epoch that served it — a single disagreement means a
//! decision was served from an older epoch after a snapshot swap.

use agenp_core::arch::Ams;
use agenp_grammar::Asg;
use agenp_learn::HypothesisSpace;
use agenp_policy::{Decision, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::thread;

/// A counting front for the system allocator, installed only in debug
/// builds: the warm-path allocation-budget test reads it to prove a pinned
/// decide stays free of hot-path allocation churn.
#[cfg(debug_assertions)]
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Heap allocations since process start (this test binary only).
    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    // SAFETY: defers every operation to `System`; only adds a relaxed
    // counter bump on the allocating entry points.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;
}

fn grammar(effect: &str) -> Asg {
    format!(r#"policy -> "{effect}" "if" "subject" "clearance" "=" "high""#)
        .parse()
        .expect("grammar parses")
}

/// What the serving tier must answer at each epoch, for each of the two
/// request shapes the workers send.
fn expected(epoch: u64, first_refresh: u64, matching: bool) -> Decision {
    if !matching {
        // Neither grammar emits a rule for low clearance.
        return Decision::NotApplicable;
    }
    if epoch < first_refresh {
        Decision::NotApplicable // pre-refresh snapshots carry no policies
    } else if epoch < first_refresh + 2 {
        // first_refresh: permit grammar's policies.
        // first_refresh + 1: adopt_gpm republished the same policies.
        Decision::Permit
    } else {
        Decision::Deny // first_refresh + 2: refresh under the deny grammar
    }
}

#[test]
fn no_stale_decision_survives_a_mid_stream_gpm_swap() {
    let mut ams = Ams::new("stress", grammar("permit"), HypothesisSpace::new());
    ams.refresh_policies().expect("initial refresh");
    let first_refresh = ams.current_snapshot().epoch();
    let final_epoch = first_refresh + 2; // adopt_gpm + refresh_policies
    let handle = ams.serving_handle();

    let matching = Request::new().subject("clearance", "high");
    let other = Request::new().subject("clearance", "low");
    assert_eq!(ams.decide(&matching).decision(), Decision::Permit);

    const WORKERS: usize = 4;
    const MAX_ITERS: usize = 200_000;
    let observed: Vec<Vec<(u64, bool, Decision)>> = thread::scope(|s| {
        let spawned: Vec<_> = (0..WORKERS)
            .map(|w| {
                let h = handle.clone();
                let (matching, other) = (matching.clone(), other.clone());
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xD15C0 + w as u64);
                    let mut seen = Vec::new();
                    // Run until the post-swap snapshot has been observed, so
                    // every worker crosses the swap; MAX_ITERS only guards
                    // against a control-thread bug leaving us spinning.
                    for _ in 0..MAX_ITERS {
                        let pick_matching = rng.gen_bool(0.7);
                        let req = if pick_matching { &matching } else { &other };
                        let outcome = h.decide(req);
                        let done = outcome.epoch >= final_epoch;
                        seen.push((outcome.epoch, pick_matching, outcome.decision));
                        if done && seen.len() >= 100 {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();
        // Mid-stream: adopt a GPM with the opposite effect and regenerate.
        thread::yield_now();
        ams.adopt_gpm(grammar("deny"), "adopted from partner");
        ams.refresh_policies()
            .expect("refresh under the deny grammar");
        spawned
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    assert_eq!(ams.current_snapshot().epoch(), final_epoch);

    let mut permits = 0u64;
    let mut denies = 0u64;
    for (w, seen) in observed.iter().enumerate() {
        assert!(
            seen.last().is_some_and(|(e, _, _)| *e >= final_epoch),
            "worker {w} never observed the post-swap snapshot"
        );
        for &(epoch, was_matching, decision) in seen {
            assert_eq!(
                decision,
                expected(epoch, first_refresh, was_matching),
                "worker {w} served a stale decision at epoch {epoch}"
            );
            match decision {
                Decision::Permit => permits += 1,
                Decision::Deny => denies += 1,
                _ => {}
            }
        }
    }
    // The stream genuinely crossed the swap: both regimes were served.
    assert!(permits > 0, "no pre-swap Permit observed");
    assert!(denies > 0, "no post-swap Deny observed");
    let stats = handle.stats();
    assert!(stats.publishes >= 3);
}

#[test]
fn decisions_follow_the_snapshot_across_epochs() {
    let mut ams = Ams::new("parity", grammar("permit"), HypothesisSpace::new());
    ams.refresh_policies().unwrap();
    let handle = ams.serving_handle();
    let mut pin = handle.pin();
    let req = Request::new().subject("clearance", "high");
    let before = handle.decide(&req);
    assert_eq!(before.decision, Decision::Permit);
    assert_eq!(pin.decide(&req).decision, Decision::Permit);
    // After a swap, no path answers from the older epoch: the handle and
    // an already-pinned worker both see the deny grammar's policies.
    ams.adopt_gpm(grammar("deny"), "swap");
    ams.refresh_policies().unwrap();
    let current = ams.current_snapshot().epoch();
    assert!(current > before.epoch);
    for post in [handle.decide(&req), pin.decide(&req)] {
        assert_eq!(post.epoch, current, "answered from an older epoch");
        assert_eq!(post.decision, Decision::Deny);
    }
    let batch = pin.decide_batch(&[req.clone(), req.clone()]);
    assert!(batch
        .iter()
        .all(|o| o.epoch == current && o.decision == Decision::Deny));
}

/// The warm pinned path must be allocation-light: once the pin holds the
/// current snapshot, a decide evaluates the compiled policy set with its
/// scratch on the stack and builds an annotation-free outcome. The bound
/// is amortized and deliberately loose — the counter is process-global and
/// other tests in this binary run concurrently — but it would still catch
/// a per-decide clone of the policy set, the snapshot error, or a
/// recompilation, each of which costs tens of allocations per call.
#[cfg(debug_assertions)]
#[test]
fn warm_pin_decides_stay_within_allocation_budget() {
    use std::sync::atomic::Ordering;

    let mut ams = Ams::new("alloc-budget", grammar("permit"), HypothesisSpace::new());
    ams.refresh_policies().unwrap();
    let handle = ams.serving_handle();
    let mut pin = handle.pin();

    let workload: Vec<Request> = (0..16)
        .map(|i| {
            Request::new()
                .subject("clearance", if i % 2 == 0 { "high" } else { "low" })
                .subject("id", i as i64)
        })
        .collect();
    // Warm the pin: the first decide resolves the snapshot.
    for req in &workload {
        pin.decide(req);
    }

    const DECIDES: u64 = 100_000;
    const MAX_ALLOCS_PER_DECIDE: u64 = 8;
    let before = alloc_count::ALLOCS.load(Ordering::Relaxed);
    for i in 0..DECIDES {
        let outcome = pin.decide(&workload[(i % 16) as usize]);
        assert!(outcome.error.is_none());
    }
    let spent = alloc_count::ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        spent < DECIDES * MAX_ALLOCS_PER_DECIDE,
        "warm pin decides allocated too much: {spent} allocations over {DECIDES} \
         decides (budget {MAX_ALLOCS_PER_DECIDE}/decide)"
    );
}
