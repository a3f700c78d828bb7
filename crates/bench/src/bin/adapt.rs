//! `adapt` — the relearn-while-serving harness for the adaptation plane
//! (`crates/adapt`, `docs/ADAPTATION.md`).
//!
//! One [`AdaptPlane`] serves a leveled permit grammar while worker
//! threads hammer its [`PdpHandle`]. The harness measures decide
//! throughput in two phases — idle (no relearner) and relearn (the
//! background [`Relearner`] runs a sequence of adaptation rounds, each
//! mining one new operator denial and republishing a refined policy set)
//! — and validates the serving invariants the whole design rests on:
//!
//! - **zero stale decisions**: every decision agrees with the policy set
//!   of its *own* epoch (each round removes one more level, so a stale
//!   snapshot renders a visibly wrong decision);
//! - **epoch monotonicity**: no deciding thread ever observes the epoch
//!   moving backwards;
//! - **time-to-adoption**: per round, the time from trigger until a
//!   deciding thread first serves a decision at the refined epoch.
//!
//! Writes `BENCH_adapt.json` at the repository root. `--smoke` runs
//! reduced scales, re-reads the JSON through the validating parser, and
//! exits nonzero on any stale decision, epoch regression, failed round,
//! or (on machines with >= 4 CPUs) a relearn-phase throughput below 75%
//! of the idle phase.
//!
//! Usage: `cargo run -p agenp-bench --bin adapt --release [-- --smoke]`

use agenp_adapt::{AdaptPlane, Relearner, RoundOutcome};
use agenp_core::arch::PdpHandle;
use agenp_grammar::{Asg, ProdId};
use agenp_learn::HypothesisSpace;
use agenp_policy::{Decision, Request};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One serving phase's aggregate.
struct PhaseRow {
    decisions: u64,
    micros: u128,
    throughput: f64,
}

/// One adaptation round as driven by the harness.
struct RoundRow {
    round: usize,
    epoch: u64,
    examples: usize,
    constraints: usize,
    rules: usize,
    round_ms: f64,
    adoption_ms: f64,
    published: bool,
}

/// Serving-invariant counters shared by the deciding threads.
#[derive(Default)]
struct Invariants {
    stale: AtomicU64,
    regressions: AtomicU64,
    max_epoch_seen: AtomicU64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let levels = if smoke { 8 } else { 12 };
    let rounds = if smoke { 4 } else { 8 };
    let threads = if smoke { 2 } else { 4 };
    let phase = Duration::from_millis(if smoke { 250 } else { 1000 });

    let (gpm, space) = leveled_grammar(levels);
    let mut plane = AdaptPlane::new("bench", gpm, space);
    let first_epoch = plane
        .publish_initial()
        .expect("adapt: initial policy generation failed");
    let handle = plane.handle();
    let log = plane.log();
    let workload: Vec<Request> = (0..levels)
        .map(|i| Request::new().subject("clearance", format!("l{i}")))
        .collect();

    // Phase 1: idle throughput (no relearner running at all).
    let idle_inv = Invariants::default();
    let idle = run_phase(
        &handle,
        &workload,
        threads,
        first_epoch,
        &idle_inv,
        |stop| {
            std::thread::sleep(phase);
            stop.store(true, Ordering::Relaxed);
        },
    );

    // Phase 2: the same serving load while the background relearner runs
    // `rounds` adaptation rounds; the phase lasts at least as long as the
    // idle window and as long as the rounds need.
    let relearn_inv = Invariants::default();
    let relearner = Relearner::spawn(plane);
    let mut round_rows: Vec<RoundRow> = Vec::with_capacity(rounds);
    let relearn = run_phase(
        &handle,
        &workload,
        threads,
        first_epoch,
        &relearn_inv,
        |stop| {
            let started = Instant::now();
            for round in 0..rounds {
                round_rows.push(drive_round(round, &relearner, &handle, &log, &relearn_inv));
            }
            if started.elapsed() < phase {
                std::thread::sleep(phase - started.elapsed());
            }
            stop.store(true, Ordering::Relaxed);
        },
    );
    let plane = relearner.shutdown();

    let ratio = if idle.throughput > 0.0 {
        relearn.throughput / idle.throughput
    } else {
        0.0
    };
    let stale = idle_inv.stale.load(Ordering::Relaxed) + relearn_inv.stale.load(Ordering::Relaxed);
    let regressions = idle_inv.regressions.load(Ordering::Relaxed)
        + relearn_inv.regressions.load(Ordering::Relaxed);
    let published = round_rows.iter().filter(|r| r.published).count();
    let max_adoption = round_rows
        .iter()
        .filter(|r| r.published)
        .map(|r| r.adoption_ms)
        .fold(0.0f64, f64::max);
    let final_epoch = handle.snapshot().epoch();
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);

    print_tables(&idle, &relearn, ratio, &round_rows, stale, regressions);
    println!(
        "epochs {first_epoch} -> {final_epoch}, {} rounds published, {} examples buffered",
        published,
        plane.buffered_examples()
    );

    let json = render_json(
        smoke,
        threads,
        levels,
        &idle,
        &relearn,
        ratio,
        &round_rows,
        stale,
        regressions,
        final_epoch,
        max_adoption,
        cpus,
    );
    let path = output_path();
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("adapt: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nwrote {}", path.display());

    let on_disk = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("adapt: cannot re-read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    if let Err(e) = agenp_bench::json::validate(&on_disk) {
        eprintln!("adapt: BENCH_adapt.json is not valid JSON: {e}");
        std::process::exit(1);
    }
    for key in ["\"serving\"", "\"rounds\"", "\"invariants\"", "\"claims\""] {
        if !on_disk.contains(key) {
            eprintln!("adapt: BENCH_adapt.json is missing the {key} section");
            std::process::exit(1);
        }
    }
    if stale > 0 {
        eprintln!("adapt: {stale} decisions disagreed with their own epoch's policy set");
        std::process::exit(1);
    }
    if regressions > 0 {
        eprintln!("adapt: the serving epoch moved backwards {regressions} times");
        std::process::exit(1);
    }
    if published != rounds {
        eprintln!("adapt: only {published} of {rounds} adaptation rounds published");
        std::process::exit(1);
    }
    if final_epoch != first_epoch + rounds as u64 {
        eprintln!(
            "adapt: expected the epoch to advance exactly once per round \
             ({first_epoch} + {rounds}), measured {final_epoch}"
        );
        std::process::exit(1);
    }
    // The throughput-interference gate needs enough CPUs to actually run
    // the deciders and the relearner in parallel.
    if cpus >= 4 {
        if ratio < 0.75 {
            eprintln!(
                "adapt: decide throughput during relearn is {:.1}% of idle \
                 (floor 75%) on a {cpus}-CPU machine",
                ratio * 100.0
            );
            std::process::exit(1);
        }
    } else {
        println!("adapt: skipping the relearn/idle throughput gate ({cpus} CPU available)");
    }
    println!(
        "BENCH_adapt.json validated ({published}/{rounds} rounds, 0 stale, 0 regressions, \
         relearn/idle {:.2}, max adoption {max_adoption:.1} ms)",
        ratio
    );
}

/// A permit-only grammar over `levels` clearance levels, with one
/// hypothesis-space constraint per level (`:- lvl(li).`) so a mined
/// denial of level *i* relearns a GPM whose language drops exactly that
/// permit string. Decisions are therefore *epoch-observable*: at epoch
/// `first + r`, levels below `r` render NotApplicable and the rest
/// Permit.
fn leveled_grammar(levels: usize) -> (Asg, HypothesisSpace) {
    let mut text =
        String::from("policy -> \"permit\" \"if\" \"subject\" \"clearance\" \"=\" level\n");
    for i in 0..levels {
        text.push_str(&format!("level -> \"l{i}\" {{ lvl(l{i}). }}\n"));
    }
    let gpm: Asg = text.parse().expect("adapt: leveled grammar must parse");
    let constraints: Vec<(ProdId, String)> = (0..levels)
        .map(|i| (ProdId::from_index(1 + i), format!(":- lvl(l{i}).")))
        .collect();
    let borrowed: Vec<(ProdId, &str)> = constraints.iter().map(|(p, s)| (*p, s.as_str())).collect();
    (gpm, HypothesisSpace::from_texts(&borrowed))
}

/// Runs `threads` deciding threads against `handle` until `driver` sets
/// the stop flag, checking the per-decision invariants as it goes.
fn run_phase(
    handle: &PdpHandle,
    workload: &[Request],
    threads: usize,
    base_epoch: u64,
    inv: &Invariants,
    driver: impl FnOnce(&AtomicBool),
) -> PhaseRow {
    let stop = AtomicBool::new(false);
    let decisions = AtomicU64::new(0);
    let started = Instant::now();
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|s| {
        for t in 0..threads {
            let h = handle.clone();
            let (stop, decisions) = (&stop, &decisions);
            s.spawn(move || {
                let mut local = 0u64;
                let mut last_epoch = 0u64;
                let mut i = t; // phase-shift the streams
                while !stop.load(Ordering::Relaxed) {
                    let level = i % workload.len();
                    let outcome = h.decide(&workload[level]);
                    // Each published epoch has a known decision function:
                    // round r (epoch base+r) has removed levels < r.
                    let removed = outcome.epoch.saturating_sub(base_epoch) as usize;
                    let expected = if level < removed {
                        Decision::NotApplicable
                    } else {
                        Decision::Permit
                    };
                    if outcome.decision != expected {
                        inv.stale.fetch_add(1, Ordering::Relaxed);
                    }
                    if outcome.epoch < last_epoch {
                        inv.regressions.fetch_add(1, Ordering::Relaxed);
                    }
                    last_epoch = outcome.epoch;
                    inv.max_epoch_seen
                        .fetch_max(outcome.epoch, Ordering::Relaxed);
                    local += 1;
                    i += 1;
                }
                decisions.fetch_add(local, Ordering::Relaxed);
            });
        }
        driver(&stop);
        elapsed = started.elapsed();
    });
    let decisions = decisions.load(Ordering::Relaxed);
    let micros = elapsed.as_micros();
    PhaseRow {
        decisions,
        micros,
        throughput: if micros > 0 {
            decisions as f64 * 1_000_000.0 / micros as f64
        } else {
            0.0
        },
    }
}

/// One adaptation round: log the operator's denial of the next level,
/// trigger the relearner, wait for the outcome, then wait until a
/// deciding thread has actually served at the refined epoch.
fn drive_round(
    round: usize,
    relearner: &Relearner,
    handle: &PdpHandle,
    log: &std::sync::Arc<agenp_adapt::DecisionLog>,
    inv: &Invariants,
) -> RoundRow {
    let req = Request::new().subject("clearance", format!("l{round}"));
    let mut overridden = handle.decide(&req);
    overridden.decision = Decision::Deny; // the operator overrode the permit
    log.record(&req, &overridden);

    let triggered = Instant::now();
    relearner.trigger();
    let outcome = relearner
        .wait_outcome(Duration::from_secs(60))
        .expect("adapt: relearner produced no outcome within 60s");
    let round_ms = triggered.elapsed().as_secs_f64() * 1000.0;
    let mut row = RoundRow {
        round,
        epoch: 0,
        examples: 0,
        constraints: 0,
        rules: 0,
        round_ms,
        adoption_ms: 0.0,
        published: false,
    };
    match outcome {
        RoundOutcome::Published(report) => {
            // Adoption: a deciding thread has served at the new epoch.
            let deadline = Instant::now() + Duration::from_secs(30);
            while inv.max_epoch_seen.load(Ordering::Relaxed) < report.epoch {
                assert!(
                    Instant::now() < deadline,
                    "adapt: epoch {} never reached the deciding threads",
                    report.epoch
                );
                std::thread::yield_now();
            }
            row.adoption_ms = triggered.elapsed().as_secs_f64() * 1000.0;
            row.epoch = report.epoch;
            row.examples = report.examples_used;
            row.constraints = report.constraints_learned;
            row.rules = report.rules_generated;
            row.published = true;
        }
        RoundOutcome::Skipped { buffered, .. } => {
            eprintln!("adapt: round {round} skipped with {buffered} buffered examples");
        }
        RoundOutcome::Failed(e) => {
            eprintln!("adapt: round {round} failed: {e}");
        }
    }
    row
}

/// `BENCH_adapt.json` lives at the repository root regardless of the cwd
/// cargo chose for the binary.
fn output_path() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir).join("../..").join("BENCH_adapt.json"),
        Err(_) => PathBuf::from("BENCH_adapt.json"),
    }
}

fn print_tables(
    idle: &PhaseRow,
    relearn: &PhaseRow,
    ratio: f64,
    rounds: &[RoundRow],
    stale: u64,
    regressions: u64,
) {
    println!("relearn-while-serving (shared handle, background relearner):");
    println!(
        "{:>10} {:>12} {:>12} {:>14}",
        "phase", "decisions", "micros", "decisions/s"
    );
    for (name, row) in [("idle", idle), ("relearn", relearn)] {
        println!(
            "{:>10} {:>12} {:>12} {:>14.0}",
            name, row.decisions, row.micros, row.throughput
        );
    }
    println!("relearn/idle throughput ratio: {ratio:.2}\n");
    println!(
        "{:>6} {:>6} {:>9} {:>12} {:>6} {:>10} {:>12}",
        "round", "epoch", "examples", "constraints", "rules", "round ms", "adoption ms"
    );
    for r in rounds {
        println!(
            "{:>6} {:>6} {:>9} {:>12} {:>6} {:>10.1} {:>12.1}",
            r.round, r.epoch, r.examples, r.constraints, r.rules, r.round_ms, r.adoption_ms
        );
    }
    println!("\nstale decisions: {stale}, epoch regressions: {regressions}");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    smoke: bool,
    threads: usize,
    levels: usize,
    idle: &PhaseRow,
    relearn: &PhaseRow,
    ratio: f64,
    rounds: &[RoundRow],
    stale: u64,
    regressions: u64,
    final_epoch: u64,
    max_adoption: f64,
    cpus: usize,
) -> String {
    let phase = |row: &PhaseRow| {
        format!(
            "{{\"decisions\": {}, \"micros\": {}, \"decisions_per_sec\": {:.1}}}",
            row.decisions, row.micros, row.throughput
        )
    };
    let round_rows: Vec<String> = rounds
        .iter()
        .map(|r| {
            format!(
                "{{\"round\": {}, \"published\": {}, \"epoch\": {}, \"examples\": {}, \
                 \"constraints\": {}, \"rules\": {}, \"round_ms\": {:.2}, \
                 \"adoption_ms\": {:.2}}}",
                r.round,
                r.published,
                r.epoch,
                r.examples,
                r.constraints,
                r.rules,
                r.round_ms,
                r.adoption_ms
            )
        })
        .collect();
    format!(
        "{{\n\"schema\": \"agenp-bench/adapt/v1\",\n\"smoke\": {},\n\
         \"serving\": {{\"threads\": {}, \"levels\": {}, \"idle\": {}, \"relearn\": {}, \
         \"relearn_over_idle\": {:.4}}},\n\
         \"rounds\": [\n{}\n],\n\
         \"invariants\": {{\"stale_decisions\": {}, \"epoch_regressions\": {}, \
         \"final_epoch\": {}}},\n\
         \"claims\": {{\"relearn_over_idle_throughput\": {:.4}, \
         \"max_adoption_ms\": {:.2}, \"cpus\": {}}}\n}}\n",
        smoke,
        threads,
        levels,
        phase(idle),
        phase(relearn),
        ratio,
        round_rows.join(",\n"),
        stale,
        regressions,
        final_epoch,
        ratio,
        max_adoption,
        cpus
    )
}
