//! `pdp` — machine-readable throughput harness for the shared-snapshot PDP
//! serving tier.
//!
//! Drives a closed-loop multi-threaded request workload (randomized XACML
//! requests against the scenario's ground-truth policy) through a
//! [`PdpServer`], then writes `BENCH_pdp.json` at the repository root:
//! threads × throughput, a single-thread parity check of the serving tier
//! against the legacy stateful [`Pdp`] path, and a stale-epoch stress that
//! swaps snapshots mid-stream and counts decisions that disagree with the
//! policy set of the epoch that answered them. The JSON schema is documented in
//! `docs/SERVING.md`.
//!
//! Since schema v2 the harness also puts the PDP on the wire: it boots an
//! in-process `agenp-pdpd` HTTP/1.1 server on an ephemeral loopback port,
//! drives it with the crate's load client (single connection, multiple
//! connections, and batched bodies), and records throughput plus latency
//! percentiles under the `"http"` section. The load client re-checks every
//! response against the oracle, so the HTTP rows double as a wire-path
//! parity gate.
//!
//! Usage: `cargo run -p agenp-bench --bin pdp --release [-- --smoke]`
//!
//! `--smoke` runs reduced scales suitable for CI, re-reads the emitted JSON
//! through a validating parser, and exits nonzero on any parity mismatch,
//! any stale-epoch decision, a single-connection HTTP throughput below
//! 10k decisions/sec, or (on machines with >= 4 CPUs) a 4-thread
//! throughput below 2x the 1-thread run.

use agenp_bench::server::PdpServer;
use agenp_core::arch::{DecisionSnapshot, PdpHandle};
use agenp_core::scenarios::xacml::{ground_truth_policy, XacmlRequest};
use agenp_pdpd::{run_load, LoadOptions, PdpdServer, ServerOptions};
use agenp_policy::{
    evaluate_policies, CombiningAlg, Decision, Pdp, Policy, PolicyRepository, PolicyRule, Request,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One closed-loop throughput measurement.
struct ThroughputRow {
    threads: usize,
    decisions: u64,
    micros: u128,
    throughput: f64,
}

/// The serving-tier vs legacy-PDP parity result.
struct ParityOutcome {
    requests: usize,
    mismatches: usize,
}

/// The snapshot-swap stress result.
struct StressOutcome {
    decisions: u64,
    swaps: u64,
    stale_served: u64,
}

/// One HTTP load-client measurement against the in-process daemon.
struct HttpRow {
    connections: usize,
    batch: usize,
    decisions: u64,
    throughput: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    max_us: u64,
    parity_mismatches: u64,
    stale_epochs: u64,
    http_errors: u64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let distinct = if smoke { 64 } else { 256 };
    let per_thread = if smoke { 20_000 } else { 200_000 };
    let workload = build_workload(distinct, 42);
    let policies = vec![ground_truth_policy()];

    let thread_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let rows: Vec<ThroughputRow> = thread_counts
        .iter()
        .map(|&t| run_throughput(t, &workload, &policies, per_thread))
        .collect();

    let parity = run_parity(&policies, if smoke { 1000 } else { 5000 }, 7);
    let stress = run_stress(&policies, if smoke { 64 } else { 256 }, 4);
    let http_rows = run_http(&policies, smoke);

    print_tables(&rows, &parity, &stress, &http_rows);

    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    // A thread-scaling claim measured on hardware that cannot run the
    // threads in parallel is noise, not evidence — record null there.
    let speedup_4t = if cpus >= 4 { speedup(&rows, 4) } else { None };
    let json = render_json(smoke, &rows, &parity, &stress, &http_rows, speedup_4t, cpus);
    let path = output_path();
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("pdp: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nwrote {}", path.display());

    // Re-read and validate what actually landed on disk.
    let on_disk = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pdp: cannot re-read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    if let Err(e) = agenp_bench::json::validate(&on_disk) {
        eprintln!("pdp: BENCH_pdp.json is not valid JSON: {e}");
        std::process::exit(1);
    }
    for key in [
        "\"throughput\"",
        "\"parity\"",
        "\"stress\"",
        "\"http\"",
        "\"claims\"",
    ] {
        if !on_disk.contains(key) {
            eprintln!("pdp: BENCH_pdp.json is missing the {key} section");
            std::process::exit(1);
        }
    }
    if parity.mismatches > 0 {
        eprintln!(
            "pdp: serving tier disagreed with the legacy Pdp on {} of {} requests",
            parity.mismatches, parity.requests
        );
        std::process::exit(1);
    }
    if stress.stale_served > 0 {
        eprintln!(
            "pdp: {} decisions disagreed with their own epoch's policy set across {} \
             snapshot swaps (served from an older epoch)",
            stress.stale_served, stress.swaps
        );
        std::process::exit(1);
    }
    for row in &http_rows {
        if row.parity_mismatches > 0 || row.stale_epochs > 0 || row.http_errors > 0 {
            eprintln!(
                "pdp: HTTP load run ({} conn, batch {}) was not clean: \
                 {} mismatches, {} stale epochs, {} errors",
                row.connections,
                row.batch,
                row.parity_mismatches,
                row.stale_epochs,
                row.http_errors
            );
            std::process::exit(1);
        }
    }
    let single_conn = http_rows
        .iter()
        .find(|r| r.connections == 1 && r.batch == 1)
        .expect("single-connection HTTP row");
    if single_conn.throughput < 10_000.0 {
        eprintln!(
            "pdp: single-connection HTTP throughput {:.0} dec/s is below the 10k floor",
            single_conn.throughput
        );
        std::process::exit(1);
    }
    // The scaling gate only means something when the hardware can actually
    // run 4 workers in parallel (CI runners can; 1-CPU boxes cannot).
    if cpus >= 4 {
        if let Some(s) = speedup_4t {
            if s < 2.0 {
                eprintln!(
                    "pdp: 4-thread throughput must be >= 2x the 1-thread run on a \
                     {cpus}-CPU machine (measured {s:.2}x)"
                );
                std::process::exit(1);
            }
        }
    } else {
        println!("pdp: skipping the 4-thread scaling gate ({cpus} CPU available)");
    }
    println!(
        "BENCH_pdp.json validated (parity {}/{} ok, {} stale across {} swaps, \
         http 1-conn {:.0} dec/s{})",
        parity.requests - parity.mismatches,
        parity.requests,
        stress.stale_served,
        stress.swaps,
        single_conn.throughput,
        match speedup_4t {
            Some(s) => format!(", 4t/1t {s:.2}x"),
            None => String::new(),
        }
    );
}

/// `BENCH_pdp.json` lives at the repository root regardless of the cwd
/// cargo chose for the binary.
fn output_path() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir).join("../..").join("BENCH_pdp.json"),
        Err(_) => PathBuf::from("BENCH_pdp.json"),
    }
}

/// `distinct` seeded random XACML requests, converted to the attribute
/// model the PDP evaluates.
fn build_workload(distinct: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..distinct)
        .map(|_| XacmlRequest::random(&mut rng).to_request())
        .collect()
}

fn run_throughput(
    threads: usize,
    workload: &[Request],
    policies: &[Policy],
    per_thread: usize,
) -> ThroughputRow {
    let handle = PdpHandle::new();
    handle.publish(DecisionSnapshot::new(
        policies.to_vec(),
        CombiningAlg::DenyOverrides,
    ));
    let report = PdpServer::new(handle)
        .with_threads(threads)
        .run(workload, per_thread);
    ThroughputRow {
        threads,
        decisions: report.decisions,
        micros: report.elapsed.as_micros(),
        throughput: report.throughput,
    }
}

/// Single-thread parity: the serving tier (handle and pinned path both)
/// must render bit-identical decisions to the legacy stateful [`Pdp`] over
/// a fresh randomized request stream.
fn run_parity(policies: &[Policy], requests: usize, seed: u64) -> ParityOutcome {
    let mut repo = PolicyRepository::new();
    for p in policies {
        repo.add(p.clone());
    }
    let mut legacy = Pdp::new(CombiningAlg::DenyOverrides);
    let handle = PdpHandle::new();
    handle.publish(DecisionSnapshot::new(
        policies.to_vec(),
        CombiningAlg::DenyOverrides,
    ));
    let mut pin = handle.pin();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mismatches = 0usize;
    for _ in 0..requests {
        let req = XacmlRequest::random(&mut rng).to_request();
        let expected = legacy.decide(&repo, &req);
        let via_handle = handle.decide(&req).decision;
        let via_pin = pin.decide(&req).decision;
        if via_handle != expected || via_pin != expected {
            mismatches += 1;
        }
    }
    ParityOutcome {
        requests,
        mismatches,
    }
}

/// Snapshot-swap stress: worker threads hammer a small request set while
/// the main thread alternates between the real policy set and a
/// deny-everything set. Each published epoch has a known expected decision
/// function; a decision that disagrees with its own epoch's policy set was
/// served stale.
fn run_stress(policies: &[Policy], swaps: u64, threads: usize) -> StressOutcome {
    let deny_all = vec![Policy::new(
        "deny-all",
        vec![PolicyRule::unconditional(
            "deny-everything",
            agenp_policy::Effect::Deny,
        )],
    )];
    let workload = build_workload(16, 99);
    // Expected decision per request under each policy set, computed once:
    // epoch 0 is the handle's empty initial snapshot, odd epochs serve the
    // real set, even (published) epochs serve deny-all.
    let under_real: Vec<Decision> = workload
        .iter()
        .map(|r| evaluate_policies(policies, CombiningAlg::DenyOverrides, r))
        .collect();
    let under_empty: Vec<Decision> = workload
        .iter()
        .map(|r| evaluate_policies(&[], CombiningAlg::DenyOverrides, r))
        .collect();

    let handle = PdpHandle::new();
    let stop = AtomicBool::new(false);
    let decisions = AtomicU64::new(0);
    let stale = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..threads {
            let h = handle.clone();
            let (stop, decisions, stale) = (&stop, &decisions, &stale);
            let (workload, under_real, under_empty) = (&workload, &under_real, &under_empty);
            s.spawn(move || {
                let mut i = t; // phase-shift the streams
                while !stop.load(Ordering::Relaxed) {
                    let idx = i % workload.len();
                    let outcome = h.decide(&workload[idx]);
                    let expected = match outcome.epoch {
                        0 => under_empty[idx],
                        e if e % 2 == 1 => under_real[idx],
                        _ => Decision::Deny,
                    };
                    if outcome.decision != expected {
                        stale.fetch_add(1, Ordering::Relaxed);
                    }
                    decisions.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        // The swapper: odd epochs get the real set, even epochs deny-all.
        for swap in 0..swaps {
            let snapshot = if swap % 2 == 0 {
                DecisionSnapshot::new(policies.to_vec(), CombiningAlg::DenyOverrides)
            } else {
                DecisionSnapshot::new(deny_all.clone(), CombiningAlg::DenyOverrides)
            };
            handle.publish(snapshot);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });
    StressOutcome {
        decisions: decisions.load(Ordering::Relaxed),
        swaps,
        stale_served: stale.load(Ordering::Relaxed),
    }
}

/// Boots the `agenp-pdpd` HTTP server in-process on an ephemeral loopback
/// port and drives it with the crate's own load client: one connection
/// (the smoke-gated row), `cpus.min(4)` connections, and a batched run.
/// Every response is parity-checked against the oracle by the client.
fn run_http(policies: &[Policy], smoke: bool) -> Vec<HttpRow> {
    let handle = PdpHandle::new();
    handle.publish(DecisionSnapshot::new(
        policies.to_vec(),
        CombiningAlg::DenyOverrides,
    ));
    let server = PdpdServer::bind(
        "127.0.0.1:0",
        handle,
        ServerOptions {
            threads: std::thread::available_parallelism().map_or(2, usize::from),
            ..ServerOptions::default()
        },
    )
    .expect("pdp: cannot bind the in-process HTTP server on loopback");

    let workload = build_workload(64, 1234);
    let expected: Vec<Decision> = workload
        .iter()
        .map(|r| server.handle().decide(r).decision)
        .collect();

    let requests = if smoke { 20_000 } else { 100_000 };
    let multi_conns = std::thread::available_parallelism()
        .map_or(2, usize::from)
        .min(4);
    let shapes: &[(usize, usize)] = &[(1, 1), (multi_conns, 1), (1, 16)];
    let mut rows = Vec::with_capacity(shapes.len());
    for &(connections, batch) in shapes {
        let report = run_load(
            server.addr(),
            &workload,
            &expected,
            &LoadOptions {
                connections,
                requests,
                batch,
                ..LoadOptions::default()
            },
        )
        .expect("pdp: HTTP load run failed against the in-process server");
        rows.push(HttpRow {
            connections,
            batch,
            decisions: report.decisions,
            throughput: report.throughput,
            p50_us: report.p50_ns / 1000,
            p90_us: report.p90_ns / 1000,
            p99_us: report.p99_ns / 1000,
            max_us: report.max_ns / 1000,
            parity_mismatches: report.parity_mismatches,
            stale_epochs: report.stale_epochs,
            http_errors: report.http_errors,
        });
    }
    drop(server); // shuts down and joins the worker pool
    rows
}

fn speedup(rows: &[ThroughputRow], threads: usize) -> Option<f64> {
    let one = rows.iter().find(|r| r.threads == 1)?;
    let many = rows.iter().find(|r| r.threads == threads)?;
    if one.throughput > 0.0 {
        Some(many.throughput / one.throughput)
    } else {
        None
    }
}

fn print_tables(
    rows: &[ThroughputRow],
    parity: &ParityOutcome,
    stress: &StressOutcome,
    http_rows: &[HttpRow],
) {
    println!("shared-snapshot PDP serving throughput (closed loop):");
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "threads", "decisions", "micros", "decisions/s"
    );
    for r in rows {
        println!(
            "{:>8} {:>12} {:>12} {:>14.0}",
            r.threads, r.decisions, r.micros, r.throughput
        );
    }
    println!(
        "\nparity vs legacy Pdp: {}/{} identical",
        parity.requests - parity.mismatches,
        parity.requests
    );
    println!(
        "snapshot-swap stress: {} decisions across {} swaps, {} stale",
        stress.decisions, stress.swaps, stress.stale_served
    );
    println!("\nHTTP serving (in-process pdpd, loopback):");
    println!(
        "{:>6} {:>6} {:>12} {:>14} {:>9} {:>9} {:>9} {:>9}",
        "conns", "batch", "decisions", "decisions/s", "p50 us", "p90 us", "p99 us", "max us"
    );
    for r in http_rows {
        println!(
            "{:>6} {:>6} {:>12} {:>14.0} {:>9} {:>9} {:>9} {:>9}",
            r.connections,
            r.batch,
            r.decisions,
            r.throughput,
            r.p50_us,
            r.p90_us,
            r.p99_us,
            r.max_us
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    smoke: bool,
    rows: &[ThroughputRow],
    parity: &ParityOutcome,
    stress: &StressOutcome,
    http_rows: &[HttpRow],
    speedup_4t: Option<f64>,
    cpus: usize,
) -> String {
    let throughput: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"threads\": {}, \"decisions\": {}, \"micros\": {}, \
                 \"decisions_per_sec\": {:.1}}}",
                r.threads, r.decisions, r.micros, r.throughput
            )
        })
        .collect();
    let http: Vec<String> = http_rows
        .iter()
        .map(|r| {
            format!(
                "{{\"connections\": {}, \"batch\": {}, \"decisions\": {}, \
                 \"decisions_per_sec\": {:.1}, \"p50_us\": {}, \"p90_us\": {}, \
                 \"p99_us\": {}, \"max_us\": {}, \"parity_mismatches\": {}, \
                 \"stale_epochs\": {}, \"http_errors\": {}}}",
                r.connections,
                r.batch,
                r.decisions,
                r.throughput,
                r.p50_us,
                r.p90_us,
                r.p99_us,
                r.max_us,
                r.parity_mismatches,
                r.stale_epochs,
                r.http_errors
            )
        })
        .collect();
    let http_single = http_rows
        .iter()
        .find(|r| r.connections == 1 && r.batch == 1)
        .map_or("null".to_string(), |r| format!("{:.1}", r.throughput));
    format!(
        "{{\n\"schema\": \"agenp-bench/pdp/v3\",\n\"smoke\": {},\n\
         \"throughput\": [\n{}\n],\n\
         \"parity\": {{\"requests\": {}, \"mismatches\": {}}},\n\
         \"stress\": {{\"decisions\": {}, \"swaps\": {}, \"stale_served\": {}}},\n\
         \"http\": [\n{}\n],\n\
         \"claims\": {{\"speedup_4t_over_1t\": {}, \
         \"http_single_conn_decisions_per_sec\": {}, \"cpus\": {}}}\n}}\n",
        smoke,
        throughput.join(",\n"),
        parity.requests,
        parity.mismatches,
        stress.decisions,
        stress.swaps,
        stress.stale_served,
        http.join(",\n"),
        match speedup_4t {
            Some(s) => format!("{s:.3}"),
            None => "null".to_string(),
        },
        http_single,
        cpus
    )
}
