//! `obs` — overhead and flight-recorder validation harness for the
//! unified observability subsystem (`agenp-obs`; `docs/OBSERVABILITY.md`).
//!
//! Three phases, writing `BENCH_obs.json` at the repository root:
//!
//! 1. **Disabled baseline** — drives the shared-snapshot PDP workload with
//!    `ObsConfig::disabled()` and asserts the telemetry layer stays
//!    completely cold (no spans recorded, no `serve.*` counters moved).
//! 2. **Enabled overhead** — the same workload with telemetry on; reports
//!    the enabled/disabled throughput ratio and gates on it.
//! 3. **Autonomic-loop dump** — a full learn → adopt → decide-under-load
//!    run plus a supervised coalition round with telemetry enabled, dumped
//!    through the exporter; the dump must validate as JSON and contain
//!    spans from the asp, learn, core/serve, and coalition layers.
//!
//! Usage: `cargo run -p agenp-bench --bin obs --release [-- --smoke]`
//!
//! `--smoke` runs reduced scales suitable for CI and exits nonzero on any
//! gate failure (the gates run in both modes; smoke only shrinks scales).

use agenp_bench::server::PdpServer;
use agenp_coalition::resilience::FaultInjector;
use agenp_coalition::{supervised_cav_learning, CoalitionConfig};
use agenp_core::arch::{Ams, DecisionSnapshot, Feedback, PdpHandle};
use agenp_grammar::{Asg, ProdId};
use agenp_learn::HypothesisSpace;
use agenp_obs::{MemoryExporter, ObsConfig, ObsSnapshot};
use agenp_policy::{CombiningAlg, Policy, Request};
use std::path::PathBuf;

/// Throughput of one (mode, threads) pdp run.
struct ThroughputRow {
    telemetry: bool,
    threads: usize,
    decisions: u64,
    micros: u128,
    throughput: f64,
}

/// What phase 3's flight-recorder dump contained.
struct DumpOutcome {
    json_valid: bool,
    bytes: usize,
    span_total: usize,
    dropped: u64,
    prefix_counts: Vec<(&'static str, usize)>,
}

/// Span-name prefixes the autonomic-loop dump must cover, one per
/// instrumented layer (asp, learn, core control loop, serving tier,
/// coalition fabric).
const REQUIRED_PREFIXES: &[&str] = &["asp.", "learn.", "ams.", "serve.", "coalition."];

/// Enabled-mode throughput must stay above this fraction of the disabled
/// run. Telemetry on the decide path is two monotonic clock reads, one
/// histogram record, and two sharded counter bumps; 0.25 leaves headroom
/// for noisy shared CI runners while still catching accidental locks or
/// allocation on the hot path.
const MIN_ENABLED_RATIO: f64 = 0.25;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let distinct = if smoke { 64 } else { 256 };
    let per_thread = if smoke { 20_000 } else { 200_000 };
    let workload = build_workload(distinct);
    let policies = vec![clearance_policy()];
    let thread_counts: &[usize] = &[1, 4];

    // Phase 1: disabled baseline, and proof that disabled mode stays cold.
    agenp_obs::install(ObsConfig::disabled());
    agenp_obs::recorder().clear();
    let spans_before = agenp_obs::recorder().recorded();
    let serve_before = agenp_obs::registry().counter("serve.decisions").value();
    let mut rows: Vec<ThroughputRow> = thread_counts
        .iter()
        .map(|&t| run_throughput(false, t, &workload, &policies, per_thread))
        .collect();
    let disabled_clean = agenp_obs::recorder().recorded() == spans_before
        && agenp_obs::registry().counter("serve.decisions").value() == serve_before;

    // Phase 2: the same workload with telemetry enabled.
    agenp_obs::install(ObsConfig::enabled());
    rows.extend(
        thread_counts
            .iter()
            .map(|&t| run_throughput(true, t, &workload, &policies, per_thread)),
    );
    let overhead_1t = enabled_ratio(&rows, 1);

    // Phase 3: full autonomic loop + coalition round, dumped and validated.
    agenp_obs::recorder().clear();
    let exporter = MemoryExporter::new();
    agenp_obs::set_exporter(Box::new(exporter.clone()));
    run_autonomic_loop(smoke);
    run_coalition_round(smoke);
    let snapshot = agenp_obs::snapshot("bench");
    let dumped = agenp_obs::dump("bench").expect("memory exporter cannot fail");
    assert!(dumped, "an exporter was installed");
    let dump_line = exporter
        .exports()
        .pop()
        .expect("dump() delivered one export");
    let dump = inspect_dump(&snapshot, &dump_line);
    agenp_obs::clear_exporter();
    agenp_obs::install(ObsConfig::disabled());

    print_tables(&rows, overhead_1t, &dump, disabled_clean);

    let json = render_json(smoke, &rows, overhead_1t, &dump, disabled_clean, &dump_line);
    let path = output_path();
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("obs: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nwrote {}", path.display());

    // Gates (smoke and full mode alike).
    let on_disk = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("obs: cannot re-read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    if let Err(e) = agenp_bench::json::validate(&on_disk) {
        eprintln!("obs: BENCH_obs.json is not valid JSON: {e}");
        std::process::exit(1);
    }
    if !disabled_clean {
        eprintln!("obs: disabled mode leaked into the registry or recorder");
        std::process::exit(1);
    }
    if !dump.json_valid {
        eprintln!("obs: the flight-recorder dump failed JSON validation");
        std::process::exit(1);
    }
    for (prefix, n) in &dump.prefix_counts {
        if *n == 0 {
            eprintln!("obs: dump has no spans with prefix {prefix:?}");
            std::process::exit(1);
        }
    }
    if let Some(r) = overhead_1t {
        if r < MIN_ENABLED_RATIO {
            eprintln!(
                "obs: telemetry-enabled 1-thread throughput fell to {:.0}% of the \
                 disabled run (gate: >= {:.0}%)",
                r * 100.0,
                MIN_ENABLED_RATIO * 100.0
            );
            std::process::exit(1);
        }
    }
    println!(
        "BENCH_obs.json validated (disabled clean, {} spans across {} layers, \
         enabled/disabled {}%)",
        dump.span_total,
        dump.prefix_counts.len(),
        match overhead_1t {
            Some(r) => format!("{:.0}", r * 100.0),
            None => "n/a".to_string(),
        }
    );
}

/// `BENCH_obs.json` lives at the repository root regardless of the cwd
/// cargo chose for the binary.
fn output_path() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir).join("../..").join("BENCH_obs.json"),
        Err(_) => PathBuf::from("BENCH_obs.json"),
    }
}

/// A policy permitting high-clearance subjects — enough structure for
/// decisions to depend on the request.
fn clearance_policy() -> Policy {
    use agenp_policy::{Category, Cond, Effect, PolicyRule};
    Policy::new(
        "clearance",
        vec![
            PolicyRule::new(
                "allow-high",
                Effect::Permit,
                Cond::eq(Category::Subject, "clearance", "high"),
            ),
            PolicyRule::new(
                "deny-low",
                Effect::Deny,
                Cond::eq(Category::Subject, "clearance", "low"),
            ),
        ],
    )
}

fn build_workload(distinct: usize) -> Vec<Request> {
    (0..distinct)
        .map(|i| {
            Request::new()
                .subject(
                    "clearance",
                    match i % 3 {
                        0 => "high",
                        1 => "low",
                        _ => "none",
                    },
                )
                .subject("uid", format!("u{i}").as_str())
        })
        .collect()
}

fn run_throughput(
    telemetry: bool,
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
        telemetry,
        threads,
        decisions: report.decisions,
        micros: report.elapsed.as_micros(),
        throughput: report.throughput,
    }
}

/// Enabled-mode throughput as a fraction of disabled-mode at `threads`.
fn enabled_ratio(rows: &[ThroughputRow], threads: usize) -> Option<f64> {
    let off = rows.iter().find(|r| !r.telemetry && r.threads == threads)?;
    let on = rows.iter().find(|r| r.telemetry && r.threads == threads)?;
    if off.throughput > 0.0 {
        Some(on.throughput / off.throughput)
    } else {
        None
    }
}

/// The gated grammar the `agenp-core` AMS tests use: adaptation learns that
/// permits are invalid under lockdown.
fn gate_ams() -> Ams {
    let g: Asg = r#"
        policy -> effect "if" "subject" "clearance" "=" level
        effect -> "permit" { e(permit). }
        effect -> "deny"   { e(deny). }
        level -> "low"  { lvl(low). }
        level -> "high" { lvl(high). }
    "#
    .parse()
    .expect("bench grammar parses");
    let space = HypothesisSpace::from_texts(&[
        (ProdId::from_index(1), ":- lockdown."),
        (ProdId::from_index(2), ":- not lockdown."),
    ]);
    Ams::new("obs-bench", g, space)
}

/// Learn → adopt → decide under load: generates policies, serves a
/// multi-threaded decision burst, feeds back lockdown experience, adapts,
/// and serves again — the full control loop under telemetry.
fn run_autonomic_loop(smoke: bool) {
    let mut ams = gate_ams();
    ams.refresh_policies().expect("initial refresh succeeds");

    let requests: Vec<Request> = (0..16)
        .map(|i| Request::new().subject("clearance", if i % 2 == 0 { "high" } else { "low" }))
        .collect();
    let per_thread = if smoke { 2_000 } else { 20_000 };
    PdpServer::new(ams.serving_handle())
        .with_threads(2)
        .run(&requests, per_thread);

    let lockdown: agenp_asp::Program = "lockdown.".parse().expect("context parses");
    ams.set_context(lockdown.clone());
    ams.observe(Feedback::invalid(
        "permit if subject clearance = high",
        lockdown.clone(),
    ));
    ams.observe(Feedback::invalid(
        "permit if subject clearance = low",
        lockdown.clone(),
    ));
    ams.observe(Feedback::valid(
        "deny if subject clearance = high",
        lockdown,
    ));
    ams.adapt().expect("adaptation succeeds");
    PdpServer::new(ams.serving_handle())
        .with_threads(2)
        .run(&requests, per_thread);
}

/// One fault-free supervised coalition round, small enough for CI.
fn run_coalition_round(smoke: bool) {
    let samples = if smoke { 40 } else { 120 };
    let cfg = CoalitionConfig::new(2, samples, 7);
    let wiki = agenp_coalition::CasWiki::new();
    supervised_cav_learning(&cfg, &wiki, &FaultInjector::none())
        .expect("fault-free coalition round succeeds");
}

fn inspect_dump(snapshot: &ObsSnapshot, dump_line: &str) -> DumpOutcome {
    DumpOutcome {
        json_valid: agenp_bench::json::validate(dump_line).is_ok(),
        bytes: dump_line.len(),
        span_total: snapshot.spans.len(),
        dropped: snapshot.dropped_spans,
        prefix_counts: REQUIRED_PREFIXES
            .iter()
            .map(|&p| (p, snapshot.spans_with_prefix(p).len()))
            .collect(),
    }
}

fn print_tables(
    rows: &[ThroughputRow],
    overhead_1t: Option<f64>,
    dump: &DumpOutcome,
    disabled_clean: bool,
) {
    println!("pdp decide throughput, telemetry off vs on (closed loop):");
    println!(
        "{:>10} {:>8} {:>12} {:>12} {:>14}",
        "telemetry", "threads", "decisions", "micros", "decisions/s"
    );
    for r in rows {
        println!(
            "{:>10} {:>8} {:>12} {:>12} {:>14.0}",
            if r.telemetry { "on" } else { "off" },
            r.threads,
            r.decisions,
            r.micros,
            r.throughput
        );
    }
    if let Some(r) = overhead_1t {
        println!(
            "\n1-thread enabled/disabled throughput: {}",
            agenp_bench::pct(r)
        );
    }
    println!(
        "disabled mode stayed cold: {}",
        if disabled_clean { "yes" } else { "NO" }
    );
    println!(
        "\nflight-recorder dump: {} bytes, {} spans ({} dropped), JSON {}",
        dump.bytes,
        dump.span_total,
        dump.dropped,
        if dump.json_valid { "valid" } else { "INVALID" }
    );
    for (prefix, n) in &dump.prefix_counts {
        println!("  {prefix:<12} {n:>6} spans");
    }
}

fn render_json(
    smoke: bool,
    rows: &[ThroughputRow],
    overhead_1t: Option<f64>,
    dump: &DumpOutcome,
    disabled_clean: bool,
    dump_line: &str,
) -> String {
    let throughput: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"telemetry\": {}, \"threads\": {}, \"decisions\": {}, \
                 \"micros\": {}, \"decisions_per_sec\": {:.1}}}",
                r.telemetry, r.threads, r.decisions, r.micros, r.throughput
            )
        })
        .collect();
    let prefixes: Vec<String> = dump
        .prefix_counts
        .iter()
        .map(|(p, n)| format!("{{\"prefix\": \"{p}\", \"spans\": {n}}}"))
        .collect();
    format!(
        "{{\n\"schema\": \"agenp-bench/obs/v1\",\n\"smoke\": {},\n\
         \"throughput\": [\n{}\n],\n\
         \"claims\": {{\"enabled_over_disabled_1t\": {}, \"disabled_clean\": {}, \
         \"cpus\": {}}},\n\
         \"dump\": {{\"json_valid\": {}, \"bytes\": {}, \"spans\": {}, \
         \"dropped_spans\": {}, \"layers\": [{}]}},\n\
         \"flight_recorder\": {}\n}}\n",
        smoke,
        throughput.join(",\n"),
        match overhead_1t {
            Some(r) => format!("{r:.3}"),
            None => "null".to_string(),
        },
        disabled_clean,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        dump.json_valid,
        dump.bytes,
        dump.span_total,
        dump.dropped,
        prefixes.join(", "),
        dump_line.trim_end()
    )
}
