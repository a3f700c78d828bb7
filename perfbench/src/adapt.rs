//! The adaptation workloads: an `AdaptPlane` over the leveled permit
//! grammar, driven through `Relearner` in episodes of `LEVELS` rounds,
//! while one serving thread decides through a `PdpPin` and checks every
//! decision against its own epoch's expected decision. Each round logs one
//! operator denial of the next level (in a seeded order). In
//! `adapt-pep-log` the serving thread also records every decision it
//! serves into the plane's `DecisionLog`.
//!
//! The traced run replays rounds from outside through the same public
//! entry points `AdaptPlane::run_round` calls (drain, mine, relearn,
//! regenerate, publish) and times each, then counts learner and solver
//! work through the `agenp-obs` registry for one more episode.

use crate::adoption::Adoptions;
use crate::gen::{self, LEVELS};
use crate::inproc;
use crate::report::RunResult;
use crate::stats::{self, Dist, Samples, Window, Windowed};
use crate::sys;
use crate::trace::Trace;
use agenp_adapt::{AdaptPlane, DecisionLog, Miner, Relearner, RoundOutcome};
use agenp_asp::Program;
use agenp_core::arch::{
    CanonicalTranslator, DecisionSnapshot, Feedback, Padap, PdpHandle, PolicyTranslator, Prep,
};
use agenp_grammar::Asg;
use agenp_learn::HypothesisSpace;
use agenp_policy::{CombiningAlg, Decision, DecisionEffects, Policy, PolicyRule, Request};
use agenp_refsem::reference;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 41;
/// Untimed set-ups before those.
const SETUP_WARMUP: usize = 4;
/// One decision in this many is timed (and, with a decision log, one
/// record).
const SAMPLE_EVERY: u64 = 256;
/// Sampled decision latencies kept per episode: the number of episodes
/// in a run varies with the machine's speed, and the buffers must not.
const WINDOW_SAMPLES: usize = 2048;
/// Sampled `DecisionLog::record` times kept per run.
const RECORD_SAMPLES: usize = 16_384;
/// A round without an outcome after this long fails.
const ROUND_TIMEOUT: Duration = Duration::from_secs(60);
/// A published epoch not served within this long fails.
const ADOPTION_TIMEOUT: Duration = Duration::from_secs(5);
/// The plane's name (policy and rule ids derive from it).
const NAME: &str = "bench";
/// Obs counters read per round in the traced run.
const COUNTERS: &[&str] = &[
    "learn.solver_calls",
    "learn.search_nodes",
    "learn.eval_cache_hits",
    "learn.eval_cache_misses",
    "asp.ground.runs",
    "asp.ground.parallel_units",
    "asp.ground.join_candidates",
    "asp.solve.runs",
    "asp.solve.decisions",
];

/// State the serving thread and the round driver share.
struct Shared {
    stop: AtomicBool,
    /// Decisions served so far.
    served: AtomicU64,
    /// Highest epoch known to be published: nothing older may be served
    /// after it.
    published: AtomicU64,
    /// When each new epoch was first served.
    adoptions: Adoptions,
    /// `adapt-overrides`: epoch → mask of levels whose permit the epoch
    /// must have removed.
    expect: Mutex<HashMap<u64, u64>>,
    /// `adapt-pep-log`: the log the serving thread records into.
    log: Mutex<Arc<DecisionLog>>,
    /// The untraced episode sampled latencies belong to (`usize::MAX`:
    /// none).
    window: AtomicUsize,
}

/// The serving thread's account.
#[derive(Default)]
struct ServeTally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
    /// Sampled decision latencies.
    latency: Samples,
    record_ns: Vec<u64>,
}

impl ServeTally {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 4 {
            self.reasons.push(reason);
        }
    }
}

/// One workload's fixed inputs.
struct Inputs {
    seed: u64,
    pep_log: bool,
    gpm: Asg,
    space: HypothesisSpace,
    requests: Vec<Request>,
}

/// Runs one adaptation workload for about `seconds` (whole episodes).
pub fn run(pep_log: bool, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let (gpm, space) = gen::leveled_grammar(LEVELS);
    let inputs = Inputs {
        seed,
        pep_log,
        gpm,
        space,
        requests: (0..LEVELS).map(gen::level_request).collect(),
    };
    let mut result = RunResult::default();

    let (handle, cost) = sys::time_setups(SETUP_WARMUP, SETUPS, || {
        let handle = PdpHandle::new();
        let mut plane =
            AdaptPlane::new(NAME, inputs.gpm.clone(), inputs.space.clone()).attach(handle.clone());
        plane
            .publish_initial()
            .map_err(|e| format!("publish_initial failed: {e}"))?;
        Ok(handle)
    })?;
    result.set_setup(&cost);

    let epoch = handle.snapshot().epoch();
    let shared = Shared {
        stop: AtomicBool::new(false),
        served: AtomicU64::new(0),
        published: AtomicU64::new(epoch),
        adoptions: Adoptions::new(0),
        expect: Mutex::new(HashMap::from([(epoch, 0)])),
        log: Mutex::new(Arc::new(DecisionLog::new(1))),
        window: AtomicUsize::new(usize::MAX),
    };
    let (_, serve_order) = gen::level_orders(seed, u64::MAX, LEVELS);
    let mut episode = 0u64;
    let mut windows: Vec<Window> = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut counters = (HashMap::new(), 0u64);
    let mut tally = ServeTally::default();
    let mut trace = Trace::new();
    let mut driver: Result<(), String> = Ok(());
    let stats0 = handle.stats();
    std::thread::scope(|s| {
        let server = {
            let (shared, inputs, handle) = (&shared, &inputs, handle.clone());
            let order = &serve_order;
            s.spawn(move || serve(handle, shared, inputs, order))
        };
        // Whole episodes, each its own measurement window. A traced run
        // alternates untraced and traced episodes, so both see the same
        // machine.
        driver = (|| {
            let end = Instant::now() + Duration::from_secs_f64(seconds);
            while windows.is_empty() || Instant::now() < end {
                shared.window.store(windows.len(), Ordering::Release);
                let served0 = shared.served.load(Ordering::Acquire);
                let cpu0 = sys::cpu_seconds();
                let t0 = Instant::now();
                let mut window = Window::default();
                live_episode(&inputs, &handle, &shared, episode, &mut window, &mut result)?;
                window.seconds = t0.elapsed().as_secs_f64();
                window.cpu_seconds = sys::cpu_seconds() - cpu0;
                window.decisions = shared.served.load(Ordering::Acquire) - served0;
                windows.push(window);
                shared.window.store(usize::MAX, Ordering::Release);
                episode += 1;
                if traced {
                    let rounds = on_worker(|| {
                        shadow_episode(&inputs, &handle, &shared, episode, &mut trace)
                    })?;
                    traced_rounds.extend(rounds);
                    episode += 1;
                }
            }
            if traced {
                counters = count_episode(&inputs, &handle, &shared, episode)?;
            }
            Ok(())
        })();
        shared.stop.store(true, Ordering::Release);
        tally = server.join().expect("serving thread panicked");
    });
    driver?;
    let stats1 = handle.stats();
    result.absorb(tally.attempted, tally.failed, tally.reasons.clone());

    std::mem::take(&mut tally.latency).into_windows(&mut windows);
    let e2e = Windowed::of(&windows);
    result.set("decide_per_s", e2e.per_s, e2e.decisions as usize);
    result.set("decide_p50_us", e2e.p50_us, e2e.latencies);
    result.set("decide_p90_us", e2e.p90_us, e2e.latencies);
    result.set("cpu_us_per_decision", e2e.cpu_us, e2e.decisions as usize);
    result.set("round_p50_ms", e2e.round_p50_ms, e2e.rounds);
    result.set("round_p90_ms", e2e.round_p90_ms, e2e.rounds);
    let rounds = Dist::of(
        windows
            .iter()
            .flat_map(|w| stats::scaled(&w.round_ns, 1e-6))
            .collect(),
    );
    let (tail, tail_ms) = rounds.supported_tail();
    result.notes.push(format!(
        "end-to-end figures are medians over {} untraced episodes of {LEVELS} rounds; whole run: \
         rounds p50 {:.3} ms, {tail} {tail_ms:.3} ms (n={}, {} failed or skipped)",
        windows.len(),
        rounds.p50,
        rounds.n,
        result.rounds_failed
    ));
    let latency = Dist::of(
        windows
            .iter()
            .flat_map(|w| stats::scaled(&w.latency_ns, 1e-3))
            .collect(),
    );
    let (tail, tail_us) = latency.supported_tail();
    result.notes.push(format!(
        "serving thread: {} decisions; decide p50 {:.3} us, {tail} {tail_us:.3} us \
         (n={}, one decision in {SAMPLE_EVERY} timed)",
        e2e.decisions, latency.p50, latency.n
    ));

    if traced {
        let hits = stats1.cache_hits - stats0.cache_hits;
        let probes = hits + stats1.cache_misses - stats0.cache_misses;
        let hit_rate = hits as f64 / probes.max(1) as f64;
        result.set("serve.cache_hit_rate", hit_rate, probes as usize);
        result.set(
            "adapt.round_fail_rate",
            result.round_fail_rate(),
            result.rounds as usize,
        );
        report_layers(
            &inputs,
            &handle,
            &mut result,
            &mut trace,
            &traced_rounds,
            &tally,
            e2e.round_p50_ms,
            counters,
        );
        result.notes.push(trace.render_summary());
        let path = crate::out_path(&format!("{}-seed{seed}-spans.jsonl", name(pep_log)));
        trace
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        result.notes.push(format!(
            "spans: {} written to {}",
            trace.spans().len(),
            path.display()
        ));
    }
    result.set("peak_rss_mb", sys::peak_rss_mb()?, 1);
    Ok(result)
}

/// The workload name.
fn name(pep_log: bool) -> &'static str {
    if pep_log {
        "adapt-pep-log"
    } else {
        "adapt-overrides"
    }
}

/// The serving thread: closed-loop pinned decisions, each checked.
fn serve(handle: PdpHandle, shared: &Shared, inputs: &Inputs, order: &[usize]) -> ServeTally {
    let mut tally = ServeTally {
        latency: Samples::with_cap(WINDOW_SAMPLES),
        ..ServeTally::default()
    };
    let mut pin = handle.pin();
    let mut epoch = 0u64;
    let mut table: Option<Vec<DecisionEffects>> = None;
    let mut log = shared.log.lock().expect("log slot poisoned").clone();
    let mut k = 0u64;
    while !shared.stop.load(Ordering::Acquire) {
        let level = order[(k % order.len() as u64) as usize];
        let request = &inputs.requests[level];
        k += 1;
        let sampled = k.is_multiple_of(SAMPLE_EVERY);
        let floor = shared.published.load(Ordering::Acquire);
        let t0 = Instant::now();
        let outcome = pin.decide(request);
        if sampled {
            let w = shared.window.load(Ordering::Acquire);
            if w != usize::MAX {
                tally.latency.push(w, t0.elapsed().as_nanos());
            }
        }
        tally.attempted += 1;
        shared.served.store(k, Ordering::Release);
        if outcome.epoch < epoch {
            tally.fail(format!("epoch regression {epoch} -> {}", outcome.epoch));
            continue;
        }
        if outcome.epoch > epoch {
            shared.adoptions.observe(outcome.epoch, Instant::now());
            epoch = outcome.epoch;
            table = expected_table(inputs, shared, &pin, epoch);
            log = shared.log.lock().expect("log slot poisoned").clone();
        }
        if outcome.epoch < floor {
            tally.fail(format!(
                "stale epoch {} after {floor} was published",
                outcome.epoch
            ));
        }
        match table.as_ref().map(|t| &t[level]) {
            Some(want)
                if outcome.decision == want.decision
                    && outcome.obligations == want.obligations
                    && outcome.penalty == want.penalty
                    && outcome.error.is_none() => {}
            Some(want) => tally.fail(format!(
                "level l{level} at epoch {epoch}: served {} where {} was expected",
                outcome.decision, want.decision
            )),
            None => tally.fail(format!("epoch {epoch} has no expected decision function")),
        }
        if inputs.pep_log {
            let t0 = Instant::now();
            log.record(request, &outcome);
            if sampled && tally.record_ns.len() < RECORD_SAMPLES {
                tally.record_ns.push(t0.elapsed().as_nanos() as u64);
            }
        }
    }
    tally
}

/// Each level's expected effects at `epoch`. `adapt-overrides` knows them
/// in advance: levels denied so far render NotApplicable, the rest
/// Permit. `adapt-pep-log`'s learning outcome depends on what its log
/// held, so its epochs are checked against the reference PDP over the
/// policy set that epoch published.
fn expected_table(
    inputs: &Inputs,
    shared: &Shared,
    pin: &agenp_core::arch::PdpPin,
    epoch: u64,
) -> Option<Vec<DecisionEffects>> {
    if inputs.pep_log {
        let snapshot = pin.snapshot();
        (snapshot.epoch() == epoch).then(|| {
            inputs
                .requests
                .iter()
                .map(|r| reference::effects_reference(snapshot.policies(), snapshot.combining(), r))
                .collect()
        })
    } else {
        let mask = *shared
            .expect
            .lock()
            .expect("expectations poisoned")
            .get(&epoch)?;
        Some(
            (0..LEVELS)
                .map(|level| {
                    DecisionEffects::bare(if mask & (1 << level) != 0 {
                        Decision::NotApplicable
                    } else {
                        Decision::Permit
                    })
                })
                .collect(),
        )
    }
}

/// Registers what the next epoch must serve (before it is published).
fn expect_next(shared: &Shared, handle: &PdpHandle, mask: u64) {
    let next = handle.snapshot().epoch() + 1;
    shared
        .expect
        .lock()
        .expect("expectations poisoned")
        .insert(next, mask);
}

/// The operator overrides level `level`'s permit: a Deny record of the
/// current decision goes into `log`.
fn operator_denial(handle: &PdpHandle, log: &DecisionLog, request: &Request) {
    let mut overridden = handle.decide(request);
    overridden.decision = Decision::Deny;
    log.record(request, &overridden);
}

/// One untraced episode through `AdaptPlane` and `Relearner`.
fn live_episode(
    inputs: &Inputs,
    handle: &PdpHandle,
    shared: &Shared,
    episode: u64,
    window: &mut Window,
    result: &mut RunResult,
) -> Result<(), String> {
    let (denials, _) = gen::level_orders(inputs.seed, episode, LEVELS);
    let mut plane =
        AdaptPlane::new(NAME, inputs.gpm.clone(), inputs.space.clone()).attach(handle.clone());
    let log = plane.log();
    *shared.log.lock().expect("log slot poisoned") = log.clone();
    expect_next(shared, handle, 0);
    let first = plane
        .publish_initial()
        .map_err(|e| format!("publish_initial failed: {e}"))?;
    shared.published.store(first, Ordering::Release);
    let relearner = Relearner::spawn(plane);
    let mut mask = 0u64;
    for &level in &denials {
        operator_denial(handle, &log, &inputs.requests[level]);
        mask |= 1 << level;
        expect_next(shared, handle, mask);
        let t0 = Instant::now();
        relearner.trigger();
        let outcome = relearner.wait_outcome(ROUND_TIMEOUT);
        result.rounds += 1;
        result.attempted += u64::from(!inputs.pep_log);
        match outcome {
            Some(RoundOutcome::Published(report)) => {
                shared.published.store(report.epoch, Ordering::Release);
                match shared.adoptions.wait(report.epoch, ADOPTION_TIMEOUT) {
                    Some(t2) => window.round_ns.push((t2 - t0).as_nanos() as u64),
                    None => {
                        result.rounds_failed += 1;
                        result.fail(1, format!("epoch {} was never served", report.epoch));
                    }
                }
            }
            Some(other) => {
                window.round_ns.push(t0.elapsed().as_nanos() as u64);
                result.rounds_failed += 1;
                // adapt-pep-log's failed rounds are the documented defect;
                // they count in round_fail_rate, not as errors.
                if !inputs.pep_log {
                    result.fail(1, format!("round did not publish: {other:?}"));
                }
            }
            None => {
                result.rounds_failed += 1;
                result.fail(1, "round produced no outcome within 60 s");
                break;
            }
        }
    }
    relearner.shutdown();
    Ok(())
}

/// `AdaptPlane::run_round` rebuilt from the public entry points it calls,
/// so each can be timed from outside.
struct Shadow {
    gpm: Asg,
    space: HypothesisSpace,
    context: Program,
    padap: Padap,
    prep: Prep,
    miner: Miner,
    translator: CanonicalTranslator,
    log: Arc<DecisionLog>,
    feedback: Vec<Feedback>,
}

impl Shadow {
    fn new(inputs: &Inputs) -> Shadow {
        let mut padap = Padap::new();
        padap.incremental = true;
        Shadow {
            gpm: inputs.gpm.clone(),
            space: inputs.space.clone(),
            context: Program::new(),
            padap,
            prep: Prep::new(),
            miner: Miner::new(),
            translator: CanonicalTranslator,
            log: Arc::new(DecisionLog::new(4096)),
            feedback: Vec::new(),
        }
    }

    /// The snapshot `gpm` regenerates to.
    fn regenerate(&self, gpm: &Asg) -> Result<DecisionSnapshot, String> {
        let strings = self
            .prep
            .generate(gpm, &self.context)
            .map_err(|e| format!("regeneration failed: {e}"))?;
        let rules: Vec<PolicyRule> = strings
            .iter()
            .enumerate()
            .filter_map(|(i, s)| self.translator.translate(s, &format!("{NAME}-a{i}")))
            .collect();
        let policy = Policy {
            id: format!("{NAME}-adapted"),
            rules,
            combining: CombiningAlg::DenyOverrides,
            obligations: Vec::new(),
        };
        Ok(
            DecisionSnapshot::new(vec![policy], CombiningAlg::DenyOverrides)
                .with_gpm(gpm.clone())
                .with_context(self.context.clone()),
        )
    }
}

/// What one traced round moved through the log and miner.
struct Traced {
    records: usize,
    emitted: usize,
    dropped: u64,
    published: bool,
}

/// One episode of shadow rounds with every layer call recorded as a span.
fn shadow_episode(
    inputs: &Inputs,
    handle: &PdpHandle,
    shared: &Shared,
    episode: u64,
    trace: &mut Trace,
) -> Result<Vec<Traced>, String> {
    let (denials, _) = gen::level_orders(inputs.seed, episode, LEVELS);
    let mut shadow = Shadow::new(inputs);
    *shared.log.lock().expect("log slot poisoned") = shadow.log.clone();
    expect_next(shared, handle, 0);
    let first = shadow.regenerate(&shadow.gpm)?;
    shared
        .published
        .store(handle.publish(first), Ordering::Release);
    let mut out = Vec::with_capacity(LEVELS);
    let mut mask = 0u64;
    for (r, &level) in denials.iter().enumerate() {
        let id = episode * 1000 + r as u64;
        let request = &inputs.requests[level];
        trace.time("adapt.log.record", None, id, || {
            operator_denial(handle, &shadow.log, request)
        });
        mask |= 1 << level;
        expect_next(shared, handle, mask);
        let dropped0 = shadow.log.dropped();
        let root = trace.push("adapt.round", trace.now(), 0, None, id);
        let records = trace.time("adapt.log.drain", Some(root), id, || shadow.log.drain());
        let batch = trace.time("adapt.mine", Some(root), id, || {
            shadow.miner.mine(&records, &shadow.context)
        });
        shadow.feedback.extend(batch.feedback);
        let adapted = trace.time("adapt.relearn", Some(root), id, || {
            shadow
                .padap
                .adapt(&shadow.gpm, &shadow.space, &shadow.feedback)
        });
        let mut published = false;
        match adapted {
            Ok(adaptation) => {
                let snapshot = trace.time("adapt.regenerate", Some(root), id, || {
                    shadow.regenerate(&adaptation.gpm)
                })?;
                let epoch =
                    trace.time("serve.publish", Some(root), id, || handle.publish(snapshot));
                let published_at = trace.now();
                shared.published.store(epoch, Ordering::Release);
                match shared.adoptions.wait(epoch, ADOPTION_TIMEOUT) {
                    Some(t2) => {
                        let served = trace.at(t2).max(published_at);
                        trace.push("adapt.adoption", published_at, served, Some(root), id);
                        trace.close(root, served);
                        published = true;
                    }
                    None => return Err(format!("traced epoch {epoch} was never served")),
                }
            }
            Err(e) => {
                let end = trace.now();
                trace.close(root, end);
                if !inputs.pep_log {
                    return Err(format!("traced round failed: {e}"));
                }
            }
        }
        out.push(Traced {
            records: records.len(),
            emitted: batch.stats.emitted,
            dropped: shadow.log.dropped() - dropped0,
            published,
        });
    }
    Ok(out)
}

/// Runs `f` on a thread of its own, as `Relearner` runs each episode's
/// rounds, so traced and untraced rounds see the same threading.
fn on_worker<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("shadow worker panicked"))
}

/// One more shadow episode with the `agenp-obs` registry on; returns the
/// counters' per-round increments and the rounds counted.
fn count_episode(
    inputs: &Inputs,
    handle: &PdpHandle,
    shared: &Shared,
    episode: u64,
) -> Result<(HashMap<&'static str, f64>, u64), String> {
    let registry = agenp_obs::registry();
    let before: Vec<u64> = COUNTERS
        .iter()
        .map(|c| registry.counter(c).value())
        .collect();
    agenp_obs::install(agenp_obs::ObsConfig::enabled());
    let mut scratch = Trace::new();
    let rounds = on_worker(|| shadow_episode(inputs, handle, shared, episode, &mut scratch));
    agenp_obs::install(agenp_obs::ObsConfig::disabled());
    let n = rounds?.len() as u64;
    let per_round = COUNTERS
        .iter()
        .zip(before)
        .map(|(c, b)| {
            (
                *c,
                (registry.counter(c).value() - b) as f64 / n.max(1) as f64,
            )
        })
        .collect();
    Ok((per_round, n))
}

/// Fills the per-layer metrics and the layer table from the traced rounds.
#[allow(clippy::too_many_arguments)]
fn report_layers(
    inputs: &Inputs,
    handle: &PdpHandle,
    result: &mut RunResult,
    trace: &mut Trace,
    traced: &[Traced],
    tally: &ServeTally,
    round_p50_ms: f64,
    counters: (HashMap<&'static str, f64>, u64),
) {
    let records: Vec<f64> = traced.iter().map(|t| t.records as f64).collect();
    let emitted: Vec<f64> = traced.iter().map(|t| t.emitted as f64).collect();
    let dropped: u64 = traced.iter().map(|t| t.dropped).sum();
    let published = traced.iter().filter(|t| t.published).count();
    let n = traced.len();
    let ms = |name: &str| trace.median_ns(name) * 1e-6;
    let layers = [
        ("adapt.log.drain", ms("adapt.log.drain")),
        ("adapt.mine", ms("adapt.mine")),
        ("adapt.relearn", ms("adapt.relearn")),
        ("adapt.regenerate", ms("adapt.regenerate")),
        ("serve.publish", ms("serve.publish")),
        ("adapt.adoption", ms("adapt.adoption")),
    ];
    let sum: f64 = layers.iter().map(|l| l.1).sum();
    let shadow_round = ms("adapt.round");
    result.set("adapt.log.drain_us", layers[0].1 * 1e3, n);
    result.set("adapt.mine_us", layers[1].1 * 1e3, n);
    result.set("adapt.relearn_ms", layers[2].1, n);
    result.set("adapt.regenerate_ms", layers[3].1, published);
    result.set("serve.publish_us", layers[4].1 * 1e3, published);
    result.set("adapt.adoption_lag_us", layers[5].1 * 1e3, published);
    result.set("adapt.round_residual_ms", round_p50_ms - sum, n);
    result.set("adapt.mine.records", stats::median(&records), n);
    result.set("adapt.mine.emitted", stats::median(&emitted), n);
    result.set("adapt.log.dropped", dropped as f64 / n.max(1) as f64, n);
    let record_ns = if inputs.pep_log {
        stats::median(&stats::scaled(&tally.record_ns, 1.0))
    } else {
        trace.median_ns("adapt.log.record")
    };
    let record_n = if inputs.pep_log {
        tally.record_ns.len()
    } else {
        n
    };
    result.set("adapt.log.record_ns", record_ns, record_n);
    result.set("trace.reconcile", sum / round_p50_ms, n);
    result.set("trace.overhead", shadow_round / round_p50_ms, n);
    for (name, per_round) in &counters.0 {
        result.set(name, *per_round, counters.1 as usize);
    }

    // The decide path, in process, over the serving thread's requests.
    let sample: Vec<&Request> = inputs.requests.iter().collect();
    let (decide_ns, blocks) = inproc::pinned_decide(trace, handle, &sample);
    result.set("serve.decide_ns", decide_ns, blocks);
    inproc::serving_layers(trace, handle, &sample).report(result);
    let ratio = inproc::telemetry_ratio(handle, &sample);
    result.set("obs.decide_on_over_off", ratio.0, ratio.1);

    let mut table =
        format!("round layer table ({n} traced rounds, {published} published; medians):\n");
    for (name, v) in layers {
        table.push_str(&format!("  {name:<24} {v:>12.4} ms\n"));
    }
    table.push_str(&format!(
        "  sum                      {sum:>12.4} ms   vs round_p50_ms {round_p50_ms:.4} ms untraced: \
         reconciliation {:.3}, residual {:.4} ms\n\
         tracing overhead: traced round p50 {shadow_round:.4} ms vs {round_p50_ms:.4} ms untraced ({:+.1}%)",
        sum / round_p50_ms,
        round_p50_ms - sum,
        (shadow_round / round_p50_ms - 1.0) * 100.0
    ));
    result.notes.push(table);
    let mut names: Vec<_> = counters.0.iter().collect();
    names.sort_by_key(|(k, _)| **k);
    result.notes.push(format!(
        "obs counters per round over {} rounds with telemetry on: {}",
        counters.1,
        names
            .iter()
            .map(|(k, v)| format!("{k}={v:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
}
