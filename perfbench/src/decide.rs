//! The decide workloads: closed-loop `/decide` or `/decide_batch` traffic
//! over `nproc` keep-alive connections to an in-process pdpd, followed by
//! policy-update rounds (the same policy set republished at a new epoch,
//! timed to the publishing connection's next decision, which must come
//! from that epoch). The traced run replays the workload's exact bytes
//! through each pdpd and serving layer in process and times them from
//! outside.

use crate::client::{self, Conn};
use crate::gen::{self, DecideInputs, Oracle, Shot, HEALTHZ};
use crate::inproc;
use crate::report::RunResult;
use crate::stats::{self, Dist, Samples, Window, Windowed};
use crate::sys;
use crate::trace::Trace;
use agenp_core::arch::{DecisionSnapshot, PdpHandle, PdpPin};
use agenp_pdpd::http::{write_response, ConnBuf};
use agenp_pdpd::{json, wire, PdpdServer, ServerOptions};
use agenp_policy::Request;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Which decide workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `/decide` singles, K=1, 256 requests that fit every cache.
    Hot,
    /// `/decide_batch` of 64, K=64, a working set past the pin caches.
    Coalition,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 41;
/// Untimed set-ups before those.
const SETUP_WARMUP: usize = 4;
/// Load before measuring starts.
const WARMUP: Duration = Duration::from_millis(200);
/// Time between policy-update rounds.
const ROUND_GAP: Duration = Duration::from_millis(1);
/// Share of the untraced time spent measuring decisions; the rest runs
/// policy-update rounds.
const DECIDE_SHARE: f64 = 0.7;
/// Length of a measurement window; each end-to-end figure is a median
/// over windows.
const WINDOW_SECS: f64 = 1.0;
/// Request latencies kept per window and connection (about a second of
/// `decide-hot` traffic).
const WINDOW_SAMPLES: usize = 20_000;
/// In traced runs, one request in this many is a `GET /healthz`.
const HEALTHZ_EVERY: u64 = 32;

const WARM: u8 = 0;
const MEASURE: u8 = 1;
const ROUNDS: u8 = 2;
const STOP: u8 = 3;

/// A running daemon with its client connections. Connections are dropped
/// before the server so its workers see them close.
struct Live {
    conns: Vec<Conn>,
    server: PdpdServer,
    handle: PdpHandle,
}

/// State the load threads and the round driver share.
struct Shared {
    phase: AtomicU8,
    /// Highest epoch whose publish has returned: nothing older may be
    /// served to a request sent after it.
    published: AtomicU64,
    /// The measurement window responses are counted in.
    window: AtomicUsize,
}

/// One connection's share of a phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
    /// Decisions measured, per window.
    decisions: Vec<u64>,
    /// Measured request latencies.
    latency: Samples,
    healthz_ns: Vec<u64>,
    /// `(start, publish, publish returned to next decision)` per round.
    rounds: Vec<(Instant, Duration, Duration)>,
    rounds_failed: u64,
}

impl Tally {
    fn fail(&mut self, count: u64, reason: String) {
        self.failed += count;
        if self.reasons.len() < 4 {
            self.reasons.push(reason);
        }
    }
}

/// What a live phase measured.
#[derive(Default)]
struct Phase {
    /// The measured decide traffic, window by window.
    windows: Vec<Window>,
    /// The policy-update rounds, window by window.
    round_windows: Vec<Window>,
    healthz_ns: Vec<u64>,
    /// Serving-tier cache probes and hits over the measured windows.
    served: u64,
    hits: u64,
    /// `(publish ns, adoption lag ns, round ns)` per adopted round.
    rounds: Vec<(u64, u64, u64)>,
    rounds_triggered: u64,
    rounds_failed: u64,
}

impl Phase {
    /// Appends `other`'s measurements.
    fn absorb(&mut self, other: Phase) {
        self.windows.extend(other.windows);
        self.round_windows.extend(other.round_windows);
        self.healthz_ns.extend(other.healthz_ns);
        self.served += other.served;
        self.hits += other.hits;
        self.rounds.extend(other.rounds);
        self.rounds_triggered += other.rounds_triggered;
        self.rounds_failed += other.rounds_failed;
    }

    /// Every measured request latency, µs.
    fn latencies_us(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| stats::scaled(&w.latency_ns, 1e-3))
            .collect()
    }
}

/// Runs one decide workload for about `seconds`.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let inputs = match kind {
        Kind::Hot => gen::hot(seed),
        Kind::Coalition => gen::coalition(seed),
    };
    let nconn = sys::nproc();
    let mut result = RunResult::default();

    let (mut live, cost) =
        sys::time_setups(SETUP_WARMUP, SETUPS, || setup(&inputs, nconn, &mut result))?;
    result.set_setup(&cost);

    let phase = if traced {
        trace_layers(kind, &mut live, &inputs, &mut result, seconds, seed)?
    } else {
        let plan = Plan {
            warmup: WARMUP,
            measure: seconds * DECIDE_SHARE,
            rounds: seconds * (1.0 - DECIDE_SHARE),
            healthz_every: 0,
        };
        run_live(&mut live, &inputs, &mut result, &plan)?
    };
    let decide = Windowed::of(&phase.windows);
    let rounds = Windowed::of(&phase.round_windows);
    result.set("decide_per_s", decide.per_s, decide.decisions as usize);
    result.set("decide_p50_us", decide.p50_us, decide.latencies);
    result.set("decide_p90_us", decide.p90_us, decide.latencies);
    result.set(
        "cpu_us_per_decision",
        decide.cpu_us,
        decide.decisions as usize,
    );
    result.set("round_p50_ms", rounds.round_p50_ms, rounds.rounds);
    result.set("round_p90_ms", rounds.round_p90_ms, rounds.rounds);
    result.rounds += phase.rounds_triggered;
    result.rounds_failed += phase.rounds_failed;
    result.attempted += phase.rounds_triggered;
    if phase.rounds_failed > 0 {
        result.fail(
            phase.rounds_failed,
            "policy-update rounds whose next decision was not at the new epoch",
        );
    }
    let latency = Dist::of(phase.latencies_us());
    let (tail, tail_us) = latency.supported_tail();
    result.notes.push(format!(
        "end-to-end figures are medians over {} decide windows and {} round windows of {WINDOW_SECS} s",
        decide.windows,
        phase.round_windows.len()
    ));
    result.notes.push(format!(
        "decide latency per HTTP request, whole run: p50 {:.2} us, {tail} {tail_us:.2} us (n={}); \
         {} requests of {} decisions; {} distinct requests in the pool",
        latency.p50,
        latency.n,
        inputs.shots.len(),
        inputs.shots[0].len,
        inputs.oracle.distinct()
    ));
    let round = Dist::of(phase.rounds.iter().map(|r| r.2 as f64 * 1e-6).collect());
    let (tail, tail_ms) = round.supported_tail();
    result.notes.push(format!(
        "policy-update rounds, whole run: p50 {:.4} ms, {tail} {tail_ms:.4} ms (n={}, {} failed)",
        round.p50, round.n, phase.rounds_failed
    ));

    let http = live.server.http_stats();
    if http.client_errors > 0 {
        result.fail(http.client_errors, "pdpd refused requests as client errors");
    }
    drop(live);
    result.set("peak_rss_mb", sys::peak_rss_mb()?, 1);
    Ok(result)
}

/// Builds and publishes the snapshot, starts a daemon on a bound listener
/// its clients have already connected to, and has one decision answered
/// on every connection: the time until the daemon serves. (Caches fill
/// during the unmeasured warm-up that follows.)
///
/// The clients connect before the daemon starts, so its accept loop finds
/// them waiting. Connecting after it has started races its first
/// `accept`: when that comes first, the loop sleeps its 5 ms poll, and
/// the scheduler decides which path a set-up takes.
fn setup(inputs: &DecideInputs, nconn: usize, result: &mut RunResult) -> Result<Live, String> {
    let handle = PdpHandle::new();
    handle.publish(DecisionSnapshot::new(
        inputs.policies.clone(),
        inputs.combining,
    ));
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("pdpd bind failed: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("pdpd bind failed: {e}"))?;
    let mut conns = Vec::with_capacity(nconn);
    for _ in 0..nconn {
        conns.push(Conn::connect(addr).map_err(|e| format!("connect failed: {e}"))?);
    }
    let server = PdpdServer::serve(
        listener,
        handle.clone(),
        ServerOptions {
            threads: nconn,
            read_timeout: Duration::from_millis(200),
        },
    )
    .map_err(|e| format!("pdpd serve failed: {e}"))?;
    for (c, conn) in conns.iter_mut().enumerate() {
        let mut tally = Tally::default();
        let shot = &inputs.shots[start_of(c, nconn, inputs)];
        exchange(conn, shot, &inputs.oracle, 0, &mut 0, &mut tally);
        result.absorb(tally.attempted, tally.failed, tally.reasons);
    }
    Ok(Live {
        conns,
        server,
        handle,
    })
}

/// Where connection `c` starts in the shot sequence.
fn start_of(c: usize, nconn: usize, inputs: &DecideInputs) -> usize {
    c * inputs.shots.len() / nconn
}

/// What one checked request/response produced.
struct Exchange {
    /// The connection is still usable.
    usable: bool,
    /// The response epoch (0 when there is none).
    epoch: u64,
    /// Send to response received (checking excluded).
    latency: Duration,
    /// When the response was received.
    at: Instant,
}

/// One request/response, checked against the oracle and the epochs.
fn exchange(
    conn: &mut Conn,
    shot: &Shot,
    oracle: &Oracle,
    floor: u64,
    last_epoch: &mut u64,
    tally: &mut Tally,
) -> Exchange {
    let n = shot.len as u64;
    tally.attempted += n;
    let t0 = Instant::now();
    let response = conn.roundtrip(&shot.bytes);
    let at = Instant::now();
    let mut out = Exchange {
        usable: true,
        epoch: 0,
        latency: at - t0,
        at,
    };
    let (status, body) = match response {
        Ok(r) => r,
        Err(e) => {
            tally.fail(n, format!("request failed: {e}"));
            out.usable = false;
            return out;
        }
    };
    if status != 200 {
        tally.fail(n, format!("HTTP {status}"));
        return out;
    }
    let checked = if shot.bytes.starts_with(b"POST /decide_batch ") {
        client::check_batch(body, shot.len, |i| oracle.get(shot.first + i))
    } else {
        client::check_outcome(body, oracle.get(shot.first)).map(|e| (e, 0, None))
    };
    let epoch = match checked {
        Ok((epoch, mismatches, reason)) => {
            if mismatches > 0 {
                tally.fail(mismatches as u64, reason.unwrap_or_default());
            }
            epoch
        }
        Err(reason) => {
            tally.fail(n, format!("oracle mismatch: {reason}"));
            return out;
        }
    };
    if epoch < *last_epoch {
        tally.fail(n, format!("epoch regression {} -> {epoch}", *last_epoch));
    } else if epoch < floor {
        tally.fail(
            n,
            format!("stale epoch {epoch} after {floor} was published"),
        );
    }
    *last_epoch = (*last_epoch).max(epoch);
    out.epoch = epoch;
    out
}

/// One connection's load loop for a live phase. The connection given
/// `publisher` runs the policy-update rounds: in the rounds phase it
/// republishes the policy set every `ROUND_GAP` and times the publish and
/// its own next decision, which must come from the new epoch.
fn drive(
    conn: &mut Conn,
    inputs: &DecideInputs,
    shared: &Shared,
    start: usize,
    healthz_every: u64,
    publisher: Option<&PdpHandle>,
) -> Tally {
    let mut tally = Tally {
        latency: Samples::with_cap(WINDOW_SAMPLES),
        ..Tally::default()
    };
    let mut last_epoch = 0u64;
    let mut k = start;
    let mut sent = 0u64;
    let mut last_round = Instant::now();
    loop {
        let phase = shared.phase.load(Ordering::Acquire);
        if phase == STOP {
            return tally;
        }
        sent += 1;
        if healthz_every > 0 && sent.is_multiple_of(healthz_every) {
            let t0 = Instant::now();
            match conn.roundtrip(HEALTHZ) {
                Ok((200, _)) => tally.healthz_ns.push(t0.elapsed().as_nanos() as u64),
                Ok((status, _)) => tally.fail(1, format!("healthz answered {status}")),
                Err(e) => {
                    tally.fail(1, format!("healthz failed: {e}"));
                    return tally;
                }
            }
            continue;
        }
        let shot = &inputs.shots[k % inputs.shots.len()];
        k += 1;
        let round = match publisher {
            Some(handle) if phase == ROUNDS && last_round.elapsed() >= ROUND_GAP => {
                let next = DecisionSnapshot::new(inputs.policies.clone(), inputs.combining);
                let t0 = Instant::now();
                let epoch = handle.publish(next);
                let t1 = Instant::now();
                shared.published.store(epoch, Ordering::Release);
                Some((epoch, t0, t1))
            }
            _ => None,
        };
        let floor = shared.published.load(Ordering::Acquire);
        let x = exchange(
            conn,
            shot,
            &inputs.oracle,
            floor,
            &mut last_epoch,
            &mut tally,
        );
        if let Some((epoch, t0, t1)) = round {
            last_round = x.at;
            if x.usable && x.epoch >= epoch {
                tally.rounds.push((t0, t1 - t0, x.at - t1));
            } else {
                tally.rounds_failed += 1;
            }
        }
        if !x.usable {
            return tally;
        }
        if phase == MEASURE && shared.phase.load(Ordering::Acquire) == MEASURE {
            let w = shared.window.load(Ordering::Acquire);
            if tally.decisions.len() <= w {
                tally.decisions.resize(w + 1, 0);
            }
            tally.decisions[w] += shot.len as u64;
            tally.latency.push(w, x.latency.as_nanos());
        }
    }
}

/// What a live phase runs, in order.
struct Plan {
    /// Unmeasured load first.
    warmup: Duration,
    /// Seconds of measured decide traffic, in `WINDOW_SECS` windows.
    measure: f64,
    /// Seconds of policy-update rounds.
    rounds: f64,
    /// One request in this many is a `GET /healthz` (0: none).
    healthz_every: u64,
}

/// Runs the load threads through `plan`.
fn run_live(
    live: &mut Live,
    inputs: &DecideInputs,
    result: &mut RunResult,
    plan: &Plan,
) -> Result<Phase, String> {
    let healthz_every = plan.healthz_every;
    let epoch = live.handle.snapshot().epoch();
    let shared = Shared {
        phase: AtomicU8::new(WARM),
        published: AtomicU64::new(epoch),
        window: AtomicUsize::new(0),
    };
    let nconn = live.conns.len();
    let handle = &live.handle;
    let mut phase = Phase::default();
    let mut tallies = Vec::with_capacity(nconn);
    std::thread::scope(|s| {
        let workers: Vec<_> = live
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let shared = &shared;
                let start = start_of(c, nconn, inputs);
                let publisher = (c == 0).then_some(handle);
                s.spawn(move || drive(conn, inputs, shared, start, healthz_every, publisher))
            })
            .collect();

        std::thread::sleep(plan.warmup);
        let stats0 = handle.stats();
        let count = ((plan.measure / WINDOW_SECS).round() as usize).max(1);
        let length = Duration::from_secs_f64(plan.measure / count as f64);
        if plan.measure > 0.0 {
            shared.phase.store(MEASURE, Ordering::Release);
        }
        for w in (0..count).filter(|_| plan.measure > 0.0) {
            shared.window.store(w, Ordering::Release);
            let t0 = Instant::now();
            let cpu0 = sys::cpu_seconds();
            std::thread::sleep(length);
            phase.windows.push(Window {
                seconds: t0.elapsed().as_secs_f64(),
                cpu_seconds: sys::cpu_seconds() - cpu0,
                ..Window::default()
            });
        }
        shared.phase.store(ROUNDS, Ordering::Release);
        let stats1 = handle.stats();
        phase.hits = stats1.cache_hits - stats0.cache_hits;
        phase.served = phase.hits + stats1.cache_misses - stats0.cache_misses;

        std::thread::sleep(Duration::from_secs_f64(plan.rounds));
        shared.phase.store(STOP, Ordering::Release);
        for w in workers {
            tallies.push(w.join().expect("load thread panicked"));
        }
    });
    for t in tallies {
        result.absorb(t.attempted, t.failed, t.reasons);
        for (w, n) in t.decisions.into_iter().enumerate() {
            if let Some(window) = phase.windows.get_mut(w) {
                window.decisions += n;
            }
        }
        t.latency.into_windows(&mut phase.windows);
        phase.healthz_ns.extend(t.healthz_ns);
        phase.rounds_failed += t.rounds_failed;
        phase.rounds_triggered += t.rounds_failed + t.rounds.len() as u64;
        if let Some(&(first, _, _)) = t.rounds.first() {
            for (t0, publish, lag) in t.rounds {
                let round = (publish + lag).as_nanos() as u64;
                phase
                    .rounds
                    .push((publish.as_nanos() as u64, lag.as_nanos() as u64, round));
                let w = ((t0 - first).as_secs_f64() / WINDOW_SECS) as usize;
                if phase.round_windows.len() <= w {
                    phase.round_windows.resize(w + 1, Window::default());
                }
                phase.round_windows[w].round_ns.push(round);
            }
        }
    }
    Ok(phase)
}

/// Serves the workload's shots one at a time, the way a socket delivers
/// one request per read.
struct Replay<'a> {
    shots: &'a [Shot],
    next: usize,
    pos: usize,
}

impl Read for Replay<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let shot = &self.shots[self.next % self.shots.len()].bytes;
        let n = buf.len().min(shot.len() - self.pos);
        buf[..n].copy_from_slice(&shot[self.pos..self.pos + n]);
        self.pos += n;
        if self.pos == shot.len() {
            self.next += 1;
            self.pos = 0;
        }
        Ok(n)
    }
}

/// A sink counting the write calls a response takes.
#[derive(Default)]
struct CountingWriter {
    calls: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        Ok(black_box(buf).len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Feeds `count` of the workload's exact request bytes through each pdpd
/// and serving layer in process, one span per layer call. Returns the
/// decisions that differ from the reference and the write calls made.
fn replay(
    kind: Kind,
    inputs: &DecideInputs,
    pin: &mut PdpPin,
    trace: &mut Trace,
    requests: std::ops::Range<usize>,
) -> Result<(u64, u64), String> {
    let oracle = &inputs.oracle;
    let mut conn = ConnBuf::new(Replay {
        shots: &inputs.shots,
        next: requests.start,
        pos: 0,
    });
    let mut sink = CountingWriter::default();
    let mut mismatches = 0u64;
    for i in requests {
        let shot = &inputs.shots[i % inputs.shots.len()];
        let id = i as u64;
        let root = trace.push("pdpd.request", trace.now(), 0, None, id);
        let request = trace
            .time("pdpd.http.read", Some(root), id, || conn.read_request())
            .map_err(|e| format!("replayed request unreadable: {e}"))?
            .ok_or("replay ended early")?;
        let text = std::str::from_utf8(&request.body).map_err(|_| "replayed body not UTF-8")?;
        let value = trace
            .time("pdpd.json.parse", Some(root), id, || json::parse(text))
            .map_err(|e| format!("replayed body unparsable: {e}"))?;
        let requests: Vec<Request> =
            trace.time("pdpd.wire.request", Some(root), id, || {
                match value.get("requests").and_then(json::Json::as_arr) {
                    Some(items) => items
                        .iter()
                        .filter_map(|v| wire::request_from_json(v).ok())
                        .collect(),
                    None => wire::request_from_json(&value).into_iter().collect(),
                }
            });
        let outcomes = trace.time("serve.decide", Some(root), id, || match kind {
            Kind::Hot => requests.iter().map(|r| pin.decide(r)).collect::<Vec<_>>(),
            Kind::Coalition => pin.decide_batch(&requests),
        });
        let body = trace.time("pdpd.wire.encode", Some(root), id, || match kind {
            Kind::Hot => wire::outcome_to_json(&outcomes[0]),
            Kind::Coalition => wire::batch_to_json(&outcomes),
        });
        trace
            .time("pdpd.http.write", Some(root), id, || {
                write_response(&mut sink, 200, body.as_bytes(), false)
            })
            .map_err(|e| format!("replayed write failed: {e}"))?;
        let end = trace.now();
        trace.close(root, end);
        if outcomes.len() != shot.len {
            mismatches += shot.len as u64;
        }
        for (j, o) in outcomes.iter().enumerate() {
            if o.effects() != *oracle.get(shot.first + j) {
                mismatches += 1;
            }
        }
    }
    Ok((mismatches, sink.calls))
}

/// Median in-process cost (ns) of reading a `GET /healthz` and writing
/// its response: the framing share of the floor.
fn healthz_framing() -> (f64, f64) {
    let shot = [Shot {
        bytes: HEALTHZ.to_vec(),
        first: 0,
        len: 1,
    }];
    let mut conn = ConnBuf::new(Replay {
        shots: &shot,
        next: 0,
        pos: 0,
    });
    let mut sink = CountingWriter::default();
    let mut reads = Vec::with_capacity(4096);
    let mut writes = Vec::with_capacity(4096);
    for _ in 0..4096 {
        let t0 = Instant::now();
        black_box(conn.read_request().ok());
        let t1 = Instant::now();
        black_box(write_response(&mut sink, 200, b"{\"ok\": true}", false).ok());
        let t2 = Instant::now();
        reads.push((t1 - t0).as_nanos() as f64);
        writes.push((t2 - t1).as_nanos() as f64);
    }
    (stats::median(&reads), stats::median(&writes))
}

/// The traced run. Untraced live windows (with a `/healthz` probe every
/// `HEALTHZ_EVERY` requests) alternate with chunks of the in-process
/// replay, so the floor, the end-to-end p50 and the layer times are taken
/// on the same machine state; then come the policy-update rounds, the
/// telemetry on/off ratio, and a live phase with telemetry on. Returns the
/// untraced measurements.
fn trace_layers(
    kind: Kind,
    live: &mut Live,
    inputs: &DecideInputs,
    result: &mut RunResult,
    seconds: f64,
    seed: u64,
) -> Result<Phase, String> {
    let replays = match kind {
        Kind::Hot => 20 * gen::HOT_POOL,
        Kind::Coalition => 512,
    };
    let per_request = inputs.shots[0].len as f64;
    let handle = live.handle.clone();
    let mut pin = handle.pin();
    // A first pass warms the pin's cache the way the live workers' are.
    replay(kind, inputs, &mut pin, &mut Trace::new(), 0..replays)?;
    let mut trace = Trace::new();
    let chunks = ((seconds * 0.5 * DECIDE_SHARE / WINDOW_SECS).round() as usize).max(1);
    let mut untraced = Phase::default();
    let (mut mismatches, mut write_calls) = (0, 0);
    for c in 0..chunks {
        let plan = Plan {
            warmup: WARMUP / 4,
            measure: WINDOW_SECS,
            rounds: 0.0,
            healthz_every: HEALTHZ_EVERY,
        };
        untraced.absorb(run_live(live, inputs, result, &plan)?);
        let part = c * replays / chunks..(c + 1) * replays / chunks;
        let (m, w) = replay(kind, inputs, &mut pin, &mut trace, part)?;
        mismatches += m;
        write_calls += w;
    }
    let plan = Plan {
        warmup: WARMUP,
        measure: 0.0,
        rounds: seconds * 0.5 * (1.0 - DECIDE_SHARE),
        healthz_every: 0,
    };
    untraced.absorb(run_live(live, inputs, result, &plan)?);
    result.attempted += (replays as f64 * per_request) as u64;
    if mismatches > 0 {
        result.fail(mismatches, "replayed decisions differ from the reference");
    }

    let sample: Vec<&Request> = inputs.sample.iter().collect();
    let serving = inproc::serving_layers(&mut trace, &handle, &sample);
    let on_over_off = inproc::telemetry_ratio(&handle, &sample);

    // Live again with telemetry on.
    agenp_obs::install(agenp_obs::ObsConfig::enabled());
    let plan = Plan {
        warmup: WARMUP,
        measure: seconds * 0.25,
        rounds: 0.0,
        healthz_every: HEALTHZ_EVERY,
    };
    let traced_live = run_live(live, inputs, result, &plan);
    agenp_obs::install(agenp_obs::ObsConfig::disabled());
    let traced_live = traced_live?;

    let read = trace.median_ns("pdpd.http.read");
    let write = trace.median_ns("pdpd.http.write");
    let parse = trace.median_ns("pdpd.json.parse");
    let build = trace.median_ns("pdpd.wire.request");
    let decide = trace.median_ns("serve.decide");
    let encode = trace.median_ns("pdpd.wire.encode");
    let n_replay = replays;
    result.set("pdpd.http.read_ns", read, n_replay);
    result.set("pdpd.http.write_ns", write, n_replay);
    result.set(
        "pdpd.http.write_calls",
        write_calls as f64 / replays as f64,
        n_replay,
    );
    result.set("pdpd.json.parse_ns", parse, n_replay);
    result.set("pdpd.wire.request_ns", build, n_replay);
    result.set("pdpd.wire.encode_ns", encode, n_replay);
    result.set("serve.decide_ns", decide / per_request, n_replay);
    result.set(
        "serve.cache_hit_rate",
        untraced.hits as f64 / untraced.served.max(1) as f64,
        untraced.served as usize,
    );
    serving.report(result);
    result.set("obs.decide_on_over_off", on_over_off.0, on_over_off.1);

    let floor = Dist::of(stats::scaled(&untraced.healthz_ns, 1e-3));
    let traced_p50 = Windowed::of(&traced_live.windows).p50_us;
    let untraced_p50 = Windowed::of(&untraced.windows).p50_us;
    // The floor already holds a /healthz read and write; add what the
    // decide request's own read and write cost beyond those.
    let (read_h, write_h) = healthz_framing();
    let framing = (read - read_h).max(0.0) + (write - write_h).max(0.0);
    let in_process_us = (framing + parse + build + decide + encode) * 1e-3;
    let layer_sum = floor.p50 + in_process_us;
    result.set("pdpd.floor_rtt_us", floor.p50, floor.n);
    let n_untraced = untraced.latencies_us().len();
    let n_traced = traced_live.latencies_us().len();
    result.set("pdpd.residual_us", untraced_p50 - layer_sum, n_untraced);
    result.set("trace.reconcile", layer_sum / untraced_p50, n_untraced);
    result.set("trace.overhead", traced_p50 / untraced_p50, n_traced);

    let publish = stats::median(
        &untraced
            .rounds
            .iter()
            .map(|r| r.0 as f64)
            .collect::<Vec<_>>(),
    );
    let lag = stats::median(
        &untraced
            .rounds
            .iter()
            .map(|r| r.1 as f64)
            .collect::<Vec<_>>(),
    );
    let round = stats::median(
        &untraced
            .rounds
            .iter()
            .map(|r| r.2 as f64)
            .collect::<Vec<_>>(),
    );
    let n_rounds = untraced.rounds.len();
    result.set("serve.publish_us", publish * 1e-3, n_rounds);
    result.set("adapt.adoption_lag_us", lag * 1e-3, n_rounds);
    result.set(
        "adapt.round_residual_ms",
        (round - publish - lag) * 1e-6,
        n_rounds,
    );

    result.notes.push(format!(
        "layer table, one /decide{} request (medians):\n  \
         floor (GET /healthz RTT)   {:>10.3} us\n  \
         http read+write past floor {:>10.3} us\n  \
         pdpd.json.parse            {:>10.3} us\n  \
         pdpd.wire.request          {:>10.3} us\n  \
         serve.decide               {:>10.3} us\n  \
         pdpd.wire.encode           {:>10.3} us\n  \
         sum                        {:>10.3} us   vs decide_p50_us {:.3} us untraced: \
         reconciliation {:.3}, residual {:.3} us\n  \
         (pdpd.http.read {:.3} us and pdpd.http.write {:.3} us, of which the floor holds \
         {:.3} us for /healthz)\n\
         tracing overhead: decide p50 {:.3} us with telemetry on vs {:.3} us off ({:+.1}%)",
        if kind == Kind::Coalition {
            "_batch"
        } else {
            ""
        },
        floor.p50,
        framing * 1e-3,
        parse * 1e-3,
        build * 1e-3,
        decide * 1e-3,
        encode * 1e-3,
        layer_sum,
        untraced_p50,
        layer_sum / untraced_p50,
        untraced_p50 - layer_sum,
        read * 1e-3,
        write * 1e-3,
        (read_h + write_h) * 1e-3,
        traced_p50,
        untraced_p50,
        (traced_p50 / untraced_p50 - 1.0) * 100.0
    ));
    result.notes.push(format!(
        "round layer table (medians): serve.publish {:.3} us + adoption lag {:.3} us = {:.4} ms \
         vs round p50 {:.4} ms",
        publish * 1e-3,
        lag * 1e-3,
        (publish + lag) * 1e-6,
        round * 1e-6
    ));
    result.notes.push(trace.render_summary());
    let path = crate::out_path(&format!("{}-seed{seed}-spans.jsonl", kind.name()));
    trace
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    result.notes.push(format!(
        "spans: {} written to {}",
        trace.spans().len(),
        path.display()
    ));
    Ok(untraced)
}

impl Kind {
    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hot => "decide-hot",
            Kind::Coalition => "decide-coalition",
        }
    }
}
