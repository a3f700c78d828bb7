//! Layer timings taken in process, shared by every workload's traced run:
//! the serving layer's per-call costs over the workload's own requests,
//! and the telemetry on/off decide-rate ratio.

use crate::report::RunResult;
use crate::stats;
use crate::trace::Trace;
use agenp_core::arch::PdpHandle;
use agenp_policy::Request;
use std::hint::black_box;
use std::time::Instant;

/// Calls per timed block (timer cost is amortised over the block).
const BLOCK: usize = 64;
/// Calls timed per entry point.
const CALLS: usize = 64 * 1024;

/// Median per-call costs (ns) inside the serving layer.
#[derive(Clone, Copy, Debug)]
pub struct ServingLayers {
    /// `Request::canonical_key`.
    pub key_ns: f64,
    /// `DecisionSnapshot::decide`.
    pub eval_ns: f64,
    /// `DecisionSnapshot::decide_effects`.
    pub effects_ns: f64,
    /// Timed blocks per entry point.
    pub blocks: usize,
}

impl ServingLayers {
    /// Records the serving-layer metrics.
    pub fn report(&self, result: &mut RunResult) {
        result.set("serve.canonical_key_ns", self.key_ns, self.blocks);
        result.set("policy.eval_ns", self.eval_ns, self.blocks);
        result.set(
            "policy.effects_ns",
            self.effects_ns - self.eval_ns,
            self.blocks,
        );
    }
}

/// Times the serving layer's entry points over `sample` against the
/// handle's current snapshot, in blocks recorded as spans.
pub fn serving_layers(trace: &mut Trace, handle: &PdpHandle, sample: &[&Request]) -> ServingLayers {
    let snapshot = handle.snapshot();
    let names = ["serve.canonical_key", "policy.eval", "policy.effects"];
    let mut per_call: [Vec<f64>; 3] = Default::default();
    let mut id = 0u64;
    let mut done = 0;
    while done < CALLS {
        for block in sample.chunks(BLOCK) {
            id += 1;
            done += block.len();
            for (which, name) in names.iter().enumerate() {
                let start = trace.now();
                for r in block {
                    match which {
                        0 => drop(black_box(r.canonical_key())),
                        1 => drop(black_box(snapshot.decide(r))),
                        _ => drop(black_box(snapshot.decide_effects(r))),
                    }
                }
                let end = trace.now();
                trace.push(name, start, end, None, id);
                per_call[which].push((end - start) as f64 / block.len() as f64);
            }
        }
    }
    ServingLayers {
        key_ns: stats::median(&per_call[0]),
        eval_ns: stats::median(&per_call[1]),
        effects_ns: stats::median(&per_call[2]),
        blocks: per_call[0].len(),
    }
}

/// Median per-call `PdpPin::decide` cost (ns) over `sample`, warm, in
/// blocks recorded as `serve.decide` spans; `(ns, blocks)`.
pub fn pinned_decide(trace: &mut Trace, handle: &PdpHandle, sample: &[&Request]) -> (f64, usize) {
    let mut pin = handle.pin();
    for r in sample {
        black_box(pin.decide(r));
    }
    let mut per_call = Vec::new();
    let mut done = 0;
    while done < CALLS {
        for block in sample.chunks(BLOCK) {
            done += block.len();
            let start = trace.now();
            for r in block {
                black_box(pin.decide(r));
            }
            let end = trace.now();
            trace.push("serve.decide", start, end, None, per_call.len() as u64);
            per_call.push((end - start) as f64 / block.len() as f64);
        }
    }
    (stats::median(&per_call), per_call.len())
}

/// In-process `PdpPin::decide` rate with telemetry on ÷ off, alternating
/// fixed-size windows; `(median ratio, windows per side)`. Leaves
/// telemetry off.
pub fn telemetry_ratio(handle: &PdpHandle, sample: &[&Request]) -> (f64, usize) {
    const TRIALS: usize = 7;
    let mut pin = handle.pin();
    for r in sample {
        black_box(pin.decide(r));
    }
    let mut window = |on: bool| {
        agenp_obs::install(if on {
            agenp_obs::ObsConfig::enabled()
        } else {
            agenp_obs::ObsConfig::disabled()
        });
        let t0 = Instant::now();
        for i in 0..CALLS {
            black_box(pin.decide(sample[i % sample.len()]));
        }
        CALLS as f64 / t0.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let off = window(false);
            let on = window(true);
            on / off
        })
        .collect();
    agenp_obs::install(agenp_obs::ObsConfig::disabled());
    (stats::median(&ratios), TRIALS)
}
