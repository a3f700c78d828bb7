//! Metric names, units, and the printed result. The end-to-end and
//! per-layer lists mirror `BENCHMARK.json`; every run reports every name
//! on the list for its mode.

use crate::sys::{Fingerprint, SetupCost};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced runs), in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("decide_per_s", "1/s"),
    ("decide_p50_us", "us"),
    ("decide_p90_us", "us"),
    ("cpu_us_per_decision", "us"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Failure rates: printed with the end-to-end table, carried to the
/// driver as `attempted`/`failed` (they are 0 on a healthy run, so they
/// cannot be spread-checked metrics).
pub const RATES: &[(&str, &str)] = &[("error_rate", "ratio"), ("round_fail_rate", "ratio")];

/// Per-layer metrics (traced runs), in `BENCHMARK.json` order. A layer the
/// workload's path does not enter reports 0 with no samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pdpd.http.read_ns", "ns"),
    ("pdpd.http.write_ns", "ns"),
    ("pdpd.http.write_calls", "count"),
    ("pdpd.json.parse_ns", "ns"),
    ("pdpd.wire.request_ns", "ns"),
    ("pdpd.wire.encode_ns", "ns"),
    ("pdpd.floor_rtt_us", "us"),
    ("pdpd.residual_us", "us"),
    ("serve.decide_ns", "ns"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.canonical_key_ns", "ns"),
    ("policy.eval_ns", "ns"),
    ("policy.effects_ns", "ns"),
    ("serve.publish_us", "us"),
    ("adapt.adoption_lag_us", "us"),
    ("adapt.relearn_ms", "ms"),
    ("adapt.regenerate_ms", "ms"),
    ("adapt.round_residual_ms", "ms"),
    ("adapt.log.record_ns", "ns"),
    ("adapt.log.drain_us", "us"),
    ("adapt.log.dropped", "count"),
    ("adapt.mine_us", "us"),
    ("adapt.mine.records", "count"),
    ("adapt.mine.emitted", "count"),
    ("adapt.round_fail_rate", "ratio"),
    ("learn.solver_calls", "count"),
    ("learn.search_nodes", "count"),
    ("learn.eval_cache_hits", "count"),
    ("learn.eval_cache_misses", "count"),
    ("asp.ground.runs", "count"),
    ("asp.ground.parallel_units", "count"),
    ("asp.ground.join_candidates", "count"),
    ("asp.solve.runs", "count"),
    ("asp.solve.decisions", "count"),
    ("obs.decide_on_over_off", "ratio"),
    ("trace.reconcile", "ratio"),
    ("trace.overhead", "ratio"),
];

/// A measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples it rests on.
    pub n: usize,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted: decisions requested, plus adaptation rounds
    /// whose success the workload requires.
    pub attempted: u64,
    /// Operations that failed: non-200 responses, oracle mismatches,
    /// stale epochs, epoch regressions, timeouts, required rounds that did
    /// not publish.
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// Adaptation rounds triggered (policy updates on decide workloads).
    pub rounds: u64,
    /// Rounds that failed or were skipped.
    pub rounds_failed: u64,
    /// Metric values by name (end-to-end and, in traced runs, per-layer).
    pub metrics: BTreeMap<&'static str, Value>,
    /// Extra report lines (reconciliation, layer tables).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.insert(name, Value { value, n });
    }

    /// Records the set-up cost: `setup_s` is its CPU time, and the wall
    /// time goes to the notes.
    pub fn set_setup(&mut self, cost: &SetupCost) {
        self.set("setup_s", cost.cpu_s, cost.n);
        self.notes.push(format!(
            "set-up: median of {} set-ups, CPU {:.6} s (setup_s), wall {:.6} s",
            cost.n, cost.cpu_s, cost.wall_s
        ));
    }

    /// Records `count` failed operations with `reason`.
    pub fn fail(&mut self, count: u64, reason: impl Into<String>) {
        self.failed += count;
        if self.reasons.len() < 8 {
            self.reasons.push(reason.into());
        }
    }

    /// Folds in failures counted elsewhere.
    pub fn absorb(&mut self, attempted: u64, failed: u64, reasons: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        for r in reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }

    /// Failed ÷ attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Failed or skipped ÷ triggered rounds.
    pub fn round_fail_rate(&self) -> f64 {
        self.rounds_failed as f64 / self.rounds.max(1) as f64
    }

    /// The human-readable report: fingerprint, the end-to-end table with
    /// units and sample counts, and in traced runs the layer table.
    pub fn render(&self, workload: &str, fp: &Fingerprint, traced: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {workload} ({})",
            if traced { "traced" } else { "untraced" }
        );
        let _ = writeln!(out, "machine  {}", fp.to_json());
        let row = |out: &mut String, name: &str, unit: &str, v: Option<&Value>| {
            let (value, n) = v.map_or((f64::NAN, 0), |v| (v.value, v.n));
            let _ = writeln!(out, "  {name:<28} {value:>16.4} {unit:<6} n={n}");
        };
        let _ = writeln!(out, "end to end (median of the run; n = samples):");
        for (name, unit) in END_TO_END {
            row(&mut out, name, unit, self.metrics.get(name));
        }
        let rates = [
            (self.error_rate(), self.attempted),
            (self.round_fail_rate(), self.rounds),
        ];
        for ((name, unit), (v, n)) in RATES.iter().zip(rates) {
            row(
                &mut out,
                name,
                unit,
                Some(&Value {
                    value: v,
                    n: n as usize,
                }),
            );
        }
        if traced {
            let _ = writeln!(out, "per layer:");
            for (name, unit) in PER_LAYER {
                row(&mut out, name, unit, self.metrics.get(name));
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for reason in &self.reasons {
            let _ = writeln!(out, "FAILURE {reason}");
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, and the
    /// metrics of this mode with their units.
    pub fn result_line(&self, traced: bool) -> String {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).map_or(0.0, |v| v.value);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit `f64` carries (non-finite values, which
/// JSON cannot hold, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before);
        for name in all {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn the_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let start = spec.find(&format!("\"{key}\"")).expect("section present");
            let end = spec[start..].find(']').expect("section closed") + start;
            spec[start..end]
                .match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &spec[start + i + m.len()..];
                    rest[..rest.find('"').expect("name closed")].to_string()
                })
                .collect::<Vec<_>>()
        };
        let names =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(section("end_to_end"), names(END_TO_END));
        assert_eq!(section("per_layer"), names(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                spec.contains(&format!(
                    "\"name\": \"{name}\",\n      \"unit\": \"{unit}\""
                )),
                "{name} must carry unit {unit} in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn the_result_line_carries_every_metric_of_its_mode() {
        let mut r = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        r.set("setup_s", 0.25, 5);
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        let traced = r.result_line(true);
        for (name, _) in PER_LAYER {
            assert!(traced.contains(&format!("\"{name}\"")));
        }
        r.fail(1, "x");
        assert!(r.result_line(false).starts_with("{\"correct\": false"));
    }
}
