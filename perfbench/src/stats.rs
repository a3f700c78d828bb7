//! The benchmark's statistics: percentiles with their sample count, and
//! medians. Percentiles interpolate linearly between order statistics, so
//! a value is never a rounded bucket edge and two runs rarely read alike.

/// A latency (or any other) distribution summarised by its median and
/// tail, with the number of samples it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dist {
    /// Samples the summary rests on.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Dist {
    /// Summarises `values` (any order). An empty sample summarises to
    /// zeros with `n == 0`.
    pub fn of(mut values: Vec<f64>) -> Dist {
        values.sort_by(f64::total_cmp);
        Dist {
            n: values.len(),
            p50: percentile(&values, 0.50),
            p90: percentile(&values, 0.90),
            p99: percentile(&values, 0.99),
        }
    }

    /// The highest of p90/p99 that has at least ten samples beyond it, as
    /// `(label, value)`; the median when even p90 lacks them.
    pub fn supported_tail(&self) -> (&'static str, f64) {
        if self.n >= 1000 {
            ("p99", self.p99)
        } else if self.n >= 100 {
            ("p90", self.p90)
        } else {
            ("p50", self.p50)
        }
    }
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending sample, interpolating
/// linearly between the two nearest order statistics. Returns 0 for an
/// empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = rank - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// The median of `values` (any order); 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// One measurement window's raw numbers (a stretch of the decide phase, or
/// one adaptation episode).
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Wall-clock length.
    pub seconds: f64,
    /// Process CPU time spent in it.
    pub cpu_seconds: f64,
    /// Decisions served in it.
    pub decisions: u64,
    /// Per-request (or sampled per-decision) latencies, ns.
    pub latency_ns: Vec<u32>,
    /// Round times, ns.
    pub round_ns: Vec<u64>,
}

/// A run's end-to-end figures. Each is the median, over the windows that
/// have samples for it, of that window's own value, so a burst of outside
/// load that spoils one window does not move the result.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Windowed {
    /// Decisions per second.
    pub per_s: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 90th-percentile latency, µs.
    pub p90_us: f64,
    /// Process CPU µs per decision.
    pub cpu_us: f64,
    /// Median round, ms.
    pub round_p50_ms: f64,
    /// 90th-percentile round, ms.
    pub round_p90_ms: f64,
    /// Decisions over all windows.
    pub decisions: u64,
    /// Latency samples over all windows.
    pub latencies: usize,
    /// Rounds over all windows.
    pub rounds: usize,
    /// Windows with decisions.
    pub windows: usize,
}

impl Windowed {
    /// Summarises `windows`.
    pub fn of(windows: &[Window]) -> Windowed {
        let busy: Vec<&Window> = windows
            .iter()
            .filter(|w| w.decisions > 0 && w.seconds > 0.0)
            .collect();
        let over = |f: &dyn Fn(&Window) -> Option<f64>| -> f64 {
            median(&windows.iter().filter_map(f).collect::<Vec<_>>())
        };
        fn dist<T: Copy + Into<u64>>(ns: &[T], scale: f64) -> Dist {
            Dist::of(scaled(ns, scale))
        }
        Windowed {
            per_s: median(
                &busy
                    .iter()
                    .map(|w| w.decisions as f64 / w.seconds)
                    .collect::<Vec<_>>(),
            ),
            p50_us: over(&|w| (!w.latency_ns.is_empty()).then(|| dist(&w.latency_ns, 1e-3).p50)),
            p90_us: over(&|w| (!w.latency_ns.is_empty()).then(|| dist(&w.latency_ns, 1e-3).p90)),
            cpu_us: median(
                &busy
                    .iter()
                    .map(|w| w.cpu_seconds * 1e6 / w.decisions as f64)
                    .collect::<Vec<_>>(),
            ),
            round_p50_ms: over(&|w| (!w.round_ns.is_empty()).then(|| dist(&w.round_ns, 1e-6).p50)),
            round_p90_ms: over(&|w| (!w.round_ns.is_empty()).then(|| dist(&w.round_ns, 1e-6).p90)),
            decisions: windows.iter().map(|w| w.decisions).sum(),
            latencies: windows.iter().map(|w| w.latency_ns.len()).sum(),
            rounds: windows.iter().map(|w| w.round_ns.len()).sum(),
            windows: busy.len(),
        }
    }
}

/// Nanosecond samples as `f64`s scaled by `scale` (e.g. `1e-3` for µs).
pub fn scaled<T: Copy + Into<u64>>(ns: &[T], scale: f64) -> Vec<f64> {
    ns.iter().map(|&v| v.into() as f64 * scale).collect()
}

/// Latency samples kept per measurement window, at most `cap` per
/// window, so the benchmark's own buffers stay small and about the same
/// size from run to run and do not show in `peak_rss_mb`.
#[derive(Debug, Default)]
pub struct Samples {
    cap: usize,
    by_window: Vec<Vec<u32>>,
}

impl Samples {
    /// Keeps at most `cap` samples per window.
    pub fn with_cap(cap: usize) -> Samples {
        Samples {
            cap,
            by_window: Vec::new(),
        }
    }

    /// Records `ns` (saturated to `u32`) in `window`, unless that window
    /// is full.
    pub fn push(&mut self, window: usize, ns: u128) {
        if self.by_window.len() <= window {
            self.by_window.resize_with(window + 1, Vec::new);
        }
        let w = &mut self.by_window[window];
        if w.capacity() == 0 {
            w.reserve_exact(self.cap);
        }
        if w.len() < self.cap {
            w.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
    }

    /// Moves the samples into their windows (ignoring unknown ones).
    pub fn into_windows(self, windows: &mut [Window]) {
        for (w, samples) in self.by_window.into_iter().enumerate() {
            if let Some(window) = windows.get_mut(w) {
                window.latency_ns.extend(samples);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.9), 4.6);
        assert_eq!(percentile(&[10.0, 20.0], 0.5), 15.0);
    }

    #[test]
    fn degenerate_samples_are_defined() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(Dist::of(Vec::new()).n, 0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn medians_ignore_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn dist_reports_its_sample_count_and_supported_tail() {
        let d = Dist::of((0..100).rev().map(f64::from).collect());
        assert_eq!(d.n, 100);
        assert_eq!(d.p50, 49.5);
        assert!((d.p90 - 89.1).abs() < 1e-9);
        assert_eq!(d.supported_tail().0, "p90");
        assert_eq!(Dist::of(vec![1.0; 99]).supported_tail().0, "p50");
        let big = Dist::of((0..1000).map(f64::from).collect());
        assert_eq!(big.supported_tail(), ("p99", big.p99));
    }

    #[test]
    fn windowed_figures_are_medians_over_windows() {
        let w = |seconds: f64, decisions: u64, lat: &[u32], rounds: &[u64]| Window {
            seconds,
            cpu_seconds: seconds / 2.0,
            decisions,
            latency_ns: lat.to_vec(),
            round_ns: rounds.to_vec(),
        };
        let windows = [
            w(1.0, 100, &[1000, 2000, 3000], &[]),
            w(1.0, 300, &[4000], &[2_000_000]),
            // A spoiled window: slow, but outvoted.
            w(2.0, 100, &[90_000], &[9_000_000, 11_000_000]),
            w(0.0, 0, &[], &[]),
        ];
        let s = Windowed::of(&windows);
        assert_eq!(s.per_s, 100.0);
        assert_eq!(s.p50_us, 4.0);
        assert_eq!(s.round_p50_ms, 6.0);
        assert_eq!(s.cpu_us, 5000.0);
        assert_eq!(
            (s.decisions, s.latencies, s.rounds, s.windows),
            (500, 5, 3, 3)
        );
        assert_eq!(Windowed::of(&[]), Windowed::default());
    }

    #[test]
    fn samples_are_capped_per_window() {
        let mut s = Samples::with_cap(100);
        for i in 0..110 {
            s.push(1, i);
        }
        s.push(0, u128::from(u64::MAX));
        s.push(7, 5);
        let mut windows = vec![Window::default(), Window::default()];
        s.into_windows(&mut windows);
        assert_eq!(windows[0].latency_ns, vec![u32::MAX]);
        assert_eq!(windows[1].latency_ns.len(), 100);
    }

    #[test]
    fn scaling_converts_units() {
        assert_eq!(scaled(&[1500u64, 2500], 1e-3), vec![1.5, 2.5]);
        assert_eq!(scaled(&[1500u32], 1e-3), vec![1.5]);
    }
}
