//! A closed-loop in-process load generator for the PDP serving tier, shared by
//! the `pdp` and `obs` harnesses.

use agenp_core::arch::PdpHandle;
use agenp_policy::{Decision, Request};
use std::time::{Duration, Instant};

/// One thread's share of a [`PdpServer`] run.
#[derive(Clone, Copy, Debug, Default)]
struct WorkerTally {
    decisions: u64,
    permits: u64,
    denies: u64,
    gaps: u64,
}

/// Aggregate result of a closed-loop [`PdpServer`] run.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Worker threads driven.
    pub threads: usize,
    /// Total decisions rendered.
    pub decisions: u64,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
    /// Decisions per second (0.0 for an empty run).
    pub throughput: f64,
    /// Permits rendered.
    pub permits: u64,
    /// Denies rendered.
    pub denies: u64,
    /// `NotApplicable` / `Indeterminate` rendered.
    pub gaps: u64,
}

/// Drives a closed-loop request workload against a [`PdpHandle`]: `threads`
/// workers each pin the handle and render `decisions_per_thread`
/// back-to-back decisions, cycling through the workload from a per-thread
/// offset (so threads send overlapping but phase-shifted request streams).
#[derive(Clone, Debug)]
pub struct PdpServer {
    handle: PdpHandle,
    threads: usize,
}

impl PdpServer {
    /// A single-threaded server over `handle`.
    pub fn new(handle: PdpHandle) -> PdpServer {
        PdpServer { handle, threads: 1 }
    }

    /// Sets the number of worker threads (minimum 1).
    pub fn with_threads(mut self, threads: usize) -> PdpServer {
        self.threads = threads.max(1);
        self
    }

    /// The handle this server drives.
    pub fn handle(&self) -> &PdpHandle {
        &self.handle
    }

    /// Runs the closed loop and reports aggregate throughput.
    pub fn run(&self, workload: &[Request], decisions_per_thread: usize) -> ServerReport {
        let start = Instant::now();
        let mut tallies: Vec<WorkerTally> = Vec::with_capacity(self.threads);
        if workload.is_empty() || decisions_per_thread == 0 {
            tallies.resize(self.threads, WorkerTally::default());
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..self.threads)
                    .map(|t| {
                        let handle = self.handle.clone();
                        scope.spawn(move || {
                            let mut pin = handle.pin();
                            let mut tally = WorkerTally::default();
                            let offset = t * workload.len() / self.threads;
                            for i in 0..decisions_per_thread {
                                let req = &workload[(offset + i) % workload.len()];
                                tally.decisions += 1;
                                match pin.decide(req).decision {
                                    Decision::Permit => tally.permits += 1,
                                    Decision::Deny => tally.denies += 1,
                                    Decision::NotApplicable | Decision::Indeterminate => {
                                        tally.gaps += 1
                                    }
                                }
                            }
                            tally
                        })
                    })
                    .collect();
                for w in workers {
                    tallies.push(w.join().expect("worker panicked"));
                }
            });
        }
        let elapsed = start.elapsed();
        let decisions: u64 = tallies.iter().map(|t| t.decisions).sum();
        let throughput = if elapsed.as_secs_f64() > 0.0 {
            decisions as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        ServerReport {
            threads: self.threads,
            decisions,
            elapsed,
            throughput,
            permits: tallies.iter().map(|t| t.permits).sum(),
            denies: tallies.iter().map(|t| t.denies).sum(),
            gaps: tallies.iter().map(|t| t.gaps).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_core::arch::DecisionSnapshot;
    use agenp_policy::{Category, CombiningAlg, Cond, Effect, Policy, PolicyRule};

    #[test]
    fn server_reports_throughput_and_tallies() {
        let handle = PdpHandle::new();
        handle.publish(DecisionSnapshot::new(
            vec![Policy::new(
                "p",
                vec![PolicyRule::new(
                    "allow-dba",
                    Effect::Permit,
                    Cond::eq(Category::Subject, "role", "dba"),
                )],
            )],
            CombiningAlg::DenyOverrides,
        ));
        let workload: Vec<Request> = (0..8)
            .map(|i| Request::new().subject("role", if i % 2 == 0 { "dba" } else { "guest" }))
            .collect();
        let report = PdpServer::new(handle.clone())
            .with_threads(2)
            .run(&workload, 100);
        assert_eq!(report.threads, 2);
        assert_eq!(report.decisions, 200);
        assert_eq!(report.permits + report.denies + report.gaps, 200);
        assert_eq!(report.permits, 100); // half the workload matches
        assert_eq!(handle.stats().decisions, 200);
        assert!(report.throughput >= 0.0);
    }

    #[test]
    fn empty_workload_reports_zero() {
        let report = PdpServer::new(PdpHandle::new())
            .with_threads(4)
            .run(&[], 100);
        assert_eq!(report.decisions, 0);
        assert_eq!(report.throughput, 0.0);
    }
}
