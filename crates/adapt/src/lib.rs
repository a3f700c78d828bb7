//! # agenp-adapt — the adaptation plane
//!
//! Closes the paper's learn–serve loop (Fig. 2) *online*: decisions the
//! PEP serves are logged, mined into labeled examples, fed to the
//! ILASP2i-style incremental learner, and the refined policy set is
//! published back through the serving tier's snapshot swap — all while
//! decision traffic keeps flowing (`docs/ADAPTATION.md`).
//!
//! The pieces, in data-flow order:
//!
//! - [`DecisionLog`] — a bounded ring buffer the enforcement point
//!   records served decisions into.
//! - [`Miner`] — drains the log into candidate positive/negative
//!   examples ([`Feedback`](agenp_core::arch::Feedback)), deduplicated
//!   per request, penalty-aware.
//! - [`AdaptPlane`] — one synchronous `run_round`: mine, relearn from
//!   the initial GPM plus all accumulated evidence under a
//!   [`RunBudget`](agenp_asp::RunBudget), regenerate policies, publish.
//!   Serve-last-good on failure; serving is never interrupted.
//! - [`Relearner`] — the plane on a worker thread, triggered and
//!   observed over channels.
//!
//! Observability: spans `adapt.mine`, `adapt.relearn`, `adapt.publish`;
//! counters `adapt.log.recorded`, `adapt.log.dropped`,
//! `adapt.mine.emitted`, `adapt.rounds.{published,skipped,failed}`.

#![forbid(unsafe_code)]

mod log;
mod miner;
mod plane;
mod relearn;

pub use crate::log::{DecisionLog, DecisionRecord};
pub use crate::miner::{permit_text, MineStats, MinedBatch, Miner};
pub use crate::plane::{AdaptPlane, RoundOutcome, RoundReport};
pub use crate::relearn::Relearner;
