//! # agenp-coalition — multi-party coalition fabric for AGENP
//!
//! The coalition layer of the paper: multiple Autonomous Managed Systems
//! learning concurrently, sharing policy experiences through a CASWiki-style
//! community knowledge base \[16\] filtered by an evidence-based trust model,
//! plus the two coalition application studies that need more than one
//! party — data sharing with helper microservices (§IV-D, \[33\]) and
//! federated-learning governance (§IV-E).
//!
//! The coalition "network" is an in-process simulation (threads and a
//! shared wiki); the paper's coalition is an architectural abstraction, not
//! a measured testbed, so this preserves the relevant behaviour. The fabric
//! is *supervised*: party failures — crashes, lost or delayed reports,
//! corrupted contributions, deadline overruns — are injected
//! deterministically via [`resilience::FaultInjector`], retried with seeded
//! backoff, and surfaced as degraded [`CoalitionOutcome`]s instead of
//! panics (see `docs/RESILIENCE.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod caswiki;
pub mod cav_services;
pub mod datashare;
mod fabric;
pub mod federated;
pub mod resilience;
pub mod sim;
mod trust;

pub use caswiki::{CasWiki, Contribution, ContributionError, ContributionProducer};
pub use fabric::{
    distributed_cav_learning, supervised_cav_learning, warm_start_comparison, CoalitionConfig,
    CoalitionError, CoalitionOutcome, DecisionPlane, NodeOutcome, NodeReport, WarmStartOutcome,
};
pub use trust::TrustModel;
