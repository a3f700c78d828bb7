//! # agenp-core — the AGENP generative-policy framework
//!
//! The ASGrammar-based GENerative Policy framework of Bertino et al.
//! (ICDCS 2019), assembled from the workspace substrates:
//!
//! * [`arch`] — the architecture of paper Fig. 2: [`arch::Ams`] wires a
//!   Policy Refinement Point (policy generation from an answer set
//!   grammar), Policy Adaptation Point (ILASP-style re-learning from
//!   observed feedback), Policy Checking Point (quality metrics and
//!   violation screening), Policy Information Point (context acquisition),
//!   and the policy/representation repositories around a conventional
//!   PDP/PEP decision path.
//! * [`scenarios`] — the paper's §IV application studies as synthetic but
//!   faithful workloads: connected autonomous vehicles, XACML access
//!   control, and logistical resupply.
//!
//! ```
//! use agenp_core::arch::{Ams, Feedback};
//! use agenp_grammar::{Asg, ProdId};
//! use agenp_learn::HypothesisSpace;
//!
//! let g: Asg = r#"
//!     policy -> "permit" "always" { e(permit). }
//!     policy -> "deny" "always"   { e(deny). }
//! "#.parse()?;
//! let space = HypothesisSpace::from_texts(&[(ProdId::from_index(0), ":- threat.")]);
//! let mut ams = Ams::new("demo", g, space);
//! let threat: agenp_asp::Program = "threat.".parse()?;
//! ams.observe(Feedback::invalid("permit always", threat.clone()));
//! ams.set_context(threat);
//! ams.adapt()?;
//! assert!(!ams.admits("permit always")?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arch;
pub mod explain;
pub mod scenarios;
