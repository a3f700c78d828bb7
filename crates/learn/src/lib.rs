//! # agenp-learn — inductive learning of answer set grammars
//!
//! An ILASP-style learner for the *context-dependent ASG learning task* of
//! the AGENP paper (Definition 3): given an initial answer set grammar `G`,
//! a hypothesis space `S_M` of candidate ASP rules (each tagged with the
//! production it may annotate), and positive/negative examples `⟨s, C⟩` of
//! policy strings under contexts, find a minimal-cost hypothesis `H ⊆ S_M`
//! with `s ∈ L(G(C):H)` for every positive and `s ∉ L(G(C):H)` for every
//! negative example.
//!
//! Highlights:
//!
//! * a **monotone fast path** for constraint-only hypothesis spaces
//!   (answer-set "worlds" + branch-and-bound hitting sets),
//! * a **generic path** for spaces containing normal rules,
//! * an **ASP meta-encoding backend** ([`Learner::learn_meta`]) solving the
//!   task with the engine's weak-constraint optimizer — the authentic
//!   ILASP architecture, used for cross-validation and ablations,
//! * ILASP-style **noise handling** via per-example penalties,
//! * an **incremental** (relevant-example, ILASP2i-style) driver,
//! * hypothesis-space generation from **mode biases**.
//!
//! ```
//! use agenp_grammar::Asg;
//! use agenp_learn::{Example, HypothesisSpace, Learner, LearningTask};
//! use agenp_grammar::ProdId;
//!
//! let g: Asg = r#"
//!     policy -> "allow" { act(allow). }
//!     policy -> "deny"  { act(deny). }
//! "#.parse()?;
//! let space = HypothesisSpace::from_texts(&[
//!     (ProdId::from_index(0), ":- alert."),
//!     (ProdId::from_index(1), ":- not alert."),
//! ]);
//! let alert: agenp_asp::Program = "alert.".parse()?;
//! let task = LearningTask::new(g, space)
//!     .pos(Example::in_context("deny", alert.clone()))
//!     .neg(Example::in_context("allow", alert));
//! let h = Learner::new().learn(&task)?;
//! assert_eq!(h.rules.len(), 1); // learns `:- alert.` on the allow production
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compile;
mod example;
mod incremental;
mod learner;
mod meta;
pub mod obs;
mod space;

pub use compile::{
    body_holds, compile_example, CompileOptions, CompiledExample, CompiledTree, World,
};
pub use example::Example;
pub use incremental::IncrementalStats;
pub use learner::{
    Branching, Hypothesis, LearnError, LearnOptions, LearnStats, Learner, LearningTask,
};
pub use space::{Candidate, HypothesisSpace, ModeArg, ModeAtom, ModeBias, ModeCmp, ModeLiteral};
