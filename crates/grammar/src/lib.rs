//! # agenp-grammar — context-free grammars and answer set grammars
//!
//! The grammar substrate of the AGENP generative-policy framework: plain
//! [`Cfg`]s with an Earley parser and bounded generator, plus [`Asg`]
//! (answer set grammars, paper §II-A) combining a CFG with per-production
//! annotated ASP programs that act as context-sensitive semantic
//! constraints.
//!
//! ```
//! use agenp_grammar::Asg;
//!
//! // A policy language where `deny` is only valid in an alert context.
//! let g: Asg = r#"
//!     policy -> "allow" { :- alert. }
//!     policy -> "deny"  { :- not alert. }
//! "#.parse()?;
//!
//! let alert: agenp_asp::Program = "alert.".parse()?;
//! assert!(g.with_context(&alert).accepts("deny")?);
//! assert!(!g.with_context(&alert).accepts("allow")?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod asg;
mod cfg;
mod earley;
mod gen;
mod text;
mod tree;

pub use analysis::{ambiguity_sample, validate_asg, AsgIssue, CfgAnalysis};
pub use asg::{Asg, AsgError};
pub use cfg::{nt, t, Cfg, CfgBuilder, CfgError, GSym, NtId, ProdId, Production, Rhs};
pub use earley::{EarleyParser, ParseOptions};
pub use gen::{GenOptions, Generator};
pub use text::{parse_asg, GrammarParseError};
pub use tree::{ParseTree, TreeChild};
