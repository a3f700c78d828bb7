//! # agenp-baselines — from-scratch shallow-ML baselines
//!
//! The statistical learners the AGENP paper's §IV-A claim compares against
//! ("the ASG based GPM outperforms shallow Machine Learning techniques …
//! as fewer examples are required to achieve a greater accuracy"): a CART
//! decision tree, naive Bayes, and k-nearest-neighbours, all over mixed
//! categorical/numeric tabular data, plus split/learning-curve evaluation
//! helpers.
//!
//! ```
//! use agenp_baselines::{Classifier, Dataset, DecisionTree, Feature};
//!
//! let mut d = Dataset::new(vec!["loa".into()], 2);
//! for loa in 0..6 {
//!     d.push(vec![Feature::Num(loa as f64)], usize::from(loa >= 3));
//! }
//! let tree = DecisionTree::fit(&d);
//! assert_eq!(tree.predict(&[Feature::Num(5.0)]), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod data;
mod eval;
mod knn;
mod nb;
mod tree;

pub use data::{Classifier, Dataset, Feature};
pub use eval::{learning_curve, train_test_split, CurvePoint};
pub use knn::Knn;
pub use nb::NaiveBayes;
pub use tree::{DecisionTree, TreeParams};
