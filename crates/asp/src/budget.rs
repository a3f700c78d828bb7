//! Wall-clock deadlines and unified run budgets for the long-running
//! symbolic calls (grounding, solving, learning).
//!
//! Every potentially expensive entry point in the stack accepts some bound
//! already — `max_atoms` on the grounder, `max_steps` on the solver,
//! `max_nodes` on the learner. [`RunBudget`] bundles those with a
//! [`Deadline`] so a caller (e.g. a coalition party answering within a
//! service-level deadline) can cancel by *time* as well as by work, and
//! [`Exhausted`] names which bound fired in a uniform way across layers.

use std::fmt;
use std::time::{Duration, Instant};

/// A wall-clock deadline. [`Deadline::none`] never expires, costs nothing
/// to check, and is the default everywhere.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// A deadline that never expires.
    pub fn none() -> Deadline {
        Deadline(None)
    }

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Deadline {
        Deadline(Some(instant))
    }

    /// A deadline `duration` from now.
    pub fn after(duration: Duration) -> Deadline {
        Deadline(Some(Instant::now() + duration))
    }

    /// True if no deadline is set.
    pub fn is_none(&self) -> bool {
        self.0.is_none()
    }

    /// True if the deadline is set and has passed. Unset deadlines never
    /// expire and short-circuit without reading the clock.
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|t| Instant::now() >= t)
    }

    /// Time left before expiry (`None` if no deadline is set; zero once
    /// expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.0.map(|t| t.saturating_duration_since(Instant::now()))
    }
}

/// Which resource bound a computation ran out of.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Exhausted {
    /// The wall-clock [`Deadline`] expired.
    Deadline,
    /// The solver's decision/conflict step budget ran out.
    Steps,
    /// The grounder's atom budget ran out.
    Atoms,
    /// The learner's search-node budget ran out.
    Nodes,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Exhausted::Deadline => "wall-clock deadline expired",
            Exhausted::Steps => "solver step budget exhausted",
            Exhausted::Atoms => "grounding atom budget exhausted",
            Exhausted::Nodes => "search node budget exhausted",
        })
    }
}

impl std::error::Error for Exhausted {}

/// A bundle of resource bounds threaded through the ground → solve → learn
/// pipeline. The default matches each layer's standalone default (no
/// deadline, unlimited solver steps, 4M ground atoms, 2M learner nodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock deadline applied to grounding, solving, and learning.
    pub deadline: Deadline,
    /// Solver decision+conflict budget (`u64::MAX` = unlimited).
    pub max_steps: u64,
    /// Grounder atom budget.
    pub max_atoms: usize,
    /// Learner search-node budget.
    pub max_nodes: u64,
}

impl Default for RunBudget {
    fn default() -> RunBudget {
        RunBudget {
            deadline: Deadline::none(),
            max_steps: u64::MAX,
            max_atoms: 4_000_000,
            max_nodes: 2_000_000,
        }
    }
}

impl RunBudget {
    /// The default budget (component defaults, no deadline).
    pub fn new() -> RunBudget {
        RunBudget::default()
    }

    /// A budget with every bound effectively disabled.
    pub fn unlimited() -> RunBudget {
        RunBudget {
            max_atoms: usize::MAX,
            max_nodes: u64::MAX,
            ..RunBudget::default()
        }
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> RunBudget {
        self.deadline = deadline;
        self
    }

    /// Sets the solver step budget.
    pub fn with_max_steps(mut self, max_steps: u64) -> RunBudget {
        self.max_steps = max_steps;
        self
    }

    /// Sets the grounder atom budget.
    pub fn with_max_atoms(mut self, max_atoms: usize) -> RunBudget {
        self.max_atoms = max_atoms;
        self
    }

    /// Sets the learner node budget.
    pub fn with_max_nodes(mut self, max_nodes: u64) -> RunBudget {
        self.max_nodes = max_nodes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_deadline_never_expires() {
        let d = Deadline::none();
        assert!(d.is_none());
        assert!(!d.expired());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn elapsed_deadline_expires() {
        let d = Deadline::after(Duration::ZERO);
        assert!(!d.is_none());
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_reports_remaining() {
        let d = Deadline::at(Instant::now() + Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining().expect("deadline set") > Duration::from_secs(3000));
    }

    #[test]
    fn budget_builders_compose() {
        let b = RunBudget::new()
            .with_max_steps(10)
            .with_max_atoms(100)
            .with_max_nodes(1000)
            .with_deadline(Deadline::after(Duration::from_secs(1)));
        assert_eq!(b.max_steps, 10);
        assert_eq!(b.max_atoms, 100);
        assert_eq!(b.max_nodes, 1000);
        assert!(!b.deadline.is_none());
        assert_eq!(RunBudget::unlimited().max_atoms, usize::MAX);
    }

    #[test]
    fn exhausted_kinds_render() {
        for (k, needle) in [
            (Exhausted::Deadline, "deadline"),
            (Exhausted::Steps, "step"),
            (Exhausted::Atoms, "atom"),
            (Exhausted::Nodes, "node"),
        ] {
            assert!(k.to_string().contains(needle));
        }
    }
}
