//! Policy Decision Point, Policy Enforcement Point, and the policy
//! repository — the conventional-PBMS components of the AGENP architecture
//! (paper §III-A: "The PEP, PDP, and Policy Repository operate in a manner
//! similar to conventional PBMS", with decision monitoring feeding the
//! adaptation loop).

use crate::attr::Request;
use crate::compiled::CompiledPolicySet;
use crate::model::{CombiningAlg, Decision, Policy};
use std::fmt;

/// A versioned store of [`Policy`] objects.
#[derive(Clone, Debug, Default)]
pub struct PolicyRepository {
    policies: Vec<Policy>,
    version: u64,
}

impl PolicyRepository {
    /// An empty repository.
    pub fn new() -> PolicyRepository {
        PolicyRepository::default()
    }

    /// Replaces the entire policy set, bumping the version.
    pub fn replace_all(&mut self, policies: Vec<Policy>) {
        self.policies = policies;
        self.version += 1;
    }

    /// Adds one policy, bumping the version.
    pub fn add(&mut self, policy: Policy) {
        self.policies.push(policy);
        self.version += 1;
    }

    /// Removes the policy with the given id; true if something was removed.
    pub fn remove(&mut self, id: &str) -> bool {
        let before = self.policies.len();
        self.policies.retain(|p| p.id != id);
        let removed = self.policies.len() != before;
        if removed {
            self.version += 1;
        }
        removed
    }

    /// The stored policies.
    pub fn policies(&self) -> &[Policy] {
        &self.policies
    }

    /// Monotone version counter (bumped on every mutation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// True if the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }
}

/// Evaluates a request against a policy slice under a combining algorithm —
/// the pure decision kernel of the stateful [`Pdp`]. Compiles the set for
/// this one call; the shared-snapshot serving tier (`agenp-core`'s
/// `DecisionSnapshot`) keeps a [`CompiledPolicySet`] per published set
/// instead.
pub fn evaluate_policies(
    policies: &[Policy],
    combining: CombiningAlg,
    request: &Request,
) -> Decision {
    CompiledPolicySet::new(policies, combining).decide(request)
}

/// One monitored decision, kept for the PAdaP's adaptation loop.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecisionRecord {
    /// The evaluated request.
    pub request: Request,
    /// The decision rendered.
    pub decision: Decision,
    /// Repository version at decision time.
    pub policy_version: u64,
}

/// The Policy Decision Point: evaluates requests against the repository and
/// records a decision history.
#[derive(Clone, Debug)]
pub struct Pdp {
    combining: CombiningAlg,
    history: Vec<DecisionRecord>,
}

impl Default for Pdp {
    fn default() -> Pdp {
        Pdp::new(CombiningAlg::DenyOverrides)
    }
}

impl Pdp {
    /// A PDP combining policy decisions with `combining`.
    pub fn new(combining: CombiningAlg) -> Pdp {
        Pdp {
            combining,
            history: Vec::new(),
        }
    }

    /// The combining algorithm this PDP applies across policies.
    pub fn combining(&self) -> CombiningAlg {
        self.combining
    }

    /// Evaluates a request against a repository and records the outcome.
    pub fn decide(&mut self, repo: &PolicyRepository, request: &Request) -> Decision {
        let decision = evaluate_policies(repo.policies(), self.combining, request);
        self.history.push(DecisionRecord {
            request: request.clone(),
            decision,
            policy_version: repo.version(),
        });
        record_decision(decision);
        decision
    }

    /// Degraded-mode decision: renders an unconditional [`Decision::Deny`]
    /// and records it against the current repository version. Used when the
    /// policy pipeline upstream of the PDP failed (budget exhaustion, a
    /// deadline overrun) and a fail-safe answer is needed without
    /// evaluating possibly-stale policies as if they were fresh.
    pub fn decide_degraded(&mut self, repo: &PolicyRepository, request: &Request) -> Decision {
        let decision = Decision::Deny;
        self.history.push(DecisionRecord {
            request: request.clone(),
            decision,
            policy_version: repo.version(),
        });
        if agenp_obs::enabled() {
            agenp_obs::registry()
                .counter("policy.pdp.degraded_decisions")
                .incr();
        }
        record_decision(decision);
        decision
    }

    /// Evaluates without recording (pure query).
    pub fn peek(&self, repo: &PolicyRepository, request: &Request) -> Decision {
        evaluate_policies(repo.policies(), self.combining, request)
    }

    /// The decision history (oldest first).
    pub fn history(&self) -> &[DecisionRecord] {
        &self.history
    }

    /// Drains the history, handing it to the adaptation layer.
    pub fn take_history(&mut self) -> Vec<DecisionRecord> {
        std::mem::take(&mut self.history)
    }
}

/// Bumps the global `policy.pdp.*` outcome counters (no-op when telemetry
/// is disabled).
fn record_decision(decision: Decision) {
    if !agenp_obs::enabled() {
        return;
    }
    let r = agenp_obs::registry();
    r.counter("policy.pdp.decisions").incr();
    r.counter(match decision {
        Decision::Permit => "policy.pdp.permit",
        Decision::Deny => "policy.pdp.deny",
        Decision::NotApplicable => "policy.pdp.not_applicable",
        Decision::Indeterminate => "policy.pdp.indeterminate",
    })
    .incr();
}

/// The action the PEP performs after a decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Enforcement {
    /// The request proceeds.
    Granted,
    /// The request is blocked.
    Blocked,
    /// The request is blocked and flagged for operator review (the paper's
    /// completeness concern: no policy covered the action).
    Escalated,
}

impl fmt::Display for Enforcement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Enforcement::Granted => "granted",
            Enforcement::Blocked => "blocked",
            Enforcement::Escalated => "escalated",
        })
    }
}

/// The Policy Enforcement Point: maps decisions to enforcement actions with
/// a configurable default for gaps.
#[derive(Clone, Copy, Debug)]
pub struct Pep {
    /// Whether `NotApplicable`/`Indeterminate` escalate (true) or block
    /// silently (false).
    pub escalate_gaps: bool,
}

impl Default for Pep {
    fn default() -> Pep {
        Pep {
            escalate_gaps: true,
        }
    }
}

impl Pep {
    /// Maps a decision to an enforcement action (deny-biased: anything other
    /// than an explicit Permit is not granted).
    pub fn enforce(&self, decision: Decision) -> Enforcement {
        match decision {
            Decision::Permit => Enforcement::Granted,
            Decision::Deny => Enforcement::Blocked,
            Decision::NotApplicable | Decision::Indeterminate => {
                if self.escalate_gaps {
                    Enforcement::Escalated
                } else {
                    Enforcement::Blocked
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Category;
    use crate::model::{Cond, Effect, PolicyRule};

    fn repo() -> PolicyRepository {
        let mut r = PolicyRepository::new();
        r.add(Policy::new(
            "p1",
            vec![PolicyRule::new(
                "allow-dba",
                Effect::Permit,
                Cond::eq(Category::Subject, "role", "dba"),
            )],
        ));
        r
    }

    #[test]
    fn pdp_decides_and_records() {
        let repo = repo();
        let mut pdp = Pdp::default();
        let req = Request::new().subject("role", "dba");
        assert_eq!(pdp.decide(&repo, &req), Decision::Permit);
        let req2 = Request::new().subject("role", "guest");
        assert_eq!(pdp.decide(&repo, &req2), Decision::NotApplicable);
        assert_eq!(pdp.history().len(), 2);
        assert_eq!(pdp.history()[0].decision, Decision::Permit);
        let drained = pdp.take_history();
        assert_eq!(drained.len(), 2);
        assert!(pdp.history().is_empty());
    }

    #[test]
    fn degraded_decisions_deny_and_record() {
        let repo = repo();
        let mut pdp = Pdp::default();
        // Even a request a Permit rule matches is denied in degraded mode.
        let req = Request::new().subject("role", "dba");
        assert_eq!(pdp.decide_degraded(&repo, &req), Decision::Deny);
        assert_eq!(pdp.history().len(), 1);
        assert_eq!(pdp.history()[0].decision, Decision::Deny);
        assert_eq!(pdp.history()[0].policy_version, repo.version());
    }

    #[test]
    fn peek_does_not_record() {
        let repo = repo();
        let pdp = Pdp::default();
        assert_eq!(
            pdp.peek(&repo, &Request::new().subject("role", "dba")),
            Decision::Permit
        );
        assert!(pdp.history().is_empty());
    }

    #[test]
    fn repository_versions_mutations() {
        let mut r = repo();
        let v = r.version();
        r.add(Policy::new("p2", vec![]));
        assert_eq!(r.version(), v + 1);
        assert!(r.remove("p2"));
        assert!(!r.remove("p2"));
        assert_eq!(r.version(), v + 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn pep_enforcement_mapping() {
        let pep = Pep::default();
        assert_eq!(pep.enforce(Decision::Permit), Enforcement::Granted);
        assert_eq!(pep.enforce(Decision::Deny), Enforcement::Blocked);
        assert_eq!(pep.enforce(Decision::NotApplicable), Enforcement::Escalated);
        let silent = Pep {
            escalate_gaps: false,
        };
        assert_eq!(
            silent.enforce(Decision::Indeterminate),
            Enforcement::Blocked
        );
    }
}
