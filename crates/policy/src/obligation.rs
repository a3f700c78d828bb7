//! Obligations and penalties: the decision model beyond permit/deny.
//!
//! A [`PolicyRule`] or [`Policy`] can attach [`ObligationSpec`]s — required
//! follow-up actions with logical-time deadlines — and rules can carry a
//! **penalty** annotation, the sanction an agent incurs by acting against a
//! Deny (the compliance model of "Autonomous Agents and Policy Compliance:
//! A Framework for Reasoning About Penalties"; obligations follow "An ASP
//! Framework for the Refinement of Authorization and Obligation Policies").
//!
//! Collection semantics are deterministic and order-insensitive to
//! combining-algorithm short-circuits, so the serving tier and the naive
//! reference PDP (`agenp-refsem`) can mirror them exactly:
//!
//! 1. The final [`Decision`] is computed exactly as [`evaluate_policies`]
//!    does today; obligations never change a decision.
//! 2. Obligations attach only to definite decisions (Permit / Deny).
//!    `NotApplicable` and `Indeterminate` outcomes carry none.
//! 3. A policy *contributes* iff its own combined decision equals the final
//!    decision; within a contributing policy, a rule contributes iff its
//!    evaluation equals the final decision.
//! 4. From each contributing policy, in policy order: first the policy's
//!    own specs, then each contributing rule's specs in rule order — keeping
//!    every spec whose `on` effect matches the final decision, deduplicated
//!    by obligation id (first occurrence wins).
//! 5. The decision's penalty is the **maximum** penalty annotation over
//!    contributing Deny rules (the worst applicable sanction), and zero for
//!    any non-Deny outcome.

use crate::attr::Request;
use crate::compiled::CompiledPolicySet;
use crate::model::{CombiningAlg, Decision, Effect, Policy, PolicyRule};
#[cfg(doc)]
use crate::pdp::evaluate_policies;
use std::fmt;

/// A required follow-up action attached to a decision: the PEP must perform
/// `action` within `deadline` logical ticks of the decision or accrue
/// `penalty`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Obligation {
    /// Stable identifier — the deduplication and discharge key.
    pub id: String,
    /// The action the PEP must perform (e.g. `audit-log`, `notify-owner`).
    pub action: String,
    /// Logical ticks after issue by which the action must be discharged.
    pub deadline: u64,
    /// Penalty accrued if the obligation expires undischarged.
    pub penalty: u32,
}

impl Obligation {
    /// An obligation with zero breach penalty.
    pub fn new(id: &str, action: &str, deadline: u64) -> Obligation {
        Obligation {
            id: id.to_owned(),
            action: action.to_owned(),
            deadline,
            penalty: 0,
        }
    }

    /// Sets the breach penalty (builder style).
    pub fn with_penalty(mut self, penalty: u32) -> Obligation {
        self.penalty = penalty;
        self
    }
}

impl fmt::Display for Obligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "obligation {} within {} penalty {}",
            self.id, self.deadline, self.penalty
        )
    }
}

/// An obligation attached to a rule or policy, fulfilled only when the final
/// decision matches the `on` effect (XACML's FulfillOn).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ObligationSpec {
    /// The final decision effect this spec fires on.
    pub on: Effect,
    /// The obligation issued when the spec fires.
    pub obligation: Obligation,
}

impl ObligationSpec {
    /// A spec firing on `on`.
    pub fn new(on: Effect, obligation: Obligation) -> ObligationSpec {
        ObligationSpec { on, obligation }
    }
}

/// The full result of evaluating a request: the decision plus the
/// obligations and penalty annotation it carries. Produced by
/// [`evaluate_policies_effects`]; the permit/deny-only
/// [`evaluate_policies`] remains for callers that need no annotations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecisionEffects {
    /// The access decision (identical to [`evaluate_policies`]).
    pub decision: Decision,
    /// Obligations the PEP must track, in contribution order, id-deduped.
    pub obligations: Vec<Obligation>,
    /// Worst sanction for acting against this decision (Deny only; 0
    /// otherwise).
    pub penalty: u32,
}

impl DecisionEffects {
    /// An annotation-free effects value for `decision`.
    pub fn bare(decision: Decision) -> DecisionEffects {
        DecisionEffects {
            decision,
            obligations: Vec::new(),
            penalty: 0,
        }
    }

    /// True if the decision carries no obligations and no penalty.
    pub fn is_bare(&self) -> bool {
        self.obligations.is_empty() && self.penalty == 0
    }
}

impl Decision {
    /// The effect behind a definite decision (`None` for
    /// NotApplicable/Indeterminate).
    pub fn effect(self) -> Option<Effect> {
        match self {
            Decision::Permit => Some(Effect::Permit),
            Decision::Deny => Some(Effect::Deny),
            Decision::NotApplicable | Decision::Indeterminate => None,
        }
    }
}

impl PolicyRule {
    /// True if the rule carries obligation specs or a penalty annotation.
    pub fn has_annotations(&self) -> bool {
        !self.obligations.is_empty() || self.penalty.is_some()
    }
}

impl Policy {
    /// True if the policy or any of its rules carries annotations.
    pub fn has_annotations(&self) -> bool {
        !self.obligations.is_empty() || self.rules.iter().any(PolicyRule::has_annotations)
    }
}

/// Evaluates a request to a [`DecisionEffects`]: the same decision as
/// [`evaluate_policies`], plus collected obligations and the penalty
/// annotation, per the module-level collection semantics. Compiles the set
/// for this one call; a caller deciding many requests against one set
/// keeps a [`CompiledPolicySet`] instead.
pub fn evaluate_policies_effects(
    policies: &[Policy],
    combining: CombiningAlg,
    request: &Request,
) -> DecisionEffects {
    CompiledPolicySet::new(policies, combining).decide_effects(request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Category;
    use crate::model::Cond;
    use crate::pdp::evaluate_policies;

    fn audit(deadline: u64) -> Obligation {
        Obligation::new("audit", "audit-log", deadline).with_penalty(2)
    }

    fn dba() -> Request {
        Request::new().subject("role", "dba")
    }

    #[test]
    fn permit_collects_matching_obligations() {
        let p = Policy::new(
            "p",
            vec![PolicyRule::new(
                "allow-dba",
                Effect::Permit,
                Cond::eq(Category::Subject, "role", "dba"),
            )
            .with_obligation(Effect::Permit, audit(10))],
        );
        let fx = evaluate_policies_effects(&[p], CombiningAlg::DenyOverrides, &dba());
        assert_eq!(fx.decision, Decision::Permit);
        assert_eq!(fx.obligations, vec![audit(10)]);
        assert_eq!(fx.penalty, 0);
    }

    #[test]
    fn non_matching_on_effect_does_not_fire() {
        let p = Policy::new(
            "p",
            vec![PolicyRule::new(
                "allow-dba",
                Effect::Permit,
                Cond::eq(Category::Subject, "role", "dba"),
            )
            .with_obligation(Effect::Deny, audit(10))],
        );
        let fx = evaluate_policies_effects(&[p], CombiningAlg::DenyOverrides, &dba());
        assert_eq!(fx.decision, Decision::Permit);
        assert!(fx.is_bare());
    }

    #[test]
    fn policy_level_obligations_fire_on_policy_contribution() {
        let p = Policy::new(
            "p",
            vec![PolicyRule::new(
                "deny-guest",
                Effect::Deny,
                Cond::eq(Category::Subject, "role", "guest"),
            )],
        )
        .with_obligation(Effect::Deny, Obligation::new("notify", "notify-owner", 5));
        let guest = Request::new().subject("role", "guest");
        let fx = evaluate_policies_effects(
            std::slice::from_ref(&p),
            CombiningAlg::DenyOverrides,
            &guest,
        );
        assert_eq!(fx.decision, Decision::Deny);
        assert_eq!(fx.obligations.len(), 1);
        assert_eq!(fx.obligations[0].id, "notify");
        // The same policy contributes nothing on a non-matching request.
        let fx2 = evaluate_policies_effects(&[p], CombiningAlg::DenyOverrides, &dba());
        assert_eq!(fx2.decision, Decision::NotApplicable);
        assert!(fx2.is_bare());
    }

    #[test]
    fn non_contributing_policy_is_skipped() {
        // Policy a permits, policy b denies; under DenyOverrides the final
        // decision is Deny, so a's permit-side obligations must not fire.
        let a = Policy::new(
            "a",
            vec![PolicyRule::unconditional("always", Effect::Permit)
                .with_obligation(Effect::Permit, audit(10))],
        );
        let b = Policy::new(
            "b",
            vec![PolicyRule::new(
                "deny-dba",
                Effect::Deny,
                Cond::eq(Category::Subject, "role", "dba"),
            )
            .with_obligation(Effect::Deny, Obligation::new("alarm", "raise-alarm", 1))],
        );
        let fx = evaluate_policies_effects(&[a, b], CombiningAlg::DenyOverrides, &dba());
        assert_eq!(fx.decision, Decision::Deny);
        assert_eq!(fx.obligations.len(), 1);
        assert_eq!(fx.obligations[0].id, "alarm");
    }

    #[test]
    fn obligations_dedupe_by_id_first_wins() {
        let p = Policy::new(
            "p",
            vec![
                PolicyRule::unconditional("r1", Effect::Permit)
                    .with_obligation(Effect::Permit, audit(10)),
                PolicyRule::unconditional("r2", Effect::Permit)
                    .with_obligation(Effect::Permit, audit(99)),
            ],
        );
        let fx = evaluate_policies_effects(&[p], CombiningAlg::PermitOverrides, &dba());
        assert_eq!(fx.obligations.len(), 1);
        assert_eq!(fx.obligations[0].deadline, 10); // first occurrence wins
    }

    #[test]
    fn penalty_is_max_over_contributing_deny_rules() {
        let p = Policy::new(
            "p",
            vec![
                PolicyRule::unconditional("d1", Effect::Deny).with_penalty(3),
                PolicyRule::unconditional("d2", Effect::Deny).with_penalty(7),
                // A permit rule's penalty never contributes to a Deny.
                PolicyRule::unconditional("perm", Effect::Permit).with_penalty(100),
            ],
        );
        let fx = evaluate_policies_effects(&[p], CombiningAlg::DenyOverrides, &dba());
        assert_eq!(fx.decision, Decision::Deny);
        assert_eq!(fx.penalty, 7);
    }

    #[test]
    fn indefinite_decisions_are_bare() {
        let p = Policy::new(
            "p",
            vec![PolicyRule::new(
                "needs-attr",
                Effect::Permit,
                Cond::eq(Category::Subject, "missing", 1i64),
            )
            .with_obligation(Effect::Permit, audit(1))
            .with_penalty(9)],
        );
        let fx = evaluate_policies_effects(&[p], CombiningAlg::DenyOverrides, &Request::new());
        assert_eq!(fx.decision, Decision::Indeterminate);
        assert!(fx.is_bare());
    }

    #[test]
    fn decision_matches_plain_kernel() {
        let p = Policy::new(
            "p",
            vec![PolicyRule::unconditional("d", Effect::Deny).with_penalty(4)],
        );
        let req = dba();
        let fx =
            evaluate_policies_effects(std::slice::from_ref(&p), CombiningAlg::DenyOverrides, &req);
        assert_eq!(
            fx.decision,
            evaluate_policies(std::slice::from_ref(&p), CombiningAlg::DenyOverrides, &req)
        );
        assert_eq!(fx.penalty, 4);
    }
}
