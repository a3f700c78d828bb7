//! The policy model: targets, conditions, rules, policies, and policy sets
//! with XACML-style combining algorithms.

use crate::attr::{AttrValue, Category, Request};
use crate::obligation::{Obligation, ObligationSpec};
use std::fmt;

/// The effect of a rule.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Effect {
    /// Grant the request.
    Permit,
    /// Refuse the request.
    Deny,
}

impl Effect {
    /// The opposite effect.
    pub fn negate(self) -> Effect {
        match self {
            Effect::Permit => Effect::Deny,
            Effect::Deny => Effect::Permit,
        }
    }
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Effect::Permit => "permit",
            Effect::Deny => "deny",
        })
    }
}

/// An access decision.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Decision {
    /// The request is granted.
    Permit,
    /// The request is refused.
    Deny,
    /// No rule applies.
    NotApplicable,
    /// Evaluation failed (e.g. a referenced attribute is missing).
    Indeterminate,
}

impl From<Effect> for Decision {
    fn from(e: Effect) -> Decision {
        match e {
            Effect::Permit => Decision::Permit,
            Effect::Deny => Decision::Deny,
        }
    }
}

impl Decision {
    /// The decision's name, as [`Display`](fmt::Display) prints it.
    pub fn name(self) -> &'static str {
        match self {
            Decision::Permit => "Permit",
            Decision::Deny => "Deny",
            Decision::NotApplicable => "NotApplicable",
            Decision::Indeterminate => "Indeterminate",
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Comparison operators in conditions.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CondOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than (integers).
    Lt,
    /// At-most (integers).
    Le,
    /// Greater-than (integers).
    Gt,
    /// At-least (integers).
    Ge,
}

impl CondOp {
    /// Concrete syntax.
    pub fn token(self) -> &'static str {
        match self {
            CondOp::Eq => "=",
            CondOp::Ne => "!=",
            CondOp::Lt => "<",
            CondOp::Le => "<=",
            CondOp::Gt => ">",
            CondOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CondOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// A condition expression over request attributes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Cond {
    /// Compares the attribute `category.name` with a constant.
    Cmp {
        /// Attribute category.
        category: Category,
        /// Attribute name.
        attr: String,
        /// Operator.
        op: CondOp,
        /// Right-hand constant.
        value: AttrValue,
    },
    /// The attribute is one of the listed values.
    In {
        /// Attribute category.
        category: Category,
        /// Attribute name.
        attr: String,
        /// Accepted values.
        values: Vec<AttrValue>,
    },
    /// Conjunction.
    And(Vec<Cond>),
    /// Disjunction.
    Or(Vec<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

impl Cond {
    /// Equality shorthand.
    pub fn eq(category: Category, attr: &str, value: impl Into<AttrValue>) -> Cond {
        Cond::Cmp {
            category,
            attr: attr.to_owned(),
            op: CondOp::Eq,
            value: value.into(),
        }
    }

    /// Comparison shorthand.
    pub fn cmp(category: Category, attr: &str, op: CondOp, value: impl Into<AttrValue>) -> Cond {
        Cond::Cmp {
            category,
            attr: attr.to_owned(),
            op,
            value: value.into(),
        }
    }

    /// Evaluates against a request. `None` means the condition references a
    /// missing attribute or compares incomparable values (Indeterminate).
    pub fn eval(&self, request: &Request) -> Option<bool> {
        match self {
            Cond::Cmp {
                category,
                attr,
                op,
                value,
            } => {
                let actual = request.get(*category, attr)?;
                compare(actual, *op, value)
            }
            Cond::In {
                category,
                attr,
                values,
            } => {
                let actual = request.get(*category, attr)?;
                Some(values.contains(actual))
            }
            Cond::And(cs) => {
                let mut all = true;
                for c in cs {
                    match c.eval(request) {
                        Some(true) => {}
                        Some(false) => return Some(false),
                        None => all = false, // keep scanning for a definite false
                    }
                }
                if all {
                    Some(true)
                } else {
                    None
                }
            }
            Cond::Or(cs) => {
                let mut any_unknown = false;
                for c in cs {
                    match c.eval(request) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => any_unknown = true,
                    }
                }
                if any_unknown {
                    None
                } else {
                    Some(false)
                }
            }
            Cond::Not(c) => c.eval(request).map(|b| !b),
        }
    }

    /// The attributes referenced by the condition.
    pub fn referenced(&self) -> Vec<(Category, String)> {
        let mut out = Vec::new();
        self.collect_refs(&mut out);
        out
    }

    fn collect_refs(&self, out: &mut Vec<(Category, String)>) {
        match self {
            Cond::Cmp { category, attr, .. } | Cond::In { category, attr, .. } => {
                let key = (*category, attr.clone());
                if !out.contains(&key) {
                    out.push(key);
                }
            }
            Cond::And(cs) | Cond::Or(cs) => {
                for c in cs {
                    c.collect_refs(out);
                }
            }
            Cond::Not(c) => c.collect_refs(out),
        }
    }
}

fn compare(actual: &AttrValue, op: CondOp, value: &AttrValue) -> Option<bool> {
    use std::cmp::Ordering;
    let ord = match (actual, value) {
        (AttrValue::Int(a), AttrValue::Int(b)) => a.cmp(b),
        (AttrValue::Str(a), AttrValue::Str(b)) => a.cmp(b),
        (AttrValue::Bool(a), AttrValue::Bool(b)) => a.cmp(b),
        _ => return None,
    };
    Some(match op {
        CondOp::Eq => ord == Ordering::Equal,
        CondOp::Ne => ord != Ordering::Equal,
        CondOp::Lt => ord == Ordering::Less,
        CondOp::Le => ord != Ordering::Greater,
        CondOp::Gt => ord == Ordering::Greater,
        CondOp::Ge => ord != Ordering::Less,
    })
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::Cmp {
                category,
                attr,
                op,
                value,
            } => {
                write!(f, "{category}.{attr} {op} {value}")
            }
            Cond::In {
                category,
                attr,
                values,
            } => {
                write!(f, "{category}.{attr} in [")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Cond::And(cs) => join(f, cs, " and "),
            Cond::Or(cs) => join(f, cs, " or "),
            Cond::Not(c) => write!(f, "not ({c})"),
        }
    }
}

fn join(f: &mut fmt::Formatter<'_>, cs: &[Cond], sep: &str) -> fmt::Result {
    write!(f, "(")?;
    for (i, c) in cs.iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        write!(f, "{c}")?;
    }
    write!(f, ")")
}

/// A policy rule: an effect guarded by a condition, optionally annotated
/// with obligations and a penalty (see [`crate::evaluate_policies_effects`]
/// for how annotations attach to decisions).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PolicyRule {
    /// Identifier (unique within its policy).
    pub id: String,
    /// Effect when the rule applies.
    pub effect: Effect,
    /// Applicability condition; `None` means the rule always applies.
    pub condition: Option<Cond>,
    /// Obligations issued when this rule contributes to the decision.
    pub obligations: Vec<ObligationSpec>,
    /// Sanction for acting against this rule's Deny, if quantified.
    pub penalty: Option<u32>,
}

impl PolicyRule {
    /// A rule with a condition.
    pub fn new(id: &str, effect: Effect, condition: Cond) -> PolicyRule {
        PolicyRule {
            id: id.to_owned(),
            effect,
            condition: Some(condition),
            obligations: Vec::new(),
            penalty: None,
        }
    }

    /// An unconditional rule.
    pub fn unconditional(id: &str, effect: Effect) -> PolicyRule {
        PolicyRule {
            id: id.to_owned(),
            effect,
            condition: None,
            obligations: Vec::new(),
            penalty: None,
        }
    }

    /// Attaches an obligation fulfilled when the final decision matches
    /// `on` (builder style).
    pub fn with_obligation(mut self, on: Effect, obligation: Obligation) -> PolicyRule {
        self.obligations.push(ObligationSpec::new(on, obligation));
        self
    }

    /// Sets the penalty annotation (builder style).
    pub fn with_penalty(mut self, penalty: u32) -> PolicyRule {
        self.penalty = Some(penalty);
        self
    }

    /// Evaluates the rule: its effect if the condition holds,
    /// `NotApplicable` if it does not, `Indeterminate` on evaluation error.
    pub fn evaluate(&self, request: &Request) -> Decision {
        match &self.condition {
            None => self.effect.into(),
            Some(c) => match c.eval(request) {
                Some(true) => self.effect.into(),
                Some(false) => Decision::NotApplicable,
                None => Decision::Indeterminate,
            },
        }
    }
}

impl fmt::Display for PolicyRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.condition {
            Some(c) => write!(f, "[{}] {} if {}", self.id, self.effect, c)?,
            None => write!(f, "[{}] {}", self.id, self.effect)?,
        }
        for spec in &self.obligations {
            write!(f, " (on {}: {})", spec.on, spec.obligation)?;
        }
        if let Some(p) = self.penalty {
            write!(f, " penalty {p}")?;
        }
        Ok(())
    }
}

/// XACML-style combining algorithms.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CombiningAlg {
    /// Any Deny wins over any Permit.
    DenyOverrides,
    /// Any Permit wins over any Deny.
    PermitOverrides,
    /// The first applicable rule decides.
    FirstApplicable,
}

impl CombiningAlg {
    /// Combines a sequence of decisions.
    pub fn combine(self, decisions: impl IntoIterator<Item = Decision>) -> Decision {
        let mut saw_permit = false;
        let mut saw_deny = false;
        let mut saw_indeterminate = false;
        for d in decisions {
            match d {
                Decision::Permit => {
                    if self == CombiningAlg::FirstApplicable {
                        return Decision::Permit;
                    }
                    saw_permit = true;
                }
                Decision::Deny => {
                    if self == CombiningAlg::FirstApplicable {
                        return Decision::Deny;
                    }
                    saw_deny = true;
                }
                Decision::Indeterminate => saw_indeterminate = true,
                Decision::NotApplicable => {}
            }
        }
        match self {
            CombiningAlg::DenyOverrides => {
                if saw_deny {
                    Decision::Deny
                } else if saw_indeterminate {
                    Decision::Indeterminate
                } else if saw_permit {
                    Decision::Permit
                } else {
                    Decision::NotApplicable
                }
            }
            CombiningAlg::PermitOverrides => {
                if saw_permit {
                    Decision::Permit
                } else if saw_indeterminate {
                    Decision::Indeterminate
                } else if saw_deny {
                    Decision::Deny
                } else {
                    Decision::NotApplicable
                }
            }
            CombiningAlg::FirstApplicable => {
                if saw_indeterminate {
                    Decision::Indeterminate
                } else {
                    Decision::NotApplicable
                }
            }
        }
    }
}

/// A policy: rules plus a combining algorithm, optionally annotated with
/// policy-level obligations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Policy {
    /// Identifier.
    pub id: String,
    /// Rules, in order.
    pub rules: Vec<PolicyRule>,
    /// How rule decisions are combined.
    pub combining: CombiningAlg,
    /// Obligations issued when this policy contributes to the decision.
    pub obligations: Vec<ObligationSpec>,
}

impl Policy {
    /// A policy with deny-overrides combining.
    pub fn new(id: &str, rules: Vec<PolicyRule>) -> Policy {
        Policy {
            id: id.to_owned(),
            rules,
            combining: CombiningAlg::DenyOverrides,
            obligations: Vec::new(),
        }
    }

    /// Sets the combining algorithm.
    pub fn with_combining(mut self, alg: CombiningAlg) -> Policy {
        self.combining = alg;
        self
    }

    /// Attaches a policy-level obligation fulfilled when the final decision
    /// matches `on` (builder style).
    pub fn with_obligation(mut self, on: Effect, obligation: Obligation) -> Policy {
        self.obligations.push(ObligationSpec::new(on, obligation));
        self
    }

    /// Evaluates the policy against a request.
    pub fn evaluate(&self, request: &Request) -> Decision {
        self.combining
            .combine(self.rules.iter().map(|r| r.evaluate(request)))
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "policy {} ({:?}):", self.id, self.combining)?;
        for r in &self.rules {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dba_read() -> Request {
        Request::new()
            .subject("role", "dba")
            .action("action-id", "read")
    }

    #[test]
    fn rule_evaluation() {
        let r = PolicyRule::new(
            "r1",
            Effect::Permit,
            Cond::And(vec![
                Cond::eq(Category::Subject, "role", "dba"),
                Cond::eq(Category::Action, "action-id", "read"),
            ]),
        );
        assert_eq!(r.evaluate(&dba_read()), Decision::Permit);
        let other = Request::new()
            .subject("role", "intern")
            .action("action-id", "read");
        assert_eq!(r.evaluate(&other), Decision::NotApplicable);
        // Missing attribute → Indeterminate.
        let empty = Request::new();
        assert_eq!(r.evaluate(&empty), Decision::Indeterminate);
    }

    #[test]
    fn numeric_comparisons() {
        let r = PolicyRule::new(
            "age",
            Effect::Deny,
            Cond::cmp(Category::Subject, "age", CondOp::Lt, 18i64),
        );
        assert_eq!(
            r.evaluate(&Request::new().subject("age", 15i64)),
            Decision::Deny
        );
        assert_eq!(
            r.evaluate(&Request::new().subject("age", 30i64)),
            Decision::NotApplicable
        );
        // Type mismatch → Indeterminate.
        assert_eq!(
            r.evaluate(&Request::new().subject("age", "old")),
            Decision::Indeterminate
        );
    }

    #[test]
    fn in_and_boolean_connectives() {
        let c = Cond::Or(vec![
            Cond::In {
                category: Category::Subject,
                attr: "role".into(),
                values: vec!["dba".into(), "admin".into()],
            },
            Cond::Not(Box::new(Cond::eq(Category::Environment, "lockdown", true))),
        ]);
        let r1 = Request::new()
            .subject("role", "admin")
            .environment("lockdown", true);
        assert_eq!(c.eval(&r1), Some(true));
        let r2 = Request::new()
            .subject("role", "guest")
            .environment("lockdown", true);
        assert_eq!(c.eval(&r2), Some(false));
    }

    #[test]
    fn and_short_circuits_definite_false_over_unknown() {
        let c = Cond::And(vec![
            Cond::eq(Category::Subject, "missing", 1i64),
            Cond::eq(Category::Subject, "role", "nobody"),
        ]);
        // role present and false → definite false despite missing attr.
        let r = Request::new().subject("role", "dba");
        assert_eq!(c.eval(&r), Some(false));
    }

    #[test]
    fn combining_algorithms() {
        use Decision::*;
        let ds = [NotApplicable, Permit, Deny];
        assert_eq!(CombiningAlg::DenyOverrides.combine(ds), Deny);
        assert_eq!(CombiningAlg::PermitOverrides.combine(ds), Permit);
        assert_eq!(CombiningAlg::FirstApplicable.combine(ds), Permit);
        assert_eq!(
            CombiningAlg::DenyOverrides.combine([NotApplicable]),
            NotApplicable
        );
        assert_eq!(
            CombiningAlg::DenyOverrides.combine([Permit, Indeterminate]),
            Indeterminate
        );
        assert_eq!(
            CombiningAlg::PermitOverrides.combine([Deny, Indeterminate]),
            Indeterminate
        );
        assert_eq!(
            CombiningAlg::FirstApplicable.combine([Indeterminate, Permit]),
            Permit
        );
    }

    #[test]
    fn policy_combines_rules() {
        let p = Policy::new(
            "p",
            vec![
                PolicyRule::new(
                    "allow-dba",
                    Effect::Permit,
                    Cond::eq(Category::Subject, "role", "dba"),
                ),
                PolicyRule::new(
                    "deny-write",
                    Effect::Deny,
                    Cond::eq(Category::Action, "action-id", "write"),
                ),
            ],
        );
        assert_eq!(p.evaluate(&dba_read()), Decision::Permit);
        let w = Request::new()
            .subject("role", "dba")
            .action("action-id", "write");
        assert_eq!(p.evaluate(&w), Decision::Deny);
    }

    #[test]
    fn referenced_attributes_are_collected() {
        let c = Cond::And(vec![
            Cond::eq(Category::Subject, "role", "dba"),
            Cond::eq(Category::Subject, "role", "admin"),
            Cond::eq(Category::Action, "action-id", "read"),
        ]);
        assert_eq!(c.referenced().len(), 2);
    }

    #[test]
    fn display_forms() {
        let r = PolicyRule::new(
            "r",
            Effect::Permit,
            Cond::eq(Category::Subject, "role", "dba"),
        );
        assert_eq!(r.to_string(), "[r] permit if subject.role = dba");
        let u = PolicyRule::unconditional("d", Effect::Deny);
        assert_eq!(u.to_string(), "[d] deny");
    }
}
