//! Answer Set Grammars (paper §II-A, Definitions 1–2): context-free
//! grammars whose production rules carry annotated ASP programs.
//!
//! A string `s` is in the language of an ASG `G` iff some parse tree `PT` of
//! the underlying CFG for `s` yields a program `G[PT]` — the union over all
//! nodes `n` of the node's annotation instantiated at `trace(n)` — that has
//! at least one answer set.
//!
//! `G(C)` (Definition 3 / §III-A-1) adds the context program `C` to the
//! annotation of every production rule, making context facts visible at
//! every node's local trace.

use crate::cfg::{Cfg, ProdId};
use crate::earley::{EarleyParser, ParseOptions};
use crate::gen::{GenOptions, Generator};
use crate::tree::{ParseTree, TreeChild};
use agenp_asp::{
    ground, ground_with, CostVector, Exhausted, GroundError, GroundOptions, Program, Rule,
    RunBudget, Solver, Symbol,
};
use std::fmt;

/// An answer set grammar: a [`Cfg`] plus one annotated ASP [`Program`] per
/// production rule.
#[derive(Clone, Debug)]
pub struct Asg {
    cfg: Cfg,
    annotations: Vec<Program>,
}

/// Errors raised by ASG operations.
#[derive(Clone, Debug)]
pub enum AsgError {
    /// The ASP program produced for a parse tree failed to ground.
    Ground(GroundError),
    /// A production id was out of range.
    BadProduction(usize),
    /// A budgeted membership/enumeration call ran out of a
    /// [`RunBudget`] resource.
    Exhausted(Exhausted),
}

impl fmt::Display for AsgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsgError::Ground(e) => write!(f, "grounding failed: {e}"),
            AsgError::BadProduction(i) => write!(f, "no production with id {i}"),
            AsgError::Exhausted(kind) => write!(f, "grammar evaluation aborted: {kind}"),
        }
    }
}

impl std::error::Error for AsgError {}

impl From<GroundError> for AsgError {
    fn from(e: GroundError) -> AsgError {
        AsgError::Ground(e)
    }
}

impl Asg {
    /// Wraps a CFG with empty annotations.
    pub fn from_cfg(cfg: Cfg) -> Asg {
        let annotations = vec![Program::new(); cfg.production_count()];
        Asg { cfg, annotations }
    }

    /// The underlying CFG (`G_CF`: the grammar with annotations removed).
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The annotation of production `id`.
    pub fn annotation(&self, id: ProdId) -> &Program {
        &self.annotations[id.index()]
    }

    /// Replaces the annotation of production `id`.
    ///
    /// # Errors
    ///
    /// [`AsgError::BadProduction`] if `id` is out of range.
    pub fn set_annotation(&mut self, id: ProdId, program: Program) -> Result<(), AsgError> {
        let slot = self
            .annotations
            .get_mut(id.index())
            .ok_or(AsgError::BadProduction(id.index()))?;
        *slot = program;
        Ok(())
    }

    /// Adds a single rule to the annotation of production `id`.
    ///
    /// # Errors
    ///
    /// [`AsgError::BadProduction`] if `id` is out of range.
    pub fn add_rule(&mut self, id: ProdId, rule: Rule) -> Result<(), AsgError> {
        let slot = self
            .annotations
            .get_mut(id.index())
            .ok_or(AsgError::BadProduction(id.index()))?;
        slot.push(rule);
        Ok(())
    }

    /// `G : H` — the grammar with each hypothesis rule added to its target
    /// production (Definition 3).
    ///
    /// # Errors
    ///
    /// [`AsgError::BadProduction`] for an out-of-range target.
    pub fn with_added_rules<'a>(
        &self,
        additions: impl IntoIterator<Item = &'a (ProdId, Rule)>,
    ) -> Result<Asg, AsgError> {
        let mut g = self.clone();
        for (id, rule) in additions {
            g.add_rule(*id, rule.clone())?;
        }
        Ok(g)
    }

    /// `G(C)` — the grammar with the context program `C` added to the
    /// annotation of every production rule.
    pub fn with_context(&self, context: &Program) -> Asg {
        let mut g = self.clone();
        for a in &mut g.annotations {
            a.extend_from(context);
        }
        g
    }

    /// `G[PT]` — the ASP program induced by a parse tree: each node's
    /// annotation instantiated at the node's trace.
    pub fn tree_program(&self, tree: &ParseTree) -> Program {
        let mut out = Program::new();
        tree.visit_nodes(|node, trace| {
            out.extend_from(&self.annotations[node.prod.index()].instantiate_at(trace));
        });
        out
    }

    /// Does `tree` (a parse tree of the underlying CFG) satisfy the ASG's
    /// semantic conditions, i.e. does `G[PT]` have an answer set?
    ///
    /// # Errors
    ///
    /// [`AsgError::Ground`] if the induced program fails to ground.
    pub fn tree_admitted(&self, tree: &ParseTree) -> Result<bool, AsgError> {
        let program = self.tree_program(tree);
        let g = ground(&program)?;
        Ok(Solver::new().max_models(1).solve(&g).satisfiable())
    }

    /// Like [`Asg::tree_admitted`], but bounded by a [`RunBudget`]: the
    /// grounder honours the budget's atom cap and deadline, the solver its
    /// step cap and deadline.
    ///
    /// # Errors
    ///
    /// [`AsgError::Exhausted`] when a budget resource runs out;
    /// [`AsgError::Ground`] for non-budget grounding failures.
    pub fn tree_admitted_within(
        &self,
        tree: &ParseTree,
        budget: &RunBudget,
    ) -> Result<bool, AsgError> {
        let program = self.tree_program(tree);
        let g = ground_with(
            &program,
            GroundOptions {
                max_atoms: budget.max_atoms,
                deadline: budget.deadline,
                ..GroundOptions::default()
            },
        )
        .map_err(|e| match e.exhausted() {
            Some(kind) => AsgError::Exhausted(kind),
            None => AsgError::Ground(e),
        })?;
        let r = Solver::new().max_models(1).with_budget(budget).solve(&g);
        if r.satisfiable() {
            return Ok(true);
        }
        if !r.complete() {
            return Err(AsgError::Exhausted(
                r.exhausted().unwrap_or(Exhausted::Steps),
            ));
        }
        Ok(false)
    }

    /// Is the token sequence in `L(G)`? True iff at least one parse tree is
    /// admitted.
    ///
    /// # Errors
    ///
    /// Propagates grounding failures from annotation programs.
    pub fn accepts_tokens(&self, tokens: &[Symbol]) -> Result<bool, AsgError> {
        let mut span = agenp_obs::span!("grammar.membership", tokens = tokens.len());
        let result = self.accepts_tokens_inner(tokens);
        if span.is_live() {
            record_membership(&mut span, &result);
        }
        result
    }

    fn accepts_tokens_inner(&self, tokens: &[Symbol]) -> Result<bool, AsgError> {
        let parser = EarleyParser::new(&self.cfg);
        for tree in parser.parse_with(tokens, ParseOptions::default()) {
            if self.tree_admitted(&tree)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Budgeted variant of [`Asg::accepts_tokens`].
    ///
    /// # Errors
    ///
    /// [`AsgError::Exhausted`] when the budget runs out mid-check; other
    /// failures as in [`Asg::accepts_tokens`].
    pub fn accepts_tokens_within(
        &self,
        tokens: &[Symbol],
        budget: &RunBudget,
    ) -> Result<bool, AsgError> {
        let mut span = agenp_obs::span!("grammar.membership", tokens = tokens.len());
        let result = self.accepts_tokens_within_inner(tokens, budget);
        if span.is_live() {
            record_membership(&mut span, &result);
        }
        result
    }

    fn accepts_tokens_within_inner(
        &self,
        tokens: &[Symbol],
        budget: &RunBudget,
    ) -> Result<bool, AsgError> {
        let parser = EarleyParser::new(&self.cfg);
        for tree in parser.parse_with(tokens, ParseOptions::default()) {
            if budget.deadline.expired() {
                return Err(AsgError::Exhausted(Exhausted::Deadline));
            }
            if self.tree_admitted_within(&tree, budget)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Is the whitespace-tokenized string in `L(G)`?
    ///
    /// # Errors
    ///
    /// See [`Asg::accepts_tokens`].
    pub fn accepts(&self, text: &str) -> Result<bool, AsgError> {
        self.accepts_tokens(&Cfg::tokenize(text))
    }

    /// Budgeted variant of [`Asg::accepts`].
    ///
    /// # Errors
    ///
    /// See [`Asg::accepts_tokens_within`].
    pub fn accepts_within(&self, text: &str, budget: &RunBudget) -> Result<bool, AsgError> {
        self.accepts_tokens_within(&Cfg::tokenize(text), budget)
    }

    /// Enumerates the admitted parse trees of the grammar up to generation
    /// bounds — the *generated policies* of the GPM.
    ///
    /// # Errors
    ///
    /// Propagates grounding failures.
    pub fn admitted_trees(&self, opts: GenOptions) -> Result<Vec<ParseTree>, AsgError> {
        let gen = Generator::new(&self.cfg);
        let mut out = Vec::new();
        for tree in gen.trees(opts) {
            if self.tree_admitted(&tree)? {
                out.push(tree);
            }
        }
        Ok(out)
    }

    /// Budgeted variant of [`Asg::admitted_trees`]: every per-tree
    /// admission check runs under `budget`, and the enumeration itself
    /// stops with [`AsgError::Exhausted`] once the deadline passes.
    ///
    /// # Errors
    ///
    /// [`AsgError::Exhausted`] when the budget runs out; grounding failures
    /// otherwise.
    pub fn admitted_trees_within(
        &self,
        opts: GenOptions,
        budget: &RunBudget,
    ) -> Result<Vec<ParseTree>, AsgError> {
        let gen = Generator::new(&self.cfg);
        let mut out = Vec::new();
        for tree in gen.trees(opts) {
            if budget.deadline.expired() {
                return Err(AsgError::Exhausted(Exhausted::Deadline));
            }
            if self.tree_admitted_within(&tree, budget)? {
                out.push(tree);
            }
        }
        Ok(out)
    }

    /// Enumerates the admitted strings (deduplicated, sorted).
    ///
    /// # Errors
    ///
    /// Propagates grounding failures.
    pub fn language(&self, opts: GenOptions) -> Result<Vec<String>, AsgError> {
        let mut out: Vec<String> = self
            .admitted_trees(opts)?
            .iter()
            .map(ParseTree::text)
            .collect();
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Budgeted variant of [`Asg::language`].
    ///
    /// # Errors
    ///
    /// See [`Asg::admitted_trees_within`].
    pub fn language_within(
        &self,
        opts: GenOptions,
        budget: &RunBudget,
    ) -> Result<Vec<String>, AsgError> {
        let mut out: Vec<String> = self
            .admitted_trees_within(opts, budget)?
            .iter()
            .map(ParseTree::text)
            .collect();
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// The optimal weak-constraint cost of the tree's program — the
    /// *utility* of the policy (paper §I's utility-based policies) — or
    /// `None` if the tree is rejected.
    ///
    /// # Errors
    ///
    /// [`AsgError::Ground`] on grounding failures.
    pub fn tree_cost(&self, tree: &ParseTree) -> Result<Option<CostVector>, AsgError> {
        let program = self.tree_program(tree);
        let g = ground(&program)?;
        let r = Solver::new().optimize(&g);
        Ok(r.cost().cloned())
    }

    /// Enumerates the admitted parse trees together with their costs,
    /// best (lowest-cost) first — the generated policies ranked by the
    /// grammar's weak-constraint preferences.
    ///
    /// ```
    /// use agenp_grammar::{Asg, GenOptions};
    /// let g: Asg = r#"
    ///     route -> "north" { :~ night. [1] }
    ///     route -> "south" { :~ always. [2] }
    /// "#.parse()?;
    /// let ctx: agenp_asp::Program = "always. night.".parse()?;
    /// let ranked = g
    ///     .with_context(&ctx)
    ///     .ranked_trees(GenOptions { max_depth: 3, max_trees: 10 })?;
    /// assert_eq!(ranked[0].0.text(), "north"); // cheaper under this context
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates grounding failures.
    pub fn ranked_trees(&self, opts: GenOptions) -> Result<Vec<(ParseTree, CostVector)>, AsgError> {
        let gen = Generator::new(&self.cfg);
        let mut out = Vec::new();
        for tree in gen.trees(opts) {
            if let Some(cost) = self.tree_cost(&tree)? {
                out.push((tree, cost));
            }
        }
        out.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.text().cmp(&b.0.text())));
        Ok(out)
    }

    /// Pretty-prints a parse tree as nested productions with annotations.
    pub fn explain_tree(&self, tree: &ParseTree) -> String {
        let mut out = String::new();
        tree.visit_nodes(|node, trace| {
            let prod = self.cfg.production(node.prod);
            let lhs = self.cfg.nt_name(prod.lhs);
            let indent = "  ".repeat(trace.depth());
            use std::fmt::Write as _;
            let _ = write!(out, "{indent}{lhs}@[{trace}] (p{})", node.prod.index());
            // Leaf names render straight from the interner — no clones.
            for c in &node.children {
                if let TreeChild::Leaf(s) = c {
                    out.push(' ');
                    s.with_name(|n| out.push_str(n));
                }
            }
            out.push('\n');
        });
        out
    }
}

/// Folds one membership-check outcome into the span and the global
/// `grammar.membership_*` counters (only called for live spans).
fn record_membership(span: &mut agenp_obs::SpanGuard, result: &Result<bool, AsgError>) {
    let r = agenp_obs::registry();
    r.counter("grammar.membership_checks").incr();
    match result {
        Ok(accepted) => {
            span.record("accepted", *accepted);
            if *accepted {
                r.counter("grammar.membership_accepted").incr();
            }
        }
        Err(_) => {
            span.record("error", true);
            r.counter("grammar.membership_errors").incr();
        }
    }
}

impl fmt::Display for Asg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.cfg.productions().iter().enumerate() {
            write!(f, "{} ->", self.cfg.nt_name(p.lhs))?;
            for s in &p.rhs {
                match s {
                    crate::cfg::GSym::Nt(n) => write!(f, " {}", self.cfg.nt_name(*n))?,
                    crate::cfg::GSym::T(t) => t.with_name(|n| write!(f, " {n:?}"))?,
                }
            }
            let ann = &self.annotations[i];
            if ann.is_empty() && ann.weak_constraints().is_empty() {
                writeln!(f)?;
            } else {
                let body = ann
                    .rules()
                    .iter()
                    .map(|r| r.to_string())
                    .chain(ann.weak_constraints().iter().map(|w| w.to_string()))
                    .collect::<Vec<_>>()
                    .join(" ");
                writeln!(f, " {{ {body} }}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{nt, t, CfgBuilder};

    /// The aⁿbⁿcⁿ grammar from the ASG paper [12]: a CFG for a*b*c* whose
    /// annotations force equal counts — a context-sensitive language.
    pub fn anbncn() -> Asg {
        let mut b = CfgBuilder::new();
        let p_start = b.production("start", vec![nt("as"), nt("bs"), nt("cs")]);
        let p_a1 = b.production("as", vec![t("a"), nt("as")]);
        let p_a0 = b.production("as", vec![]);
        let p_b1 = b.production("bs", vec![t("b"), nt("bs")]);
        let p_b0 = b.production("bs", vec![]);
        let p_c1 = b.production("cs", vec![t("c"), nt("cs")]);
        let p_c0 = b.production("cs", vec![]);
        let cfg = b.build().unwrap();
        let mut g = Asg::from_cfg(cfg);
        g.set_annotation(
            p_start,
            ":- size(X)@1, not size(X)@2. :- size(X)@2, not size(X)@3.
             :- size(X)@3, not size(X)@1."
                .parse()
                .unwrap(),
        )
        .unwrap();
        for (inc, zero) in [(p_a1, p_a0), (p_b1, p_b0), (p_c1, p_c0)] {
            g.set_annotation(inc, "size(X + 1) :- size(X)@2.".parse().unwrap())
                .unwrap();
            g.set_annotation(zero, "size(0).".parse().unwrap()).unwrap();
        }
        g
    }

    #[test]
    fn anbncn_membership() {
        let g = anbncn();
        assert!(g.accepts("a b c").unwrap());
        assert!(g.accepts("a a b b c c").unwrap());
        assert!(g.accepts("").unwrap());
        assert!(!g.accepts("a b b c").unwrap());
        assert!(!g.accepts("a a b c").unwrap());
        assert!(!g.accepts("a c b").unwrap()); // not even in the CFG
    }

    #[test]
    fn language_enumeration_filters_by_annotation() {
        let g = anbncn();
        let lang = g
            .language(GenOptions {
                max_depth: 4,
                max_trees: 10_000,
            })
            .unwrap();
        // Depth 4 admits n ∈ {0, 1, 2, 3}; annotation keeps only equal counts
        // (n ≤ 3 on each branch).
        assert!(lang.contains(&String::new()));
        assert!(lang.contains(&"a b c".to_string()));
        assert!(lang.contains(&"a a b b c c".to_string()));
        assert!(!lang.contains(&"a b b c".to_string()));
        for s in &lang {
            let toks = Cfg::tokenize(s);
            let a = toks.iter().filter(|x| x.name() == "a").count();
            let b = toks.iter().filter(|x| x.name() == "b").count();
            let c = toks.iter().filter(|x| x.name() == "c").count();
            assert_eq!(a, b);
            assert_eq!(b, c);
        }
    }

    #[test]
    fn context_facts_gate_the_language() {
        // policy -> "allow" | "deny", allowed only when the context says so.
        let mut b = CfgBuilder::new();
        let p_allow = b.production("policy", vec![t("allow")]);
        let p_deny = b.production("policy", vec![t("deny")]);
        let cfg = b.build().unwrap();
        let mut g = Asg::from_cfg(cfg);
        g.set_annotation(p_allow, ":- not permissive.".parse().unwrap())
            .unwrap();
        g.set_annotation(p_deny, ":- permissive.".parse().unwrap())
            .unwrap();

        let permissive: Program = "permissive.".parse().unwrap();
        let strict = Program::new();
        assert!(g.with_context(&permissive).accepts("allow").unwrap());
        assert!(!g.with_context(&permissive).accepts("deny").unwrap());
        assert!(!g.with_context(&strict).accepts("allow").unwrap());
        assert!(g.with_context(&strict).accepts("deny").unwrap());
    }

    #[test]
    fn with_added_rules_restricts() {
        let mut b = CfgBuilder::new();
        let p_allow = b.production("policy", vec![t("allow")]);
        b.production("policy", vec![t("deny")]);
        let cfg = b.build().unwrap();
        let g = Asg::from_cfg(cfg);
        assert!(g.accepts("allow").unwrap());
        let h = vec![(p_allow, ":- true_fact.".parse::<Rule>().unwrap())];
        let g2 = g.with_added_rules(&h).unwrap();
        // `true_fact` is not derivable, so the constraint is vacuous…
        assert!(g2.accepts("allow").unwrap());
        let h2 = vec![
            (p_allow, "blocked.".parse::<Rule>().unwrap()),
            (p_allow, ":- blocked.".parse::<Rule>().unwrap()),
        ];
        let g3 = g.with_added_rules(&h2).unwrap();
        assert!(!g3.accepts("allow").unwrap());
        assert!(g3.accepts("deny").unwrap());
    }

    #[test]
    fn tree_program_uses_traces() {
        let g = anbncn();
        let parser = EarleyParser::new(g.cfg());
        let trees = parser.parse_text("a b c");
        assert_eq!(trees.len(), 1);
        let prog = g.tree_program(&trees[0]);
        let text = prog.to_string();
        // as-node at trace [1] receives `size(X+1) :- size(X)@1_2.`
        assert!(text.contains("size(0)@1_2"), "program was:\n{text}");
        assert!(text.contains("size(0)@2_2"), "program was:\n{text}");
    }

    #[test]
    fn weak_constraints_rank_generated_policies() {
        // Two policies, both admitted; `fast` is preferred unless the
        // context taxes it.
        let g: Asg = r#"
            policy -> "fast" { mode(fast). :~ congestion. [5] }
            policy -> "slow" { mode(slow). :~ mode(slow). [2] }
        "#
        .parse()
        .unwrap();
        let opts = GenOptions {
            max_depth: 3,
            max_trees: 10,
        };
        let clear = g.ranked_trees(opts).unwrap();
        assert_eq!(clear[0].0.text(), "fast");
        assert!(clear[0].1.is_zero());
        let congested: Program = "congestion.".parse().unwrap();
        let ranked = g.with_context(&congested).ranked_trees(opts).unwrap();
        assert_eq!(ranked[0].0.text(), "slow");
        assert_eq!(ranked[0].1.at_level(0), 2);
        assert_eq!(ranked[1].1.at_level(0), 5);
    }

    #[test]
    fn tree_cost_is_none_for_rejected_trees() {
        let g: Asg = r#"
            policy -> "allow" { :- blocked. :~ e. [1] }
        "#
        .parse()
        .unwrap();
        let blocked: Program = "blocked.".parse().unwrap();
        let g2 = g.with_context(&blocked);
        let tree = Generator::new(g2.cfg())
            .trees(GenOptions {
                max_depth: 2,
                max_trees: 2,
            })
            .pop()
            .unwrap();
        assert!(g2.tree_cost(&tree).unwrap().is_none());
    }

    #[test]
    fn budgeted_membership_matches_unbudgeted() {
        let g = anbncn();
        let budget = RunBudget::default();
        assert!(g.accepts_within("a b c", &budget).unwrap());
        assert!(!g.accepts_within("a b b c", &budget).unwrap());
        let opts = GenOptions {
            max_depth: 4,
            max_trees: 10_000,
        };
        assert_eq!(
            g.language(opts).unwrap(),
            g.language_within(opts, &budget).unwrap()
        );
    }

    #[test]
    fn tight_atom_budget_surfaces_as_exhausted() {
        let g = anbncn();
        let budget = RunBudget::default().with_max_atoms(1);
        match g.accepts_within("a b c", &budget) {
            Err(AsgError::Exhausted(Exhausted::Atoms)) => {}
            other => panic!("expected Exhausted(Atoms), got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_surfaces_as_exhausted() {
        let g = anbncn();
        let budget = RunBudget::default()
            .with_deadline(agenp_asp::Deadline::after(std::time::Duration::ZERO));
        match g.accepts_within("a b c", &budget) {
            Err(AsgError::Exhausted(Exhausted::Deadline)) => {}
            other => panic!("expected Exhausted(Deadline), got {other:?}"),
        }
    }

    #[test]
    fn bad_production_id_errors() {
        let g = anbncn();
        let mut g2 = g.clone();
        assert!(g2
            .add_rule(ProdId::from_index(999), "x.".parse().unwrap())
            .is_err());
    }

    #[test]
    fn display_shows_annotations() {
        let g = anbncn();
        let text = g.to_string();
        assert!(text.contains("start -> as bs cs {"));
        assert!(text.contains("size(0)."));
    }
}
