//! Example compilation: parse each example once, build the per-parse-tree
//! base programs `G(C)[PT]`, and — when the hypothesis space is
//! constraint-only — enumerate the answer sets ("worlds") of each base
//! program so candidate constraints can be evaluated as pure filters.
//!
//! Soundness of the world view: for any program `P` and set of constraints
//! `C`, the stable models of `P ∪ C` are exactly the stable models of `P`
//! that satisfy every constraint in `C`. A tree is therefore admitted by
//! `G(C):H` iff some world of its base program violates no chosen
//! constraint.

use crate::example::Example;
use crate::space::Candidate;
use agenp_asp::{
    ground_with_stats, Atom, Bindings, CmpOp, GroundError, GroundMode, GroundOptions, GroundStats,
    IncrementalGrounder, Literal, Program, Rule, Solver, Symbol, Trace,
};
use agenp_grammar::{Asg, EarleyParser, ParseOptions, ParseTree, ProdId};
use std::collections::HashMap;

/// A single answer set of a base program, indexed for conjunctive-query
/// evaluation.
#[derive(Clone, Debug)]
pub struct World {
    atoms: Vec<Atom>,
    by_sig: HashMap<(Symbol, usize, Trace), Vec<usize>>,
}

impl World {
    /// Builds a world from a set of atoms.
    pub fn from_atoms(atoms: Vec<Atom>) -> World {
        let mut by_sig: HashMap<(Symbol, usize, Trace), Vec<usize>> = HashMap::new();
        for (i, a) in atoms.iter().enumerate() {
            by_sig
                .entry((a.pred, a.args.len(), a.trace.clone()))
                .or_default()
                .push(i);
        }
        World { atoms, by_sig }
    }

    /// True if the world contains the (ground) atom.
    pub fn contains(&self, atom: &Atom) -> bool {
        self.by_sig
            .get(&(atom.pred, atom.args.len(), atom.trace.clone()))
            .is_some_and(|ids| ids.iter().any(|&i| &self.atoms[i] == atom))
    }

    fn candidates(&self, pattern: &Atom) -> &[usize] {
        self.by_sig
            .get(&(pattern.pred, pattern.args.len(), pattern.trace.clone()))
            .map_or(&[], Vec::as_slice)
    }

    /// The world's atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }
}

/// Is the body of a (possibly non-ground) rule satisfiable in `world`, i.e.
/// does some grounding make every literal true?
pub fn body_holds(body: &[Literal], world: &World) -> bool {
    let mut bindings = Bindings::new();
    holds_rec(
        body,
        &mut Vec::from_iter(0..body.len()),
        &mut bindings,
        world,
    )
}

fn holds_rec(
    body: &[Literal],
    remaining: &mut Vec<usize>,
    bindings: &mut Bindings,
    world: &World,
) -> bool {
    if remaining.is_empty() {
        return true;
    }
    let all_bound = |lit: &Literal, b: &Bindings| {
        let mut vs = Vec::new();
        lit.collect_vars(&mut vs);
        vs.iter().all(|v| b.contains_key(v))
    };
    // Pick the next evaluable literal: bound comparisons and negations act
    // as filters; `V = expr` binds; positive atoms join against the world.
    let pick = remaining
        .iter()
        .position(|&i| match &body[i] {
            Literal::Cmp(CmpOp::Eq, agenp_asp::Term::Var(v), rhs) => {
                !bindings.contains_key(v) && rhs.vars().iter().all(|x| bindings.contains_key(x))
                    || all_bound(&body[i], bindings)
            }
            Literal::Cmp(..) | Literal::Neg(_) => all_bound(&body[i], bindings),
            Literal::Pos(_) => false,
        })
        .or_else(|| {
            remaining
                .iter()
                .position(|&i| matches!(&body[i], Literal::Pos(_)))
        });
    let Some(pos) = pick else {
        // Only unbound filters remain: the rule was unsafe; treat the body
        // as unsatisfiable rather than guessing.
        return false;
    };
    let idx = remaining.remove(pos);
    let result = match &body[idx] {
        Literal::Cmp(op, l, r) => {
            match (l.substitute(bindings), r.substitute(bindings)) {
                (Some(gl), Some(gr)) => {
                    op.eval(&gl, &gr) && holds_rec(body, remaining, bindings, world)
                }
                // An `=` binder: bind the variable side.
                _ => {
                    if let (CmpOp::Eq, agenp_asp::Term::Var(v), rhs) = (op, l, r) {
                        if let Some(val) = rhs.substitute(bindings) {
                            bindings.insert(*v, val);
                            let ok = holds_rec(body, remaining, bindings, world);
                            bindings.remove(v);
                            ok
                        } else {
                            false
                        }
                    } else {
                        false
                    }
                }
            }
        }
        Literal::Neg(a) => match a.substitute(bindings) {
            Some(g) => !world.contains(&g) && holds_rec(body, remaining, bindings, world),
            None => false,
        },
        Literal::Pos(a) => {
            let mut found = false;
            for &wi in world.candidates(a) {
                let atom = world.atoms[wi].clone();
                let mut trial = bindings.clone();
                if a.match_ground(&atom, &mut trial)
                    && holds_rec(body, remaining, &mut trial, world)
                {
                    found = true;
                    break;
                }
            }
            found
        }
    };
    remaining.insert(pos, idx);
    result
}

/// A compiled parse tree of an example.
#[derive(Debug)]
pub struct CompiledTree {
    /// The parse tree itself.
    pub tree: ParseTree,
    /// `G(C)[PT]` — annotations plus context, instantiated at every node.
    pub base: Program,
    /// Node traces grouped by production id (for hypothesis instantiation).
    pub traces_by_prod: HashMap<ProdId, Vec<Trace>>,
    /// The answer sets of `base` (empty if the base is unsatisfiable).
    pub worlds: Vec<World>,
    /// False if world enumeration hit the cap (monotone path unusable).
    pub worlds_complete: bool,
    /// Saturated base grounder: hypotheses are grounded as deltas on top of
    /// `base` instead of re-grounding it per evaluation. `None` when
    /// compiled with [`CompileOptions::naive_ground`] (benchmark ablation).
    pub grounder: Option<IncrementalGrounder>,
}

impl CompiledTree {
    /// Instantiates a candidate's rule at every node the candidate targets.
    pub fn instantiate(&self, candidate: &Candidate) -> Vec<Rule> {
        self.traces_by_prod
            .get(&candidate.target)
            .map(|traces| {
                traces
                    .iter()
                    .map(|t| candidate.rule.instantiate_at(t))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Does `world` (an answer set of `base`) violate the candidate
    /// constraint? Only meaningful for constraint candidates.
    pub fn world_violates(&self, world: &World, candidate: &Candidate) -> bool {
        debug_assert!(candidate.rule.is_constraint());
        self.instantiate(candidate)
            .iter()
            .any(|r| body_holds(&r.body, world))
    }
}

/// A compiled example: its parse trees plus metadata.
#[derive(Debug)]
pub struct CompiledExample {
    /// Index into the task's example list (positives first, then negatives).
    pub is_pos: bool,
    /// Violation penalty (None = hard).
    pub penalty: Option<u32>,
    /// Compiled parse trees (empty if the string is not in the CFG).
    pub trees: Vec<CompiledTree>,
    /// Rendered example text (diagnostics).
    pub text: String,
    /// Grounding work spent on this example's tree bases at compile time.
    pub ground_stats: GroundStats,
    /// Solver calls made while enumerating worlds.
    pub solver_calls: u64,
}

/// Options for example compilation.
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// Maximum parse trees per example.
    pub max_trees: usize,
    /// Maximum answer sets enumerated per tree (worlds).
    pub max_worlds: usize,
    /// Ground tree bases with the retained naive reference grounder and skip
    /// building incremental base grounders. Benchmark ablation only — the
    /// learner then re-grounds base + hypothesis from scratch per
    /// evaluation.
    pub naive_ground: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            max_trees: 16,
            max_worlds: 64,
            naive_ground: false,
        }
    }
}

impl CompileOptions {
    /// Sets the maximum parse trees per example.
    pub fn with_max_trees(mut self, max_trees: usize) -> CompileOptions {
        self.max_trees = max_trees;
        self
    }

    /// Sets the maximum answer sets enumerated per tree.
    pub fn with_max_worlds(mut self, max_worlds: usize) -> CompileOptions {
        self.max_worlds = max_worlds;
        self
    }

    /// Enables or disables the naive-reference grounding ablation.
    pub fn with_naive_ground(mut self, naive_ground: bool) -> CompileOptions {
        self.naive_ground = naive_ground;
        self
    }
}

impl CompiledExample {
    /// Is the example's string admitted under the hypothesis? Only valid
    /// for constraint-only hypotheses with completely enumerated worlds;
    /// returns `None` when that precondition fails (callers fall back to
    /// full semantics).
    pub fn accepted_by(&self, rules: &[(ProdId, agenp_asp::Rule)]) -> Option<bool> {
        if rules.iter().any(|(_, r)| !r.is_constraint()) {
            return None;
        }
        if self.trees.iter().any(|t| !t.worlds_complete) {
            return None;
        }
        for tree in &self.trees {
            for world in &tree.worlds {
                let killed = rules.iter().any(|(target, rule)| {
                    let cand = Candidate::new(*target, rule.clone());
                    tree.world_violates(world, &cand)
                });
                if !killed {
                    return Some(true);
                }
            }
        }
        Some(false)
    }

    /// Like [`CompiledExample::accepted_by`], but exact for arbitrary
    /// hypotheses: each tree's hypothesis instantiation is grounded as a
    /// delta over the tree's saturated base and checked for a stable model.
    /// Returns `Ok(None)` when a tree lacks a base grounder (the
    /// [`CompileOptions::naive_ground`] ablation); callers then fall back to
    /// full ASG semantics.
    ///
    /// # Errors
    ///
    /// Propagates grounding failures from the delta pass.
    pub fn accepted_by_grounding(
        &self,
        rules: &[(ProdId, Rule)],
    ) -> Result<Option<bool>, GroundError> {
        for tree in &self.trees {
            let Some(grounder) = &tree.grounder else {
                return Ok(None);
            };
            let mut delta: Vec<Rule> = Vec::new();
            for (target, rule) in rules {
                let cand = Candidate::new(*target, rule.clone());
                delta.extend(tree.instantiate(&cand));
            }
            let g = grounder.ground_delta(&delta)?;
            if Solver::new().max_models(1).solve(&g).satisfiable() {
                return Ok(Some(true));
            }
        }
        Ok(Some(false))
    }
}

/// Compiles an example against `grammar`.
///
/// # Errors
///
/// Propagates grounding failures from annotation or context programs.
pub fn compile_example(
    grammar: &Asg,
    example: &Example,
    is_pos: bool,
    opts: CompileOptions,
) -> Result<CompiledExample, GroundError> {
    let with_ctx = grammar.with_context(&example.context);
    let parser = EarleyParser::new(grammar.cfg());
    let tokens = agenp_grammar::Cfg::tokenize(&example.text);
    let trees = parser.parse_with(
        &tokens,
        ParseOptions {
            max_trees: opts.max_trees,
        },
    );
    let mut compiled = Vec::with_capacity(trees.len());
    let mut ground_stats = GroundStats::default();
    let mut solver_calls = 0u64;
    for tree in trees {
        let base = with_ctx.tree_program(&tree);
        let mut traces_by_prod: HashMap<ProdId, Vec<Trace>> = HashMap::new();
        tree.visit_nodes(|node, trace| {
            traces_by_prod
                .entry(node.prod)
                .or_default()
                .push(trace.clone());
        });
        // Ground the base once. The incremental grounder saturates it and
        // keeps the state around so candidate hypotheses can later be
        // grounded as deltas without redoing this work.
        let gopts = GroundOptions::default();
        let (g, grounder) = if opts.naive_ground {
            let (g, st) = ground_with_stats(&base, gopts.with_mode(GroundMode::Naive))?;
            ground_stats.absorb(st);
            (g, None)
        } else {
            let grounder = IncrementalGrounder::new(&base, gopts)?;
            ground_stats.absorb(grounder.base_stats());
            let (g, st) = grounder.ground_delta_with_stats(&[])?;
            ground_stats.absorb(st);
            (g, Some(grounder))
        };
        let result = Solver::new().max_models(opts.max_worlds).solve(&g);
        solver_calls += 1;
        let worlds_complete = result.complete();
        let worlds = result
            .models()
            .iter()
            .map(|m| World::from_atoms(m.atoms().to_vec()))
            .collect();
        compiled.push(CompiledTree {
            tree,
            base,
            traces_by_prod,
            worlds,
            worlds_complete,
            grounder,
        });
    }
    Ok(CompiledExample {
        is_pos,
        penalty: example.penalty,
        trees: compiled,
        text: example.text.clone(),
        ground_stats,
        solver_calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_asp::Term;

    fn world(atoms: &[&str]) -> World {
        World::from_atoms(atoms.iter().map(|s| s.parse().unwrap()).collect())
    }

    #[test]
    fn body_holds_matches_conjunctions() {
        let w = world(&["p(1)", "p(2)", "q(2)"]);
        let r: Rule = ":- p(X), q(X).".parse().unwrap();
        assert!(body_holds(&r.body, &w));
        let r2: Rule = ":- p(X), q(X), X < 2.".parse().unwrap();
        assert!(!body_holds(&r2.body, &w));
        let r3: Rule = ":- p(X), not q(X).".parse().unwrap();
        assert!(body_holds(&r3.body, &w)); // p(1) with no q(1)
    }

    #[test]
    fn body_holds_respects_traces() {
        let w = world(&["size(2)@1", "size(3)@2"]);
        let r: Rule = ":- size(X)@1, size(X)@2.".parse().unwrap();
        assert!(!body_holds(&r.body, &w));
        let w2 = world(&["size(2)@1", "size(2)@2"]);
        assert!(body_holds(&r.body, &w2));
    }

    #[test]
    fn body_holds_evaluates_binders() {
        let w = world(&["n(3)", "m(4)"]);
        let r: Rule = ":- n(X), Y = X + 1, m(Y).".parse().unwrap();
        assert!(body_holds(&r.body, &w));
        let r2: Rule = ":- n(X), Y = X + 2, m(Y).".parse().unwrap();
        assert!(!body_holds(&r2.body, &w));
    }

    #[test]
    fn world_contains_uses_full_atom() {
        let w = world(&["p(1)"]);
        assert!(w.contains(&"p(1)".parse().unwrap()));
        assert!(!w.contains(&"p(2)".parse().unwrap()));
        assert!(
            !w.contains(&Atom::new("p", vec![Term::Int(1)]).with_trace(Trace::from_indices([1])))
        );
    }

    #[test]
    fn compile_builds_worlds() {
        let g: Asg = r#"
            policy -> "allow" { ok :- not vetoed. }
            policy -> "deny"
        "#
        .parse()
        .unwrap();
        let ex = Example::new("allow");
        let c = compile_example(&g, &ex, true, CompileOptions::default()).unwrap();
        assert!(c.is_pos);
        assert_eq!(c.trees.len(), 1);
        let t = &c.trees[0];
        assert_eq!(t.worlds.len(), 1);
        assert!(t.worlds_complete);
        assert!(t.worlds[0].contains(&"ok".parse().unwrap()));
    }

    #[test]
    fn accepted_by_matches_full_semantics() {
        let g: Asg = r#"
            policy -> "allow" { act(allow). }
        "#
        .parse()
        .unwrap();
        let storm: agenp_asp::Program = "storm.".parse().unwrap();
        let ex = Example::in_context("allow", storm.clone());
        let c = compile_example(&g, &ex, true, CompileOptions::default()).unwrap();
        let block: (agenp_grammar::ProdId, Rule) = (
            agenp_grammar::ProdId::from_index(0),
            ":- storm.".parse().unwrap(),
        );
        assert_eq!(c.accepted_by(&[]), Some(true));
        assert_eq!(c.accepted_by(std::slice::from_ref(&block)), Some(false));
        // Cross-check with full ASG semantics.
        let g2 = g.with_added_rules(std::slice::from_ref(&block)).unwrap();
        assert!(!g2.with_context(&storm).accepts("allow").unwrap());
        // Normal rules disable the fast check.
        let normal: (agenp_grammar::ProdId, Rule) = (
            agenp_grammar::ProdId::from_index(0),
            "ok :- storm.".parse().unwrap(),
        );
        assert_eq!(c.accepted_by(std::slice::from_ref(&normal)), None);
    }

    #[test]
    fn unparseable_example_has_no_trees() {
        let g: Asg = "policy -> \"allow\"".parse().unwrap();
        let ex = Example::new("forbidden string");
        let c = compile_example(&g, &ex, false, CompileOptions::default()).unwrap();
        assert!(c.trees.is_empty());
    }
}
