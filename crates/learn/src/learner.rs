//! The context-dependent ASG learning task (paper Definition 3) and its
//! solvers.
//!
//! A task `T = ⟨G, S_M, E⁺, E⁻⟩` asks for a minimal-cost hypothesis
//! `H ⊆ S_M` such that every positive example's string is in `L(G(C):H)`
//! and every negative example's string is not. Soft examples may instead be
//! *sacrificed* at their penalty (ILASP-style noise handling).
//!
//! Two solvers:
//!
//! * **Monotone** (constraint-only spaces): answer sets of each example
//!   tree's base program are enumerated once as "worlds"; a candidate
//!   constraint then behaves as a pure filter, and optimal learning becomes
//!   a weighted hitting-set problem solved by branch and bound.
//! * **Generic** (spaces with normal rules): iterative-deepening search over
//!   hypothesis subsets with full answer-set coverage checks, each a delta
//!   grounding over the example tree's saturated base.

use crate::compile::{compile_example, CompileOptions, CompiledExample};
use crate::example::Example;
use crate::space::{Candidate, HypothesisSpace};
use agenp_asp::{
    ground_with_stats, Deadline, Exhausted, GroundError, GroundMode, GroundOptions, GroundStats,
    Program, Rule, Solver,
};
use agenp_grammar::{Asg, ProdId};
use std::collections::HashMap;
use std::fmt;

/// A context-dependent ASG learning task.
#[derive(Clone, Debug)]
pub struct LearningTask {
    /// The initial grammar `G`.
    pub grammar: Asg,
    /// The hypothesis space `S_M`.
    pub space: HypothesisSpace,
    /// Positive examples `E⁺`.
    pub positive: Vec<Example>,
    /// Negative examples `E⁻`.
    pub negative: Vec<Example>,
}

impl LearningTask {
    /// Creates a task with empty example sets.
    pub fn new(grammar: Asg, space: HypothesisSpace) -> LearningTask {
        LearningTask {
            grammar,
            space,
            positive: Vec::new(),
            negative: Vec::new(),
        }
    }

    /// Adds a positive example.
    pub fn pos(mut self, e: Example) -> LearningTask {
        self.positive.push(e);
        self
    }

    /// Adds a negative example.
    pub fn neg(mut self, e: Example) -> LearningTask {
        self.negative.push(e);
        self
    }

    /// Verifies a hypothesis against Definition 3 using full ASG semantics
    /// (independent of the learner's internal shortcuts). Returns the list
    /// of violated example indices as `(is_positive, index)`.
    ///
    /// # Errors
    ///
    /// Propagates grounding failures.
    pub fn violations(&self, hypothesis: &Hypothesis) -> Result<Vec<(bool, usize)>, GroundError> {
        let g = self
            .grammar
            .with_added_rules(&hypothesis.rules)
            .expect("hypothesis targets validated at learn time");
        let mut out = Vec::new();
        for (i, e) in self.positive.iter().enumerate() {
            let accepted =
                g.with_context(&e.context)
                    .accepts(&e.text)
                    .map_err(|err| match err {
                        agenp_grammar::AsgError::Ground(g) => g,
                        other => panic!("unexpected ASG error: {other}"),
                    })?;
            if !accepted {
                out.push((true, i));
            }
        }
        for (i, e) in self.negative.iter().enumerate() {
            let accepted =
                g.with_context(&e.context)
                    .accepts(&e.text)
                    .map_err(|err| match err {
                        agenp_grammar::AsgError::Ground(g) => g,
                        other => panic!("unexpected ASG error: {other}"),
                    })?;
            if accepted {
                out.push((false, i));
            }
        }
        Ok(out)
    }
}

/// A learned hypothesis: the chosen rules with their target productions.
#[derive(Clone, Debug, Default)]
pub struct Hypothesis {
    /// The learned `(production, rule)` pairs.
    pub rules: Vec<(ProdId, Rule)>,
    /// Total cost: rule lengths plus penalties of sacrificed examples.
    pub cost: u64,
    /// Sacrificed (violated) soft examples as `(is_positive, index)`.
    pub sacrificed: Vec<(bool, usize)>,
}

impl Hypothesis {
    /// The grammar `G:H`.
    pub fn apply(&self, grammar: &Asg) -> Asg {
        grammar
            .with_added_rules(&self.rules)
            .expect("validated targets")
    }
}

impl fmt::Display for Hypothesis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "hypothesis (cost {}):", self.cost)?;
        for (p, r) in &self.rules {
            writeln!(f, "  p{} ⊕ {}", p.index(), r)?;
        }
        for (is_pos, i) in &self.sacrificed {
            writeln!(
                f,
                "  sacrificed {} example #{i}",
                if *is_pos { "positive" } else { "negative" }
            )?;
        }
        Ok(())
    }
}

/// Errors raised by the learner.
#[derive(Clone, Debug)]
pub enum LearnError {
    /// A candidate rule is unsafe.
    UnsafeCandidate(String),
    /// A candidate targets a production outside the grammar.
    BadTarget(usize),
    /// Grounding failed while compiling an example or checking coverage.
    Ground(GroundError),
    /// No hypothesis within the cost bound satisfies the task.
    Unsatisfiable,
    /// The search budget was exhausted before an optimal solution was proven.
    Budget,
    /// A [`RunBudget`](agenp_asp::RunBudget) resource (currently the
    /// wall-clock deadline) ran out before any solution was found.
    Exhausted(Exhausted),
    /// The meta-encoding backend does not apply to this task.
    MetaInapplicable(String),
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::UnsafeCandidate(r) => write!(f, "unsafe candidate rule `{r}`"),
            LearnError::BadTarget(i) => write!(f, "candidate targets unknown production {i}"),
            LearnError::Ground(e) => write!(f, "grounding failed: {e}"),
            LearnError::Unsatisfiable => write!(f, "no hypothesis satisfies the examples"),
            LearnError::Budget => write!(f, "search budget exhausted"),
            LearnError::Exhausted(kind) => write!(f, "resource exhausted: {kind}"),
            LearnError::MetaInapplicable(why) => {
                write!(f, "meta-encoding learner not applicable: {why}")
            }
        }
    }
}

impl std::error::Error for LearnError {}

impl From<GroundError> for LearnError {
    fn from(e: GroundError) -> LearnError {
        LearnError::Ground(e)
    }
}

/// Internal search result: (total cost, chosen candidate indices,
/// sacrificed examples).
type BestSolution = (u64, Vec<u32>, Vec<(bool, usize)>);

/// Statistics describing a learning run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LearnStats {
    /// Candidates in the hypothesis space.
    pub candidates: usize,
    /// Answer-set worlds enumerated across all example parse trees.
    pub worlds: usize,
    /// Search nodes explored.
    pub search_nodes: u64,
    /// True if the monotone (constraint-only) fast path was used.
    pub used_monotone: bool,
    /// Grounding passes spent compiling examples and evaluating hypotheses.
    pub grounding_passes: u64,
    /// Ground-rule instantiations emitted across all grounding work (the
    /// primary grounder cost metric; see [`agenp_asp::GroundStats`]).
    pub rules_instantiated: u64,
    /// Stable-model solver invocations.
    pub solver_calls: u64,
}

impl LearnStats {
    /// Folds a grounder's counters into the learner totals.
    fn absorb_ground(&mut self, g: GroundStats) {
        self.grounding_passes += g.passes;
        self.rules_instantiated += g.rules_instantiated;
    }
}

/// Branch-ordering heuristic for the monotone search — the paper's §V-C
/// suggestion that statistics over the data can guide the symbolic
/// hypothesis-space search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Branching {
    /// Order a world's killers by discrimination: prefer cheap candidates
    /// that kill many negative worlds and few positive worlds.
    #[default]
    Guided,
    /// Order killers by cost only (the unguided baseline).
    CostFirst,
}

/// Learner configuration.
#[derive(Clone, Copy, Debug)]
pub struct LearnOptions {
    /// Maximum total hypothesis cost considered.
    pub max_cost: u64,
    /// Example compilation bounds.
    pub compile: CompileOptions,
    /// Disable the monotone fast path (ablation).
    pub force_generic: bool,
    /// Search node budget for the generic path.
    pub max_nodes: u64,
    /// Branch-ordering heuristic (monotone path).
    pub branching: Branching,
    /// Wall-clock deadline for the hypothesis search (default: none).
    pub deadline: Deadline,
}

impl Default for LearnOptions {
    fn default() -> LearnOptions {
        LearnOptions {
            max_cost: 64,
            compile: CompileOptions::default(),
            force_generic: false,
            max_nodes: 2_000_000,
            branching: Branching::Guided,
            deadline: Deadline::none(),
        }
    }
}

impl LearnOptions {
    /// Sets the maximum total hypothesis cost considered.
    pub fn with_max_cost(mut self, max_cost: u64) -> LearnOptions {
        self.max_cost = max_cost;
        self
    }

    /// Sets the example compilation bounds.
    pub fn with_compile(mut self, compile: CompileOptions) -> LearnOptions {
        self.compile = compile;
        self
    }

    /// Enables or disables forcing the generic search path (ablation).
    pub fn with_force_generic(mut self, force_generic: bool) -> LearnOptions {
        self.force_generic = force_generic;
        self
    }

    /// Sets the search node budget for the generic path.
    pub fn with_max_nodes(mut self, max_nodes: u64) -> LearnOptions {
        self.max_nodes = max_nodes;
        self
    }

    /// Selects the branch-ordering heuristic for the monotone path.
    pub fn with_branching(mut self, branching: Branching) -> LearnOptions {
        self.branching = branching;
        self
    }

    /// Sets the wall-clock deadline for the hypothesis search.
    pub fn with_deadline(mut self, deadline: Deadline) -> LearnOptions {
        self.deadline = deadline;
        self
    }
}

/// The inductive learner.
#[derive(Clone, Copy, Debug, Default)]
pub struct Learner {
    options: LearnOptions,
}

impl Learner {
    /// A learner with default options.
    pub fn new() -> Learner {
        Learner::default()
    }

    /// A learner with explicit options.
    pub fn with_options(options: LearnOptions) -> Learner {
        Learner { options }
    }

    /// The learner's options.
    pub fn options(&self) -> &LearnOptions {
        &self.options
    }

    /// Solves the task, returning a minimal-cost hypothesis.
    ///
    /// # Errors
    ///
    /// [`LearnError::Unsatisfiable`] if no hypothesis within the cost bound
    /// covers the examples; [`LearnError::UnsafeCandidate`] /
    /// [`LearnError::BadTarget`] for malformed spaces; grounding errors.
    pub fn learn(&self, task: &LearningTask) -> Result<Hypothesis, LearnError> {
        self.learn_with_stats(task).map(|(h, _)| h)
    }

    /// Like [`Learner::learn`], additionally returning [`LearnStats`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Learner::learn`].
    pub fn learn_with_stats(
        &self,
        task: &LearningTask,
    ) -> Result<(Hypothesis, LearnStats), LearnError> {
        let mut span = agenp_obs::span!(
            "learn.run",
            candidates = task.space.len(),
            positives = task.positive.len(),
            negatives = task.negative.len(),
        );
        let result = self.learn_with_stats_inner(task);
        if span.is_live() {
            match &result {
                Ok((hypothesis, stats)) => {
                    span.record("hypothesis_rules", hypothesis.rules.len());
                    span.record("monotone", stats.used_monotone);
                    span.record("search_nodes", stats.search_nodes);
                    crate::obs::LearnMetrics::publish(stats);
                }
                Err(_) => span.record("error", true),
            }
        }
        result
    }

    fn learn_with_stats_inner(
        &self,
        task: &LearningTask,
    ) -> Result<(Hypothesis, LearnStats), LearnError> {
        // Validate the space.
        for c in task.space.candidates() {
            if let Some(v) = c.rule.unsafe_var() {
                return Err(LearnError::UnsafeCandidate(format!(
                    "{} ({v} unbound)",
                    c.rule
                )));
            }
            if c.target.index() >= task.grammar.cfg().production_count() {
                return Err(LearnError::BadTarget(c.target.index()));
            }
        }
        // Compile examples.
        let mut compiled: Vec<CompiledExample> = Vec::new();
        for e in &task.positive {
            compiled.push(compile_example(
                &task.grammar,
                e,
                true,
                self.options.compile,
            )?);
        }
        for e in &task.negative {
            compiled.push(compile_example(
                &task.grammar,
                e,
                false,
                self.options.compile,
            )?);
        }
        let monotone_ok = !self.options.force_generic
            && task.space.constraints_only()
            && compiled
                .iter()
                .all(|e| e.trees.iter().all(|t| t.worlds_complete));
        let mut stats = LearnStats {
            candidates: task.space.len(),
            worlds: compiled
                .iter()
                .flat_map(|e| e.trees.iter())
                .map(|t| t.worlds.len())
                .sum(),
            used_monotone: monotone_ok,
            ..LearnStats::default()
        };
        for ex in &compiled {
            stats.absorb_ground(ex.ground_stats);
            stats.solver_calls += ex.solver_calls;
        }
        let hypothesis = if monotone_ok {
            self.learn_monotone(task, &compiled, &mut stats.search_nodes)
        } else {
            self.learn_generic(task, &compiled, &mut stats)
        }?;
        Ok((hypothesis, stats))
    }

    // --- Monotone (constraint-only) path ---------------------------------

    fn learn_monotone(
        &self,
        task: &LearningTask,
        compiled: &[CompiledExample],
        nodes_out: &mut u64,
    ) -> Result<Hypothesis, LearnError> {
        let candidates = task.space.candidates();
        // Flatten worlds across examples and trees.
        let mut n_worlds: usize = 0;
        // kill[c] = indices of worlds violated by candidate c.
        let mut kill: Vec<Vec<u32>> = vec![Vec::new(); candidates.len()];
        let mut worlds_of_ex: Vec<Vec<u32>> = vec![Vec::new(); compiled.len()];
        for (ei, ex) in compiled.iter().enumerate() {
            for tree in &ex.trees {
                for world in &tree.worlds {
                    let wi = n_worlds as u32;
                    n_worlds += 1;
                    worlds_of_ex[ei].push(wi);
                    for (ci, cand) in candidates.iter().enumerate() {
                        if tree.world_violates(world, cand) {
                            kill[ci].push(wi);
                        }
                    }
                }
            }
        }
        let killers_of_world: Vec<Vec<u32>> = {
            let mut k: Vec<Vec<u32>> = vec![Vec::new(); n_worlds];
            for (ci, ws) in kill.iter().enumerate() {
                for &w in ws {
                    k[w as usize].push(ci as u32);
                }
            }
            k
        };

        // Feasibility of the empty requirement set: positives with no worlds
        // can never be covered (must be sacrificed or the task fails).
        let mut base_cost: u64 = 0;
        let mut base_sacrificed: Vec<(bool, usize)> = Vec::new();
        let mut pos_alive: HashMap<usize, Vec<u32>> = HashMap::new();
        let mut neg_pending: Vec<usize> = Vec::new();
        for (ei, ex) in compiled.iter().enumerate() {
            if ex.is_pos {
                if worlds_of_ex[ei].is_empty() {
                    match ex.penalty {
                        Some(p) => {
                            base_cost += u64::from(p);
                            base_sacrificed.push((true, pos_index(compiled, ei)));
                        }
                        None => return Err(LearnError::Unsatisfiable),
                    }
                } else {
                    pos_alive.insert(ei, worlds_of_ex[ei].clone());
                }
            } else if !worlds_of_ex[ei].is_empty() {
                neg_pending.push(ei);
            }
        }

        // Discrimination statistics for guided branching (§V-C).
        let mut neg_kills = vec![0u32; candidates.len()];
        let mut pos_kills = vec![0u32; candidates.len()];
        for (ci, ws) in kill.iter().enumerate() {
            for &w in ws {
                let ei = world_owner(&worlds_of_ex, w);
                if compiled[ei].is_pos {
                    pos_kills[ci] += 1;
                } else {
                    neg_kills[ci] += 1;
                }
            }
        }
        let mut search = MonotoneSearch {
            candidates,
            compiled,
            killers_of_world: &killers_of_world,
            kill: &kill,
            neg_kills: &neg_kills,
            pos_kills: &pos_kills,
            branching: self.options.branching,
            best: None,
            max_cost: self.options.max_cost,
            nodes: 0,
            max_nodes: self.options.max_nodes,
            deadline: self.options.deadline,
            interrupted: false,
        };
        let state = MonoState {
            chosen: Vec::new(),
            forbidden: vec![false; candidates.len()],
            cost: base_cost,
            pos_alive,
            neg_unhit: neg_pending
                .iter()
                .map(|&ei| (ei, worlds_of_ex[ei].clone()))
                .collect(),
            sacrificed: base_sacrificed,
        };
        search.dfs(state);
        *nodes_out = search.nodes;
        if search.best.is_none() {
            if search.interrupted {
                return Err(LearnError::Exhausted(Exhausted::Deadline));
            }
            if search.nodes >= search.max_nodes {
                return Err(LearnError::Budget);
            }
        }
        // NOTE: if the node budget ran out after a solution was found, the
        // solution is returned even though minimality is no longer proven.
        search
            .best
            .ok_or(LearnError::Unsatisfiable)
            .map(|(cost, chosen, sacrificed)| Hypothesis {
                rules: chosen
                    .iter()
                    .map(|&ci| {
                        let c = &candidates[ci as usize];
                        (c.target, c.rule.clone())
                    })
                    .collect(),
                cost,
                sacrificed,
            })
    }

    // --- Generic path -----------------------------------------------------

    fn learn_generic(
        &self,
        task: &LearningTask,
        compiled: &[CompiledExample],
        stats: &mut LearnStats,
    ) -> Result<Hypothesis, LearnError> {
        let candidates = task.space.candidates();
        // Iterative deepening over rule cost.
        let max_rule_cost: u64 = candidates
            .iter()
            .map(|c| u64::from(c.cost))
            .sum::<u64>()
            .min(self.options.max_cost);
        let mut best: Option<BestSolution> = None;
        let mut deadline_hit = false;
        for budget in 0..=max_rule_cost {
            if best.as_ref().is_some_and(|(c, _, _)| *c <= budget) {
                break;
            }
            let mut chosen: Vec<u32> = Vec::new();
            self.generic_dfs(
                compiled,
                candidates,
                0,
                budget,
                &mut chosen,
                stats,
                &mut deadline_hit,
                &mut best,
            )?;
            if deadline_hit {
                return best
                    .map(|(cost, chosen, sacrificed)| Hypothesis {
                        rules: chosen
                            .iter()
                            .map(|&ci| {
                                let c = &candidates[ci as usize];
                                (c.target, c.rule.clone())
                            })
                            .collect(),
                        cost,
                        sacrificed,
                    })
                    .ok_or(LearnError::Exhausted(Exhausted::Deadline));
            }
            if stats.search_nodes >= self.options.max_nodes {
                return best
                    .map(|(cost, chosen, sacrificed)| Hypothesis {
                        rules: chosen
                            .iter()
                            .map(|&ci| {
                                let c = &candidates[ci as usize];
                                (c.target, c.rule.clone())
                            })
                            .collect(),
                        cost,
                        sacrificed,
                    })
                    .ok_or(LearnError::Budget);
            }
        }
        best.map(|(cost, chosen, sacrificed)| Hypothesis {
            rules: chosen
                .iter()
                .map(|&ci| {
                    let c = &candidates[ci as usize];
                    (c.target, c.rule.clone())
                })
                .collect(),
            cost,
            sacrificed,
        })
        .ok_or(LearnError::Unsatisfiable)
    }

    #[allow(clippy::too_many_arguments)]
    fn generic_dfs(
        &self,
        compiled: &[CompiledExample],
        candidates: &[Candidate],
        next: usize,
        budget: u64,
        chosen: &mut Vec<u32>,
        stats: &mut LearnStats,
        deadline_hit: &mut bool,
        best: &mut Option<BestSolution>,
    ) -> Result<(), LearnError> {
        stats.search_nodes += 1;
        if *deadline_hit || stats.search_nodes >= self.options.max_nodes {
            return Ok(());
        }
        if self.options.deadline.expired() {
            *deadline_hit = true;
            return Ok(());
        }
        // Evaluate the current subset exactly at its own cost level.
        let rule_cost: u64 = chosen
            .iter()
            .map(|&c| u64::from(candidates[c as usize].cost))
            .sum();
        if rule_cost == budget {
            self.evaluate_generic(compiled, candidates, chosen, stats, best)?;
            return Ok(());
        }
        if next >= candidates.len() || rule_cost > budget {
            return Ok(());
        }
        // Include candidates[next] (if it fits), then exclude it.
        let c_cost = u64::from(candidates[next].cost);
        if rule_cost + c_cost <= budget {
            chosen.push(next as u32);
            self.generic_dfs(
                compiled,
                candidates,
                next + 1,
                budget,
                chosen,
                stats,
                deadline_hit,
                best,
            )?;
            chosen.pop();
        }
        self.generic_dfs(
            compiled,
            candidates,
            next + 1,
            budget,
            chosen,
            stats,
            deadline_hit,
            best,
        )
    }

    fn evaluate_generic(
        &self,
        compiled: &[CompiledExample],
        candidates: &[Candidate],
        chosen: &[u32],
        stats: &mut LearnStats,
        best: &mut Option<BestSolution>,
    ) -> Result<(), LearnError> {
        let rule_cost: u64 = chosen
            .iter()
            .map(|&c| u64::from(candidates[c as usize].cost))
            .sum();
        let mut total = rule_cost;
        let mut sacrificed = Vec::new();
        for (ei, ex) in compiled.iter().enumerate() {
            let mut accepted = false;
            for tree in &ex.trees {
                // Only candidates whose target occurs in this tree matter.
                let mut delta: Vec<Rule> = Vec::new();
                for &ci in chosen {
                    let c = &candidates[ci as usize];
                    if tree.traces_by_prod.contains_key(&c.target) {
                        delta.extend(tree.instantiate(c));
                    }
                }
                // The hypothesis is a delta over the tree's saturated base
                // grounding; only ablation runs re-ground from scratch.
                let g = match &tree.grounder {
                    Some(grounder) => {
                        let (g, st) = grounder.ground_delta_with_stats(&delta)?;
                        stats.absorb_ground(st);
                        g
                    }
                    None => {
                        let mut program: Program = tree.base.clone();
                        for rule in delta {
                            program.push(rule);
                        }
                        let (g, st) = ground_with_stats(
                            &program,
                            GroundOptions::default().with_mode(GroundMode::Naive),
                        )?;
                        stats.absorb_ground(st);
                        g
                    }
                };
                stats.solver_calls += 1;
                if Solver::new().max_models(1).solve(&g).satisfiable() {
                    accepted = true;
                    break;
                }
            }
            let satisfied = accepted == ex.is_pos;
            if !satisfied {
                match ex.penalty {
                    Some(p) => {
                        total += u64::from(p);
                        sacrificed.push((ex.is_pos, local_index(compiled, ei)));
                    }
                    None => return Ok(()), // hard violation: subset invalid
                }
            }
            if best.as_ref().is_some_and(|(c, _, _)| *c <= total) {
                return Ok(());
            }
        }
        if total <= self.options.max_cost && best.as_ref().is_none_or(|(c, _, _)| total < *c) {
            *best = Some((total, chosen.to_vec(), sacrificed));
        }
        Ok(())
    }
}

/// Converts a flat compiled-example index into the positive-list index.
fn pos_index(compiled: &[CompiledExample], ei: usize) -> usize {
    debug_assert!(compiled[ei].is_pos);
    ei
}

/// The example owning a flat world index.
fn world_owner(worlds_of_ex: &[Vec<u32>], w: u32) -> usize {
    worlds_of_ex
        .iter()
        .position(|ws| ws.contains(&w))
        .expect("every world belongs to an example")
}

/// Converts a flat compiled index into the within-list index (positives are
/// stored first).
fn local_index(compiled: &[CompiledExample], ei: usize) -> usize {
    if compiled[ei].is_pos {
        ei
    } else {
        ei - compiled.iter().filter(|e| e.is_pos).count()
    }
}

struct MonotoneSearch<'a> {
    candidates: &'a [Candidate],
    compiled: &'a [CompiledExample],
    killers_of_world: &'a [Vec<u32>],
    kill: &'a [Vec<u32>],
    neg_kills: &'a [u32],
    pos_kills: &'a [u32],
    branching: Branching,
    best: Option<BestSolution>,
    max_cost: u64,
    nodes: u64,
    max_nodes: u64,
    deadline: Deadline,
    interrupted: bool,
}

#[derive(Clone)]
struct MonoState {
    chosen: Vec<u32>,
    forbidden: Vec<bool>,
    cost: u64,
    /// Surviving worlds per still-satisfiable positive example.
    pos_alive: HashMap<usize, Vec<u32>>,
    /// Unhit worlds per still-required negative example.
    neg_unhit: Vec<(usize, Vec<u32>)>,
    sacrificed: Vec<(bool, usize)>,
}

impl MonotoneSearch<'_> {
    fn dfs(&mut self, state: MonoState) {
        if self.interrupted {
            return;
        }
        self.nodes += 1;
        if self.nodes >= self.max_nodes {
            return;
        }
        if self.deadline.expired() {
            self.interrupted = true;
            return;
        }
        if state.cost >= self.best.as_ref().map_or(self.max_cost + 1, |(c, _, _)| *c) {
            return;
        }
        // Pick the unhit negative world with the fewest remaining killers.
        let mut pick: Option<(usize, u32)> = None; // (neg list index, world)
        let mut fewest = usize::MAX;
        for (ni, (_, unhit)) in state.neg_unhit.iter().enumerate() {
            for &w in unhit {
                let n = self.killers_of_world[w as usize]
                    .iter()
                    .filter(|&&c| !state.forbidden[c as usize] && !state.chosen.contains(&c))
                    .count();
                if n < fewest {
                    fewest = n;
                    pick = Some((ni, w));
                }
            }
        }
        let Some((ni, w)) = pick else {
            // All negative requirements met: record.
            let better = self.best.as_ref().is_none_or(|(c, _, _)| state.cost < *c);
            if better && state.cost <= self.max_cost {
                self.best = Some((state.cost, state.chosen.clone(), state.sacrificed.clone()));
            }
            return;
        };
        // Branch 1..k: choose each usable killer of w (excluding previously
        // tried ones to avoid permutation blowup), best-scored first.
        let mut killers: Vec<u32> = self.killers_of_world[w as usize]
            .iter()
            .copied()
            .filter(|&c| !state.forbidden[c as usize] && !state.chosen.contains(&c))
            .collect();
        match self.branching {
            Branching::CostFirst => {
                killers.sort_by_key(|&c| self.candidates[c as usize].cost);
            }
            Branching::Guided => {
                killers.sort_by_key(|&c| {
                    let ci = c as usize;
                    (
                        self.candidates[ci].cost,
                        std::cmp::Reverse(self.neg_kills[ci]),
                        self.pos_kills[ci],
                    )
                });
            }
        }
        let mut tried: Vec<u32> = Vec::new();
        for &c in &killers {
            let mut child = state.clone();
            for &t in &tried {
                child.forbidden[t as usize] = true;
            }
            tried.push(c);
            child.chosen.push(c);
            child.cost += u64::from(self.candidates[c as usize].cost);
            // Update negative requirements: remove all worlds killed by c.
            let killed: &[u32] = &self.kill[c as usize];
            for (_, unhit) in &mut child.neg_unhit {
                unhit.retain(|x| !killed.contains(x));
            }
            child.neg_unhit.retain(|(_, unhit)| !unhit.is_empty());
            // Update positives: drop killed worlds; dead positives must be
            // sacrificed (or the branch is infeasible).
            let mut feasible = true;
            let mut newly_dead: Vec<usize> = Vec::new();
            for (&ei, alive) in &mut child.pos_alive {
                alive.retain(|x| !killed.contains(x));
                if alive.is_empty() {
                    newly_dead.push(ei);
                }
            }
            for ei in newly_dead {
                child.pos_alive.remove(&ei);
                match self.compiled[ei].penalty {
                    Some(p) => {
                        child.cost += u64::from(p);
                        child.sacrificed.push((true, ei));
                    }
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if feasible {
                self.dfs(child);
            }
        }
        // Final branch: sacrifice the negative example (soft only).
        let (ei, _) = state.neg_unhit[ni];
        if let Some(p) = self.compiled[ei].penalty {
            let mut child = state;
            for &t in &tried {
                child.forbidden[t as usize] = true;
            }
            child.cost += u64::from(p);
            child
                .sacrificed
                .push((false, local_index(self.compiled, ei)));
            child.neg_unhit.retain(|&(e, _)| e != ei);
            self.dfs(child);
        }
    }
}
