//! # agenp-bench — workloads and helpers for the AGENP benchmark harness
//!
//! Shared workload builders used by the Criterion benches and by the
//! `report` binary that regenerates every figure and quantitative claim of
//! the paper (see EXPERIMENTS.md for the experiment index).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use agenp_asp::Program;
use agenp_grammar::Asg;

pub mod json;
pub mod server;
pub mod wire_fuzz;

/// A 2-colorable ring-coloring program over `n` nodes — a classic
/// non-stratified benchmark with answer sets for the solver to enumerate.
pub fn coloring_program(n: usize) -> Program {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("node({i}). "));
        src.push_str(&format!("edge({i}, {}). ", (i + 1) % n));
    }
    src.push_str(
        "
        red(X)  :- node(X), not blue(X).
        blue(X) :- node(X), not red(X).
        :- edge(X, Y), red(X), red(Y).
        :- edge(X, Y), blue(X), blue(Y).
    ",
    );
    src.parse().expect("coloring program parses")
}

/// A stratified transitive-closure program over a chain of `n` nodes.
pub fn transitive_closure_program(n: usize) -> Program {
    let mut src = String::new();
    for i in 0..n.saturating_sub(1) {
        src.push_str(&format!("edge({i}, {}). ", i + 1));
    }
    src.push_str(
        "
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- edge(X, Y), path(Y, Z).
    ",
    );
    src.parse().expect("transitive closure program parses")
}

/// A stratified default-reasoning program over `n` individuals.
pub fn birds_program(n: usize) -> Program {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("bird(b{i}). "));
        if i % 3 == 0 {
            src.push_str(&format!("abnormal(b{i}). "));
        }
    }
    src.push_str("flies(X) :- bird(X), not abnormal(X).");
    src.parse().expect("birds program parses")
}

/// The aⁿbⁿcⁿ answer set grammar from the ASG paper \[12\].
pub fn anbncn_grammar() -> Asg {
    r#"
        start -> as bs cs {
            :- size(X)@1, not size(X)@2.
            :- size(X)@2, not size(X)@3.
            :- size(X)@3, not size(X)@1.
        }
        as -> "a" as { size(X + 1) :- size(X)@2. }
        as -> { size(0). }
        bs -> "b" bs { size(X + 1) :- size(X)@2. }
        bs -> { size(0). }
        cs -> "c" cs { size(X + 1) :- size(X)@2. }
        cs -> { size(0). }
    "#
    .parse()
    .expect("anbncn grammar parses")
}

/// The string `aⁿ bⁿ cⁿ` (whitespace-tokenized).
pub fn anbncn_string(n: usize) -> String {
    let mut parts: Vec<&str> = Vec::with_capacity(3 * n);
    parts.extend(std::iter::repeat_n("a", n));
    parts.extend(std::iter::repeat_n("b", n));
    parts.extend(std::iter::repeat_n("c", n));
    parts.join(" ")
}

/// Formats a fraction as a percent string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Times `f` with one untimed warmup call followed by `runs` timed calls,
/// returning the best (minimum) duration in microseconds and the final
/// run's result. First-touch allocation, interner population, and lazy
/// thread spawning land in the warmup instead of polluting the first
/// measured row; the minimum is the stable estimator for short runs on a
/// noisy box.
pub fn time_best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (u128, T) {
    let mut result = f();
    let mut best = u128::MAX;
    for _ in 0..runs.max(1) {
        let t = std::time::Instant::now();
        result = f();
        best = best.min(t.elapsed().as_micros());
    }
    (best, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_asp::{ground, Solver};

    #[test]
    fn coloring_has_two_models_on_even_ring() {
        let g = ground(&coloring_program(4)).unwrap();
        let r = Solver::new().solve(&g);
        assert_eq!(r.models().len(), 2);
    }

    #[test]
    fn odd_ring_is_uncolorable() {
        let g = ground(&coloring_program(5)).unwrap();
        assert!(!Solver::new().has_answer_set(&g));
    }

    #[test]
    fn tc_and_birds_are_stratified() {
        for p in [transitive_closure_program(10), birds_program(10)] {
            let g = ground(&p).unwrap();
            let r = Solver::new().solve(&g);
            assert!(r.stats().used_stratified);
            assert_eq!(r.models().len(), 1);
        }
    }

    #[test]
    fn anbncn_builders_agree() {
        let g = anbncn_grammar();
        assert!(g.accepts(&anbncn_string(3)).unwrap());
        assert!(!g.accepts("a a b c").unwrap());
    }
}
