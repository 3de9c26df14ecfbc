//! CNF encodings of the cardinality constraint `Σ xᵢ ≤ k`.
//!
//! The pebbling encoding of the paper constrains every time step with
//! "at most `P` pebbles" (Section III-B, cardinality clauses). This module
//! provides several standard encodings of it, chosen by [`CardEncoding`],
//! so the trade-off can be benchmarked:
//!
//! - `pairwise`: binomial encoding, no auxiliary variables, `O(n²)`
//!   clauses — only sensible for small `n` or `k = 1`.
//! - `sequential_counter`: Sinz's LTseq encoding, `O(n·k)` auxiliary
//!   variables and clauses; unit propagation maintains arc consistency.
//! - `totalizer`: Bailleux–Boufkhad unary totalizer truncated at
//!   `k + 1`; good when the same literals participate in several bounds.
//!
//! A bound close to `n` is encoded through its dual, "at least `n − k`
//! negated literals" ([`at_least_k_totalizer`]).
//!
//! For searches that probe *many* bounds over the same literals (the
//! Table I pebble-minimization loop), [`IncrementalTotalizer`] keeps the
//! unary counter alive across queries: "at most `k`" becomes the
//! assumption `!outputs()[k]`, so one solver instance — learnt clauses,
//! activities and all — serves every bound. [`weighted_at_most_k`] is its
//! one-shot cousin for weighted inputs.
//!
//! All encoders work against any [`CnfSink`] — the [`Solver`] itself or a
//! standalone [`Cnf`] formula.

use crate::dimacs::Cnf;
use crate::solver::Solver;
use crate::types::{Lit, Var};

/// A sink for fresh variables and clauses: both [`Solver`] and [`Cnf`]
/// implement it, so encodings can be built directly in a solver or into a
/// formula for inspection.
pub trait CnfSink {
    /// Creates a fresh variable.
    fn add_var(&mut self) -> Var;
    /// Adds a clause.
    fn emit_clause(&mut self, lits: &[Lit]);
}

impl CnfSink for Solver {
    fn add_var(&mut self) -> Var {
        self.new_var()
    }

    fn emit_clause(&mut self, lits: &[Lit]) {
        self.add_clause(lits.iter().copied());
    }
}

impl CnfSink for Cnf {
    fn add_var(&mut self) -> Var {
        let var = Var::from_index(self.num_vars);
        self.num_vars += 1;
        var
    }

    fn emit_clause(&mut self, lits: &[Lit]) {
        self.add_clause(lits.iter().copied());
    }
}

/// Which encoding [`at_most_k`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CardEncoding {
    /// Binomial/pairwise encoding (`O(n^{k+1})` clauses; use for tiny inputs).
    Pairwise,
    /// Sinz sequential counter (`O(n·k)`); the default.
    #[default]
    SequentialCounter,
    /// Bailleux–Boufkhad totalizer truncated at `k + 1`.
    Totalizer,
}

/// Encodes `Σ lits ≤ k` using the requested encoding.
///
/// `k ≥ lits.len()` produces no clauses; `k == 0` forces every literal
/// false. When `k` is close to `n` (specifically `n − k < k / 2`), the
/// constraint is encoded through its dual — "at least `n − k` of the
/// negated literals" via [`at_least_k_totalizer`] — whose size is
/// `O(n · (n − k))` instead of `O(n · k)`; this keeps loose bounds cheap
/// (pebbling probes just below the Bennett budget `n` hit exactly this
/// regime).
pub fn at_most_k(sink: &mut impl CnfSink, lits: &[Lit], k: usize, encoding: CardEncoding) {
    if k >= lits.len() {
        return;
    }
    if k == 0 {
        for &lit in lits {
            sink.emit_clause(&[!lit]);
        }
        return;
    }
    let slack = lits.len() - k;
    if slack < k / 2 {
        let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        at_least_k_totalizer(sink, &negated, slack);
        return;
    }
    match encoding {
        CardEncoding::Pairwise => pairwise(sink, lits, k),
        CardEncoding::SequentialCounter => sequential_counter(sink, lits, k),
        CardEncoding::Totalizer => {
            totalizer(sink, lits, k);
        }
    }
}

/// Encodes `Σ lits ≥ m` directly with a lower-bound totalizer truncated at
/// `m` outputs (`O(n · m)` clauses): the dual building block used by
/// [`at_most_k`] for loose upper bounds.
///
/// `m == 0` produces no clauses; `m > lits.len()` produces an empty clause
/// (unsatisfiable).
pub fn at_least_k_totalizer(sink: &mut impl CnfSink, lits: &[Lit], m: usize) {
    if m == 0 {
        return;
    }
    if m > lits.len() {
        sink.emit_clause(&[]);
        return;
    }
    if m == lits.len() {
        for &lit in lits {
            sink.emit_clause(&[lit]);
        }
        return;
    }
    let outputs = build_totalizer_lower(sink, lits, m);
    sink.emit_clause(&[outputs[m - 1]]);
}

/// Lower-bound totalizer: `out[j]` may only be true when at least `j + 1`
/// inputs are true (clauses `r_σ → a_{α+1} ∨ b_{β+1}` for `α + β = σ − 1`).
fn build_totalizer_lower(sink: &mut impl CnfSink, lits: &[Lit], cap: usize) -> Vec<Lit> {
    if lits.len() <= 1 {
        return lits.to_vec();
    }
    let mid = lits.len() / 2;
    let left = build_totalizer_lower(sink, &lits[..mid], cap);
    let right = build_totalizer_lower(sink, &lits[mid..], cap);
    let out_len = (left.len() + right.len()).min(cap);
    let out: Vec<Lit> = (0..out_len).map(|_| sink.add_var().positive()).collect();
    for sigma in 1..=out_len {
        for alpha in 0..sigma {
            let beta = sigma - 1 - alpha;
            if alpha > left.len() || beta > right.len() {
                continue;
            }
            // r_σ → a_{α+1} ∨ b_{β+1}; out-of-range certificates are
            // impossible and drop out of the disjunction.
            let mut clause = Vec::with_capacity(3);
            if alpha < left.len() {
                clause.push(left[alpha]);
            }
            if beta < right.len() {
                clause.push(right[beta]);
            }
            clause.push(!out[sigma - 1]);
            sink.emit_clause(&clause);
        }
    }
    out
}

/// Binomial encoding: every `(k+1)`-subset yields a clause.
fn pairwise(sink: &mut impl CnfSink, lits: &[Lit], k: usize) {
    let mut subset: Vec<usize> = (0..=k).collect();
    loop {
        let clause: Vec<Lit> = subset.iter().map(|&i| !lits[i]).collect();
        sink.emit_clause(&clause);
        // Advance to next (k+1)-combination.
        let mut i = subset.len();
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if subset[i] != i + lits.len() - subset.len() {
                break;
            }
            if i == 0 {
                return;
            }
        }
        subset[i] += 1;
        for j in (i + 1)..subset.len() {
            subset[j] = subset[j - 1] + 1;
        }
    }
}

/// Sinz sequential-counter encoding of `Σ lits ≤ k`.
///
/// Introduces registers `s[i][j]` = "at least `j+1` of the first `i+1`
/// literals are true" for `i < n − 1`, `j < k`.
fn sequential_counter(sink: &mut impl CnfSink, lits: &[Lit], k: usize) {
    let n = lits.len();
    debug_assert!(k >= 1 && k < n);
    // s[i][j], i in 0..n-1 (no register needed after the last literal).
    let mut s: Vec<Vec<Lit>> = Vec::with_capacity(n - 1);
    for _ in 0..n - 1 {
        s.push((0..k).map(|_| sink.add_var().positive()).collect());
    }
    // x0 -> s[0][0]
    sink.emit_clause(&[!lits[0], s[0][0]]);
    // s[0][j] is false for j >= 1
    for &reg in &s[0][1..] {
        sink.emit_clause(&[!reg]);
    }
    for i in 1..n - 1 {
        // xi -> s[i][0]
        sink.emit_clause(&[!lits[i], s[i][0]]);
        // s[i-1][0] -> s[i][0]
        sink.emit_clause(&[!s[i - 1][0], s[i][0]]);
        for j in 1..k {
            // xi ∧ s[i-1][j-1] -> s[i][j]
            sink.emit_clause(&[!lits[i], !s[i - 1][j - 1], s[i][j]]);
            // s[i-1][j] -> s[i][j]
            sink.emit_clause(&[!s[i - 1][j], s[i][j]]);
        }
        // xi ∧ s[i-1][k-1] -> overflow forbidden
        sink.emit_clause(&[!lits[i], !s[i - 1][k - 1]]);
    }
    // Last literal: overflow check only.
    sink.emit_clause(&[!lits[n - 1], !s[n - 2][k - 1]]);
}

/// Builds a totalizer over `lits`, truncated to `cap = k + 1` outputs, and
/// asserts output `k` false (at most `k` true inputs).
///
/// Returns the output literals (unary counter: `out[j]` ⇒ at least `j+1`
/// inputs are true), which callers can reuse for incremental bound
/// strengthening.
pub fn totalizer(sink: &mut impl CnfSink, lits: &[Lit], k: usize) -> Vec<Lit> {
    let cap = k + 1;
    let outputs = build_totalizer(sink, lits, cap);
    if outputs.len() > k {
        sink.emit_clause(&[!outputs[k]]);
    }
    outputs
}

/// Encodes `Σ wᵢ·litᵢ ≤ k` over weighted literals with a truncated weighted
/// totalizer (a weight-`w` input contributes the unary vector `[lit; w]`),
/// so a single literal whose weight alone exceeds `k` is killed by a *unit*
/// clause — never by the degenerate duplicated-literal clauses the plain
/// encoders would emit.
pub fn weighted_at_most_k(sink: &mut impl CnfSink, items: &[(Lit, usize)], k: usize) {
    let total: usize = items.iter().map(|&(_, w)| w).sum();
    if k >= total {
        return;
    }
    if k == 0 {
        for &(lit, w) in items {
            if w > 0 {
                sink.emit_clause(&[!lit]);
            }
        }
        return;
    }
    let outputs = build_weighted_unary(sink, items, k + 1);
    sink.emit_clause(&[!outputs[k]]);
}

/// A totalizer whose output literals stay valid for the lifetime of the
/// solver, so the bound "at most `k`" can be chosen *per query* by assuming
/// `!outputs()[k]` instead of baking `at_most_k(k)` into the clause
/// database. The clause set only ever says "enough true inputs force the
/// unary counter up"; nothing constrains the count until an output is
/// assumed false, which makes one encoding reusable across every bound —
/// learnt clauses conditioned on a tighter bound stay valid (and, thanks to
/// the monotonicity chain `out[j+1] → out[j]`, fire again under any bound
/// at least as tight).
///
/// Inputs are weighted: a literal of weight `w` adds `w` to the count.
/// [`extend`](Self::extend) merges additional inputs into the counter
/// in place; output literals must be re-fetched afterwards.
#[derive(Debug, Clone)]
pub struct IncrementalTotalizer {
    outputs: Vec<Lit>,
    total: usize,
}

impl IncrementalTotalizer {
    /// Builds the counter over unit-weight literals.
    pub fn new(sink: &mut impl CnfSink, lits: &[Lit]) -> Self {
        let items: Vec<(Lit, usize)> = lits.iter().map(|&l| (l, 1)).collect();
        Self::new_weighted(sink, &items)
    }

    /// Builds the counter over weighted literals (full output range, so any
    /// bound up to the total weight can later be assumed).
    pub fn new_weighted(sink: &mut impl CnfSink, items: &[(Lit, usize)]) -> Self {
        let total: usize = items.iter().map(|&(_, w)| w).sum();
        let outputs = build_weighted_unary(sink, items, usize::MAX);
        let totalizer = IncrementalTotalizer { outputs, total };
        totalizer.emit_monotonicity(sink);
        totalizer
    }

    /// The sorted unary outputs: `outputs()[j]` is forced true once the
    /// true-input weight exceeds `j`.
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// Total weight of all inputs merged so far.
    pub fn total_weight(&self) -> usize {
        self.total
    }

    /// Merges additional weighted inputs into the counter: the old root and
    /// a fresh sub-totalizer over `items` become the children of a new
    /// root. Previously fetched output literals keep their meaning but no
    /// longer cover the extended input set.
    pub fn extend(&mut self, sink: &mut impl CnfSink, items: &[(Lit, usize)]) {
        let added: usize = items.iter().map(|&(_, w)| w).sum();
        if added == 0 {
            return;
        }
        let fresh = build_weighted_unary(sink, items, usize::MAX);
        self.outputs = merge_unary(sink, &self.outputs, &fresh, usize::MAX);
        self.total += added;
        self.emit_monotonicity(sink);
    }

    /// The assumption literal asserting "total true weight ≤ k", or `None`
    /// when the bound is trivially satisfied (`k ≥` total weight).
    pub fn at_most_assumption(&self, k: usize) -> Option<Lit> {
        (k < self.total).then(|| !self.outputs[k])
    }

    /// `out[j+1] → out[j]`: redundant but lets an assumed `!out[k]`
    /// propagate every looser output false immediately.
    fn emit_monotonicity(&self, sink: &mut impl CnfSink) {
        for pair in self.outputs.windows(2) {
            if pair[0] != pair[1] {
                sink.emit_clause(&[!pair[1], pair[0]]);
            }
        }
    }
}

/// Weighted totalizer tree: a weight-`w` leaf is the unary vector
/// `[lit; w]` (all copies perfectly correlated), inner nodes merge.
fn build_weighted_unary(sink: &mut impl CnfSink, items: &[(Lit, usize)], cap: usize) -> Vec<Lit> {
    let live: Vec<(Lit, usize)> = items.iter().copied().filter(|&(_, w)| w > 0).collect();
    match live.len() {
        0 => Vec::new(),
        1 => vec![live[0].0; live[0].1.min(cap)],
        _ => {
            let mid = live.len() / 2;
            let left = build_weighted_unary(sink, &live[..mid], cap);
            let right = build_weighted_unary(sink, &live[mid..], cap);
            merge_unary(sink, &left, &right, cap)
        }
    }
}

fn build_totalizer(sink: &mut impl CnfSink, lits: &[Lit], cap: usize) -> Vec<Lit> {
    if lits.len() <= 1 {
        return lits.to_vec();
    }
    let mid = lits.len() / 2;
    let left = build_totalizer(sink, &lits[..mid], cap);
    let right = build_totalizer(sink, &lits[mid..], cap);
    merge_unary(sink, &left, &right, cap)
}

/// Merges two unary counters into a fresh one of at most `cap` outputs:
/// `a_α ∧ b_β → r_{α+β}`, with index 0 meaning "at least one".
fn merge_unary(sink: &mut impl CnfSink, left: &[Lit], right: &[Lit], cap: usize) -> Vec<Lit> {
    if left.is_empty() {
        return right.to_vec();
    }
    if right.is_empty() {
        return left.to_vec();
    }
    let out_len = left.len().saturating_add(right.len()).min(cap);
    let out: Vec<Lit> = (0..out_len).map(|_| sink.add_var().positive()).collect();
    for alpha in 0..=left.len() {
        for beta in 0..=right.len() {
            let sigma = alpha + beta;
            if sigma == 0 || sigma > out_len {
                continue;
            }
            let mut clause = Vec::with_capacity(3);
            if alpha > 0 {
                clause.push(!left[alpha - 1]);
            }
            if beta > 0 {
                clause.push(!right[beta - 1]);
            }
            clause.push(out[sigma - 1]);
            sink.emit_clause(&clause);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    /// Exhaustively verifies that an encoding admits exactly the assignments
    /// with `≤ k` true literals among `n` inputs.
    fn check_bound(n: usize, k: usize, encoding: CardEncoding) {
        for pattern in 0u32..(1 << n) {
            let mut solver = Solver::new();
            let vars = solver.new_vars(n);
            let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
            at_most_k(&mut solver, &lits, k, encoding);
            let assumptions: Vec<Lit> = (0..n)
                .map(|i| Lit::new(vars[i], pattern & (1 << i) != 0))
                .collect();
            let expected = pattern.count_ones() as usize <= k;
            let result = solver.solve_with(&assumptions);
            assert_eq!(
                result == SolveResult::Sat,
                expected,
                "n={n} k={k} pattern={pattern:b} encoding={encoding:?}"
            );
        }
    }

    #[test]
    fn sequential_counter_matches_popcount() {
        for n in 1..=6 {
            for k in 0..=n {
                check_bound(n, k, CardEncoding::SequentialCounter);
            }
        }
    }

    #[test]
    fn totalizer_matches_popcount() {
        for n in 1..=6 {
            for k in 0..=n {
                check_bound(n, k, CardEncoding::Totalizer);
            }
        }
    }

    #[test]
    fn pairwise_matches_popcount() {
        for n in 1..=5 {
            for k in 0..=n {
                check_bound(n, k, CardEncoding::Pairwise);
            }
        }
    }

    #[test]
    fn dual_encoding_kicks_in_for_loose_bounds() {
        // k close to n triggers the dual at-least path; exhaustively check
        // the semantics anyway.
        for n in 4..=8 {
            for k in (n * 2 / 3 + 1)..n {
                check_bound(n, k, CardEncoding::SequentialCounter);
            }
        }
    }

    #[test]
    fn at_least_totalizer_matches_popcount() {
        for n in 1..=7 {
            for m in 0..=n + 1 {
                for pattern in 0u32..(1 << n) {
                    let mut solver = Solver::new();
                    let vars = solver.new_vars(n);
                    let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
                    at_least_k_totalizer(&mut solver, &lits, m);
                    let assumptions: Vec<Lit> = (0..n)
                        .map(|i| Lit::new(vars[i], pattern & (1 << i) != 0))
                        .collect();
                    let expected = (pattern.count_ones() as usize) >= m;
                    assert_eq!(
                        solver.solve_with(&assumptions) == SolveResult::Sat,
                        expected,
                        "n={n} m={m} pattern={pattern:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn encoding_into_cnf_counts_clauses() {
        let mut cnf = Cnf::new(6);
        let lits: Vec<Lit> = (0..6).map(|i| Var::from_index(i).positive()).collect();
        at_most_k(&mut cnf, &lits, 2, CardEncoding::SequentialCounter);
        assert!(!cnf.is_empty());
        assert!(cnf.num_vars > 6, "aux variables were created");
    }

    #[test]
    fn trivial_bounds_produce_no_clauses() {
        let mut cnf = Cnf::new(3);
        let lits: Vec<Lit> = (0..3).map(|i| Var::from_index(i).positive()).collect();
        at_most_k(&mut cnf, &lits, 3, CardEncoding::SequentialCounter);
        assert!(cnf.is_empty());
    }

    #[test]
    fn incremental_totalizer_assumes_every_bound() {
        // One encoding, every bound k checked by assumption only.
        for n in 1..=6 {
            let mut solver = Solver::new();
            let vars = solver.new_vars(n);
            let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
            let counter = IncrementalTotalizer::new(&mut solver, &lits);
            assert_eq!(counter.total_weight(), n);
            for k in 0..=n {
                for pattern in 0u32..(1 << n) {
                    let mut assumptions: Vec<Lit> = (0..n)
                        .map(|i| Lit::new(vars[i], pattern & (1 << i) != 0))
                        .collect();
                    assumptions.extend(counter.at_most_assumption(k));
                    let expected = (pattern.count_ones() as usize) <= k;
                    assert_eq!(
                        solver.solve_with(&assumptions) == SolveResult::Sat,
                        expected,
                        "n={n} k={k} pattern={pattern:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_totalizer_weighted_counts_weights() {
        let weights = [3usize, 1, 2];
        let mut solver = Solver::new();
        let vars = solver.new_vars(weights.len());
        let items: Vec<(Lit, usize)> = vars
            .iter()
            .zip(weights)
            .map(|(v, w)| (v.positive(), w))
            .collect();
        let counter = IncrementalTotalizer::new_weighted(&mut solver, &items);
        assert_eq!(counter.total_weight(), 6);
        for k in 0..=6 {
            for pattern in 0u32..(1 << weights.len()) {
                let mut assumptions: Vec<Lit> = (0..weights.len())
                    .map(|i| Lit::new(vars[i], pattern & (1 << i) != 0))
                    .collect();
                assumptions.extend(counter.at_most_assumption(k));
                let weight: usize = (0..weights.len())
                    .filter(|i| pattern & (1 << i) != 0)
                    .map(|i| weights[i])
                    .sum();
                assert_eq!(
                    solver.solve_with(&assumptions) == SolveResult::Sat,
                    weight <= k,
                    "k={k} pattern={pattern:b}"
                );
            }
        }
        // k >= total weight needs no assumption at all.
        assert_eq!(counter.at_most_assumption(6), None);
    }

    #[test]
    fn incremental_totalizer_extends_its_input_set() {
        let mut solver = Solver::new();
        let vars = solver.new_vars(5);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        let mut counter = IncrementalTotalizer::new(&mut solver, &lits[..3]);
        // Bound 1 over the first three inputs…
        let a = counter.at_most_assumption(1).expect("bound exists");
        solver.add_clause([lits[0]]);
        solver.add_clause([lits[1]]);
        assert_eq!(solver.solve_with(&[a]), SolveResult::Unsat);
        // …then two more inputs merge in and every bound re-checks.
        counter.extend(&mut solver, &[(lits[3], 1), (lits[4], 1)]);
        assert_eq!(counter.total_weight(), 5);
        for k in 0..=5 {
            for pattern in 0u32..(1 << 5) {
                if pattern & 0b11 != 0b11 {
                    continue; // first two are units now
                }
                let mut assumptions: Vec<Lit> = (0..5)
                    .map(|i| Lit::new(vars[i], pattern & (1 << i) != 0))
                    .collect();
                assumptions.extend(counter.at_most_assumption(k));
                let expected = (pattern.count_ones() as usize) <= k;
                assert_eq!(
                    solver.solve_with(&assumptions) == SolveResult::Sat,
                    expected,
                    "k={k} pattern={pattern:b}"
                );
            }
        }
    }

    #[test]
    fn weighted_at_most_k_matches_weighted_popcount() {
        let weights = [2usize, 3, 1, 2];
        let total: usize = weights.iter().sum();
        for k in 0..=total {
            for pattern in 0u32..(1 << weights.len()) {
                let mut solver = Solver::new();
                let vars = solver.new_vars(weights.len());
                let items: Vec<(Lit, usize)> = vars
                    .iter()
                    .zip(weights)
                    .map(|(v, w)| (v.positive(), w))
                    .collect();
                weighted_at_most_k(&mut solver, &items, k);
                let assumptions: Vec<Lit> = (0..weights.len())
                    .map(|i| Lit::new(vars[i], pattern & (1 << i) != 0))
                    .collect();
                let weight: usize = (0..weights.len())
                    .filter(|i| pattern & (1 << i) != 0)
                    .map(|i| weights[i])
                    .sum();
                assert_eq!(
                    solver.solve_with(&assumptions) == SolveResult::Sat,
                    weight <= k,
                    "k={k} pattern={pattern:b}"
                );
            }
        }
    }

    #[test]
    fn weighted_at_most_k_kills_overweight_literal_with_a_unit() {
        // A single weight-5 literal under bound 3 must be forced false
        // outright — the regression the duplicated-literal pairwise
        // encoding got wrong.
        let mut solver = Solver::new();
        let heavy = solver.new_var().positive();
        let light = solver.new_var().positive();
        weighted_at_most_k(&mut solver, &[(heavy, 5), (light, 2)], 3);
        assert_eq!(solver.solve(), SolveResult::Sat);
        assert_eq!(solver.model_value(heavy), Some(false));
        assert_eq!(solver.solve_with(&[heavy]), SolveResult::Unsat);
        assert_eq!(solver.solve_with(&[light]), SolveResult::Sat);
    }

    #[test]
    fn k_zero_forces_all_false() {
        let mut solver = Solver::new();
        let vars = solver.new_vars(3);
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        at_most_k(&mut solver, &lits, 0, CardEncoding::Totalizer);
        assert_eq!(solver.solve(), SolveResult::Sat);
        for v in &vars {
            assert_eq!(solver.model_value(v.positive()), Some(false));
        }
    }
}
