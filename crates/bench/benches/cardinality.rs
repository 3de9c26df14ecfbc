//! Ablation bench: the three cardinality encodings behind the paper's
//! "at most P pebbles per step" clauses (DESIGN.md's encoding-choice
//! ablation).

use revpebble::sat::card::{at_most_k, CardEncoding};
use revpebble::sat::{Cnf, Lit, SolveResult, Solver, Var};
use revpebble_bench::time;

fn main() {
    // Encoding size: clauses produced for n literals, bound k.
    for (n, k) in [(40usize, 10usize), (80, 20)] {
        for encoding in [CardEncoding::SequentialCounter, CardEncoding::Totalizer] {
            time(&format!("card_encode/{encoding:?}/n{n}_k{k}"), 10, || {
                let mut cnf = Cnf::new(n);
                let lits: Vec<Lit> = (0..n).map(|i| Var::from_index(i).positive()).collect();
                at_most_k(&mut cnf, &lits, k, encoding);
                cnf.len()
            });
        }
    }
    // Propagation strength: prove that forcing k+1 literals violates the
    // bound (UNSAT), per encoding.
    let (n, k) = (60usize, 15usize);
    for encoding in [CardEncoding::SequentialCounter, CardEncoding::Totalizer] {
        time(&format!("card_unsat/{encoding:?}/n{n}_k{k}"), 20, || {
            let mut solver = Solver::new();
            let vars = solver.new_vars(n);
            let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
            at_most_k(&mut solver, &lits, k, encoding);
            for lit in &lits[..k + 1] {
                solver.add_clause([*lit]);
            }
            assert_eq!(solver.solve(), SolveResult::Unsat);
        });
    }
}
