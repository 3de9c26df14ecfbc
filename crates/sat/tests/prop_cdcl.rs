//! Property tests: the CDCL solver must agree with the brute-force DPLL
//! oracle on random formulas, and its models must actually satisfy them.

use proptest::prelude::*;
use revpebble_sat::reference::{brute_force, evaluate};
use revpebble_sat::{card, Cnf, Lit, SolveResult, Solver, SolverConfig, Var};

/// Strategy: a random CNF over `max_vars` variables.
fn arb_cnf(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    let clause = prop::collection::vec(
        (0..max_vars, any::<bool>()).prop_map(|(v, pos)| Lit::new(Var::from_index(v), pos)),
        1..=4,
    );
    prop::collection::vec(clause, 0..=max_clauses).prop_map(move |clauses| {
        let mut cnf = Cnf::new(max_vars);
        for c in clauses {
            cnf.add_clause(c);
        }
        cnf
    })
}

/// A learned-clause cap of (almost) zero: a database reduction — and
/// with it a mark-compact arena GC relocating watchers and trail reasons
/// — after nearly every conflict.
fn gc_heavy_config() -> SolverConfig {
    SolverConfig {
        min_learnts: 1.0,
        learntsize_factor: 0.0,
        ..SolverConfig::default()
    }
}

fn solve_cdcl(cnf: &Cnf) -> (SolveResult, Option<Vec<bool>>) {
    let mut solver = Solver::new();
    solver.new_vars(cnf.num_vars);
    for clause in &cnf.clauses {
        solver.add_clause(clause.iter().copied());
    }
    let result = solver.solve();
    (result, solver.model())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cdcl_agrees_with_reference(cnf in arb_cnf(10, 40)) {
        let oracle = brute_force(&cnf);
        let (result, model) = solve_cdcl(&cnf);
        match oracle {
            Some(_) => {
                prop_assert_eq!(result, SolveResult::Sat);
                let model = model.expect("model on SAT");
                prop_assert!(evaluate(&cnf, &model), "CDCL model must satisfy formula");
            }
            None => prop_assert_eq!(result, SolveResult::Unsat),
        }
    }

    #[test]
    fn cdcl_agrees_under_assumptions(
        cnf in arb_cnf(8, 25),
        assumed in prop::collection::vec((0..8usize, any::<bool>()), 0..=4),
    ) {
        // Deduplicate assumption variables, keeping the first polarity.
        let mut seen = [false; 8];
        let mut assumptions = Vec::new();
        for (v, pos) in assumed {
            if !seen[v] {
                seen[v] = true;
                assumptions.push(Lit::new(Var::from_index(v), pos));
            }
        }
        // Oracle: conjoin assumptions as unit clauses.
        let mut strengthened = cnf.clone();
        for &lit in &assumptions {
            strengthened.add_clause([lit]);
        }
        let oracle = brute_force(&strengthened);

        for config in [SolverConfig::default(), gc_heavy_config()] {
            let mut solver = Solver::with_config(config);
            solver.new_vars(cnf.num_vars);
            for clause in &cnf.clauses {
                solver.add_clause(clause.iter().copied());
            }
            let result = solver.solve_with(&assumptions);
            prop_assert_eq!(result == SolveResult::Sat, oracle.is_some());
            if result == SolveResult::Unsat {
                // The core is a subset of the assumptions that refutes
                // the formula on its own.
                let core = solver.unsat_core().to_vec();
                let mut refuted = cnf.clone();
                for &lit in &core {
                    prop_assert!(assumptions.contains(&lit), "{:?} not assumed: {:?}", lit, core);
                    refuted.add_clause([lit]);
                }
                prop_assert!(brute_force(&refuted).is_none(), "core {:?} is satisfiable", core);
            }
            // The solver stays usable afterwards and gives the unconditional answer.
            let unconditional = solver.solve();
            prop_assert_eq!(unconditional == SolveResult::Sat, brute_force(&cnf).is_some());
        }
    }

    #[test]
    fn gc_heavy_solver_agrees_with_reference(cnf in arb_cnf(10, 40)) {
        // Reductions and arena GCs after nearly every conflict: the
        // solver must still agree with the brute-force oracle, and its
        // models must still satisfy the formula.
        let mut solver = Solver::with_config(gc_heavy_config());
        solver.new_vars(cnf.num_vars);
        for clause in &cnf.clauses {
            solver.add_clause(clause.iter().copied());
        }
        let result = solver.solve();
        match brute_force(&cnf) {
            Some(_) => {
                prop_assert_eq!(result, SolveResult::Sat);
                let model = solver.model().expect("model on SAT");
                prop_assert!(evaluate(&cnf, &model), "model must satisfy formula");
            }
            None => prop_assert_eq!(result, SolveResult::Unsat),
        }
    }

    #[test]
    fn incremental_reuse_is_consistent(cnf in arb_cnf(9, 30)) {
        // Solving twice must give the same answer; adding the model back as
        // unit clauses must stay SAT.
        let (first, model) = solve_cdcl(&cnf);
        let (second, _) = solve_cdcl(&cnf);
        prop_assert_eq!(first, second);
        if let (SolveResult::Sat, Some(model)) = (first, model) {
            let mut solver = Solver::new();
            let vars = solver.new_vars(cnf.num_vars);
            for clause in &cnf.clauses {
                solver.add_clause(clause.iter().copied());
            }
            for (i, &value) in model.iter().enumerate() {
                solver.add_clause([Lit::new(vars[i], value)]);
            }
            prop_assert_eq!(solver.solve(), SolveResult::Sat);
        }
    }

    #[test]
    fn cardinality_encodings_agree(
        n in 2usize..9,
        k in 0usize..9,
        pattern in any::<u32>(),
    ) {
        let k = k.min(n);
        let pattern = pattern & ((1 << n) - 1);
        let count = pattern.count_ones() as usize;
        for encoding in [
            card::CardEncoding::Pairwise,
            card::CardEncoding::SequentialCounter,
            card::CardEncoding::Totalizer,
        ] {
            let mut solver = Solver::new();
            let vars = solver.new_vars(n);
            let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
            card::at_most_k(&mut solver, &lits, k, encoding);
            let assumptions: Vec<Lit> = (0..n)
                .map(|i| Lit::new(vars[i], pattern & (1 << i) != 0))
                .collect();
            let sat = solver.solve_with(&assumptions) == SolveResult::Sat;
            prop_assert_eq!(sat, count <= k, "encoding {:?} n={} k={}", encoding, n, k);
        }
    }
}
