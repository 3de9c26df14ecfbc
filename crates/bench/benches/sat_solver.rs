//! Benches of the CDCL substrate itself: structured UNSAT (pigeonhole)
//! and random 3-SAT near the phase transition. One timed run per
//! workload is also recorded in the machine-readable `BENCH_sat.json`
//! (wall-clock + propagations + conflicts + arena GCs) so the solver's
//! perf trajectory is committed alongside the code.

use revpebble::sat::{Lit, SolveResult, Solver, Var};
use revpebble_bench::{record_bench_json, time, BenchRecord};
use std::time::Instant;

fn pigeonhole(holes: usize) -> Solver {
    let mut solver = Solver::new();
    let vars = solver.new_vars((holes + 1) * holes);
    let p = |i: usize, j: usize| vars[i * holes + j].positive();
    for i in 0..=holes {
        solver.add_clause((0..holes).map(|j| p(i, j)));
    }
    for j in 0..holes {
        for a in 0..=holes {
            for b in (a + 1)..=holes {
                solver.add_clause([!p(a, j), !p(b, j)]);
            }
        }
    }
    solver
}

/// Deterministic xorshift for reproducible random 3-SAT instances.
struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn random_3sat(num_vars: usize, num_clauses: usize, seed: u64) -> Solver {
    let mut rng = XorShift(seed | 1);
    let mut solver = Solver::new();
    let vars = solver.new_vars(num_vars);
    for _ in 0..num_clauses {
        let clause: Vec<Lit> = (0..3)
            .map(|_| {
                let v = vars[(rng.next() % num_vars as u64) as usize];
                Lit::new(v, rng.next() & 1 == 0)
            })
            .collect();
        solver.add_clause(clause);
    }
    solver
}

/// One timed run per core workload, recorded in `BENCH_sat.json`.
fn record_baseline() {
    let mut records = Vec::new();
    let mut measure = |id: String, mut solver: Solver, expected: Option<SolveResult>| {
        let start = Instant::now();
        let result = solver.solve();
        let wall_s = start.elapsed().as_secs_f64();
        if let Some(expected) = expected {
            assert_eq!(result, expected, "{id}");
        }
        let stats = solver.stats();
        records.push(BenchRecord {
            bench: "sat_solver",
            id,
            wall_s,
            propagations: stats.propagations,
            conflicts: stats.conflicts,
            arena_gcs: stats.arena_gcs,
            imports: stats.imported_clauses,
            exports: stats.exported_clauses,
            dropped: stats.dropped_clauses,
            certified: None,
        });
    };
    for holes in [7usize, 8] {
        measure(
            format!("pigeonhole/{holes}"),
            pigeonhole(holes),
            Some(SolveResult::Unsat),
        );
    }
    for n in [60usize, 100] {
        let m = (n as f64 * 4.2) as usize;
        measure(
            format!("random_3sat/{n}"),
            random_3sat(n, m, 0xDEAD_BEEF ^ n as u64),
            None,
        );
    }
    record_bench_json("sat_solver", &records);
}

fn main() {
    for holes in [6usize, 7, 8] {
        time(&format!("pigeonhole/{holes}"), 10, || {
            let mut solver = pigeonhole(holes);
            assert_eq!(solver.solve(), SolveResult::Unsat);
        });
    }
    // Clause/variable ratio 4.2: near the phase transition.
    for n in [60usize, 100] {
        let m = (n as f64 * 4.2) as usize;
        time(&format!("random_3sat/n/{n}"), 10, || {
            random_3sat(n, m, 0xDEAD_BEEF ^ n as u64).solve()
        });
    }
    // The pebbling loop re-solves the same formula under shifting final
    // state assumptions; measure that pattern in isolation.
    let mut solver = random_3sat(80, 300, 42);
    let assumption_vars: Vec<Var> = (0..8).map(Var::from_index).collect();
    let _ = solver.solve();
    let mut flip = 0u64;
    time("incremental/assumption_flips", 20, || {
        flip += 1;
        let assumptions: Vec<Lit> = assumption_vars
            .iter()
            .enumerate()
            .map(|(i, &v)| Lit::new(v, (flip >> i) & 1 == 0))
            .collect();
        solver.solve_with(&assumptions)
    });
    record_baseline();
}
