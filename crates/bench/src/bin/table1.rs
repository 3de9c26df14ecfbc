//! Regenerates the paper's **Table I**: Bennett vs SAT-based pebbling on
//! the `H`-operator designs and the ISCAS benchmarks.
//!
//! For every design the harness prints the Bennett pebble/step counts, the
//! smallest pebble budget the SAT search certifies within the per-query
//! timeout, the resulting step count, the runtime, the percentage pebble
//! reduction and the step multiplication factor — the same columns as the
//! paper — plus the paper's published `P`/`K` for side-by-side comparison.
//!
//! Usage:
//!   cargo run --release -p revpebble-bench --bin table1 -- \
//!       [--timeout SECS] [--max-nodes N] [--rows name1,name2] [--stride S]
//!       [--incremental] [--portfolio N]
//!
//! Defaults keep the run laptop-sized: `--timeout 5 --max-nodes 260`.
//! The paper's full setting is `--timeout 120 --max-nodes 100000`.
//!
//! The probes use the paper's fresh-solver-per-probe methodology so the
//! published-`P` comparison column stays apples-to-apples;
//! `--incremental` opts into the assumption-bounded single-instance
//! engine instead (usually certifies smaller budgets in the same
//! per-probe timeout — but that is *our* methodology, not the paper's).
//! `--portfolio N` goes further and routes every row through the
//! cooperative minimize engine: `N` incremental workers (0 = one per
//! core) racing budget schedules on one clause pool and one certified-
//! refutation blackboard, each worker reusing a single arena-backed
//! solver across all of its probes.

use std::time::{Duration, Instant};

use revpebble::core::baselines::bennett;
use revpebble::core::{
    BudgetSchedule, EncodingOptions, MoveMode, PebblingSession, SessionOutcome, SolverOptions,
};
use revpebble_bench::{arg_num, arg_value, table1_dag, TABLE1};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let timeout = Duration::from_secs(arg_num(&args, "--timeout", 5u64));
    let max_nodes: usize = arg_num(&args, "--max-nodes", 260);
    let stride_override: usize = arg_num(&args, "--stride", 0);
    let incremental = args.iter().any(|a| a == "--incremental");
    let portfolio: Option<usize> = args
        .iter()
        .any(|a| a == "--portfolio")
        .then(|| arg_num(&args, "--portfolio", 0));
    let row_filter: Option<Vec<String>> =
        arg_value(&args, "--rows").map(|v| v.split(',').map(str::to_string).collect());

    println!(
        "# Table I reproduction (per-query timeout {timeout:?}, rows with <= {max_nodes} nodes, \
         {} probes)",
        match portfolio {
            Some(0) => "cooperative-portfolio (one worker per core)".to_string(),
            Some(n) => format!("cooperative-portfolio ({n} workers)"),
            None if incremental => "incremental".to_string(),
            None => "fresh-per-probe".to_string(),
        }
    );
    println!(
        "# {:<8} {:>4} {:>4} {:>6} | {:>7} {:>7} | {:>7} {:>7} {:>8} {:>7} {:>7} | {:>8} {:>8}",
        "design",
        "pi",
        "po",
        "nodes",
        "Ben P",
        "Ben K",
        "P",
        "K",
        "time[s]",
        "%P",
        "KxBen",
        "paper P",
        "paper K"
    );

    let mut reductions: Vec<f64> = Vec::new();
    let mut factors: Vec<f64> = Vec::new();
    for row in &TABLE1 {
        if let Some(filter) = &row_filter {
            if !filter.iter().any(|f| f == row.name) {
                continue;
            }
        } else if row.nodes > max_nodes {
            continue;
        }
        let dag = table1_dag(row);
        let naive = bennett(&dag);
        let bennett_p = naive.max_pebbles(&dag);
        let bennett_k = naive.num_steps();

        let n = dag.num_nodes();
        let stride = if stride_override > 0 {
            stride_override
        } else {
            (n / 16).max(1)
        };
        // Parallel moves (the paper's clause set) + exponential-refine
        // keep per-probe queries on the easy side; K is reported as the
        // number of moves (= gates), comparable with the paper's step
        // counts for sequential strategies.
        let base = SolverOptions {
            encoding: EncodingOptions {
                move_mode: MoveMode::Parallel,
                ..EncodingOptions::default()
            },
            schedule: revpebble::core::StepSchedule::ExponentialRefine,
            max_steps: 16 * n,
            step_stride: stride,
            ..SolverOptions::default()
        };
        let start = Instant::now();
        // One front door for both engines: every row constructs its
        // search through the `PebblingSession` builder, exactly like the
        // CLI and the library examples.
        let session = PebblingSession::new(&dag)
            .solver_options(base)
            .minimize()
            .per_query_timeout(timeout);
        let best = match portfolio {
            Some(workers) => {
                // Cooperative engine: incremental workers race budget
                // schedules on one shared clause pool + refutation
                // blackboard; each reuses one arena-backed solver for
                // every probe of its schedule.
                let report = session
                    .portfolio(workers)
                    .share_clauses()
                    .run()
                    .expect("a valid Table I configuration");
                match report.outcome {
                    SessionOutcome::MinimizePortfolio(outcome) => outcome.best,
                    _ => unreachable!("a minimize portfolio ran"),
                }
            }
            None => {
                let report = session
                    .budget(BudgetSchedule::Descending {
                        stride: (n / 12).max(1),
                    })
                    .incremental(incremental)
                    .run()
                    .expect("a valid Table I configuration");
                match report.outcome {
                    SessionOutcome::Minimize(result) => result.best,
                    _ => unreachable!("a single-worker minimize ran"),
                }
            }
        };
        let elapsed = start.elapsed().as_secs_f64();
        match best {
            Some((p, strategy)) => {
                let k = strategy.num_moves();
                let reduction = 100.0 * (bennett_p - p) as f64 / bennett_p as f64;
                let factor = k as f64 / bennett_k as f64;
                reductions.push(reduction);
                factors.push(factor);
                println!(
                    "  {:<8} {:>4} {:>4} {:>6} | {:>7} {:>7} | {:>7} {:>7} {:>8.2} {:>6.1}% {:>6.2}x | {:>8} {:>8}",
                    row.name,
                    dag.num_inputs(),
                    dag.num_outputs(),
                    n,
                    bennett_p,
                    bennett_k,
                    p,
                    k,
                    elapsed,
                    reduction,
                    factor,
                    row.paper_p,
                    row.paper_k
                );
            }
            None => {
                println!(
                    "  {:<8} {:>4} {:>4} {:>6} | {:>7} {:>7} | no budget certified within timeout",
                    row.name,
                    dag.num_inputs(),
                    dag.num_outputs(),
                    n,
                    bennett_p,
                    bennett_k
                );
            }
        }
    }
    if !reductions.is_empty() {
        let avg_red: f64 = reductions.iter().sum::<f64>() / reductions.len() as f64;
        let avg_fac: f64 = factors.iter().sum::<f64>() / factors.len() as f64;
        println!("\nAverage percentage reduction of pebbles = {avg_red:.2} (paper: 52.77)");
        println!("Average multiplicative factor for steps  = {avg_fac:.2} (paper: 2.68)");
    }
}
