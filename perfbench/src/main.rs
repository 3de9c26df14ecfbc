//! `perfbench --workload <minimize|synth|serve> --seed <n>
//! --seconds <s> --trace <0|1>`: runs one workload and prints every
//! metric with its unit; the last line is the JSON result.

use std::process::ExitCode;
use std::time::Instant;

use revpebble_perfbench::{render, run, Config, Workload};

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        workload: Workload::Minimize,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut pairs = args.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => config.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                config.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    config.workload = workload.ok_or("--workload is required")?;
    Ok(config)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <minimize|synth|serve> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(config, process_start);
    if let Some(tracer) = &outcome.tracer {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!(
            "{}-seed{}.json",
            config.workload.name(),
            config.seed
        ));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_chrome_json()));
        match written {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(err) => eprintln!("perfbench: cannot write {}: {err}", path.display()),
        }
    }
    print!("{}", render(&outcome));
    ExitCode::SUCCESS
}
