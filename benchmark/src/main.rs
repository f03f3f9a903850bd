//! The repo's benchmark of record. See `README.md` in this directory.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! run.sh [--seed N] [--quick] [--repeat-check]           the full set, fresh child per repetition
//! run.sh --check                                         only the correctness checks
//! run.sh --claim-input FILE                              refuse a quick or short result file
//! run.sh --emit-spec                                     print BENCHMARK.json
//! ```

mod affinity;
mod agg;
mod check;
mod full;
mod geo;
mod json;
mod probes;
mod procfs;
mod replay;
mod run;
mod span;
mod spec;
mod svc;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
    quick: bool,
    repeat_check: bool,
    check_only: bool,
    emit_spec: bool,
    claim_input: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        quick: false,
        repeat_check: false,
        check_only: false,
        emit_spec: false,
        claim_input: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => a.out_dir = PathBuf::from(value("a directory")?),
            "--claim-input" => a.claim_input = Some(PathBuf::from(value("a file")?)),
            "--quick" => a.quick = true,
            "--repeat-check" => a.repeat_check = true,
            "--check" => a.check_only = true,
            "--emit-spec" => a.emit_spec = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.seconds == 0 || a.seconds > 60 {
        return Err("--seconds takes a whole number from 1 to 60".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_spec {
        print!("{}", spec::benchmark_json().render_pretty());
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &args.claim_input {
        return match full::accept_claim_input(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    if args.check_only {
        return exit_on(check::baseline_ordering(args.seed));
    }
    let Some(name) = &args.workload else {
        return exit_on(full::run(&full::Options {
            seed: args.seed,
            quick: args.quick,
            repeat_check: args.repeat_check,
            out_dir: args.out_dir,
        }));
    };
    let Some(workload) = spec::workload(name) else {
        eprintln!(
            "unknown workload {name:?}; the workloads are: {}",
            spec::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    };
    let result = run::run_once(workload, args.seed, args.seconds, args.trace, &args.out_dir);
    for p in &result.problems {
        eprintln!("{name}: INCORRECT: {p}");
    }
    println!("{}", result.to_json(args.trace).render());
    ExitCode::SUCCESS
}

fn exit_on(r: Result<(), String>) -> ExitCode {
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
