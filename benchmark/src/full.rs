//! The full run: every workload, every repetition in a fresh child
//! process (its own `peak_rss_mib`, no warm allocator carried over),
//! untraced for the end-to-end metrics and once traced for the per-layer
//! ones, then the checks, the tables and `result.json`.

use crate::agg::Summary;
use crate::check;
use crate::json::Json;
use crate::spec::{self, Better, Kind, Workload, FULL_REPS, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

pub struct Options {
    pub seed: u64,
    pub quick: bool,
    pub repeat_check: bool,
    pub out_dir: PathBuf,
}

/// The parsed result line of one child run.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    /// Everything the child printed before its result line.
    chatter: String,
}

fn parse_result_line(stdout: &str) -> Result<ChildRun, String> {
    let stdout = stdout.trim_end();
    let (chatter, line) = stdout.rsplit_once('\n').unwrap_or(("", stdout));
    let doc = Json::parse(line).map_err(|e| format!("result line does not parse: {e}"))?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("result line lacks {k:?}"));
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildRun {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
        chatter: chatter.to_string(),
    })
}

fn child_run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    out_dir: &Path,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{}: child run exited with {}",
            w.name, output.status
        ));
    }
    let run = parse_result_line(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("{}: {e}", w.name))?;
    if !run.correct {
        return Err(format!("{}: the run reports incorrect outputs", w.name));
    }
    Ok(run)
}

/// One workload's repetitions of one kind (untraced or traced).
struct WorkloadSet {
    workload: &'static str,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    /// Metric name and its value in every repetition.
    values: Vec<(String, Vec<f64>)>,
}

impl WorkloadSet {
    fn summary(&self, metric: &str) -> Option<Summary> {
        self.values
            .iter()
            .find(|(n, _)| n == metric)
            .map(|(_, v)| Summary::of(v))
    }
}

fn measure(
    w: &'static Workload,
    opts: &Options,
    reps: usize,
    seconds: u64,
    traced: bool,
) -> Result<WorkloadSet, String> {
    let start = Instant::now();
    let mut set = WorkloadSet {
        workload: w.name,
        wall_s: 0.0,
        attempted: 0,
        failed: 0,
        values: Vec::new(),
    };
    for _ in 0..reps {
        let run = child_run(w, opts.seed, seconds, traced, &opts.out_dir)?;
        if traced {
            println!("{}", run.chatter);
        }
        set.attempted += run.attempted;
        set.failed += run.failed;
        for (name, v) in run.metrics {
            match set.values.iter_mut().find(|(n, _)| *n == name) {
                Some((_, vs)) => vs.push(v),
                None => set.values.push((name, vec![v])),
            }
        }
    }
    set.wall_s = start.elapsed().as_secs_f64();
    if set.failed > 0 {
        return Err(format!(
            "{}: {} of {} operations failed",
            w.name, set.failed, set.attempted
        ));
    }
    // Simulated time does not depend on the machine: every repetition of
    // a geo workload at one seed must read the same, bit for bit.
    if matches!(w.kind, Kind::Geo(_)) && !traced {
        for metric in ["op_p50_ms", "op_p99_ms"] {
            let (_, vs) = set
                .values
                .iter()
                .find(|(n, _)| n == metric)
                .ok_or_else(|| format!("{}: no {metric}", w.name))?;
            if vs.iter().any(|v| v.to_bits() != vs[0].to_bits()) {
                return Err(format!(
                    "{}: {metric} differs between repetitions of one seed: {vs:?}",
                    w.name
                ));
            }
        }
    }
    Ok(set)
}

fn untraced_sets(opts: &Options, reps: usize, seconds: u64) -> Result<Vec<WorkloadSet>, String> {
    spec::WORKLOADS
        .iter()
        .map(|w| {
            let set = measure(w, opts, reps, seconds, false)?;
            println!(
                "  {:<18} {reps} x {seconds} s runs in {:.1} s",
                w.name, set.wall_s
            );
            Ok(set)
        })
        .collect()
}

/// How much worse `now` is than `before`, as a share of `before`
/// (negative: better).
fn worsening(better: Better, before: f64, now: f64) -> f64 {
    match better {
        Better::Lower => (now - before) / before,
        Better::Higher => (before - now) / before,
    }
}

/// Every end-to-end median of `second` within its bound of `first`.
fn repeat_check(first: &[WorkloadSet], second: &[WorkloadSet]) -> Result<(), String> {
    let mut failures = Vec::new();
    println!("\n== repeat check: set 2 against set 1 ==");
    for (a, b) in first.iter().zip(second) {
        for m in spec::END_TO_END {
            let (Some(sa), Some(sb)) = (a.summary(m.name), b.summary(m.name)) else {
                failures.push(format!("{}: {} missing", a.workload, m.name));
                continue;
            };
            let worse = worsening(m.better, sa.median, sb.median);
            let verdict = if worse > m.bound { "FAIL" } else { "ok" };
            println!(
                "  {:<18} {:<16} {:>14} -> {:>14}  {:>+7.2}% (bound {:.0}%) {verdict}",
                a.workload,
                m.name,
                sig6(sa.median),
                sig6(sb.median),
                100.0 * worse,
                100.0 * m.bound
            );
            if worse > m.bound {
                failures.push(format!(
                    "{} {}: set 2 is {:.1}% worse than set 1 (bound {:.0}%)",
                    a.workload,
                    m.name,
                    100.0 * worse,
                    100.0 * m.bound
                ));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `x` to six significant digits, without an exponent: set-up times are
/// tens of microseconds and rates hundreds of millions in one column.
fn sig6(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (5 - x.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{x:.decimals$}")
}

fn print_table(title: &str, sets: &[WorkloadSet]) {
    println!("\n== {title} ==");
    println!(
        "{:<18} {:<38} {:<7} {:<7} {:>2} {:>16} {:>16} {:>16} {:>7}",
        "workload", "metric", "unit", "better", "N", "median", "q1", "q3", "spread"
    );
    for set in sets {
        for (name, values) in &set.values {
            let Some((unit, better)) = spec::unit_and_direction(name) else {
                continue;
            };
            let s = Summary::of(values);
            let (q1, q3) = s
                .quartiles
                .map_or(("-".into(), "-".into()), |(a, b)| (sig6(a), sig6(b)));
            let spread = s
                .spread()
                .map_or("-".into(), |x| format!("{:.2}%", 100.0 * x));
            println!(
                "{:<18} {:<38} {:<7} {:<7} {:>2} {:>16} {:>16} {:>16} {:>7}",
                set.workload,
                name,
                unit,
                better.as_str(),
                s.n,
                sig6(s.median),
                q1,
                q3,
                spread
            );
        }
    }
}

fn print_interactions(traced: &[WorkloadSet]) {
    println!("\n== interactions: predicted before measuring, shares as measured ==");
    let share = |workload: &str, metrics: &[&str]| -> f64 {
        traced
            .iter()
            .find(|s| s.workload == workload)
            .map_or(0.0, |s| {
                metrics
                    .iter()
                    .filter_map(|m| s.summary(m))
                    .map(|s| s.median)
                    .sum()
            })
    };
    for i in spec::INTERACTIONS {
        println!("{}", i.layers);
        println!(
            "  -> {} on {} (these layers: {:.1}% there); predicted no change on {} ({:.1}% there)",
            i.moves,
            i.on,
            100.0 * share(i.on, i.shares),
            i.bypass,
            100.0 * share(i.bypass, i.shares),
        );
    }
}

fn sets_json(sets: &[WorkloadSet], reps_required: usize) -> Result<Json, String> {
    let mut out = Vec::new();
    for set in sets {
        let mut metrics = Vec::new();
        for (name, values) in &set.values {
            if values.len() < reps_required {
                return Err(format!(
                    "{} {name}: {} repetitions, {reps_required} required — not emitting it",
                    set.workload,
                    values.len()
                ));
            }
            let (unit, better) = spec::unit_and_direction(name)
                .ok_or_else(|| format!("{name} is not a metric of this benchmark"))?;
            let mut fields = vec![
                ("name".to_string(), Json::str(name.as_str())),
                ("unit".to_string(), Json::str(unit)),
                ("better".to_string(), Json::str(better.as_str())),
            ];
            if let Json::Obj(summary) = Summary::of(values).to_json() {
                fields.extend(summary);
            }
            metrics.push(Json::Obj(fields));
        }
        out.push(Json::obj([
            ("workload", Json::str(set.workload)),
            ("wall_s", Json::Num(set.wall_s)),
            ("attempted", Json::Num(set.attempted as f64)),
            ("failed", Json::Num(set.failed as f64)),
            ("metrics", Json::Arr(metrics)),
        ]));
    }
    Ok(Json::Arr(out))
}

pub fn run(opts: &Options) -> Result<(), String> {
    let (reps, seconds) = if opts.quick {
        (1, 1)
    } else {
        (FULL_REPS, RUN_SECONDS)
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let rustc = command_line("rustc", &["-V"]);
    println!(
        "eunomia benchmark: nproc {nproc}, commit {commit}, {rustc}, seed {}{}",
        opts.seed,
        if opts.quick {
            ", QUICK (one 1 s repetition, no traced pass; not a claim input)"
        } else {
            ""
        }
    );

    println!("\n== untraced set 1: {reps} fresh-process repetitions per workload ==");
    let first = untraced_sets(opts, reps, seconds)?;
    let second = if opts.repeat_check {
        println!("\n== untraced set 2 ==");
        Some(untraced_sets(opts, reps, seconds)?)
    } else {
        None
    };
    let traced = if opts.quick {
        Vec::new()
    } else {
        println!("\n== traced pass ==");
        spec::WORKLOADS
            .iter()
            .map(|w| measure(w, opts, 1, seconds, true))
            .collect::<Result<Vec<_>, _>>()?
    };

    print_table("end-to-end metrics (untraced)", &first);
    if !traced.is_empty() {
        print_table("per-layer metrics (traced)", &traced);
        print_interactions(&traced);
    }

    println!();
    check::baseline_ordering(opts.seed)?;
    if let Some(second) = &second {
        repeat_check(&first, second)?;
    }

    let doc = Json::obj([
        ("quick", Json::Bool(opts.quick)),
        ("seed", Json::Num(opts.seed as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("commit", Json::str(commit)),
        ("rustc", Json::str(rustc)),
        ("reps", Json::Num(reps as f64)),
        ("run_seconds", Json::Num(seconds as f64)),
        ("end_to_end", sets_json(&first, reps)?),
        ("per_layer", sets_json(&traced, 1)?),
    ]);
    let path = opts.out_dir.join("result.json");
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, doc.render_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// Whether a result file may back a claim: not from `--quick`, and from
/// at least [`FULL_REPS`] repetitions.
pub fn accept_claim_input(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    claim_input_ok(&Json::parse(&text)?)
}

fn claim_input_ok(doc: &Json) -> Result<(), String> {
    if doc.get("quick").and_then(Json::as_bool) != Some(false) {
        return Err("a --quick result is not a claim input".into());
    }
    let reps = doc.get("reps").and_then(Json::as_f64).unwrap_or(0.0);
    if reps < FULL_REPS as f64 {
        return Err(format!(
            "{reps} repetitions per workload, {FULL_REPS} required"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_last_line_and_chatter_is_kept() {
        let out = "table row\nmore\n{\"correct\":true,\"attempted\":7,\"failed\":0,\
                   \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}\n";
        let run = parse_result_line(out).unwrap();
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (7, 0));
        assert_eq!(run.metrics, vec![("setup_s".to_string(), 0.25)]);
        assert_eq!(run.chatter, "table row\nmore");
        assert!(parse_result_line("no json here").is_err());
        assert!(parse_result_line("{\"correct\":true}").is_err());
    }

    #[test]
    fn six_significant_digits_at_every_magnitude() {
        assert_eq!(sig6(0.000012345678), "0.0000123457");
        assert_eq!(sig6(2.5135763), "2.51358");
        assert_eq!(sig6(161413694.35), "161413694");
        assert_eq!(sig6(-0.0830215), "-0.0830215");
        assert_eq!(sig6(0.0), "0");
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 10.0, 12.0) < 0.0);
    }

    fn set(values: &[(&str, &[f64])]) -> WorkloadSet {
        WorkloadSet {
            workload: "svc-sat",
            wall_s: 1.0,
            attempted: 1,
            failed: 0,
            values: values
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_vec()))
                .collect(),
        }
    }

    #[test]
    fn repeat_check_fails_only_beyond_the_bound() {
        let all = |v: f64| -> Vec<(&str, Vec<f64>)> {
            spec::END_TO_END
                .iter()
                .map(|m| (m.name, vec![v; 3]))
                .collect()
        };
        let to_set = |vals: &Vec<(&str, Vec<f64>)>| {
            set(&vals
                .iter()
                .map(|(n, v)| (*n, v.as_slice()))
                .collect::<Vec<_>>())
        };
        let base = all(100.0);
        let same = [to_set(&base)];
        assert!(repeat_check(&same, &[to_set(&base)]).is_ok());
        // 30% worse on every lower-is-better metric breaks every bound.
        let worse = all(130.0);
        let err = repeat_check(&same, &[to_set(&worse)]).unwrap_err();
        assert!(err.contains("op_p99_ms"), "{err}");
        assert!(
            !err.contains("ops_per_wall_s"),
            "higher is better there: {err}"
        );
    }

    #[test]
    fn too_few_repetitions_are_not_emitted_and_quick_files_are_refused() {
        let s = [set(&[("setup_s", &[1.0, 2.0])])];
        assert!(sets_json(&s, 2).is_ok());
        let err = sets_json(&s, 5).unwrap_err();
        assert!(err.contains("5 required"), "{err}");

        let doc =
            |quick, reps: f64| Json::obj([("quick", Json::Bool(quick)), ("reps", Json::Num(reps))]);
        assert!(claim_input_ok(&doc(false, FULL_REPS as f64)).is_ok());
        assert!(claim_input_ok(&doc(true, FULL_REPS as f64)).is_err());
        assert!(claim_input_ok(&doc(false, 1.0)).is_err());
        assert!(claim_input_ok(&Json::Obj(vec![])).is_err());
    }
}
