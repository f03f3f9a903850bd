//! Benchmark harness support: argument parsing, table output, and shared
//! experiment scenarios.
//!
//! Each figure of the paper has a dedicated binary in `src/bin/`
//! (`fig1_motivation` … `fig7_stragglers`) that prints the same rows or
//! series the paper reports, plus `ablation_*` binaries for the design
//! choices called out in DESIGN.md. Criterion micro-benches live under
//! `benches/`.
//!
//! All binaries accept:
//!
//! * `--quick` — scale durations down for a fast smoke run;
//! * `--seconds N` — override the per-run measured duration;
//! * `--seed N` — change the deterministic seed;
//! * `--system NAME` — restrict the run to one system (repeatable, or
//!   comma-separated; names parse via `SystemId::from_str`);
//! * `--list-systems` — print every system id and exit;
//! * `--scenario NAME` — run a named `Scenario` preset instead of the
//!   figure's default scenarios (repeatable, or comma-separated), so new
//!   presets are runnable without a dedicated binary;
//! * `--list-scenarios` — print every scenario preset name and exit.
//!
//! `BenchArgs::parse` also installs the baseline runners into
//! `eunomia-geo`'s system registry, so after parsing, any binary can call
//! `eunomia_geo::run` with any [`SystemId`].

use eunomia_geo::{Scenario, SystemId};

/// Parsed command-line options shared by all harness binaries.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Scale durations down for a smoke run.
    pub quick: bool,
    /// Explicit per-run duration in (simulated or wall) seconds.
    pub seconds: Option<u64>,
    /// Deterministic seed.
    pub seed: u64,
    /// `--system` restrictions; `None` means "whatever the figure runs".
    pub systems: Option<Vec<SystemId>>,
    /// `--scenario` overrides; `None` means "whatever the figure runs".
    pub scenarios: Option<Vec<Scenario>>,
}

impl BenchArgs {
    /// Parses `std::env::args()` and installs the baseline runners.
    /// Unknown flags abort with a usage hint.
    pub fn parse() -> Self {
        eunomia_baselines::install();
        let mut out = BenchArgs {
            quick: false,
            seconds: None,
            seed: 42,
            systems: None,
            scenarios: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--seconds" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--seconds needs a value"));
                    out.seconds = Some(v.parse().unwrap_or_else(|_| usage("bad --seconds")));
                }
                "--seed" => {
                    let v = args.next().unwrap_or_else(|| usage("--seed needs a value"));
                    out.seed = v.parse().unwrap_or_else(|_| usage("bad --seed"));
                }
                "--system" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--system needs a name"));
                    let list = out.systems.get_or_insert_with(Vec::new);
                    for name in v.split(',').filter(|s| !s.is_empty()) {
                        match name.parse::<SystemId>() {
                            Ok(id) => {
                                if !list.contains(&id) {
                                    list.push(id);
                                }
                            }
                            Err(e) => usage(&e.to_string()),
                        }
                    }
                }
                "--list-systems" => {
                    for id in SystemId::all() {
                        println!("{id}");
                    }
                    std::process::exit(0);
                }
                "--scenario" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--scenario needs a name"));
                    let list = out.scenarios.get_or_insert_with(Vec::new);
                    for name in v.split(',').filter(|s| !s.is_empty()) {
                        match Scenario::by_name(name) {
                            Some(sc) => {
                                if !list.iter().any(|s| s.name() == sc.name()) {
                                    list.push(sc);
                                }
                            }
                            None => usage(&format!(
                                "unknown scenario {:?}; expected one of: {}",
                                name,
                                Scenario::presets()
                                    .iter()
                                    .map(|s| s.name().to_string())
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            )),
                        }
                    }
                }
                "--list-scenarios" => {
                    for sc in Scenario::presets() {
                        println!("{}", sc.name());
                    }
                    std::process::exit(0);
                }
                other => usage(&format!("unknown flag {other}")),
            }
        }
        out
    }

    /// Chooses a duration: explicit `--seconds`, else `quick` or `full`.
    pub fn secs(&self, full: u64, quick: u64) -> u64 {
        self.seconds
            .unwrap_or(if self.quick { quick } else { full })
    }

    /// The systems this binary should run: `default` filtered by any
    /// `--system` restriction (order of `default` is preserved). Aborts
    /// if the restriction selects none of them.
    pub fn systems(&self, default: &[SystemId]) -> Vec<SystemId> {
        match &self.systems {
            None => default.to_vec(),
            Some(sel) => {
                let picked: Vec<SystemId> = default
                    .iter()
                    .copied()
                    .filter(|s| sel.contains(s))
                    .collect();
                if picked.is_empty() {
                    usage(&format!(
                        "--system selected none of this figure's systems ({})",
                        default
                            .iter()
                            .map(|s| s.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
                picked
            }
        }
    }

    /// Whether `id` survives the `--system` restriction.
    pub fn wants(&self, id: SystemId) -> bool {
        self.systems.as_ref().is_none_or(|sel| sel.contains(&id))
    }

    /// The scenarios this binary should run: any `--scenario` overrides,
    /// seeded with `--seed`, else `default`. Unlike `--system` (a filter
    /// over a figure's fixed set), `--scenario` *replaces* the default
    /// list — that is what makes new presets runnable from any binary.
    ///
    /// Overridden presets run at their preset durations: `--quick` /
    /// `--seconds` cannot re-time an arbitrary preset safely (fault
    /// windows are part of the preset). Binaries whose defaults *are*
    /// parameterized presets (e.g. `fig_faults`) rebuild matching names
    /// at the requested duration instead.
    pub fn scenarios_or(&self, default: Vec<Scenario>) -> Vec<Scenario> {
        match &self.scenarios {
            None => default,
            Some(sel) => sel.iter().map(|s| s.clone().seed(self.seed)).collect(),
        }
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: <bin> [--quick] [--seconds N] [--seed N] [--system NAME]... [--list-systems] \
         [--scenario NAME]... [--list-scenarios]"
    );
    std::process::exit(2);
}

/// Prints the figure banner: what the paper shows and what to expect.
pub fn banner(fig: &str, title: &str, expectation: &str) {
    println!("==================================================================");
    println!("{fig}: {title}");
    println!("paper expectation: {expectation}");
    println!("==================================================================");
}

/// Prints an aligned ASCII table (shared renderer from `eunomia-geo`).
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", eunomia_geo::format_table(headers, rows));
}

/// Writes a figure's committed JSON artifact and self-checks the bytes
/// on disk before CI trusts them: the file must read back as a single
/// object (`{` … `}`) containing every one of `required_keys` as a
/// quoted JSON key. Ends with the standard `wrote <path> (<n> <what>)`
/// line every harness prints.
///
/// # Panics
/// Panics if the file cannot be written or fails the structural check —
/// a harness that produced a malformed artifact must not exit 0.
pub fn write_artifact(path: &str, json: &str, required_keys: &[&str], n: usize, what: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    let back = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("re-read {path}: {e}"));
    assert!(
        back.trim_start().starts_with('{') && back.trim_end().ends_with('}'),
        "malformed {path}"
    );
    for key in required_keys {
        assert!(
            back.contains(&format!("\"{key}\"")),
            "{path} missing required key {key:?}"
        );
    }
    println!("\nwrote {path} ({n} {what})");
}

/// The standard geo-replication experiment scenario: the paper's 3-DC
/// deployment with `secs` simulated seconds (10% warm-up/cool-down
/// trims, mirroring the paper's discarded first/last minute).
pub fn paper_scenario(secs: u64, seed: u64) -> Scenario {
    Scenario::paper_three_dc().seconds(secs).seed(seed)
}

/// Formats an optional millisecond value.
pub fn fmt_ms(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:.2}"),
        None => "-".to_string(),
    }
}

/// Formats a throughput delta vs a baseline as a signed percentage.
pub fn fmt_delta_pct(value: f64, baseline: f64) -> String {
    if baseline <= 0.0 {
        return "-".to_string();
    }
    format!("{:+.1}%", (value / baseline - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eunomia_sim::units;

    fn args(systems: Option<Vec<SystemId>>) -> BenchArgs {
        BenchArgs {
            quick: false,
            seconds: None,
            seed: 1,
            systems,
            scenarios: None,
        }
    }

    #[test]
    fn secs_resolution_order() {
        let mut a = args(None);
        a.quick = true;
        a.seconds = Some(7);
        assert_eq!(a.secs(30, 10), 7);
        a.seconds = None;
        assert_eq!(a.secs(30, 10), 10);
        a.quick = false;
        assert_eq!(a.secs(30, 10), 30);
    }

    #[test]
    fn paper_scenario_trims_ten_percent() {
        let sc = paper_scenario(30, 9);
        assert_eq!(sc.cfg().duration, units::secs(30));
        assert_eq!(sc.cfg().warmup, units::secs(3));
        assert_eq!(sc.cfg().seed, 9);
    }

    #[test]
    fn system_restriction_filters_preserving_order() {
        let def = [SystemId::Eventual, SystemId::EunomiaKv, SystemId::Cure];
        assert_eq!(args(None).systems(&def), def.to_vec());
        let restricted = args(Some(vec![SystemId::Cure, SystemId::Eventual]));
        assert_eq!(
            restricted.systems(&def),
            vec![SystemId::Eventual, SystemId::Cure]
        );
        assert!(restricted.wants(SystemId::Cure));
        assert!(!restricted.wants(SystemId::SSeq));
        assert!(args(None).wants(SystemId::SSeq));
    }

    #[test]
    fn scenario_override_replaces_defaults_and_reseeds() {
        let mut a = args(None);
        let default = vec![paper_scenario(10, 1)];
        assert_eq!(a.scenarios_or(default.clone())[0].name(), "paper-3dc");
        a.scenarios = Some(vec![
            Scenario::by_name("gray-wan").unwrap(),
            Scenario::by_name("small-test").unwrap(),
        ]);
        let picked = a.scenarios_or(default);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].name(), "gray-wan");
        assert_eq!(picked[0].cfg().seed, 1, "--seed applies to overrides");
    }

    #[test]
    fn write_artifact_round_trips_and_checks_keys() {
        let path = std::env::temp_dir().join("eunomia_bench_artifact_test.json");
        let path = path.to_str().unwrap().to_string();
        write_artifact(&path, "{\n  \"runs\": []\n}\n", &["runs"], 0, "runs");
        assert!(std::fs::read_to_string(&path).unwrap().contains("\"runs\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "missing required key")]
    fn write_artifact_rejects_missing_keys() {
        let path = std::env::temp_dir().join("eunomia_bench_artifact_bad.json");
        let path = path.to_str().unwrap().to_string();
        write_artifact(&path, "{}", &["runs"], 0, "runs");
    }

    #[test]
    fn delta_formatting() {
        assert_eq!(fmt_delta_pct(90.0, 100.0), "-10.0%");
        assert_eq!(fmt_delta_pct(100.0, 0.0), "-");
        assert_eq!(fmt_ms(None), "-");
        assert_eq!(fmt_ms(Some(1.234)), "1.23");
    }
}
