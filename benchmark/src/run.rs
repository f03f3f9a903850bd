//! One run of one workload — what `--workload W --seed N --seconds S
//! --trace T` executes — and the result line it prints.

use crate::agg::median;
use crate::json::Json;
use crate::span::Tracer;
use crate::spec::{self, Kind, Workload};
use crate::{geo, svc};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median. A set-up takes
/// 14–300 us, so even this many cost a run under 50 ms.
const SETUP_SAMPLES: usize = 101;

/// Median wall of one call of `set_up`, over [`SETUP_SAMPLES`] calls;
/// what it built is dropped after the clock is read.
pub fn setup_seconds<R>(mut set_up: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let built = set_up();
            let s = t.elapsed().as_secs_f64();
            drop(built);
            s
        })
        .collect();
    median(&samples)
}

/// Metric values by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Every way the outputs were wrong; empty means correct.
    pub problems: Vec<String>,
}

impl RunResult {
    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the metrics being every end-to-end metric (untraced) or
    /// every per-layer metric (traced). A per-layer metric of a layer the
    /// workload does not exercise reads 0; a missing end-to-end metric is
    /// a bug in the benchmark and makes the run incorrect.
    pub fn to_json(&self, traced: bool) -> Json {
        let mut correct = self.problems.is_empty();
        let names: Vec<(&str, &str)> = if traced {
            spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics = names
            .into_iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).unwrap_or_else(|| {
                    correct &= traced;
                    0.0
                });
                correct &= value.is_finite();
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Runs `workload` once. A traced run also writes its spans to
/// `<out_dir>/trace-<workload>.json`.
pub fn run_once(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    out_dir: &Path,
) -> RunResult {
    if !traced {
        return match workload.kind {
            Kind::Geo(make) => geo::run_untraced(make, seed, seconds),
            Kind::Svc(s) => svc::run_untraced(&s, seconds),
        };
    }
    let mut tracer = Tracer::new(true);
    let mut result = match workload.kind {
        Kind::Geo(make) => geo::run_traced(make, seed, workload.name, &mut tracer),
        Kind::Svc(s) => svc::run_traced(&s, seed, seconds, workload.name, &mut tracer),
    };
    let path = out_dir.join(format!("trace-{}.json", workload.name));
    let doc = Json::obj([
        ("workload", Json::str(workload.name)),
        ("seed", Json::Num(seed as f64)),
        ("spans", tracer.to_json()),
    ]);
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, doc.render()))
    {
        result
            .problems
            .push(format!("could not write {}: {e}", path.display()));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(metrics: Metrics, problems: Vec<String>) -> RunResult {
        RunResult {
            attempted: 10,
            failed: 0,
            metrics,
            problems,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut m = Metrics::new();
        for e in spec::END_TO_END {
            m.set(e.name, 1.5);
        }
        let doc = result(m, vec![]).to_json(false);
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        assert_eq!(
            metrics[0].1.get("unit").and_then(Json::as_str),
            Some(spec::END_TO_END[0].unit)
        );
    }

    #[test]
    fn a_missing_end_to_end_metric_or_a_problem_makes_the_run_incorrect() {
        let doc = result(Metrics::new(), vec![]).to_json(false);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        // Per-layer metrics of layers the workload bypasses read 0.
        let doc = result(Metrics::new(), vec![]).to_json(true);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let doc = result(Metrics::new(), vec!["dup".into()]).to_json(true);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    }
}
