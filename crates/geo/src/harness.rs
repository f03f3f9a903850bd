//! Run reports shared by every system, native and baseline.
//!
//! The run entry point itself lives in [`crate::system`] (`run(SystemId,
//! &Scenario)`); this module holds the [`RunReport`] all systems produce
//! and the [`make_report`] helper the baseline crate reuses so every
//! figure compares like with like.

use crate::config::ClusterConfig;
use crate::faults;
use crate::metrics::GeoMetrics;
use eunomia_sim::{units, EngineStats, SimTime};
use std::collections::HashMap;

/// Summary of one simulated run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Human-readable system label.
    pub system: String,
    /// Steady-state throughput (ops/s) over the trimmed window, summed
    /// across datacenters.
    pub throughput: f64,
    /// Total completed client operations (whole run).
    pub total_ops: u64,
    /// Median client operation latency (ms).
    pub p50_latency_ms: f64,
    /// 99th percentile client operation latency (ms).
    pub p99_latency_ms: f64,
    /// Metrics sink for deeper analysis (visibility CDFs, apply log).
    pub metrics: GeoMetrics,
    /// Measurement window used.
    pub window: (SimTime, SimTime),
    /// Full configured run length (sim time) — the denominator for
    /// availability fractions.
    pub duration: SimTime,
    /// Raw engine counters for the run (event counts are deterministic
    /// per seed; `wall_ns` is real elapsed time and is not).
    pub engine: EngineStats,
    /// Open-loop load measurements (offered vs achieved rate,
    /// coordinated-omission-free latency, queue waits) — `Some` iff the
    /// config set `open_loop`.
    pub load: Option<eunomia_stats::LoadStats>,
    /// Total stale reads (staleness exposure) — 0 unless the config set
    /// `track_staleness`.
    pub stale_reads: u64,
    /// When the configured fault schedule's last disruption healed.
    /// `None` when no disruption was scheduled or one outlives the run —
    /// see [`faults::last_heal`].
    pub last_heal: Option<SimTime>,
    /// Unhealed-partition availability accounting: per-DC time spent
    /// under a partition that never healed before the run ended, and how
    /// many such partitions there were. All zeros when every partition
    /// healed (the healed case is covered by [`heal_convergence`]
    /// instead); a non-zero `unhealed_partitions` explains a `None` from
    /// [`heal_convergence`] — split-brain until the end of the run has
    /// no heal to converge after. See [`RunReport::unavailable_ms`] and
    /// [`RunReport::dc_availability`] for the derived views.
    ///
    /// [`heal_convergence`]: RunReport::heal_convergence
    pub availability: faults::DcAvailability,
    /// Number of datacenters in the deployment.
    pub n_dcs: usize,
    /// Whether every key is replicated at every datacenter (convergence
    /// analysis is only defined for full replication).
    pub full_replication: bool,
}

/// How completely (and how fast) pre-heal updates finished landing after
/// the fault schedule's last disruption healed. Produced by
/// [`RunReport::heal_convergence`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealConvergence {
    /// Updates committed at their origin at or before the heal.
    pub pre_heal_updates: usize,
    /// Pre-heal updates that never reached every datacenter by the end
    /// of the run — 0 means the system converged after the heal.
    pub unconverged: usize,
    /// Sim time at which the last pre-heal update finished landing at
    /// its last datacenter (only counting converged updates).
    pub converged_at: SimTime,
    /// The heal the analysis was anchored to ([`RunReport::last_heal`]).
    pub heal: SimTime,
}

impl RunReport {
    /// Per-DC milliseconds spent under an unhealed partition (the
    /// [`availability`](RunReport::availability) accounting in ms).
    pub fn unavailable_ms(&self) -> Vec<f64> {
        self.availability
            .unavailable
            .iter()
            .map(|&ns| units::to_ms(ns))
            .collect()
    }

    /// Per-DC availability over the run as a fraction (1.0 = the DC was
    /// never isolated by an unhealed partition); delegates to
    /// [`faults::DcAvailability::fractions`] over the run length.
    pub fn dc_availability(&self) -> Vec<f64> {
        self.availability.fractions(self.duration)
    }

    /// Visibility percentile (ms of *extra* delay beyond data arrival) for
    /// updates originating at `origin` observed at `dest`, over the
    /// measurement window. `None` if no samples.
    pub fn visibility_percentile_ms(&self, origin: u16, dest: u16, p: f64) -> Option<f64> {
        self.visibility_percentiles_ms(origin, dest, &[p])[0]
    }

    /// Several visibility percentiles for one DC pair with a single sort
    /// — use instead of repeated
    /// [`visibility_percentile_ms`](RunReport::visibility_percentile_ms)
    /// calls, each of which would re-sort the sample set. Output order
    /// matches `ps`; entries are `None` when there are no samples.
    pub fn visibility_percentiles_ms(
        &self,
        origin: u16,
        dest: u16,
        ps: &[f64],
    ) -> Vec<Option<f64>> {
        let mut samples =
            self.metrics
                .visibility_extras(origin, dest, self.window.0, self.window.1);
        if samples.is_empty() {
            return vec![None; ps.len()];
        }
        samples.sort_unstable();
        ps.iter()
            .map(|&p| Some(units::to_ms(eunomia_stats::rank_of_sorted(&samples, p))))
            .collect()
    }

    /// Offered vs achieved load over the measurement window, for
    /// open-loop runs: `(offered_hz, achieved_hz)`. `None` for
    /// closed-loop runs.
    pub fn load_rates_hz(&self) -> Option<(f64, f64)> {
        let load = self.load.as_ref()?;
        Some((
            load.offered_rate_hz(self.window.0, self.window.1),
            load.achieved_rate_hz(self.window.0, self.window.1),
        ))
    }

    /// Full visibility CDF (ms, cumulative fraction) for a DC pair.
    pub fn visibility_cdf_ms(&self, origin: u16, dest: u16) -> Vec<(f64, f64)> {
        let samples = self
            .metrics
            .visibility_extras(origin, dest, self.window.0, self.window.1);
        eunomia_stats::empirical_cdf(&samples)
            .into_iter()
            .map(|(ns, f)| (units::to_ms(ns), f))
            .collect()
    }

    /// Visibility-latency time series for a DC pair over the *whole* run
    /// (faults typically sit inside the trimmed warm-up/cool-down window,
    /// so no trimming here): `(bucket start in seconds, mean extra delay
    /// in ms)` per non-empty `bucket`-sized bucket. This is the series
    /// that shows visibility spiking across a fault window and recovering
    /// after the heal.
    pub fn visibility_series_ms(&self, origin: u16, dest: u16, bucket: SimTime) -> Vec<(f64, f64)> {
        assert!(bucket > 0, "bucket must be positive");
        let mut sums: HashMap<u64, (u64, u64)> = HashMap::new();
        self.metrics.with(|m| {
            if let Some(samples) = m.visibility.get(&(origin, dest)) {
                for s in samples {
                    let e = sums.entry(s.at / bucket).or_insert((0, 0));
                    e.0 += s.extra_ns;
                    e.1 += 1;
                }
            }
        });
        let mut out: Vec<(f64, f64)> = sums
            .into_iter()
            .map(|(b, (sum, n))| (units::to_secs(b * bucket), units::to_ms(sum / n.max(1))))
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Convergence-after-heal analysis: did every update committed before
    /// the last disruption healed reach every datacenter by the end of
    /// the run, and when did the last one land?
    ///
    /// Requires a fault schedule whose disruptions all heal inside the
    /// run ([`RunReport::last_heal`]), the apply log
    /// (`ClusterConfig::apply_log`), and full replication; returns `None`
    /// otherwise.
    pub fn heal_convergence(&self) -> Option<HealConvergence> {
        let heal = self.last_heal?;
        if !self.full_replication {
            return None;
        }
        // An update is identified by (origin, ts, key); its local commit
        // is the record with origin == dest. Destinations are a bitmask so
        // duplicate landings cannot inflate the count (n_dcs <= 64 holds
        // for every conceivable deployment here). The log is borrowed in
        // place — it can hold hundreds of thousands of records, so no
        // clone.
        let mut landings: HashMap<(u16, u64, u64), (bool, u64, SimTime)> = HashMap::new();
        self.metrics.with(|m| {
            for rec in &m.apply_log {
                let e = landings
                    .entry((rec.origin, rec.ts, rec.key))
                    .or_insert((false, 0, 0));
                if rec.origin == rec.dest && rec.at <= heal {
                    e.0 = true; // committed pre-heal
                }
                e.1 |= 1u64 << rec.dest;
                e.2 = e.2.max(rec.at);
            }
        });
        if landings.is_empty() {
            return None;
        }
        let mut pre_heal = 0usize;
        let mut unconverged = 0usize;
        let mut converged_at = 0;
        for (_, (committed_pre_heal, dests, last_at)) in landings {
            if !committed_pre_heal {
                continue;
            }
            pre_heal += 1;
            if dests.count_ones() < self.n_dcs as u32 {
                unconverged += 1;
            } else {
                converged_at = converged_at.max(last_at);
            }
        }
        Some(HealConvergence {
            pre_heal_updates: pre_heal,
            unconverged,
            converged_at,
            heal,
        })
    }

    /// Milliseconds after the last heal until every pre-heal update had
    /// landed at every datacenter. `None` if convergence is not
    /// measurable (see [`RunReport::heal_convergence`]) or did not happen.
    pub fn convergence_after_heal_ms(&self) -> Option<f64> {
        self.heal_convergence()?.after_heal_ms()
    }
}

impl HealConvergence {
    /// Milliseconds from the heal until the last pre-heal update landed
    /// at its last datacenter; `None` if any pre-heal update never
    /// converged (or there were none to converge).
    pub fn after_heal_ms(&self) -> Option<f64> {
        if self.unconverged > 0 || self.pre_heal_updates == 0 {
            return None;
        }
        Some(units::to_ms(self.converged_at.saturating_sub(self.heal)))
    }
}

/// Builds a [`RunReport`] from a finished run's metrics — used by the
/// native dispatcher and by the baseline systems in `eunomia-baselines`,
/// which share the metrics sink and configuration types.
pub fn make_report(
    system: &str,
    metrics: &GeoMetrics,
    cfg: &ClusterConfig,
    engine: EngineStats,
) -> RunReport {
    let (from, to) = cfg.measure_window();
    let metrics = metrics.clone();
    let (p50, p99) = metrics.with(|m| {
        let ps = m.op_latency.percentiles(&[50.0, 99.0]);
        (ps[0].unwrap_or(0), ps[1].unwrap_or(0))
    });
    RunReport {
        system: system.to_string(),
        throughput: metrics.throughput_ops_sec(from, to),
        total_ops: metrics.completed_ops(),
        p50_latency_ms: units::to_ms(p50),
        p99_latency_ms: units::to_ms(p99),
        load: cfg.open_loop.as_ref().map(|_| metrics.load_stats()),
        stale_reads: metrics.stale_reads(),
        last_heal: faults::last_heal(&cfg.faults, cfg.duration),
        availability: faults::dc_unavailability(&cfg.faults, cfg.duration, cfg.n_dcs),
        n_dcs: cfg.n_dcs,
        full_replication: cfg.replication_factor.is_none_or(|rf| rf == cfg.n_dcs),
        metrics,
        window: (from, to),
        duration: cfg.duration,
        engine,
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::Scenario;
    use crate::system::{run, SystemId};

    #[test]
    fn small_eventual_run_completes_ops() {
        let report = run(SystemId::Eventual, &Scenario::small_test());
        assert!(report.total_ops > 100, "ops: {}", report.total_ops);
        assert!(report.throughput > 0.0);
        assert!(report.p50_latency_ms > 0.0);
    }

    #[test]
    fn small_eunomia_run_completes_ops_and_visibility() {
        let report = run(SystemId::EunomiaKv, &Scenario::small_test());
        assert!(report.total_ops > 100, "ops: {}", report.total_ops);
        // Remote updates became visible in both directions.
        let v01 = report.metrics.visibility_extras(0, 1, 0, u64::MAX);
        let v10 = report.metrics.visibility_extras(1, 0, 0, u64::MAX);
        assert!(!v01.is_empty(), "dc0->dc1 visibility samples missing");
        assert!(!v10.is_empty(), "dc1->dc0 visibility samples missing");
        // Extra delay should be modest: stabilization intervals are 1 ms.
        let p90 = report.visibility_percentile_ms(0, 1, 90.0).unwrap();
        assert!(p90 < 100.0, "p90 extra delay unreasonably large: {p90} ms");
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let a = run(SystemId::EunomiaKv, &Scenario::small_test());
        let b = run(SystemId::EunomiaKv, &Scenario::small_test());
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(
            a.metrics.visibility_extras(0, 1, 0, u64::MAX),
            b.metrics.visibility_extras(0, 1, 0, u64::MAX)
        );
    }
}
