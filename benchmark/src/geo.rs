//! `geo-*` workloads: EunomiaKV on the simulator.
//!
//! One run repeats the same seeded simulation back to back for
//! `--seconds` of wall time and reports medians. The simulated length is
//! pinned per workload (visibility is not stationary: with ±50 ppm clock
//! drift and no resync it grows ~0.04 ms per simulated second), so every
//! repetition must produce bit-identical simulated numbers — the run
//! checks that, and a mismatch is a correctness failure.

use crate::agg::{median, percentile_ms};
use crate::probes::{self, GeoCounts};
use crate::procfs;
use crate::run::{self, Metrics, RunResult};
use crate::span::Tracer;
use eunomia_geo::cluster::{self, Cluster};
use eunomia_geo::harness::make_report;
use eunomia_geo::mc::predicates;
use eunomia_geo::{RunReport, Scenario, SystemId};
use eunomia_sim::units;
use std::time::{Duration, Instant};

/// Everything about a finished simulation that must not depend on the
/// machine: equal seeds give equal `SimFacts`, bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct SimFacts {
    pub client_ops_per_s: f64,
    /// Client op latency read off the histogram's CDF with interpolation
    /// inside the bucket (`RunReport::p99_latency_ms` snaps to bucket
    /// edges 3% apart and reads the same at nearly every seed).
    pub client_p50_ms: f64,
    pub client_p99_ms: f64,
    pub visibility_p50_ms: f64,
    pub visibility_p99_ms: f64,
    pub heal_convergence_ms: Option<f64>,
    pub total_ops: u64,
    pub completed_updates: u64,
    pub remote_applies: u64,
    pub service_messages: u64,
    pub stale_reads: u64,
    pub open_loop_dropped: u64,
    pub events: u64,
    pub messages_routed: u64,
    pub timers_set: u64,
    pub direct_deliveries: u64,
    pub messages_deferred: u64,
    pub overflow_migrations: u64,
    pub heap_peak: usize,
    pub bucket_peak: usize,
    pub arena_high_water: usize,
}

impl SimFacts {
    fn of(r: &RunReport) -> SimFacts {
        let vis = r.visibility_percentiles_ms(0, 1, &[50.0, 99.0]);
        let (completed_updates, remote_applies, service_messages) = r
            .metrics
            .with(|m| (m.completed_updates, m.remote_applies, m.service_messages));
        SimFacts {
            client_ops_per_s: r.throughput,
            client_p50_ms: r
                .metrics
                .with(|m| percentile_ms(&m.op_latency, 50.0))
                .unwrap_or(0.0),
            client_p99_ms: r
                .metrics
                .with(|m| percentile_ms(&m.op_latency, 99.0))
                .unwrap_or(0.0),
            visibility_p50_ms: vis[0].unwrap_or(0.0),
            visibility_p99_ms: vis[1].unwrap_or(0.0),
            heal_convergence_ms: r.convergence_after_heal_ms(),
            total_ops: r.total_ops,
            completed_updates,
            remote_applies,
            service_messages,
            stale_reads: r.stale_reads,
            open_loop_dropped: r.load.as_ref().map_or(0, |l| l.dropped),
            events: r.engine.events,
            messages_routed: r.engine.messages_routed,
            timers_set: r.engine.timers_set,
            direct_deliveries: r.engine.direct_deliveries,
            messages_deferred: r.engine.messages_deferred,
            overflow_migrations: r.engine.overflow_migrations,
            heap_peak: r.engine.heap_peak,
            bucket_peak: r.engine.bucket_peak,
            arena_high_water: r.engine.arena_high_water,
        }
    }
}

fn build(scenario: &Scenario) -> Cluster {
    cluster::build(SystemId::EunomiaKv, scenario.cfg().clone())
}

fn report(c: &Cluster) -> RunReport {
    make_report(
        SystemId::EunomiaKv.label(),
        &c.metrics,
        &c.cfg,
        c.sim.stats(),
    )
}

/// Median wall of building the scenario and the cluster from the seed —
/// everything that happens before the first simulated event.
fn setup_seconds(make: fn(u64) -> Scenario, seed: u64) -> f64 {
    run::setup_seconds(|| build(&make(seed)))
}

/// Causal order and convergence over the apply log, for scenarios that
/// keep one (the fault presets). The model checker's `convergence`
/// predicate wants a quiescent log and a closed loop never quiesces, so
/// convergence is checked in its after-heal form: every update committed
/// before the heal reached every datacenter by the end of the run.
fn check_apply_log(r: &RunReport, problems: &mut Vec<String>) {
    if !r.metrics.with(|m| m.apply_log_enabled) {
        return;
    }
    if let Err(e) = r
        .metrics
        .with(|m| predicates::causal_order(&m.apply_log, r.n_dcs))
    {
        problems.push(e);
    }
    match r.heal_convergence() {
        Some(h) if h.unconverged == 0 && h.pre_heal_updates > 0 => {}
        other => problems.push(format!(
            "pre-heal updates did not all converge after the heal: {other:?}"
        )),
    }
}

struct Rep {
    wall_s: f64,
    cpu_s: f64,
    facts: SimFacts,
}

/// One plain repetition: build, run to the pinned length, report.
fn plain_rep(scenario: &Scenario, problems: &mut Vec<String>, first: bool) -> Rep {
    let mut c = build(scenario);
    let cpu0 = procfs::cpu_seconds().unwrap_or(0.0);
    let t = Instant::now();
    c.sim.run_until(c.cfg.duration);
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds().unwrap_or(0.0) - cpu0;
    let r = report(&c);
    if first {
        // The log is the same on every repetition (checked through
        // `SimFacts`), so one pass over it is enough.
        check_apply_log(&r, problems);
    }
    Rep {
        wall_s,
        cpu_s,
        facts: SimFacts::of(&r),
    }
}

/// Repeats `plain_rep` until the next repetition would overrun `budget`.
fn plain_reps(scenario: &Scenario, budget: Duration, problems: &mut Vec<String>) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let t = Instant::now();
        reps.push(plain_rep(scenario, problems, reps.is_empty()));
        let last = t.elapsed();
        if start.elapsed() + last > budget {
            break;
        }
    }
    if let Some(other) = reps.iter().find(|r| r.facts != reps[0].facts) {
        problems.push(format!(
            "same seed, different simulation: {:?} vs {:?}",
            reps[0].facts, other.facts
        ));
    }
    reps
}

fn sim_secs(scenario: &Scenario) -> f64 {
    units::to_secs(scenario.cfg().duration)
}

fn attempted_failed(f: &SimFacts, problems: &[String]) -> (u64, u64) {
    let attempted = f.total_ops + f.open_loop_dropped;
    (
        attempted.max(1),
        f.open_loop_dropped + problems.len() as u64,
    )
}

/// `--trace 0`: the end-to-end metrics.
pub fn run_untraced(make: fn(u64) -> Scenario, seed: u64, seconds: u64) -> RunResult {
    let mut problems = Vec::new();
    let setup_s = setup_seconds(make, seed);
    let scenario = make(seed);
    let reps = plain_reps(&scenario, Duration::from_secs(seconds), &mut problems);
    let facts = &reps[0].facts;
    let wall_s = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let cpu_s = median(&reps.iter().map(|r| r.cpu_s).collect::<Vec<_>>());
    let ops = facts.total_ops as f64;

    let mut m = Metrics::new();
    m.set("ops_per_wall_s", ops / wall_s);
    m.set("op_p50_ms", facts.client_p50_ms);
    m.set("op_p99_ms", facts.client_p99_ms);
    m.set("cpu_ns_per_op", cpu_s * 1e9 / ops);
    m.set("setup_s", setup_s);
    let (attempted, failed) = attempted_failed(facts, &problems);
    RunResult {
        attempted,
        failed,
        metrics: m,
        problems,
    }
}

/// Least-squares slope of `(x, y)` points.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let (mx, my) = (
        points.iter().map(|p| p.0).sum::<f64>() / n,
        points.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// `--trace 1`: a warm-up repetition, one plain repetition for
/// reference, one repetition in 1-simulated-second slices under spans,
/// then the layer probes.
pub fn run_traced(
    make: fn(u64) -> Scenario,
    seed: u64,
    workload: &str,
    tracer: &mut Tracer,
) -> RunResult {
    let mut problems = Vec::new();
    let scenario = make(seed);
    let cfg = scenario.cfg().clone();
    // The first repetition warms the allocator and the caches for both
    // of the ones that are compared; it also carries the log checks.
    plain_rep(&scenario, &mut problems, true);
    let plain = plain_rep(&scenario, &mut problems, false);
    // Read before the traced repetition and the probes add their own.
    let peak_rss_mib = procfs::peak_rss_mib().unwrap_or(0.0);

    let (cluster, traced_report) = tracer.span("geo.run", |t| {
        let mut c = t.span("geo.build", |_| build(&scenario));
        let mut at = 0;
        while at < cfg.duration {
            at = (at + units::secs(1)).min(cfg.duration);
            let before = c.sim.events_processed();
            t.span_units("sim.run_until", |_| {
                c.sim.run_until(at);
                ((), c.sim.events_processed() - before)
            });
        }
        let r = t.span("geo.make_report", |_| report(&c));
        (c, r)
    });
    let facts = SimFacts::of(&traced_report);
    if facts != plain.facts {
        problems.push("slicing the run changed the simulation".into());
    }
    let slice_walls: Vec<u64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "sim.run_until")
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    let rollup = tracer.rollup();
    let build_s = rollup["geo.build"].total_ns as f64 / 1e9;
    let report_s = rollup["geo.make_report"].total_ns as f64 / 1e9;
    let traced_wall_s = rollup["sim.run_until"].total_ns as f64 / 1e9;

    let visibility_slope = slope(
        &traced_report
            .visibility_series_ms(0, 1, units::secs(1))
            .iter()
            .map(|&(s, ms)| (s / 60.0, ms))
            .collect::<Vec<_>>(),
    );
    drop(traced_report);
    drop(cluster);

    // Shares are taken against the plain repetition's wall: it is the
    // run the end-to-end metrics time.
    let wall_ns = plain.wall_s * 1e9;
    let secs = sim_secs(&scenario);
    let counts = GeoCounts {
        messages: facts.messages_routed,
        timers: facts.timers_set,
        reads: facts.total_ops - facts.completed_updates,
        updates: facts.completed_updates,
        remote_applies: facts.remote_applies,
        sim_secs: secs,
    };
    let ops = facts.total_ops;
    let p = tracer.span("probes", |t| GeoProbes::measure(t, &cfg, &counts, ops));

    // Attribution: probe ns per call x the run's own call counts.
    let events = facts.events as f64;
    let sched_ns = p.msg_ns * facts.messages_routed as f64 + p.timer_ns * facts.timers_set as f64;
    let updates = counts.updates as f64;
    let core_ns = updates * (p.hlc_ns + p.replica_ingest_ns + p.replica_stable_ns + p.sender_ns)
        // One merge per completed op (the client folds the reply into
        // its session vector) and one per remote apply.
        + (ops as f64 + counts.remote_applies as f64) * p.vt_merge_ns;
    let collections_ns = updates * p.rbtree_ns;
    let kv_ns = counts.reads as f64 * p.kv_read_ns
        + updates * p.kv_update_ns
        + counts.remote_applies as f64 * p.kv_apply_ns;
    let workload_ns = ops as f64 * p.next_op_ns;
    let stats_ns = ops as f64 * p.hist_record_ns;
    // The rb-tree time is part of what the replica probe measured;
    // report it under `collections` and not twice.
    let core_ns = (core_ns - collections_ns).max(0.0);
    let attributed = sched_ns + core_ns + collections_ns + kv_ns + workload_ns + stats_ns;

    let decile = (slice_walls.len() / 10).max(1);
    let first: u64 = slice_walls[..decile].iter().sum();
    let last: u64 = slice_walls[slice_walls.len() - decile..].iter().sum();

    let mut m = Metrics::new();
    m.set("sim.events", events);
    m.set("sim.events_per_s", events / plain.wall_s);
    m.set("sim.msg_share", facts.messages_routed as f64 / events);
    m.set("sim.timer_share", facts.timers_set as f64 / events);
    m.set("sim.direct_share", facts.direct_deliveries as f64 / events);
    m.set("sim.overflow_migrations", facts.overflow_migrations as f64);
    m.set("sim.heap_peak", facts.heap_peak as f64);
    m.set("sim.bucket_peak", facts.bucket_peak as f64);
    m.set("sim.arena_high_water", facts.arena_high_water as f64);
    m.set("sim.messages_deferred", facts.messages_deferred as f64);
    m.set("sim.msg_ns_per_event", p.msg_ns);
    m.set("sim.timer_ns_per_event", p.timer_ns);
    m.set("sim.sched_share", sched_ns / wall_ns);
    m.set("geo.wall_s_per_sim_s", plain.wall_s / secs);
    m.set("geo.client_ops_per_s", facts.client_ops_per_s);
    m.set("geo.client_p99_ms", facts.client_p99_ms);
    m.set("geo.visibility_p50_ms", facts.visibility_p50_ms);
    m.set("geo.visibility_p99_ms", facts.visibility_p99_ms);
    m.set(
        "geo.heal_convergence_ms",
        facts.heal_convergence_ms.unwrap_or(0.0),
    );
    m.set("geo.build_s", build_s);
    m.set("geo.report_s", report_s);
    m.set("geo.handler_ns_per_event", (wall_ns - sched_ns) / events);
    m.set("geo.slice_slowdown", last as f64 / first as f64);
    m.set("geo.completed_updates", updates);
    m.set("geo.remote_applies", facts.remote_applies as f64);
    m.set("geo.service_messages", facts.service_messages as f64);
    m.set("geo.stale_reads", facts.stale_reads as f64);
    m.set("geo.visibility_slope_ms_per_sim_min", visibility_slope);
    m.set("geo.unattributed_share", 1.0 - attributed / wall_ns);
    m.set("core.hlc_tick_ns", p.hlc_ns);
    m.set("core.vt_merge_ns", p.vt_merge_ns);
    m.set("core.replica_ingest_ns_per_id", p.replica_ingest_ns);
    m.set("core.replica_stable_ns_per_id", p.replica_stable_ns);
    m.set("core.sender_ns_per_id", p.sender_ns);
    m.set("core.share", core_ns / wall_ns);
    m.set("collections.rbtree_insert_pop_ns", p.rbtree_ns);
    m.set("collections.share", collections_ns / wall_ns);
    m.set("kv.read_ns", p.kv_read_ns);
    m.set("kv.update_ns", p.kv_update_ns);
    m.set("kv.remote_apply_ns", p.kv_apply_ns);
    m.set("kv.share", kv_ns / wall_ns);
    m.set("workload.next_op_ns", p.next_op_ns);
    m.set("workload.share", workload_ns / wall_ns);
    m.set("stats.hist_record_ns", p.hist_record_ns);
    m.set("stats.percentiles_ns", p.hist_percentiles_ns);
    m.set("stats.share", stats_ns / wall_ns);
    m.set("runtime.cpu_s_per_wall_s", plain.cpu_s / plain.wall_s);
    m.set("proc.peak_rss_mib", peak_rss_mib);
    m.set("trace_overhead_share", traced_wall_s / plain.wall_s - 1.0);

    println!("== {workload}: where the run's wall went (seed {seed}) ==");
    println!(
        "run wall {:.3} s for {secs} simulated s, {} events; traced in slices {:.3} s",
        plain.wall_s, facts.events, traced_wall_s
    );
    for (layer, ns) in [
        ("sim (scheduler, from no-op processes)", sched_ns),
        ("core (hlc, vector merge, replica, sender)", core_ns),
        ("collections (rb-tree in the replica)", collections_ns),
        ("kv (read, update, remote apply)", kv_ns),
        ("workload (next_op)", workload_ns),
        ("stats (histogram record)", stats_ns),
        (
            "geo.unattributed (handlers, messages, metrics)",
            wall_ns - attributed,
        ),
    ] {
        println!("  {:>6.1}%  {layer}", 100.0 * ns / wall_ns);
    }

    let (attempted, failed) = attempted_failed(&facts, &problems);
    RunResult {
        attempted,
        failed,
        metrics: m,
        problems,
    }
}

/// Nanoseconds per call of every layer probe a geo workload sizes.
struct GeoProbes {
    msg_ns: f64,
    timer_ns: f64,
    hlc_ns: f64,
    vt_merge_ns: f64,
    replica_ingest_ns: f64,
    replica_stable_ns: f64,
    sender_ns: f64,
    rbtree_ns: f64,
    kv_read_ns: f64,
    kv_update_ns: f64,
    kv_apply_ns: f64,
    next_op_ns: f64,
    hist_record_ns: f64,
    hist_percentiles_ns: f64,
}

impl GeoProbes {
    fn measure(
        t: &mut Tracer,
        cfg: &eunomia_geo::ClusterConfig,
        c: &GeoCounts,
        ops: u64,
    ) -> GeoProbes {
        let msg_ns = t.span("probe.sim.msg", |_| probes::sim_msg_ns_per_event(cfg, c));
        let timer_ns = t.span("probe.sim.timer", |_| {
            probes::sim_timer_ns_per_event(cfg, c)
        });
        let hlc_ns = t.span("probe.core.hlc_tick", |_| probes::hlc_tick_ns(c.updates));
        let vt_merge_ns = t.span("probe.core.vt_merge", |_| {
            probes::vt_merge_ns(cfg.n_dcs, ops)
        });
        let (replica_ingest_ns, replica_stable_ns) =
            t.span("probe.core.replica", |_| probes::replica_ns_per_id(cfg, c));
        let sender_ns = t.span("probe.core.sender", |_| probes::sender_ns_per_id(cfg, c));
        // Pending depth of one replica's buffer: what its partitions
        // hand it over one batch interval plus one theta.
        let depth = probes::ids_per_batch(cfg, c)
            * cfg.partitions_per_dc as u64
            * (cfg.batch_interval + cfg.theta).div_ceil(cfg.batch_interval);
        let rbtree_ns = t.span("probe.collections.rbtree", |_| {
            probes::rbtree_insert_pop_ns(depth, c.updates)
        });
        let (kv_read_ns, kv_update_ns, kv_apply_ns) = t.span("probe.kv", |_| probes::kv_ns(cfg, c));
        let next_op_ns = t.span("probe.workload.next_op", |_| probes::next_op_ns(cfg, ops));
        let (hist_record_ns, hist_percentiles_ns) =
            t.span("probe.stats.hist", |_| probes::hist_ns(ops));
        GeoProbes {
            msg_ns,
            timer_ns,
            hlc_ns,
            vt_merge_ns,
            replica_ingest_ns,
            replica_stable_ns,
            sender_ns,
            rbtree_ns,
            kv_read_ns,
            kv_update_ns,
            kv_apply_ns,
            next_op_ns,
            hist_record_ns,
            hist_percentiles_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_a_line_and_of_too_few_points() {
        assert_eq!(slope(&[(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]), 2.0);
        assert_eq!(slope(&[(1.0, 1.0)]), 0.0);
        assert_eq!(slope(&[(1.0, 1.0), (1.0, 2.0)]), 0.0);
    }

    #[test]
    fn equal_seeds_give_equal_facts_and_different_seeds_do_not() {
        let facts = |seed| {
            let mut problems = Vec::new();
            let rep = plain_rep(&Scenario::small_test().seed(seed), &mut problems, true);
            assert!(problems.is_empty(), "{problems:?}");
            rep.facts
        };
        assert_eq!(facts(3), facts(3));
        assert_ne!(facts(3), facts(4));
    }
}
