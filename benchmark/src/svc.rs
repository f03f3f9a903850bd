//! `svc-*` workloads: the threaded Eunomia service.
//!
//! Load always comes from **one** feeder thread driving every lane and
//! one stabilizer thread per replica: this box has two cores, and more
//! load-generating threads than that measure the scheduler, not the
//! service. [`config`] builds nothing else and [`check_threads`] refuses
//! anything else.
//!
//! The threaded run takes no randomness — ids are wall-clock HLC stamps —
//! so the seed only drives the traced replay's clock gaps.

use crate::affinity;
use crate::agg::{median, percentile_ms};
use crate::probes;
use crate::procfs::{self, CtxSwitchSampler};
use crate::replay::{self, ReplayShape};
use crate::run::{self, Metrics, RunResult};
use crate::span::Tracer;
use crate::spec::SvcSpec;
use eunomia_runtime::service::{run_eunomia_service_with_stats, EunomiaBenchConfig};
use eunomia_runtime::ThroughputTimeline;
use eunomia_stats::ServiceStats;
use std::time::Duration;

/// Repetitions of the threaded run inside one untraced run. One
/// 1024-lane repetition sits in a latency regime of its own for as long
/// as it lasts (p99 88–114 ms between back-to-back repetitions, whether
/// they last 2, 5 or 10 s), so the median of several short repetitions
/// is steadier than one long one. Shorter than 2 s will not do: the
/// feeder is still 126 ms behind its schedule after the first second.
const REPS: u64 = 5;

pub fn config(spec: &SvcSpec, duration: Duration) -> EunomiaBenchConfig {
    EunomiaBenchConfig {
        feeders: spec.lanes,
        lanes_per_feeder: spec.lanes,
        replicas: spec.replicas,
        stabilizers: 1,
        duration,
        feeder_rate: spec.lane_rate,
        ..EunomiaBenchConfig::default()
    }
}

/// Refuses a topology with more than one feeder thread or more than one
/// stabilizer per replica.
pub fn check_threads(cfg: &EunomiaBenchConfig) -> Result<(), String> {
    let feeder_threads = cfg.feeders.div_ceil(cfg.lanes_per_feeder.max(1));
    if feeder_threads != 1 {
        return Err(format!(
            "{feeder_threads} feeder threads: load generation never exceeds one"
        ));
    }
    if cfg.stabilizers != 1 {
        return Err(format!(
            "{} stabilizers per replica: the benchmark runs exactly one",
            cfg.stabilizers
        ));
    }
    Ok(())
}

fn run_checked(cfg: &EunomiaBenchConfig) -> (ThroughputTimeline, ServiceStats) {
    if let Err(e) = check_threads(cfg) {
        panic!("refusing to run: {e}");
    }
    run_eunomia_service_with_stats(cfg)
}

/// How long before the stop an id must have been due for its absence at
/// the replicas to count as a failure: 2.5 times the worst stabilization
/// p99 of any workload (97 ms on `svc-fanin`). Ids due later than that
/// are in flight when the run ends, not failed.
const IN_FLIGHT: Duration = Duration::from_millis(250);

/// Ids the lanes offered up to `at` into the run: the schedule in open
/// loop; in closed loop a lane offers only what a replica took.
fn offered_ids(spec: &SvcSpec, s: &ServiceStats, at: Duration) -> u64 {
    match spec.lane_rate {
        Some(rate) => (spec.lanes as f64 * rate as f64 * at.as_secs_f64()) as u64,
        None => s.accepted_ids / spec.replicas as u64,
    }
}

/// Checks one threaded run and returns `(attempted, failed)` ids.
///
/// An id fails when it is delivered twice, or when the schedule offered
/// it more than [`IN_FLIGHT`] before the stop and it reached no replica —
/// the generator running late, which in an open loop must count against
/// the system rather than vanish. (Stabilization latency is timed from
/// the stamp the feeder gives an id, not from when it was due, so this is
/// the only place a late generator shows.) A fixed allowance of ids —
/// the feeder's windows — does not do: at the stop the feeder is
/// routinely 5–70 ms of schedule behind and, one repetition in a hundred
/// or so, more than the 109 ms its windows hold on `svc-fanin`.
fn check(
    spec: &SvcSpec,
    t: &ThroughputTimeline,
    s: &ServiceStats,
    problems: &mut Vec<String>,
) -> (u64, u64) {
    if s.duplicate_ids != 0 {
        problems.push(format!("{} duplicate ids delivered", s.duplicate_ids));
    }
    if s.retransmitted_ids != 0 {
        problems.push(format!("{} ids retransmitted", s.retransmitted_ids));
    }
    // A short repetition may end before its first per-second sample.
    if let Some(sec) = t.per_second.iter().position(|&n| n == 0) {
        problems.push(format!("no id stabilized in second {sec}"));
    } else if s.stabilized_ids == 0 {
        problems.push("no id stabilized".into());
    }
    let reached = s.accepted_ids / spec.replicas as u64;
    let due = offered_ids(spec, s, s.elapsed.saturating_sub(IN_FLIGHT));
    let late = due.saturating_sub(reached);
    (
        offered_ids(spec, s, s.elapsed).max(1),
        s.duplicate_ids + late,
    )
}

/// Median wall of spawning the topology, meeting at the start barrier
/// and joining again, with nothing measured in between. The lanes offer
/// 1 id/s here, so none is generated: a closed-loop feeder that wins the
/// race against the stop flag would otherwise fill its whole window
/// first, and the sample would time that instead.
///
/// The samples run pinned to one core. Free to choose, the kernel places
/// each spawned thread on the idle second core, and waking a halted vCPU
/// costs as much as the set-up itself: the median then reads 67 or
/// 138 us (`svc-sat`) for minutes at a time, whichever way the placement
/// happens to fall. On one core it is the set-up's own work that is timed.
fn setup_seconds(spec: &SvcSpec) -> f64 {
    let cfg = EunomiaBenchConfig {
        feeder_rate: Some(1),
        ..config(spec, Duration::ZERO)
    };
    affinity::on_one_cpu(|| run::setup_seconds(|| run_checked(&cfg)))
}

/// Seconds one threaded repetition measures inside a run of `seconds`.
fn rep_seconds(seconds: u64) -> u64 {
    (seconds / REPS).max(1)
}

/// `--trace 0`: the end-to-end metrics.
pub fn run_untraced(spec: &SvcSpec, seconds: u64) -> RunResult {
    let mut problems = Vec::new();
    let setup_s = setup_seconds(spec);
    let cfg = config(spec, Duration::from_secs(rep_seconds(seconds)));
    let reps = if seconds >= REPS { REPS } else { 1 };
    let (mut ids_per_s, mut p50, mut p99) = (vec![], vec![], vec![]);
    let (mut attempted, mut failed, mut stabilized) = (0, 0, 0);
    // CPU time comes in 10 ms ticks and a parked `svc-rate` repetition
    // burns 50 of them, so it is taken over all repetitions at once.
    let cpu0 = procfs::cpu_seconds().unwrap_or(0.0);
    for _ in 0..reps {
        let (timeline, stats) = run_checked(&cfg);
        let (a, f) = check(spec, &timeline, &stats, &mut problems);
        attempted += a;
        failed += f;
        stabilized += stats.stabilized_ids;
        ids_per_s.push(stats.ids_per_sec());
        p50.push(percentile_ms(&stats.stabilization_latency, 50.0).unwrap_or(0.0));
        p99.push(percentile_ms(&stats.stabilization_latency, 99.0).unwrap_or(0.0));
    }
    let cpu_s = procfs::cpu_seconds().unwrap_or(0.0) - cpu0;
    let mut m = Metrics::new();
    m.set("ops_per_wall_s", median(&ids_per_s));
    m.set("op_p50_ms", median(&p50));
    m.set("op_p99_ms", median(&p99));
    m.set("cpu_ns_per_op", cpu_s * 1e9 / stabilized.max(1) as f64);
    m.set("setup_s", setup_s);
    RunResult {
        attempted,
        failed: failed + problems.len() as u64,
        metrics: m,
        problems,
    }
}

/// Feeder passes the traced replay makes; each pushes one frame's worth
/// of ids on every lane, so the id count scales with the workload.
const REPLAY_PASSES: u64 = 32;

/// `--trace 1`: one threaded repetition for the `runtime.*` counters,
/// then the single-threaded replay under spans, then the probes.
pub fn run_traced(
    spec: &SvcSpec,
    seed: u64,
    seconds: u64,
    workload: &str,
    tracer: &mut Tracer,
) -> RunResult {
    let mut problems = Vec::new();
    let cfg = config(spec, Duration::from_secs((seconds / 2).max(1)));
    let sampler = CtxSwitchSampler::start();
    let cpu0 = procfs::cpu_seconds().unwrap_or(0.0);
    let (timeline, s) = tracer.span("runtime.threaded_run", |_| run_checked(&cfg));
    let cpu_s = procfs::cpu_seconds().unwrap_or(0.0) - cpu0;
    let ctx_switches = sampler.finish();
    // Read before the replay and the probes add their own.
    let peak_rss_mib = procfs::peak_rss_mib().unwrap_or(0.0);
    let (attempted, failed) = check(spec, &timeline, &s, &mut problems);

    let sweeps_per_replica = (s.theta_sweep_ns.count() / spec.replicas as u64).max(1);
    let frames_per_replica = (s.frames / spec.replicas as u64).max(1);
    let ids_per_frame = (s.mean_batch_size().round() as usize).max(1);
    let shape = ReplayShape {
        lanes: spec.lanes,
        replicas: spec.replicas,
        ids_per_frame,
        frames_per_sweep: frames_per_replica.div_ceil(sweeps_per_replica).max(1),
        total_ids: REPLAY_PASSES * (spec.lanes * ids_per_frame) as u64,
        credit_budget: cfg.credit_budget as u32,
        window_cap: cfg.window_cap,
        batch_interval_ns: cfg.batch_interval.as_nanos() as u64,
    };
    // The first replay warms the allocator and the caches for both of
    // the ones that are compared.
    replay::run(&shape, seed, &mut Tracer::new(false));
    let plain = replay::run(&shape, seed, &mut Tracer::new(false));
    let traced = tracer.span("replay", |t| replay::run(&shape, seed, t));
    if plain.stabilized != traced.stabilized || plain.duplicates != 0 {
        problems.push(format!(
            "replay is not deterministic or delivered duplicates: {plain:?} vs {traced:?}"
        ));
    }
    let hlc_ns = tracer.span("probe.core.hlc_tick", |_| {
        probes::hlc_tick_ns(plain.generated)
    });
    let tournament_ns = tracer.span("probe.collections.tournament", |_| {
        probes::tournament_update_ns(spec.lanes, traced.frames)
    });

    // Self times of the replay's spans, scaled so that together they sum
    // to the untraced replay's wall: the spans' own cost is spread over
    // the layers in proportion instead of being charged to any one.
    let rollup = tracer.rollup();
    let replay_self: u64 =
        replay::SPANS.iter().map(|n| rollup[n].self_ns).sum::<u64>() + rollup["replay"].self_ns;
    let scale = plain.wall_ns as f64 / replay_self as f64;
    let self_ns = |name: &str| rollup[name].self_ns as f64 * scale;
    let per_unit = |name: &str| self_ns(name) / rollup[name].units.max(1) as f64;
    let ids = plain.stabilized as f64;

    // Per-id time of the threaded run: CPU the process burned per id it
    // stabilized. The replay explains part of it; the rest is threads,
    // parking, doorbells and cache traffic between the two cores.
    let cpu_ns_per_id = cpu_s * 1e9 / s.stabilized_ids.max(1) as f64;
    let crossbeam_ns = self_ns("crossbeam.send_frame")
        + self_ns("crossbeam.recv_batch")
        + self_ns("crossbeam.send_grants")
        + self_ns("crossbeam.recv_grants");
    // One tournament update per ingested frame happens inside
    // `ingest_owned`; it is reported under `collections`, not twice.
    let collections_ns = (tournament_ns * traced.frames as f64).min(self_ns("core.ingest_owned"));
    let core_ns = plain.wall_ns as f64 - crossbeam_ns - collections_ns;
    let replay_ns_per_id = plain.wall_ns as f64 / ids;
    let unattributed_ns_per_id = cpu_ns_per_id - replay_ns_per_id;

    let mut m = Metrics::new();
    m.set("core.hlc_tick_ns", hlc_ns);
    m.set(
        "core.shard_frame_ns_per_id",
        per_unit("core.push") + per_unit("core.build_frame"),
    );
    m.set("core.shard_ingest_ns_per_id", per_unit("core.ingest_owned"));
    m.set("core.shard_sweep_ns", per_unit("core.sweep"));
    m.set("core.shard_drain_ns_per_id", per_unit("core.drain_stable"));
    m.set(
        "core.grant_fold_ns_per_lane",
        (self_ns("core.advertise_note") + self_ns("core.grant_drain"))
            / rollup["core.advertise_note"].units.max(1) as f64,
    );
    m.set("core.grant_apply_ns_per_lane", per_unit("core.on_grant"));
    m.set(
        "core.dedup_useful_share",
        s.accepted_ids as f64 / (s.accepted_ids + s.duplicate_ids).max(1) as f64,
    );
    m.set("core.share", core_ns / ids / cpu_ns_per_id);
    m.set("collections.tournament_update_ns", tournament_ns);
    m.set("collections.share", collections_ns / ids / cpu_ns_per_id);
    m.set(
        "crossbeam.send_ns_per_frame",
        per_unit("crossbeam.send_frame"),
    );
    m.set(
        "crossbeam.recv_batch_ns_per_frame",
        per_unit("crossbeam.recv_batch"),
    );
    m.set("crossbeam.share", crossbeam_ns / ids / cpu_ns_per_id);
    m.set("runtime.stabilized_ids_per_s", s.ids_per_sec());
    m.set("runtime.frames", s.frames as f64);
    m.set("runtime.mean_batch_ids", s.mean_batch_size());
    m.set(
        "runtime.queue_depth_high_water",
        s.queue_depth_high_water as f64,
    );
    m.set("runtime.credit_stalls", s.credit_stalls as f64);
    m.set("runtime.ring_full_stalls", s.ring_full_stalls as f64);
    m.set("runtime.retransmitted_ids", s.retransmitted_ids as f64);
    m.set("runtime.duplicate_ids", s.duplicate_ids as f64);
    m.set(
        "runtime.credit_min",
        s.credit_timeline
            .iter()
            .copied()
            .filter(|&c| c != ServiceStats::NO_CREDIT_SAMPLE)
            .min()
            .unwrap_or(0) as f64,
    );
    m.set(
        "runtime.theta_sweep_p50_us",
        s.theta_sweep_us(50.0).unwrap_or(0.0),
    );
    m.set(
        "runtime.theta_sweep_p99_us",
        s.theta_sweep_us(99.0).unwrap_or(0.0),
    );
    m.set("runtime.grant_batches", s.grant_batches as f64);
    m.set("runtime.grant_batch_lanes_mean", s.mean_grant_batch_lanes());
    m.set("runtime.doorbell_unparks", s.doorbell_unparks as f64);
    m.set("runtime.cpu_s_per_wall_s", cpu_s / s.elapsed.as_secs_f64());
    m.set("runtime.voluntary_ctx_switches", ctx_switches as f64);
    m.set("runtime.replay_ns_per_id", replay_ns_per_id);
    m.set("runtime.unattributed_ns_per_id", unattributed_ns_per_id);
    m.set(
        "runtime.unattributed_share",
        unattributed_ns_per_id / cpu_ns_per_id,
    );
    m.set("proc.peak_rss_mib", peak_rss_mib);
    m.set(
        "trace_overhead_share",
        traced.wall_ns as f64 / plain.wall_ns as f64 - 1.0,
    );

    println!("== {workload}: where an id's time went (seed {seed}) ==");
    println!(
        "threaded: {:.0} ids/s, {:.2} CPU-s per wall-s, {:.2} ns of CPU per id; \
         replay: {} ids in {} frames of ~{} ids, {} sweeps, {:.2} ns per id",
        s.ids_per_sec(),
        cpu_s / s.elapsed.as_secs_f64(),
        cpu_ns_per_id,
        plain.stabilized,
        traced.frames,
        shape.ids_per_frame,
        rollup["core.sweep"].calls,
        replay_ns_per_id,
    );
    for (layer, ns) in [
        (
            "core (push, build_frame, ingest, sweep, drain, grants)",
            core_ns / ids,
        ),
        (
            "collections (tournament update per frame)",
            collections_ns / ids,
        ),
        ("crossbeam (frame ring, grant ring)", crossbeam_ns / ids),
        (
            "runtime.unattributed (threads, parking, doorbells)",
            unattributed_ns_per_id,
        ),
    ] {
        println!("  {:>6.1}%  {layer}", 100.0 * ns / cpu_ns_per_id);
    }
    for name in replay::SPANS {
        let r = rollup[name];
        println!(
            "  {:<24} {:>8} calls {:>12} units {:>10.1} self-ns/unit",
            name,
            r.calls,
            r.units,
            per_unit(name)
        );
    }

    RunResult {
        attempted,
        failed: failed + problems.len() as u64,
        metrics: m,
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Kind, WORKLOADS};

    #[test]
    fn every_workload_runs_one_feeder_thread_and_one_stabilizer() {
        for w in WORKLOADS {
            if let Kind::Svc(spec) = w.kind {
                let cfg = config(&spec, Duration::from_secs(1));
                assert_eq!(check_threads(&cfg), Ok(()), "{}", w.name);
            }
        }
    }

    #[test]
    fn more_feeder_threads_or_stabilizers_are_refused() {
        let spec = SvcSpec {
            lanes: 64,
            replicas: 1,
            lane_rate: None,
        };
        let mut cfg = config(&spec, Duration::from_secs(1));
        cfg.lanes_per_feeder = 16;
        assert!(check_threads(&cfg)
            .unwrap_err()
            .contains("4 feeder threads"));
        let mut cfg = config(&spec, Duration::from_secs(1));
        cfg.stabilizers = 2;
        assert!(check_threads(&cfg).unwrap_err().contains("2 stabilizers"));
    }

    #[test]
    fn a_short_threaded_run_is_correct_and_counts_its_offer() {
        let spec = SvcSpec {
            lanes: 8,
            replicas: 1,
            lane_rate: Some(50_000),
        };
        let cfg = config(&spec, Duration::from_secs(1));
        let (t, s) = run_checked(&cfg);
        let mut problems = Vec::new();
        let (attempted, failed) = check(&spec, &t, &s, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        assert!(attempted >= 390_000, "{attempted}");
        assert_eq!(failed, 0);
    }
}
