//! The names this benchmark fixes: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` is
//! generated from these tables (`--emit-spec`) and a unit test keeps the
//! committed file equal to them.

use crate::json::Json;
use eunomia_geo::Scenario;
use eunomia_sim::units;
use eunomia_workload::WorkloadConfig;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// Repetitions per workload in the full run. A metric is not emitted
/// from fewer (except under `--quick`, which stamps its output).
pub const FULL_REPS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload prints every one of these (the contract of
/// `BENCHMARK.json`), so each is defined for both families — see the
/// glossary in `README.md` for what it reads on `geo-*` and on `svc-*`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_wall_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ns_per_op",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher as H, Lower as L};

/// `layer.name`. A metric of a layer the workload does not exercise reads
/// 0 on that workload (`runtime.*` on `geo-*`, `sim.*` on `svc-*`).
pub const PER_LAYER: &[PerLayer] = &[
    // sim: counters from `EngineStats`, timings from no-op processes on
    // the workload's topology.
    layer("sim.events", "count", L),
    layer("sim.events_per_s", "1/s", H),
    layer("sim.msg_share", "share", L),
    layer("sim.timer_share", "share", L),
    layer("sim.direct_share", "share", H),
    layer("sim.overflow_migrations", "count", L),
    layer("sim.heap_peak", "count", L),
    layer("sim.bucket_peak", "count", L),
    layer("sim.arena_high_water", "count", L),
    layer("sim.messages_deferred", "count", L),
    layer("sim.msg_ns_per_event", "ns", L),
    layer("sim.timer_ns_per_event", "ns", L),
    layer("sim.sched_share", "share", L),
    // geo: the simulated system's own numbers (deterministic per seed)
    // and the spans around build / run slices / report.
    layer("geo.wall_s_per_sim_s", "s/s", L),
    layer("geo.client_ops_per_s", "1/s", H),
    layer("geo.client_p99_ms", "ms", L),
    layer("geo.visibility_p50_ms", "ms", L),
    layer("geo.visibility_p99_ms", "ms", L),
    layer("geo.heal_convergence_ms", "ms", L),
    layer("geo.build_s", "s", L),
    layer("geo.report_s", "s", L),
    layer("geo.handler_ns_per_event", "ns", L),
    layer("geo.slice_slowdown", "ratio", L),
    layer("geo.completed_updates", "count", H),
    layer("geo.remote_applies", "count", H),
    layer("geo.service_messages", "count", L),
    layer("geo.stale_reads", "count", L),
    layer("geo.visibility_slope_ms_per_sim_min", "ms/min", L),
    layer("geo.unattributed_share", "share", L),
    // core: probes of the simulator-side Alg. 4 (replica/sender) and
    // spans of the service-side one (shard) in the replay.
    layer("core.hlc_tick_ns", "ns", L),
    layer("core.vt_merge_ns", "ns", L),
    layer("core.replica_ingest_ns_per_id", "ns", L),
    layer("core.replica_stable_ns_per_id", "ns", L),
    layer("core.sender_ns_per_id", "ns", L),
    layer("core.shard_frame_ns_per_id", "ns", L),
    layer("core.shard_ingest_ns_per_id", "ns", L),
    layer("core.shard_sweep_ns", "ns", L),
    layer("core.shard_drain_ns_per_id", "ns", L),
    layer("core.grant_fold_ns_per_lane", "ns", L),
    layer("core.grant_apply_ns_per_lane", "ns", L),
    layer("core.dedup_useful_share", "share", H),
    layer("core.share", "share", L),
    layer("collections.tournament_update_ns", "ns", L),
    layer("collections.rbtree_insert_pop_ns", "ns", L),
    layer("collections.share", "share", L),
    layer("crossbeam.send_ns_per_frame", "ns", L),
    layer("crossbeam.recv_batch_ns_per_frame", "ns", L),
    layer("crossbeam.share", "share", L),
    layer("kv.read_ns", "ns", L),
    layer("kv.update_ns", "ns", L),
    layer("kv.remote_apply_ns", "ns", L),
    layer("kv.share", "share", L),
    layer("workload.next_op_ns", "ns", L),
    layer("workload.share", "share", L),
    layer("stats.hist_record_ns", "ns", L),
    layer("stats.percentiles_ns", "ns", L),
    layer("stats.share", "share", L),
    // runtime: counters of the threaded run, plus what `/proc/self` says
    // about its threads.
    layer("runtime.stabilized_ids_per_s", "1/s", H),
    layer("runtime.frames", "count", L),
    layer("runtime.mean_batch_ids", "count", H),
    layer("runtime.queue_depth_high_water", "count", L),
    layer("runtime.credit_stalls", "count", L),
    layer("runtime.ring_full_stalls", "count", L),
    layer("runtime.retransmitted_ids", "count", L),
    layer("runtime.duplicate_ids", "count", L),
    layer("runtime.credit_min", "count", H),
    layer("runtime.theta_sweep_p50_us", "us", L),
    layer("runtime.theta_sweep_p99_us", "us", L),
    layer("runtime.grant_batches", "count", L),
    layer("runtime.grant_batch_lanes_mean", "count", H),
    layer("runtime.doorbell_unparks", "count", L),
    layer("runtime.cpu_s_per_wall_s", "s/s", L),
    layer("runtime.voluntary_ctx_switches", "count", L),
    layer("runtime.replay_ns_per_id", "ns", L),
    layer("runtime.unattributed_ns_per_id", "ns", L),
    layer("runtime.unattributed_share", "share", L),
    layer("proc.peak_rss_mib", "MiB", L),
    layer("trace_overhead_share", "share", L),
];

/// Sizes of one threaded-service workload.
#[derive(Clone, Copy, Debug)]
pub struct SvcSpec {
    pub lanes: usize,
    pub replicas: usize,
    /// Offered ids/s per lane; `None` is closed loop.
    pub lane_rate: Option<u64>,
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// EunomiaKV on the simulator; the scenario is built from the seed.
    Geo(fn(u64) -> Scenario),
    /// The threaded service.
    Svc(SvcSpec),
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

fn geo_3dc_r90(seed: u64) -> Scenario {
    Scenario::paper_three_dc().seed(seed)
}

fn geo_3dc_w50(seed: u64) -> Scenario {
    Scenario::paper_three_dc()
        .workload(WorkloadConfig::paper(50, false))
        .seed(seed)
}

/// `huge-16dc` cut to 4 simulated seconds so that three repetitions fit
/// one run; overflow migration is already steady by then (~77k per
/// simulated second from the first second on).
fn geo_16dc(seed: u64) -> Scenario {
    Scenario::huge_sixteen_dc()
        .with(|c| {
            c.duration = units::secs(4);
            c.warmup = units::secs(1);
            c.cooldown = units::secs(1);
        })
        .seed(seed)
}

fn geo_3dc_partition(seed: u64) -> Scenario {
    Scenario::partitioned_three_dc(60).seed(seed)
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "geo-3dc-r90",
        why: "paper's headline cell, 3 DCs 90:10 uniform closed loop: read path and handlers dominate, Eunomia update path is light",
        kind: Kind::Geo(geo_3dc_r90),
    },
    Workload {
        name: "geo-3dc-w50",
        why: "same deployment at 50:50: the update path (HLC stamp, sender, rb-tree ingest, stable, ship, remote apply) dominates, so a gain there shows here and barely on r90",
        kind: Kind::Geo(geo_3dc_w50),
    },
    Workload {
        name: "geo-16dc",
        why: "450 processes, 16-wide spilled vector clocks, 4M-key zipf beyond cache, calendar overflow migration: scheduler and clock width dominate; 3-DC workloads bypass all three",
        kind: Kind::Geo(geo_16dc),
    },
    Workload {
        name: "geo-3dc-partition",
        why: "fault path: dc0-dc1 partitioned then healed, deferred delivery and backlog drain; only workload with convergence-after-heal and the causal/convergence check on an apply log",
        kind: Kind::Geo(geo_3dc_partition),
    },
    Workload {
        name: "svc-sat",
        why: "threaded service closed loop, 64 lanes on one feeder thread, 1 replica: two busy threads on two cores, per-id work (frame build, ring, ingest, drain) sets capacity",
        kind: Kind::Svc(SvcSpec {
            lanes: 64,
            replicas: 1,
            lane_rate: None,
        }),
    },
    Workload {
        name: "svc-rate",
        why: "open loop at ~4% of capacity (64 lanes x 100k ids/s, 3 replicas): threads mostly parked, latency set by batch interval, theta, park back-off and doorbells; per-id gains should not move it",
        kind: Kind::Svc(SvcSpec {
            lanes: 64,
            replicas: 3,
            lane_rate: Some(100_000),
        }),
    },
    Workload {
        name: "svc-fanin",
        why: "open loop, 1024 lanes x 75k ids/s on one feeder thread (~46% of capacity): 16x svc-rate's lanes, so per-lane work (tournament update, theta sweep, grant fold) and the 1024-lane latency pathology show",
        kind: Kind::Svc(SvcSpec {
            lanes: 1024,
            replicas: 1,
            lane_rate: Some(75_000),
        }),
    },
];

/// One line of the interaction table: which layer metrics should move
/// which end-to-end metric on which workload, and the workload that
/// bypasses the mechanism (prediction there: no change). Written down
/// before measuring; the traced full run prints it with the measured
/// share of the run the named layers account for on both workloads.
pub struct Interaction {
    pub layers: &'static str,
    /// Per-layer share metrics whose sum is the layers' measured share.
    pub shares: &'static [&'static str],
    pub moves: &'static str,
    pub on: &'static str,
    pub bypass: &'static str,
}

pub const INTERACTIONS: &[Interaction] = &[
    Interaction {
        layers: "sim.*_ns_per_event, sim.overflow_migrations, core.vt_merge_ns, kv.*_ns, workload.next_op_ns",
        shares: &["sim.sched_share", "kv.share", "workload.share"],
        moves: "ops_per_wall_s, cpu_ns_per_op",
        on: "geo-16dc",
        bypass: "geo-3dc-r90",
    },
    Interaction {
        layers: "core.replica_*, core.sender_ns_per_id, collections.rbtree_insert_pop_ns, kv.update_ns, kv.remote_apply_ns",
        shares: &["core.share", "collections.share"],
        moves: "ops_per_wall_s (never op_p*_ms: if a simulated number moves, the protocol changed)",
        on: "geo-3dc-w50",
        bypass: "geo-3dc-r90",
    },
    Interaction {
        layers: "geo.handler_ns_per_event, kv.read_ns, stats.hist_record_ns (geo.build_s -> setup_s; sim.arena_high_water, sim.heap_peak -> peak_rss_mib on geo-16dc)",
        shares: &["geo.unattributed_share", "kv.share", "stats.share"],
        moves: "ops_per_wall_s",
        on: "geo-3dc-r90",
        bypass: "svc-sat",
    },
    Interaction {
        layers: "core.shard_frame/ingest/drain_ns_per_id, crossbeam.* (a faster stage saves at most its share of the slower thread's per-id time)",
        shares: &["core.share", "crossbeam.share"],
        moves: "ops_per_wall_s, cpu_ns_per_op",
        on: "svc-sat",
        bypass: "svc-rate",
    },
    Interaction {
        layers: "runtime.doorbell_unparks, runtime.voluntary_ctx_switches, runtime.cpu_s_per_wall_s, runtime.mean_batch_ids (fewer larger batches trade this against ops_per_wall_s on svc-sat)",
        shares: &["runtime.unattributed_share"],
        moves: "op_p50_ms, op_p99_ms",
        on: "svc-rate",
        bypass: "svc-sat",
    },
    Interaction {
        layers: "core.shard_sweep_ns, collections.tournament_update_ns, core.grant_fold/apply_ns_per_lane, runtime.theta_sweep_p99_us, runtime.grant_batch_lanes_mean",
        shares: &["collections.share", "runtime.unattributed_share"],
        moves: "op_p99_ms",
        on: "svc-fanin",
        bypass: "svc-sat",
    },
    Interaction {
        layers: "geo.visibility_slope_ms_per_sim_min, geo.remote_applies",
        shares: &["core.share"],
        moves: "geo.visibility_p50_ms, geo.visibility_p99_ms, geo.heal_convergence_ms (per-layer: exact at a seed)",
        on: "geo-3dc-partition",
        bypass: "svc-rate",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Unit and direction of a metric of either kind.
pub fn unit_and_direction(name: &str) -> Option<(&'static str, Better)> {
    end_to_end(name).map(|m| (m.unit, m.better)).or_else(|| {
        PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map(|m| (m.unit, m.better))
    })
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {:?}", m.name, m.unit);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with `bash benchmark/run.sh --emit-spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn every_geo_scenario_validates_and_takes_its_seed() {
        for w in WORKLOADS {
            if let Kind::Geo(make) = w.kind {
                assert_eq!(make(7).cfg().seed, 7, "{}", w.name);
                assert!(make(7).cfg().validate().is_ok(), "{}", w.name);
            }
        }
    }
}
