//! Layer probes: the benchmark's own timings around public calls of one
//! layer at a time, sized from the traced workload's own counts (process
//! count, DC count, key space and distribution, batch sizes) — never from
//! fixed constants, so a probe answers "what does this call cost *at this
//! workload's shape*".
//!
//! A probe performs at most the number of calls the traced run made and
//! stops early after [`PROBE_BUDGET`]; it reports nanoseconds per call.

use eunomia_collections::{OrderedMap, RbTree, TournamentTree};
use eunomia_core::ids::{DcId, PartitionId, ReplicaId};
use eunomia_core::replica::{ReplicaState, ReplicatedSender};
use eunomia_core::time::{ScalarHlc, Timestamp, VectorTime};
use eunomia_geo::ClusterConfig;
use eunomia_kv::partition::PartitionState;
use eunomia_kv::{Key, Update};
use eunomia_sim::{units, Context, Process, ProcessId, Simulation};
use eunomia_stats::Histogram;
use eunomia_workload::{Op, OpGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock cap per probe.
pub const PROBE_BUDGET: Duration = Duration::from_millis(150);

/// Calls between looks at the clock.
const CHUNK: u64 = 4096;

/// Runs `op` up to `calls` times (at least one chunk), stopping early
/// once the budget is spent, and returns nanoseconds per call.
fn per_call(calls: u64, mut op: impl FnMut(u64)) -> f64 {
    let calls = calls.max(CHUNK);
    let start = Instant::now();
    let mut done = 0;
    while done < calls {
        let n = CHUNK.min(calls - done);
        for i in done..done + n {
            op(i);
        }
        done += n;
        if start.elapsed() >= PROBE_BUDGET {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / done as f64
}

/// Counts of the traced geo run that size the probes.
#[derive(Clone, Copy, Debug)]
pub struct GeoCounts {
    pub messages: u64,
    pub timers: u64,
    pub reads: u64,
    pub updates: u64,
    pub remote_applies: u64,
    pub sim_secs: f64,
}

/// A process that only forwards: what is timed is the engine's own
/// push / pop / route / dispatch, not a handler.
struct Forwarder {
    n_procs: u32,
    per_dc: u32,
    /// One forward in `remote_every` crosses to the next datacenter.
    remote_every: u64,
    seen: u64,
    start_hops: u64,
}

impl Process<u64> for Forwarder {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        if self.start_hops > 0 {
            let me = ctx.self_id();
            ctx.send(me, self.start_hops);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: ProcessId, hops: u64) {
        if hops == 0 {
            return;
        }
        self.seen += 1;
        let me = ctx.self_id().0;
        let dc_base = me - me % self.per_dc;
        let to = if self.seen.is_multiple_of(self.remote_every) {
            (me + self.per_dc) % self.n_procs
        } else {
            dc_base + (me + 1) % self.per_dc
        };
        ctx.send(ProcessId(to), hops - 1);
    }
}

/// A process that only re-arms a periodic timer, like the batch, theta
/// and rho timers of the real processes.
struct Ticker {
    period: u64,
    left: u64,
}

impl Process<u64> for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.set_timer(self.period, 0);
    }

    fn on_message(&mut self, _: &mut Context<'_, u64>, _: ProcessId, _: u64) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _tag: u64) {
        if self.left > 0 {
            self.left -= 1;
            ctx.set_timer(self.period, 0);
        }
    }
}

/// Number of simulated processes the deployment has (EunomiaKV).
pub fn process_count(cfg: &ClusterConfig) -> usize {
    cfg.n_dcs * (cfg.partitions_per_dc + cfg.replicas.max(1) + 1 + cfg.clients_per_dc)
}

/// Events a scheduler probe simulates at most (a fraction of a second).
const SCHED_EVENTS_CAP: u64 = 1_500_000;

fn noop_sim(
    cfg: &ClusterConfig,
    mut make: impl FnMut(u32) -> Box<dyn Process<u64>>,
) -> Simulation<u64> {
    let mut sim = Simulation::new(cfg.topology(), cfg.seed);
    let per_dc = process_count(cfg) / cfg.n_dcs;
    for dc in 0..cfg.n_dcs {
        for i in 0..per_dc {
            sim.add_process(dc, make((dc * per_dc + i) as u32));
        }
    }
    sim
}

/// Engine cost per message event: forwarders on the workload's topology
/// and process count, crossing datacenters at the run's own rate.
pub fn sim_msg_ns_per_event(cfg: &ClusterConfig, c: &GeoCounts) -> f64 {
    let n_procs = process_count(cfg) as u64;
    let per_dc = (n_procs / cfg.n_dcs as u64) as u32;
    // Each remote apply took one data message and a share of one
    // metadata shipment across the WAN.
    let remote_every = (c.messages / (2 * c.remote_applies).max(1)).max(1);
    let total = c.messages.min(SCHED_EVENTS_CAP);
    let hops = (total / n_procs).max(1);
    let mut sim = noop_sim(cfg, |_| {
        Box::new(Forwarder {
            n_procs: n_procs as u32,
            per_dc,
            remote_every,
            seen: 0,
            start_hops: hops,
        })
    });
    sim.run_until(units::secs(3600));
    let s = sim.stats();
    s.wall_ns as f64 / s.events.max(1) as f64
}

/// Engine cost per timer event: one periodic timer per process at the
/// workload's batch interval.
pub fn sim_timer_ns_per_event(cfg: &ClusterConfig, c: &GeoCounts) -> f64 {
    let n_procs = process_count(cfg) as u64;
    let fires = (c.timers.min(SCHED_EVENTS_CAP) / n_procs).max(1);
    let mut sim = noop_sim(cfg, |_| {
        Box::new(Ticker {
            period: cfg.batch_interval,
            left: fires,
        })
    });
    sim.run_until(units::secs(3600));
    let s = sim.stats();
    s.wall_ns as f64 / s.events.max(1) as f64
}

/// `ScalarHlc::tick`, the stamp every update (and every service id) gets.
pub fn hlc_tick_ns(calls: u64) -> f64 {
    let mut hlc = ScalarHlc::new();
    per_call(calls, |i| {
        // The physical clock advances every few ticks, as in a burst.
        black_box(hlc.tick(Timestamp(1_000 + i / 4), Timestamp(i / 8)));
    })
}

/// `VectorTime::merge_max` at the workload's datacenter count (16 wide
/// spills out of the inline representation).
pub fn vt_merge_ns(n_dcs: usize, calls: u64) -> f64 {
    let mut a = VectorTime::new(n_dcs);
    let mut others = Vec::new();
    for k in 0..8u64 {
        let ticks: Vec<u64> = (0..n_dcs as u64).map(|d| 1_000 + 37 * k + d).collect();
        others.push(VectorTime::from_ticks(&ticks));
    }
    per_call(calls, |i| {
        a.merge_max(&others[(i % 8) as usize]);
        black_box(&a);
    })
}

/// Ids one partition hands its Eunomia replica per batch interval, from
/// the run's own update count.
pub fn ids_per_batch(cfg: &ClusterConfig, c: &GeoCounts) -> u64 {
    let batches =
        c.sim_secs * 1e9 / cfg.batch_interval as f64 * (cfg.n_dcs * cfg.partitions_per_dc) as f64;
    (c.updates as f64 / batches.max(1.0)).ceil().max(1.0) as u64
}

/// The simulator-side Alg. 4: `ReplicaState::new_batch` per partition,
/// then `leader_process_stable`, at the workload's partitions per DC and
/// ids per batch. Returns `(ingest, stable)` nanoseconds per id.
pub fn replica_ns_per_id(cfg: &ClusterConfig, c: &GeoCounts) -> (f64, f64) {
    let parts = cfg.partitions_per_dc;
    let b = ids_per_batch(cfg, c);
    let mut state: ReplicaState<u64> = ReplicaState::new(ReplicaId(0), parts);
    let mut out = Vec::new();
    let (mut ingest, mut stable) = (Duration::ZERO, Duration::ZERO);
    let mut ids = 0u64;
    let mut ts = 1u64;
    let start = Instant::now();
    while ids < (c.updates / cfg.n_dcs as u64).max(CHUNK) && start.elapsed() < PROBE_BUDGET {
        let t0 = Instant::now();
        for p in 0..parts {
            let batch = (0..b).map(|k| (Timestamp(ts + k * parts as u64 + p as u64), k));
            black_box(state.new_batch(PartitionId(p as u32), batch).ok());
        }
        let t1 = Instant::now();
        out.clear();
        black_box(state.leader_process_stable(&mut out));
        stable += t1.elapsed();
        ingest += t1 - t0;
        ts += b * parts as u64 + 1;
        ids += b * parts as u64;
    }
    (
        ingest.as_nanos() as f64 / ids as f64,
        stable.as_nanos() as f64 / ids as f64,
    )
}

/// `ReplicatedSender` push / batch / ack at the workload's replica count
/// and ids per batch.
pub fn sender_ns_per_id(cfg: &ClusterConfig, c: &GeoCounts) -> f64 {
    let b = ids_per_batch(cfg, c);
    let replicas = cfg.replicas.max(1);
    let mut sender: ReplicatedSender<u64> = ReplicatedSender::new(replicas);
    let mut ts = 0u64;
    let rounds = (c.updates / b).max(1);
    per_call(rounds, |_| {
        for _ in 0..b {
            ts += 1;
            sender.push(Timestamp(ts), ts);
        }
        for r in 0..replicas {
            black_box(sender.batch_for(ReplicaId(r as u32)));
            sender.on_ack(ReplicaId(r as u32), Timestamp(ts));
        }
    }) / b as f64
}

/// One rb-tree insert plus one pop-min, holding the tree at `depth`
/// entries — the stabilization buffer's steady state.
pub fn rbtree_insert_pop_ns(depth: u64, calls: u64) -> f64 {
    let mut tree: RbTree<u64, u64> = RbTree::new();
    for k in 0..depth {
        tree.insert(k, k);
    }
    per_call(calls, |i| {
        tree.insert(depth + i, i);
        black_box(tree.pop_min());
    })
}

/// `TournamentTree::update` at the workload's lane count, the cost of
/// one watermark advance.
pub fn tournament_update_ns(lanes: usize, calls: u64) -> f64 {
    let mut tree = TournamentTree::new(lanes, 0u64, u64::MAX);
    per_call(calls, |i| {
        // Lanes advance round-robin, each to a fresh maximum.
        tree.update((i % lanes as u64) as usize, i + 1);
        black_box(tree.min());
    })
}

/// `PartitionState` read / update / remote apply over the workload's key
/// space and key distribution. One state holds the whole key space: the
/// simulator runs every partition of a datacenter in one thread, so the
/// cache sees the datacenter's working set, not one partition's.
/// Returns `(read, update, remote_apply)` nanoseconds per call.
pub fn kv_ns(cfg: &ClusterConfig, c: &GeoCounts) -> (f64, f64, f64) {
    let n_dcs = cfg.n_dcs;
    let mut gen = cfg.workload.generator();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBE7C);
    // Keys are drawn outside the timed loops: `workload.next_op_ns`
    // times the generator.
    let draw = |n: u64, gen: &mut OpGenerator, rng: &mut StdRng| -> Vec<Key> {
        (0..n.clamp(CHUNK, 400_000))
            .map(|_| Key(gen.next_op(rng).key()))
            .collect()
    };
    let value = bytes::Bytes::from(vec![0xABu8; cfg.workload.value_size]);
    let per_dc = n_dcs as u64;

    let mut local = PartitionState::new(PartitionId(0), DcId(0), n_dcs);
    let deps = VectorTime::new(n_dcs);
    let keys = draw(c.updates / per_dc, &mut gen, &mut rng);
    let update = per_call(keys.len() as u64, |i| {
        let key = keys[i as usize % keys.len()];
        black_box(local.update(key, value.clone(), &deps, Timestamp(1_000 + i)));
    });

    let keys = draw(c.reads / per_dc, &mut gen, &mut rng);
    let read = per_call(keys.len() as u64, |i| {
        black_box(local.read(keys[i as usize % keys.len()]));
    });

    // Remote applies arrive as data then APPLY (the common order: the
    // metadata path waits for stabilization).
    let keys = draw(c.remote_applies / per_dc, &mut gen, &mut rng);
    let origin = DcId((n_dcs - 1) as u16);
    let remote_apply = per_call(keys.len() as u64, |i| {
        let mut vts = VectorTime::new(n_dcs);
        vts.set(origin, Timestamp(1_000 + i));
        let update = Update {
            key: keys[i as usize % keys.len()],
            value: value.clone(),
            vts,
            origin,
        };
        let id = update.id();
        local.on_remote_data(update);
        black_box(local.on_apply_request(origin, id));
    });
    (read, update, remote_apply)
}

/// `OpGenerator::next_op` on the workload's key distribution.
pub fn next_op_ns(cfg: &ClusterConfig, calls: u64) -> f64 {
    let mut gen = cfg.workload.generator();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x09E7);
    per_call(calls, |_| {
        if let Op::Update(k, v) = gen.next_op(&mut rng) {
            black_box((k, v));
        }
    })
}

/// `Histogram::record` (one per client op) and one `percentiles` scan
/// (one per report). Returns `(record, percentiles)` nanoseconds.
pub fn hist_ns(calls: u64) -> (f64, f64) {
    let mut h = Histogram::new();
    let record = per_call(calls, |i| {
        // Latencies spread over a few decades, like op latencies.
        h.record(200_000 + (i * 7_919) % 3_000_000);
    });
    let percentiles = per_call(64, |_| {
        black_box(h.percentiles(&[50.0, 99.0]));
    });
    (record, percentiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eunomia_geo::Scenario;

    fn counts() -> GeoCounts {
        GeoCounts {
            messages: 20_000,
            timers: 20_000,
            reads: 9_000,
            updates: 1_000,
            remote_applies: 2_000,
            sim_secs: 1.0,
        }
    }

    #[test]
    fn every_probe_returns_a_positive_time() {
        let cfg = Scenario::small_test().cfg().clone();
        let c = counts();
        assert!(sim_msg_ns_per_event(&cfg, &c) > 0.0);
        assert!(sim_timer_ns_per_event(&cfg, &c) > 0.0);
        assert!(hlc_tick_ns(1) > 0.0);
        assert!(vt_merge_ns(16, 1) > 0.0);
        let (i, s) = replica_ns_per_id(&cfg, &c);
        assert!(i > 0.0 && s > 0.0);
        assert!(sender_ns_per_id(&cfg, &c) > 0.0);
        assert!(rbtree_insert_pop_ns(3, 1) > 0.0);
        assert!(tournament_update_ns(1024, 1) > 0.0);
        let (r, u, a) = kv_ns(&cfg, &c);
        assert!(r > 0.0 && u > 0.0 && a > 0.0);
        assert!(next_op_ns(&cfg, 1) > 0.0);
        let (rec, pct) = hist_ns(1);
        assert!(rec > 0.0 && pct > 0.0);
    }

    #[test]
    fn forwarders_simulate_the_requested_number_of_messages() {
        let cfg = Scenario::small_test().cfg().clone();
        let n = process_count(&cfg) as u64;
        let mut sim = noop_sim(&cfg, |_| {
            Box::new(Forwarder {
                n_procs: n as u32,
                per_dc: (n / cfg.n_dcs as u64) as u32,
                remote_every: 5,
                seen: 0,
                start_hops: 10,
            })
        });
        sim.run_until(units::secs(3600));
        // Per process: the start, the self-send, and 10 forwards.
        assert_eq!(sim.stats().events, n * 12);
    }
}
