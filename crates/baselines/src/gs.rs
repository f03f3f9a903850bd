//! Global-stabilization baselines: GentleRain (scalar) and Cure (vector).
//!
//! Both are sequencer-free: partitions timestamp updates with *physical*
//! clocks and ship them directly to sibling partitions across datacenters
//! (FIFO, timestamp order). A remote update becomes visible only when the
//! background **global stabilization procedure** proves all its potential
//! dependencies have arrived:
//!
//! * each partition tracks, per datacenter, the latest timestamp received
//!   from its sibling there (updates or heartbeats);
//! * periodically every partition reports that knowledge vector to a
//!   per-datacenter aggregator, which broadcasts the entrywise minimum —
//!   the **GSV** (Cure) or its overall minimum, the **GST** (GentleRain);
//! * a buffered remote update from datacenter `k` applies when
//!   GST `>=` its scalar timestamp (GentleRain) or when GSV covers its
//!   vector (Cure).
//!
//! Two consequences the paper measures fall straight out of this design:
//! GentleRain's scalar compresses everything to the min over *all*
//! datacenters, so visibility pays the latency to the farthest one; and
//! the procedure burns partition CPU proportional to `1/interval` (and to
//! the vector width for Cure), which is the throughput cost of Fig. 1 and
//! Fig. 5. Unlike Eunomia's scalar-HLC, these physical-clock protocols
//! must *wait out* clock skew when a dependency is ahead of the local
//! clock (§3.2) — reproduced here via deferred retry.

use crate::msg::{BMsg, BaselineWire};
use eunomia_core::ids::{DcId, PartitionId};
use eunomia_core::time::{Timestamp, VectorTime};
use eunomia_geo::client::ClientProc;
use eunomia_geo::cluster::Assembly;
use eunomia_geo::config::{ClusterConfig, CostModel};
use eunomia_geo::harness::{make_report, RunReport};
use eunomia_geo::metrics::GeoMetrics;
use eunomia_geo::registry::SharedRegistry;
use eunomia_kv::store::{StoredVersion, VersionedStore};
use eunomia_kv::{Key, Update, Value};
use eunomia_sim::{Context, Process, ProcessId, SimTime, Simulation};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

const TIMER_REPORT: u64 = 10;
const TIMER_SIBLING_HB: u64 = 11;
const TIMER_RETRY: u64 = 12;
const TIMER_AGGREGATE: u64 = 13;

/// Scalar (GentleRain) or vector (Cure) stabilization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StabilizationMode {
    /// One timestamp for everything: cheap metadata, far-DC visibility.
    Scalar,
    /// One entry per datacenter: origin-latency visibility, costlier
    /// metadata.
    Vector,
}

impl StabilizationMode {
    fn label(self) -> &'static str {
        match self {
            StabilizationMode::Scalar => "GentleRain",
            StabilizationMode::Vector => "Cure",
        }
    }
}

/// Per-op metadata cost for the mode.
fn meta_cost(mode: StabilizationMode, costs: &CostModel, n_dcs: usize) -> u64 {
    match mode {
        StabilizationMode::Scalar => costs.scalar_meta_ns,
        StabilizationMode::Vector => costs.stab_vector_entry_ns * n_dcs as u64,
    }
}

struct WaitingUpdate {
    client: ProcessId,
    key: Key,
    value: Value,
    deps: VectorTime,
    wake: SimTime,
}

/// Partition actor for the global-stabilization systems.
pub struct GsPartitionProc {
    mode: StabilizationMode,
    dc: usize,
    pidx: usize,
    cfg: Rc<ClusterConfig>,
    reg: SharedRegistry,
    metrics: GeoMetrics,
    store: VersionedStore,
    /// Latest timestamp this partition issued (updates or heartbeats).
    max_ts: Timestamp,
    /// Knowledge vector: `pvc[k]` = latest timestamp received from the
    /// sibling partition in datacenter `k`; own entry refreshed from the
    /// physical clock at report time.
    pvc: VectorTime,
    /// Buffered remote updates per origin, keyed by timestamp, with their
    /// arrival times.
    pending: Vec<BTreeMap<Timestamp, (Update, SimTime)>>,
    /// Latest stable broadcast (GSV; GentleRain reads its min).
    stable: VectorTime,
    /// Updates waiting out clock skew (physical clock behind dependency).
    waiting: VecDeque<WaitingUpdate>,
    /// Sim time of the last replicated update (heartbeat gating).
    last_replicate: SimTime,
}

impl GsPartitionProc {
    fn new(
        mode: StabilizationMode,
        dc: usize,
        pidx: usize,
        cfg: Rc<ClusterConfig>,
        reg: SharedRegistry,
        metrics: GeoMetrics,
    ) -> Self {
        let n = cfg.n_dcs;
        GsPartitionProc {
            mode,
            dc,
            pidx,
            cfg,
            reg,
            metrics,
            store: VersionedStore::new(),
            max_ts: Timestamp::ZERO,
            pvc: VectorTime::new(n),
            pending: vec![BTreeMap::new(); n],
            stable: VectorTime::new(n),
            waiting: VecDeque::new(),
            last_replicate: 0,
        }
    }

    /// The dependency this update must wait out on the local physical
    /// clock: the whole causal past for the scalar system, only the local
    /// entry for the vector system (remote entries are enforced by GSV).
    fn wait_floor(&self, deps: &VectorTime) -> Timestamp {
        let dep = match self.mode {
            StabilizationMode::Scalar => deps.iter().fold(Timestamp::ZERO, |acc, t| acc.max(t)),
            StabilizationMode::Vector => deps.get(DcId(self.dc as u16)),
        };
        dep.max(self.max_ts)
    }

    fn handle_update(
        &mut self,
        ctx: &mut Context<'_, BMsg>,
        client: ProcessId,
        key: Key,
        value: Value,
        deps: VectorTime,
    ) {
        let physical = Timestamp(ctx.clock());
        let floor = self.wait_floor(&deps);
        if physical <= floor {
            // Physical-clock protocol: wait until the clock passes the
            // dependency (§3.2 — the delay Eunomia's hybrid clock avoids).
            let wait = floor.0 - physical.0 + 1;
            self.waiting.push_back(WaitingUpdate {
                client,
                key,
                value,
                deps,
                wake: ctx.now() + wait,
            });
            ctx.set_timer(wait, TIMER_RETRY);
            return;
        }
        let costs = &self.cfg.costs;
        ctx.consume(costs.update_ns + meta_cost(self.mode, costs, self.cfg.n_dcs));
        let ut = physical;
        self.max_ts = ut;
        let vts = match self.mode {
            StabilizationMode::Scalar => {
                let mut v = VectorTime::new(self.cfg.n_dcs);
                v.set(DcId(self.dc as u16), ut);
                v
            }
            StabilizationMode::Vector => {
                let mut v = deps.clone();
                v.set(DcId(self.dc as u16), ut);
                v
            }
        };
        let origin = DcId(self.dc as u16);
        self.store.put_local(
            key,
            StoredVersion {
                value: value.clone(),
                vts: vts.clone(),
                origin,
            },
        );
        self.metrics
            .record_apply(eunomia_geo::metrics::ApplyRecord {
                origin: origin.0,
                dest: origin.0,
                key: key.0,
                ts: ut.0,
                vts: vts.as_ticks(),
                at: ctx.now(),
            });
        ctx.send(client, BMsg::UpdateReply { vts: vts.clone() });
        let reg = self.reg.borrow();
        for k in 0..self.cfg.n_dcs {
            if k != self.dc {
                ctx.send(
                    reg.partition(k, self.pidx),
                    BMsg::Replicate {
                        update: Update {
                            key,
                            value: value.clone(),
                            vts: vts.clone(),
                            origin,
                        },
                    },
                );
            }
        }
        self.last_replicate = ctx.now();
    }

    fn visible(&self, update: &Update) -> bool {
        match self.mode {
            StabilizationMode::Scalar => update.vts.get(update.origin) <= self.stable.min_entry(),
            StabilizationMode::Vector => {
                // Every entry except the local one must be covered by GSV
                // (the origin entry's coverage is what bounds Cure's
                // visibility to origin latency + stabilization lag).
                self.stable
                    .dominates_except(&update.vts, &[DcId(self.dc as u16)])
            }
        }
    }

    fn try_apply(&mut self, ctx: &mut Context<'_, BMsg>) {
        for k in 0..self.cfg.n_dcs {
            if k == self.dc {
                continue;
            }
            while let Some((&ts, (update, arrival))) = self.pending[k].first_key_value() {
                if !self.visible(update) {
                    break;
                }
                ctx.consume(self.cfg.costs.apply_ns);
                let extra = ctx.now().saturating_sub(*arrival);
                self.metrics
                    .record_visibility(k as u16, self.dc as u16, ctx.now(), extra);
                let (update, _) = self.pending[k].remove(&ts).expect("key just seen");
                self.metrics
                    .record_apply(eunomia_geo::metrics::ApplyRecord {
                        origin: update.origin.0,
                        dest: self.dc as u16,
                        key: update.key.0,
                        ts: update.vts.get(update.origin).0,
                        vts: update.vts.as_ticks(),
                        at: ctx.now(),
                    });
                self.store.put_remote(
                    update.key,
                    StoredVersion {
                        value: update.value,
                        vts: update.vts,
                        origin: update.origin,
                    },
                );
            }
        }
    }
}

impl Process<BMsg> for GsPartitionProc {
    fn on_start(&mut self, ctx: &mut Context<'_, BMsg>) {
        ctx.set_timer(self.cfg.stab_aggregation_interval, TIMER_REPORT);
        ctx.set_timer(self.cfg.stab_heartbeat_interval, TIMER_SIBLING_HB);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, BMsg>, from: ProcessId, msg: BMsg) {
        let costs = self.cfg.costs;
        match msg {
            BMsg::Read { key } => {
                ctx.consume(costs.read_ns + meta_cost(self.mode, &costs, self.cfg.n_dcs));
                self.metrics.record_read(self.dc, key.0, ctx.now());
                let (value, vts) = match self.store.get(key) {
                    Some(v) => (v.value.clone(), v.vts.clone()),
                    None => (Value::new(), VectorTime::new(self.cfg.n_dcs)),
                };
                ctx.send(from, BMsg::ReadReply { value, vts });
            }
            BMsg::Update { key, value, deps } => {
                self.handle_update(ctx, from, key, value, deps);
            }
            BMsg::Replicate { update } => {
                ctx.consume(costs.stage_ns + meta_cost(self.mode, &costs, self.cfg.n_dcs));
                let k = update.origin.index();
                let ts = update.vts.get(update.origin);
                debug_assert!(
                    ts > self.pvc.get(update.origin),
                    "siblings replicate in timestamp order over FIFO links"
                );
                self.pvc.set(update.origin, ts);
                self.pending[k].insert(ts, (update, ctx.now()));
                self.try_apply(ctx);
            }
            BMsg::SiblingHeartbeat { origin, ts, .. } => {
                ctx.consume(costs.hb_ns);
                if ts > self.pvc.get(origin) {
                    self.pvc.set(origin, ts);
                }
            }
            BMsg::StableBroadcast { gsv } => {
                ctx.consume(costs.stab_broadcast_ns + meta_cost(self.mode, &costs, self.cfg.n_dcs));
                self.stable.merge_max(&gsv);
                self.try_apply(ctx);
            }
            other => {
                debug_assert!(false, "gs partition received unexpected message: {other:?}");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BMsg>, tag: u64) {
        let costs = self.cfg.costs;
        match tag {
            TIMER_REPORT => {
                // Refresh own entry from the physical clock: it advances
                // even when idle (the property §3.2 credits to physical
                // time), floored by the last issued timestamp.
                let clock = Timestamp(ctx.clock()).max(self.max_ts);
                self.pvc.set(DcId(self.dc as u16), clock);
                ctx.consume(costs.stab_report_ns + meta_cost(self.mode, &costs, self.cfg.n_dcs));
                let aggregator = self.reg.borrow().aggregator(self.dc);
                ctx.send(
                    aggregator,
                    BMsg::StableReport {
                        partition: PartitionId(self.pidx as u32),
                        lsv: self.pvc.clone(),
                    },
                );
                ctx.set_timer(self.cfg.stab_aggregation_interval, TIMER_REPORT);
            }
            TIMER_SIBLING_HB => {
                if ctx.now().saturating_sub(self.last_replicate) >= self.cfg.stab_heartbeat_interval
                {
                    let hb = Timestamp(ctx.clock()).max(self.max_ts.saturating_add(1));
                    self.max_ts = hb;
                    let reg = self.reg.borrow();
                    for k in 0..self.cfg.n_dcs {
                        if k != self.dc {
                            ctx.send(
                                reg.partition(k, self.pidx),
                                BMsg::SiblingHeartbeat {
                                    origin: DcId(self.dc as u16),
                                    partition: PartitionId(self.pidx as u32),
                                    ts: hb,
                                },
                            );
                        }
                    }
                    ctx.consume(costs.hb_ns * (self.cfg.n_dcs as u64 - 1));
                }
                ctx.set_timer(self.cfg.stab_heartbeat_interval, TIMER_SIBLING_HB);
            }
            TIMER_RETRY => {
                while self.waiting.front().is_some_and(|w| w.wake <= ctx.now()) {
                    let w = self.waiting.pop_front().expect("front just checked");
                    self.handle_update(ctx, w.client, w.key, w.value, w.deps);
                }
            }
            _ => debug_assert!(false, "unknown timer {tag}"),
        }
    }

    fn mc_state(&self, mut h: &mut dyn std::hash::Hasher) -> bool {
        use std::hash::Hash as _;
        h.write_usize(self.dc);
        h.write_usize(self.pidx);
        self.store.state_digest(h);
        h.write_u64(self.max_ts.0);
        self.pvc.hash(&mut h);
        // Buffered remote updates: keys and payloads matter, the recorded
        // arrival times are visibility bookkeeping only (the engine's
        // time abstraction — see `Simulation::mc_fingerprint`).
        for q in &self.pending {
            h.write_usize(q.len());
            for (ts, (update, _arrival)) in q {
                (ts, update).hash(&mut h);
            }
        }
        self.stable.hash(&mut h);
        // Same abstraction for the clock-wait queue: the waiting ops'
        // identity is state, their wake instants are time.
        h.write_usize(self.waiting.len());
        for w in &self.waiting {
            h.write_u32(w.client.0);
            (w.key, &w.value, &w.deps).hash(&mut h);
        }
        true
    }
}

/// Per-datacenter aggregator: computes the entrywise minimum of partition
/// reports and broadcasts it on the clock-computation interval.
pub struct GsAggregatorProc {
    dc: usize,
    cfg: Rc<ClusterConfig>,
    reg: SharedRegistry,
    reports: Vec<Option<VectorTime>>,
}

impl GsAggregatorProc {
    fn new(dc: usize, cfg: Rc<ClusterConfig>, reg: SharedRegistry) -> Self {
        let n = cfg.partitions_per_dc;
        GsAggregatorProc {
            dc,
            cfg,
            reg,
            reports: vec![None; n],
        }
    }
}

impl Process<BMsg> for GsAggregatorProc {
    fn on_start(&mut self, ctx: &mut Context<'_, BMsg>) {
        ctx.set_timer(self.cfg.stab_aggregation_interval, TIMER_AGGREGATE);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, BMsg>, _from: ProcessId, msg: BMsg) {
        match msg {
            BMsg::StableReport { partition, lsv } => {
                ctx.consume(self.cfg.costs.hb_ns);
                self.reports[partition.index()] = Some(lsv);
            }
            other => {
                debug_assert!(false, "aggregator received unexpected message: {other:?}");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BMsg>, tag: u64) {
        debug_assert_eq!(tag, TIMER_AGGREGATE);
        if self.reports.iter().all(Option::is_some) {
            let mut gsv = self.reports[0].clone().expect("all present");
            for r in self.reports.iter().skip(1) {
                let r = r.as_ref().expect("all present");
                // Entrywise min.
                let mins: Vec<u64> = gsv.iter().zip(r.iter()).map(|(a, b)| a.min(b).0).collect();
                gsv = VectorTime::from_ticks(&mins);
            }
            ctx.consume(self.cfg.costs.hb_ns * self.cfg.partitions_per_dc as u64);
            let reg = self.reg.borrow();
            for p in 0..self.cfg.partitions_per_dc {
                ctx.send(
                    reg.partition(self.dc, p),
                    BMsg::StableBroadcast { gsv: gsv.clone() },
                );
            }
        }
        ctx.set_timer(self.cfg.stab_aggregation_interval, TIMER_AGGREGATE);
    }

    fn mc_state(&self, mut h: &mut dyn std::hash::Hasher) -> bool {
        use std::hash::Hash as _;
        h.write_usize(self.dc);
        self.reports.hash(&mut h);
        true
    }
}

/// Builds a GentleRain or Cure deployment.
pub fn build(
    mode: StabilizationMode,
    cfg: ClusterConfig,
) -> (Simulation<BMsg>, GeoMetrics, Rc<ClusterConfig>) {
    let mut a: Assembly<BMsg> = Assembly::new(cfg);
    let (cfg, reg, metrics) = (a.cfg.clone(), a.reg.clone(), a.metrics.clone());

    let mut partitions = Vec::new();
    let mut aggregators = Vec::new();
    for dc in 0..cfg.n_dcs {
        let mut dc_parts = Vec::new();
        for p in 0..cfg.partitions_per_dc {
            let node = a.add_skewed_node(dc);
            let proc = GsPartitionProc::new(mode, dc, p, cfg.clone(), reg.clone(), metrics.clone());
            dc_parts.push(a.sim.add_process_on(node, Box::new(proc)));
        }
        partitions.push(dc_parts);
        let node = a.sim.add_node(dc);
        let agg = GsAggregatorProc::new(dc, cfg.clone(), reg.clone());
        aggregators.push(a.sim.add_process_on(node, Box::new(agg)));
        for _ in 0..cfg.clients_per_dc {
            let node = a.sim.add_node(dc);
            let wire = BaselineWire::new(dc, cfg.n_dcs);
            let client = ClientProc::new(wire, dc, cfg.clone(), reg.clone(), metrics.clone());
            a.sim.add_process_on(node, Box::new(client));
        }
    }
    // The shared timed fault schedule (partitions, gray links, pauses).
    eunomia_geo::apply_faults(&cfg, &mut a.sim, &partitions);
    {
        let mut r = reg.borrow_mut();
        r.partitions = partitions;
        r.aggregators = aggregators;
    }
    (a.sim, metrics, cfg)
}

/// Builds, runs and reports a GentleRain/Cure deployment.
/// Crate-private: external callers go through `eunomia_geo::run`.
pub(crate) fn run(mode: StabilizationMode, cfg: ClusterConfig) -> RunReport {
    let (mut sim, metrics, cfg) = build(mode, cfg);
    sim.run_until(cfg.duration);
    make_report(mode.label(), &metrics, &cfg, sim.stats())
}

#[cfg(test)]
mod unit_tests {
    use super::*;
    use eunomia_geo::registry;

    fn partition(mode: StabilizationMode, dc: usize) -> GsPartitionProc {
        let cfg = Rc::new(ClusterConfig::default());
        GsPartitionProc::new(mode, dc, 0, cfg, registry::shared(), GeoMetrics::new(3))
    }

    #[test]
    fn scalar_wait_floor_is_max_entry() {
        let mut p = partition(StabilizationMode::Scalar, 0);
        p.max_ts = Timestamp(50);
        let deps = VectorTime::from_ticks(&[10, 99, 20]);
        // GentleRain must wait out the WHOLE causal past (single scalar).
        assert_eq!(p.wait_floor(&deps), Timestamp(99));
        p.max_ts = Timestamp(120);
        assert_eq!(
            p.wait_floor(&deps),
            Timestamp(120),
            "own monotonicity also floors"
        );
    }

    #[test]
    fn vector_wait_floor_is_local_entry_only() {
        let mut p = partition(StabilizationMode::Vector, 0);
        p.max_ts = Timestamp(5);
        let deps = VectorTime::from_ticks(&[10, 999, 999]);
        // Cure waits only on its own datacenter's entry; remote entries
        // are enforced by the GSV check at apply time.
        assert_eq!(p.wait_floor(&deps), Timestamp(10));
    }

    #[test]
    fn scalar_visibility_gates_on_min_of_gst() {
        let mut p = partition(StabilizationMode::Scalar, 0);
        let u = Update {
            key: Key(1),
            value: Value::new(),
            vts: VectorTime::from_ticks(&[0, 50, 0]),
            origin: DcId(1),
        };
        p.stable = VectorTime::from_ticks(&[100, 60, 40]);
        // GST = min(100, 60, 40) = 40 < 50: not visible.
        assert!(!p.visible(&u));
        p.stable = VectorTime::from_ticks(&[100, 60, 55]);
        assert!(p.visible(&u));
    }

    #[test]
    fn vector_visibility_checks_all_remote_entries() {
        let mut p = partition(StabilizationMode::Vector, 0);
        let u = Update {
            key: Key(1),
            value: Value::new(),
            vts: VectorTime::from_ticks(&[999, 50, 30]),
            origin: DcId(1),
        };
        // Local entry (dc0) is exempt; dc1 and dc2 must be covered.
        p.stable = VectorTime::from_ticks(&[0, 50, 29]);
        assert!(!p.visible(&u), "dc2 dependency uncovered");
        p.stable = VectorTime::from_ticks(&[0, 50, 30]);
        assert!(p.visible(&u));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gentlerain_small_run_applies_remote_updates() {
        let report = run(StabilizationMode::Scalar, ClusterConfig::small_test());
        assert!(report.total_ops > 100);
        let v = report.metrics.visibility_extras(0, 1, 0, u64::MAX);
        assert!(!v.is_empty(), "remote updates must become visible");
    }

    #[test]
    fn cure_small_run_applies_remote_updates() {
        let report = run(StabilizationMode::Vector, ClusterConfig::small_test());
        assert!(report.total_ops > 100);
        let v = report.metrics.visibility_extras(1, 0, 0, u64::MAX);
        assert!(!v.is_empty(), "remote updates must become visible");
    }

    #[test]
    fn gentlerain_visibility_floor_includes_stabilization_lag() {
        // With a 20 ms RTT two-DC topology, GentleRain's extra delay is at
        // least the heartbeat/aggregation lag and never negative.
        let report = run(StabilizationMode::Scalar, ClusterConfig::small_test());
        let p50 = report.visibility_percentile_ms(0, 1, 50.0).unwrap();
        assert!(
            (0.0..100.0).contains(&p50),
            "p50 extra {p50} ms out of range"
        );
    }
}
