//! Partition simulation actor.
//!
//! Wraps [`eunomia_kv::partition::PartitionState`] with the paper's
//! communication behaviour: client requests are served on the spot (no
//! synchronous coordination — the whole point of Eunomia); metadata is
//! batched to every Eunomia replica on a timer (§5) with the prefix
//! property maintained by [`ReplicatedSender`]; data is shipped to sibling
//! partitions immediately; remote updates are applied when the receiver
//! says so (EunomiaKV) or on arrival (Eventual).

use crate::config::{ClusterConfig, CostModel};
use crate::metrics::GeoMetrics;
use crate::msg::{BundleEntry, Msg, OpMeta};
use crate::registry::SharedRegistry;
use crate::system::SystemId;
use eunomia_collections::FxHashMap;
use eunomia_core::ids::{DcId, PartitionId, ReplicaId};
use eunomia_core::replica::ReplicatedSender;
use eunomia_core::time::Timestamp;
use eunomia_core::tree::FanInTree;
use eunomia_kv::partition::{ApplyOutcome, PartitionState};
use eunomia_sim::{Context, Process, ProcessId, SimTime};
use std::rc::Rc;

const TIMER_BATCH: u64 = 1;

/// The partition actor.
pub struct PartitionProc {
    state: PartitionState,
    dc: usize,
    pidx: usize,
    kind: SystemId,
    cfg: Rc<ClusterConfig>,
    costs: CostModel,
    reg: SharedRegistry,
    metrics: GeoMetrics,
    sender: ReplicatedSender<OpMeta>,
    replica_alive: Vec<bool>,
    /// Time of the oldest batch sent to each replica that is still
    /// unacknowledged (`None` when nothing is outstanding). Drives dead
    /// marking: a replica is suspected only if *we* sent something and it
    /// stayed silent — a partition that itself pauses (a straggler) must
    /// not poison its links.
    awaiting_since: Vec<Option<SimTime>>,
    /// When the flush timer last ran. If the gap between flushes exceeds
    /// the suspicion horizon, *we* were unresponsive (a paused process, a
    /// long GC-like stall), so suspicion clocks are restarted instead of
    /// condemning replicas that answered while we slept — marking the
    /// only replica dead drops its unacked resend window and loses
    /// metadata for good.
    last_flush: Option<SimTime>,
    data_arrival: FxHashMap<(DcId, Timestamp), SimTime>,
    /// Whether applies are reported to the metrics at all: only the apply
    /// log and staleness tracking read them.
    log_applies: bool,
    /// Copies of staged remote updates kept only for apply reporting
    /// (empty unless `log_applies`).
    pending_log: FxHashMap<(DcId, Timestamp), eunomia_kv::Update>,
    /// §5 fan-in tree over this datacenter's partitions (None = direct
    /// all-to-one metadata flow).
    tree: Option<FanInTree>,
    /// Bundle entries received from tree children, forwarded (merged with
    /// this partition's own batches) at the next flush tick.
    relay_buffer: Vec<BundleEntry>,
}

impl PartitionProc {
    /// Creates the actor for partition `pidx` of datacenter `dc`.
    pub fn new(
        dc: usize,
        pidx: usize,
        kind: SystemId,
        cfg: Rc<ClusterConfig>,
        reg: SharedRegistry,
        metrics: GeoMetrics,
    ) -> Self {
        let costs = cfg.costs_for(kind);
        let replicas = cfg.replicas.max(1);
        PartitionProc {
            state: PartitionState::new(PartitionId(pidx as u32), DcId(dc as u16), cfg.n_dcs),
            dc,
            pidx,
            kind,
            costs,
            reg,
            metrics,
            sender: ReplicatedSender::new(replicas),
            replica_alive: vec![true; replicas],
            awaiting_since: vec![None; replicas],
            last_flush: None,
            tree: cfg
                .metadata_tree_arity
                .map(|a| FanInTree::new(cfg.partitions_per_dc, a)),
            log_applies: cfg.apply_log || cfg.track_staleness,
            cfg,
            data_arrival: FxHashMap::default(),
            pending_log: FxHashMap::default(),
            relay_buffer: Vec::new(),
        }
    }

    /// Sends this flush round's bundle up the tree (or, at the root, to
    /// the Eunomia replicas).
    fn forward_bundle(&mut self, ctx: &mut Context<'_, Msg>, mut entries: Vec<BundleEntry>) {
        entries.append(&mut self.relay_buffer);
        if entries.is_empty() {
            return;
        }
        let tree = self.tree.expect("bundles only flow when the tree is on");
        match tree.parent(self.pidx) {
            Some(parent) => {
                ctx.consume(self.costs.batch_overhead_ns);
                let target = self.reg.borrow().partition(self.dc, parent);
                ctx.send(target, Msg::MetaBundle { entries });
            }
            None => {
                // Root: one merged message per replica.
                let replicas = self.reg.borrow().eunomia_replicas(self.dc).to_vec();
                for (f, &pid) in replicas.iter().enumerate() {
                    let for_replica: Vec<BundleEntry> = entries
                        .iter()
                        .filter(|e| e.replica.index() == f)
                        .cloned()
                        .collect();
                    if for_replica.is_empty() {
                        continue;
                    }
                    ctx.consume(self.costs.batch_overhead_ns);
                    ctx.send(
                        pid,
                        Msg::MetaBundle {
                            entries: for_replica,
                        },
                    );
                }
            }
        }
    }

    fn vector_cost(&self) -> u64 {
        self.costs.vector_entry_ns * self.cfg.n_dcs as u64
    }

    /// The batch interval in force at `now`, honouring a straggler window.
    fn effective_interval(&self, now: SimTime) -> SimTime {
        if let Some(s) = &self.cfg.straggler {
            if s.dc == self.dc && s.partition == self.pidx && now >= s.from && now < s.to {
                return s.interval;
            }
        }
        self.cfg.batch_interval
    }

    fn flush_metadata(&mut self, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now();
        // Failure-detector hygiene: if our own flush loop stalled past the
        // suspicion horizon (we were paused, not the replicas silent),
        // restart the suspicion clocks before judging anyone.
        if self
            .last_flush
            .is_some_and(|last| now.saturating_sub(last) > self.cfg.omega_timeout)
        {
            for slot in self.awaiting_since.iter_mut() {
                if slot.is_some() {
                    *slot = Some(now);
                }
            }
        }
        self.last_flush = Some(now);
        let physical = Timestamp(ctx.clock());
        // Heartbeat once per flush round if the partition has been idle
        // (Alg. 2 l. 10-12).
        let heartbeat = if self.sender.window_len() == 0
            && self.state.heartbeat_due(physical, self.cfg.heartbeat_delta)
        {
            Some(self.state.heartbeat(physical))
        } else {
            None
        };
        let replicas = self.reg.borrow().eunomia_replicas(self.dc).to_vec();
        let mut bundle_entries: Vec<BundleEntry> = Vec::new();
        for (f, &pid) in replicas.iter().enumerate() {
            let rid = ReplicaId(f as u32);
            // A replica that stays silent after we sent it something stops
            // pinning the resend window (§3.3: a recovered replica rejoins
            // by state transfer, not replay). A partition that itself went
            // quiet — e.g. a straggler — never suspects anyone.
            if self.replica_alive[f]
                && self.awaiting_since[f]
                    .is_some_and(|since| now.saturating_sub(since) > 2 * self.cfg.omega_timeout)
            {
                self.replica_alive[f] = false;
                self.sender.mark_dead(rid);
            }
            if !self.replica_alive[f] {
                continue;
            }
            let batch = self.sender.batch_for(rid);
            if batch.is_empty() && heartbeat.is_none() {
                continue;
            }
            if !batch.is_empty() && self.awaiting_since[f].is_none() {
                self.awaiting_since[f] = Some(now);
            }
            let ops: Vec<OpMeta> = batch.into_iter().map(|(_, m)| m).collect();
            if self.tree.is_some() {
                bundle_entries.push(BundleEntry {
                    replica: rid,
                    partition: PartitionId(self.pidx as u32),
                    ops,
                    heartbeat,
                });
            } else {
                ctx.consume(self.costs.batch_overhead_ns);
                ctx.send(
                    pid,
                    Msg::MetaBatch {
                        partition: PartitionId(self.pidx as u32),
                        ops,
                        heartbeat,
                    },
                );
            }
        }
        if self.tree.is_some() {
            self.forward_bundle(ctx, bundle_entries);
        }
    }

    fn record_visibility(&mut self, ctx: &Context<'_, Msg>, origin: DcId, ts: Timestamp) {
        let arrival = self.data_arrival.remove(&(origin, ts)).unwrap_or(ctx.now());
        let extra = ctx.now().saturating_sub(arrival);
        self.metrics
            .record_visibility(origin.0, self.dc as u16, ctx.now(), extra);
    }

    fn log_apply(&self, ctx: &Context<'_, Msg>, update: &eunomia_kv::Update) {
        if !self.log_applies {
            return;
        }
        self.metrics.record_apply(crate::metrics::ApplyRecord {
            origin: update.origin.0,
            dest: self.dc as u16,
            key: update.key.0,
            ts: update.vts.get(update.origin).0,
            vts: update.vts.as_ticks(),
            at: ctx.now(),
        });
    }

    /// Reports the apply of the staged remote update `(origin, ts)`.
    fn log_staged_apply(&mut self, ctx: &Context<'_, Msg>, origin: DcId, ts: Timestamp) {
        if let Some(u) = self.pending_log.remove(&(origin, ts)) {
            self.log_apply(ctx, &u);
        }
    }
}

impl Process<Msg> for PartitionProc {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.kind == SystemId::EunomiaKv {
            ctx.set_timer(self.cfg.batch_interval, TIMER_BATCH);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
        match msg {
            Msg::Read { key } => {
                ctx.consume(self.costs.read_ns + self.vector_cost());
                self.metrics.record_read(self.dc, key.0, ctx.now());
                let (value, vts, origin) = self.state.read_versioned(key);
                ctx.send(from, Msg::ReadReply { value, vts, origin });
            }
            Msg::Update { key, value, deps } => {
                ctx.consume(self.costs.update_ns + self.vector_cost());
                let physical = Timestamp(ctx.clock());
                let local = self.state.update(key, value, &deps, physical);
                self.log_apply(ctx, &local.update);
                ctx.send(
                    from,
                    Msg::UpdateReply {
                        vts: local.update.vts.clone(),
                    },
                );
                if self.kind == SystemId::EunomiaKv {
                    self.sender.push(
                        local.id.ts,
                        OpMeta {
                            id: local.id,
                            vts: local.update.vts.clone(),
                        },
                    );
                }
                // Data path (§5): ship the payload to sibling partitions in
                // every remote datacenter (that replicates the key, under
                // partial replication) immediately, unordered.
                let rf = self.cfg.replication_factor.unwrap_or(self.cfg.n_dcs);
                let reg = self.reg.borrow();
                for dc in 0..self.cfg.n_dcs {
                    if dc != self.dc && eunomia_kv::ring::replicates(key, dc, self.cfg.n_dcs, rf) {
                        ctx.send(
                            reg.partition(dc, self.pidx),
                            Msg::RemoteData {
                                update: local.update.clone(),
                            },
                        );
                    }
                }
            }
            Msg::MetaBundle { entries } => {
                // Tree relay: stash child bundles; the next flush tick
                // forwards them upward merged with our own batches.
                ctx.consume(self.costs.hb_ns);
                self.relay_buffer.extend(entries);
            }
            Msg::MetaAck { replica, upto } => {
                ctx.consume(self.costs.hb_ns);
                if !self.replica_alive[replica.index()] {
                    self.replica_alive[replica.index()] = true;
                    self.sender.mark_alive(replica);
                }
                self.sender.on_ack(replica, upto);
                // Any ack proves the replica alive: clear suspicion. If
                // sent-but-unacked items remain, the next flush re-sends
                // them and re-arms the timer. (Ops that entered the window
                // after the last flush must NOT arm it — a straggler that
                // flushes rarely would otherwise suspect a healthy
                // replica.)
                self.awaiting_since[replica.index()] = None;
            }
            Msg::RemoteData { update } => {
                let origin = update.origin;
                let ts = update.vts.get(origin);
                match self.kind {
                    SystemId::Eventual => {
                        ctx.consume(self.costs.apply_ns);
                        self.log_apply(ctx, &update);
                        self.state.apply_now(update);
                    }
                    SystemId::EunomiaKv => {
                        ctx.consume(self.costs.stage_ns);
                        self.data_arrival.insert((origin, ts), ctx.now());
                        if self.log_applies {
                            self.pending_log.insert((origin, ts), update.clone());
                        }
                        if let Some(id) = self.state.on_remote_data(update) {
                            // The APPLY instruction was already waiting: the
                            // update becomes visible the moment data lands.
                            ctx.consume(self.costs.apply_ns);
                            self.log_staged_apply(ctx, origin, id.ts);
                            self.record_visibility(ctx, origin, id.ts);
                            let receiver = self.reg.borrow().receiver(self.dc);
                            ctx.send(receiver, Msg::ApplyOk { origin, id });
                        }
                    }
                    other => unreachable!("geo partitions only run native systems, not {other}"),
                }
            }
            Msg::Apply { origin, id } => {
                ctx.consume(self.costs.apply_ns);
                match self.state.on_apply_request(origin, id) {
                    ApplyOutcome::Applied => {
                        self.log_staged_apply(ctx, origin, id.ts);
                        self.record_visibility(ctx, origin, id.ts);
                        ctx.send(from, Msg::ApplyOk { origin, id });
                    }
                    ApplyOutcome::WaitingForData => {
                        // Ack deferred until the data message arrives.
                    }
                }
            }
            other => {
                debug_assert!(false, "partition received unexpected message: {other:?}");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
        debug_assert_eq!(tag, TIMER_BATCH);
        self.flush_metadata(ctx);
        let next = self.effective_interval(ctx.now());
        ctx.set_timer(next, TIMER_BATCH);
    }

    fn mc_state(&self, mut h: &mut dyn std::hash::Hasher) -> bool {
        use eunomia_collections::{combine_unordered, hash_one};
        use std::hash::Hash as _;
        self.state.state_digest(h);
        self.sender.state_digest(h);
        self.replica_alive.hash(&mut h);
        // Suspicion timers matter only through their is-armed bit: under
        // the zero-latency MC clock every armed timer reads the same
        // instant, and elsewhere hashing raw times would split states that
        // behave identically.
        for slot in &self.awaiting_since {
            h.write_u8(slot.is_some() as u8);
        }
        // `last_flush` and `data_arrival` feed only latency metrics and
        // the stall-hygiene heuristic; both are time bookkeeping, not
        // protocol state.
        let mut pending = 0u64;
        for (k, v) in &self.pending_log {
            pending = combine_unordered(pending, hash_one(&(k, v)));
        }
        h.write_usize(self.pending_log.len());
        h.write_u64(pending);
        self.relay_buffer.hash(&mut h);
        true
    }
}
