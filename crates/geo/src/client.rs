//! Client simulation actor (closed- or open-loop), one for all six systems.
//!
//! Each client runs Algorithm 1 (§4 vector form) against its home
//! datacenter. In the default closed loop it issues one operation, waits
//! for the reply, folds the returned timestamp into its session clock and
//! immediately issues the next operation — the paper's Basho Bench
//! clients with zero think time. With [`ClusterConfig::open_loop`] set,
//! an [`OpenLoopDriver`] instead schedules intended arrivals from the
//! configured process and latency is measured from the intended time
//! (coordinated-omission-free; see [`crate::open_loop`]).
//!
//! The loop itself — draw, route, issue, complete, budget, open-loop
//! admission — is [`ClientProc`] and knows nothing about any system. What
//! a system's client *says* and *remembers* is its [`ClientWire`]: the
//! message enum it speaks, the dependency metadata it attaches to an
//! update, and how a reply folds into its session. EunomiaKV and Eventual
//! implement it here; the four baselines share one impl in
//! `eunomia-baselines`.

use crate::config::ClusterConfig;
use crate::metrics::{GeoMetrics, SessionRecord};
use crate::msg::Msg;
use crate::open_loop::{Admission, OpenLoopDriver, TIMER_ARRIVAL};
use crate::registry::SharedRegistry;
use eunomia_core::ids::DcId;
use eunomia_core::time::VectorTime;
use eunomia_kv::client::ClientState;
use eunomia_kv::{ring, Key, Value};
use eunomia_sim::{Context, Process, ProcessId, SimTime};
use eunomia_workload::{Op, OpGenerator};
use std::hash::Hasher;
use std::rc::Rc;

/// The system-specific half of a client: its wire format and its session.
pub trait ClientWire: 'static {
    /// The system's message enum.
    type Msg: 'static;

    /// Whether this client may access `key`. Everything, unless the
    /// system restricts clients to what their home datacenter stores.
    fn stores(&self, key: Key) -> bool {
        let _ = key;
        true
    }

    /// Builds the read request for `key`.
    fn read(&mut self, key: Key) -> Self::Msg;

    /// Builds the update request for `key`, carrying whatever dependency
    /// metadata the system's sessions track.
    fn update(&mut self, key: Key, value: Value) -> Self::Msg;

    /// Folds a read or update reply, received at `now`, into the session.
    /// Returns `false`, leaving the session untouched, for any other
    /// message.
    fn on_reply(&mut self, msg: Self::Msg, now: SimTime) -> bool;

    /// Folds the session state into `h` for model-checking state hashing.
    fn digest(&self, h: &mut dyn Hasher);
}

/// The client actor.
pub struct ClientProc<W: ClientWire> {
    wire: W,
    gen: OpGenerator,
    dc: usize,
    cfg: Rc<ClusterConfig>,
    reg: SharedRegistry,
    metrics: GeoMetrics,
    issued_at: SimTime,
    pending_is_update: bool,
    completed: u64,
    /// Present iff the run is open-loop.
    open: Option<OpenLoopDriver>,
}

impl<W: ClientWire> ClientProc<W> {
    /// Creates a client homed at datacenter `dc` speaking `wire`.
    pub fn new(
        wire: W,
        dc: usize,
        cfg: Rc<ClusterConfig>,
        reg: SharedRegistry,
        metrics: GeoMetrics,
    ) -> Self {
        let open = cfg
            .open_loop
            .as_ref()
            .map(|ol| OpenLoopDriver::new(&ol.arrivals, ol.queue_limit));
        ClientProc {
            wire,
            gen: cfg.workload.generator(),
            dc,
            cfg,
            reg,
            metrics,
            issued_at: 0,
            pending_is_update: false,
            completed: 0,
            open,
        }
    }

    fn next_op(&mut self, ctx: &mut Context<'_, W::Msg>) -> Op {
        let mut op = self.gen.next_op(ctx.rng());
        while !self.wire.stores(Key(op.key())) {
            op = self.gen.next_op(ctx.rng());
        }
        op
    }

    fn issue(&mut self, ctx: &mut Context<'_, W::Msg>) {
        let op = self.next_op(ctx);
        self.send_op(ctx, op);
    }

    fn send_op(&mut self, ctx: &mut Context<'_, W::Msg>, op: Op) {
        let key = Key(op.key());
        let partition = ring::responsible(key, self.cfg.partitions_per_dc);
        let target = self.reg.borrow().partition(self.dc, partition.index());
        self.issued_at = ctx.now();
        self.pending_is_update = op.is_update();
        let msg = match op {
            Op::Read(_) => self.wire.read(key),
            Op::Update(_, value) => self.wire.update(key, value),
        };
        ctx.send(target, msg);
    }

    fn complete(&mut self, ctx: &mut Context<'_, W::Msg>) {
        let now = ctx.now();
        // Open loop: latency runs from the *intended* arrival, so a
        // stalled reply inflates this op and every queued one behind it —
        // no coordinated omission — and the next op is the backlog's, not
        // a fresh draw.
        let (from, next) = match self.open.as_mut() {
            Some(driver) => driver.on_completion(now, self.issued_at, &self.metrics),
            None => (self.issued_at, None),
        };
        self.metrics.record_op(
            self.dc,
            now,
            now.saturating_sub(from),
            self.pending_is_update,
        );
        self.completed += 1;
        if !self.under_budget() {
            return;
        }
        match next {
            Some(op) => self.send_op(ctx, op),
            None if self.open.is_none() => self.issue(ctx),
            None => {}
        }
    }

    fn under_budget(&self) -> bool {
        self.cfg
            .ops_per_client
            .is_none_or(|budget| self.completed < budget)
    }
}

impl<W: ClientWire> Process<W::Msg> for ClientProc<W> {
    fn on_start(&mut self, ctx: &mut Context<'_, W::Msg>) {
        match self.open.as_mut() {
            Some(driver) => driver.start(ctx),
            None => self.issue(ctx),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, W::Msg>, tag: u64) {
        debug_assert_eq!(tag, TIMER_ARRIVAL, "client has no other timers");
        if !self.under_budget() {
            // Budget exhausted: let the arrival loop die by not
            // rescheduling.
            return;
        }
        let op = self.next_op(ctx);
        let driver = self.open.as_mut().expect("arrival timer without driver");
        if let Admission::Issue(op) = driver.on_arrival(ctx, op, &self.metrics) {
            self.send_op(ctx, op);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, W::Msg>, _from: ProcessId, msg: W::Msg) {
        if self.wire.on_reply(msg, ctx.now()) {
            self.complete(ctx);
        } else {
            debug_assert!(false, "client received a message that is not a reply");
        }
    }

    fn mc_state(&self, mut h: &mut dyn Hasher) -> bool {
        use std::hash::Hash as _;
        self.wire.digest(h);
        // The generator's counters decide the keys/kinds of future ops;
        // `issued_at` is excluded (pure latency bookkeeping).
        self.gen.state_digest(h);
        self.pending_is_update.hash(&mut h);
        h.write_u64(self.completed);
        if let Some(driver) = &self.open {
            driver.state_digest(h);
        }
        true
    }
}

/// Eventual consistency's client: no session, empty dependencies. Also
/// the session-free half of [`EunomiaKvWire`] — the partial-replication
/// key filter and the per-client session log are the same for both.
pub struct EventualWire {
    dc: usize,
    /// Globally unique client index (keys the session log).
    id: u32,
    pending_key: u64,
    cfg: Rc<ClusterConfig>,
    metrics: GeoMetrics,
}

impl EventualWire {
    /// The wire of client `id` homed at datacenter `dc`.
    pub fn new(dc: usize, id: u32, cfg: Rc<ClusterConfig>, metrics: GeoMetrics) -> Self {
        EventualWire {
            dc,
            id,
            pending_key: 0,
            cfg,
            metrics,
        }
    }

    /// Takes a reply apart into `(is_update, vts)`, appending it to the
    /// session log when that is on; `None` for any other message.
    fn reply(&self, msg: Msg, now: SimTime) -> Option<(bool, VectorTime)> {
        let (is_update, origin, vts) = match msg {
            Msg::ReadReply { vts, origin, .. } => (false, origin.0, vts),
            Msg::UpdateReply { vts } => (true, self.dc as u16, vts),
            _ => return None,
        };
        if self.cfg.track_sessions {
            self.metrics.record_session(SessionRecord {
                dc: self.dc as u16,
                client: self.id,
                key: self.pending_key,
                is_update,
                origin,
                vts: vts.as_ticks(),
                at: now,
            });
        }
        Some((is_update, vts))
    }
}

impl ClientWire for EventualWire {
    type Msg = Msg;

    /// Under partial replication, clients access only keys their home
    /// datacenter stores (remote reads are out of scope, as in Practi's
    /// partial-replication reads-go-home model).
    fn stores(&self, key: Key) -> bool {
        self.cfg
            .replication_factor
            .is_none_or(|rf| ring::replicates(key, self.dc, self.cfg.n_dcs, rf))
    }

    fn read(&mut self, key: Key) -> Msg {
        self.pending_key = key.0;
        Msg::Read { key }
    }

    fn update(&mut self, key: Key, value: Value) -> Msg {
        self.pending_key = key.0;
        let deps = VectorTime::new(self.cfg.n_dcs);
        Msg::Update { key, value, deps }
    }

    fn on_reply(&mut self, msg: Msg, now: SimTime) -> bool {
        self.reply(msg, now).is_some()
    }

    fn digest(&self, h: &mut dyn Hasher) {
        h.write_u32(self.id);
        h.write_u64(self.pending_key);
    }
}

/// EunomiaKV's client: Eventual's, plus a vector session (§4) whose whole
/// causal past rides on every update.
pub struct EunomiaKvWire {
    base: EventualWire,
    session: ClientState,
}

impl EunomiaKvWire {
    /// The wire of client `id` homed at datacenter `dc`.
    pub fn new(dc: usize, id: u32, cfg: Rc<ClusterConfig>, metrics: GeoMetrics) -> Self {
        EunomiaKvWire {
            session: ClientState::new(DcId(dc as u16), cfg.n_dcs),
            base: EventualWire::new(dc, id, cfg, metrics),
        }
    }
}

impl ClientWire for EunomiaKvWire {
    type Msg = Msg;

    fn stores(&self, key: Key) -> bool {
        self.base.stores(key)
    }

    fn read(&mut self, key: Key) -> Msg {
        self.base.read(key)
    }

    fn update(&mut self, key: Key, value: Value) -> Msg {
        self.base.pending_key = key.0;
        let deps = self.session.vclock().clone();
        Msg::Update { key, value, deps }
    }

    fn on_reply(&mut self, msg: Msg, now: SimTime) -> bool {
        match self.base.reply(msg, now) {
            Some((false, vts)) => self.session.on_read_reply(&vts),
            Some((true, vts)) => self.session.on_update_reply(vts),
            None => return false,
        }
        true
    }

    fn digest(&self, h: &mut dyn Hasher) {
        self.session.state_digest(h);
        self.base.digest(h);
    }
}
