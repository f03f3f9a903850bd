//! Threaded Eunomia service with optional replication and crash injection.
//!
//! Topology per run:
//!
//! * `feeders` logical partition lanes, driven by
//!   `feeders / lanes_per_feeder` producer threads. Each thread owns a
//!   [`MuxSender`] — the paper's proxy deployment, one node fronting many
//!   partitions: per lane it stamps operation ids with a [`ScalarHlc`]
//!   (the §5 id-only metadata — payloads travel the data path and never
//!   touch Eunomia) and keeps the lane's unacknowledged ids in an ordered
//!   window ring, while the thread shares one pooled id budget, one grant
//!   ring, and one park/unpark doorbell across all its lanes. Every
//!   `batch_interval` it ships each replica one flat [`BatchFrame`] per
//!   lane with pending ids; frames carry the lane tag, so the replica's
//!   dedup semantics are identical to one-thread-per-lane.
//! * `replicas` service replicas, each one stabilization thread (the
//!   paper's Alg. 4 loop) owning the whole lane table as a
//!   [`ShardedReplicaState`]: it drains its frame ring in batches, dedups
//!   by per-lane watermark (one binary search per frame, not one probe
//!   per id) and coalesces the sweep's acks into one [`GrantBatch`] per
//!   feeder thread. Every `theta` it reads the stable cutoff — the
//!   minimum of the lanes' latest timestamps, kept by a tournament tree —
//!   and, on the current leader, drains the stable prefix up to it. The
//!   leader is the lowest-indexed replica with a fresh liveness beat, so
//!   killing it fails over after roughly `omega_timeout`; a killed
//!   replica can be revived mid-run ([`EunomiaBenchConfig::revives`]) and
//!   rejoins by resend from the feeders' window floors (state transfer,
//!   not replay).
//!
//! # Flow control: credits, not drops
//!
//! Every ack a replica returns is a
//! [`CreditGrant`](eunomia_core::shard::CreditGrant): its watermark plus
//! how many more ids it will accept from that lane
//! (`credit = (budget - lane_backlog) * (1 - queue_fill)`, see
//! [`ShardedReplicaState::advertise`]) and a pressure byte (ingest-ring
//! fill). Feeders honour the grant — a lane whose credit is exhausted
//! ships nothing and waits for the replica's doorbell instead of
//! blind-resending. The retransmission timeout survives only as a safety
//! net for lost grants.
//!
//! When a lane ships is an **age bound**: once its oldest unsent id has
//! waited the coalesce deadline (`8 x batch_interval`), everything the
//! credit admits ships. An id waits from when it fell due: for a
//! rate-limited lane that is its place in the `feeder_rate` schedule, not
//! the moment the feeder got round to stamping it. Before the deadline,
//! pressure sets a floor: as the replica's ring fills, a lane holds small
//! frames back until it has a full frame's worth (throughput); at no
//! pressure a closed-loop lane ships at once (latency), while a
//! rate-limited lane still waits for the deadline, so it ships about one
//! frame per deadline instead of one per dribble. A rate-limited feeder
//! thread sleeps until its earliest lane deadline.
//!
//! # Grant batching: one doorbell per feeder thread, not per lane
//!
//! Acks are not sent per frame: a replica folds every grant of one drain
//! sweep into a single [`GrantBatch`] ring entry per feeder thread (max
//! ack, latest credit per lane) and rings that thread's doorbell at most
//! once per batch — only when the thread has published that it is
//! blocked on grants (closed loop, window or soft cap full, a lane
//! starved of credit, a full ring), and only when the batch carries a
//! credit worth a context switch (per-frame grants) or a lane's window
//! crossed the reopening edge (theta re-advertisements). A thread pacing
//! on its own deadlines picks its grants up when it wakes. At 1024 lanes
//! the per-lane doorbell storm used to starve the very drain that refills
//! the credits; one enqueue + at most one unpark amortized over all lanes
//! a thread owns is what breaks that knee. The other way round, a feeder
//! rings a replica's thread once per `DRAIN_MAX` frames it ships it and
//! at the end of each pass, so the replica wakes to a batch of frames
//! rather than chasing the pass frame by frame.
//!
//! Throughput is counted at stabilization (operations leaving the service
//! towards remote datacenters), the same quantity the paper plots.
//! [`run_eunomia_service_with_stats`] additionally returns the
//! [`ServiceStats`] the hot path accumulates: ids/s at stabilization,
//! batch-size and stabilization-latency distributions, theta sweep
//! timings, grant-batch occupancy, the flow-control signals (credit
//! stalls, retransmitted ids, the advertised-window timeline, frames the
//! pressure floor held back), and how far the feeders fell behind their
//! schedule.

use crate::ThroughputTimeline;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use eunomia_core::ids::{PartitionId, ReplicaId};
use eunomia_core::shard::{BatchFrame, GrantBatch, GrantCoalescer, MuxSender, ShardedReplicaState};
use eunomia_core::time::{ScalarHlc, Timestamp};
use eunomia_stats::ServiceStats;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Configuration for one service-throughput run.
#[derive(Clone, Debug)]
pub struct EunomiaBenchConfig {
    /// Number of logical feeder lanes (partitions). Each lane is one
    /// bounded operation stream; `lanes_per_feeder` controls how many of
    /// them share one OS thread.
    pub feeders: usize,
    /// Logical lanes multiplexed onto one feeder thread (the paper's
    /// proxy model: one node fronts many partitions). `1` reproduces the
    /// thread-per-lane deployment; the spawned thread count is
    /// `feeders.div_ceil(lanes_per_feeder)`.
    pub lanes_per_feeder: usize,
    /// Number of Eunomia replicas (1 = the non-fault-tolerant service).
    pub replicas: usize,
    /// Stabilization threads per replica. The only accepted value is `1`:
    /// each replica runs one stabilization loop over all its lanes, and
    /// [`run_eunomia_service_with_stats`] rejects any other value.
    pub stabilizers: usize,
    /// Measured duration.
    pub duration: Duration,
    /// Feeder batching interval (the paper uses 1 ms).
    pub batch_interval: Duration,
    /// Stabilization period θ.
    pub theta: Duration,
    /// Maximum unacknowledged ids per lane (backpressure bound). A mux
    /// thread pools this: its budget is `window_cap x lanes`, any single
    /// lane may borrow up to `2 x window_cap` of it.
    pub window_cap: usize,
    /// Per-lane credit budget at each replica: the most
    /// accepted-but-unstable ids a replica buffers for one lane before
    /// its advertised credit reaches zero. By Little's law the budget
    /// caps per-lane throughput at `credit_budget / stabilization
    /// latency`, so it must cover the lane's bandwidth-delay product —
    /// size it as a memory-exposure bound (the default is 16x the
    /// default window), not a rate limiter.
    pub credit_budget: usize,
    /// Ack-progress timeout after which a feeder re-ships a lane's
    /// unacknowledged ids (still inside the credit window) — the
    /// at-least-once safety net for lost grants.
    pub retransmit_after: Duration,
    /// Offered load per lane in ids/s; `None` means closed-loop (each
    /// lane generates as fast as its window drains — a capacity probe).
    /// The paper's deployment model is the rate-limited one: each lane
    /// is a datacenter partition with its own bounded operation stream,
    /// and scaling the partition count scales the offered load until the
    /// service saturates.
    pub feeder_rate: Option<u64>,
    /// Crash schedule: `(when, replica_index)`.
    pub crashes: Vec<(Duration, usize)>,
    /// Revival schedule: `(when, replica_index)`. A revived replica
    /// restarts with fresh state and rejoins by resend from each lane's
    /// window floor (the `mark_alive` state-transfer contract); pair with
    /// `crashes` for kill/restart fault cells.
    pub revives: Vec<(Duration, usize)>,
    /// Liveness timeout for leader fail-over.
    pub omega_timeout: Duration,
}

impl Default for EunomiaBenchConfig {
    fn default() -> Self {
        EunomiaBenchConfig {
            feeders: 16,
            lanes_per_feeder: 1,
            replicas: 1,
            stabilizers: 1,
            duration: Duration::from_secs(3),
            batch_interval: Duration::from_millis(1),
            theta: Duration::from_millis(1),
            window_cap: 4096,
            credit_budget: 65536,
            retransmit_after: Duration::from_secs(5),
            feeder_rate: None,
            crashes: Vec::new(),
            revives: Vec::new(),
            omega_timeout: Duration::from_millis(100),
        }
    }
}

enum ToReplica {
    Frame(BatchFrame),
    Stop,
}

/// Frames drained per replica wake. Small enough that a saturated
/// replica still checks the θ clock every few milliseconds (a 256-frame
/// sweep is ~15 ms of ingest — late θ ticks inflate the unstable
/// backlog and stabilization latency), large enough to amortize the
/// ring's batch drain. Feeders ring a replica once per this many frames,
/// so each wake finds a full sweep's worth waiting.
const DRAIN_MAX: usize = 64;

/// Hard cap on ids per frame, bounding the per-frame allocation.
const MAX_FRAME_IDS: usize = 4096;

/// The age bound (x `batch_interval`): how long a lane's oldest unsent
/// id may wait before the lane ships, whatever the pressure floor —
/// bounds the latency cost of coalescing for throughput.
const COALESCE_DEADLINE_INTERVALS: u32 = 8;

/// Geometry of one run: the lane-to-feeder-thread map shared by feeders,
/// replica threads, and the supervisor.
#[derive(Clone, Debug)]
struct Geometry {
    n_lanes: usize,
    lanes_per_feeder: usize,
    n_groups: usize,
}

impl Geometry {
    /// `cfg` must have passed [`run_eunomia_service_with_stats`]'s
    /// checks: every count positive.
    fn new(cfg: &EunomiaBenchConfig) -> Self {
        Geometry {
            n_lanes: cfg.feeders,
            lanes_per_feeder: cfg.lanes_per_feeder,
            n_groups: cfg.feeders.div_ceil(cfg.lanes_per_feeder),
        }
    }

    /// Feeder-thread group owning `lane`.
    fn group_of(&self, lane: usize) -> usize {
        lane / self.lanes_per_feeder
    }

    /// Lane range `[lo, hi)` of feeder-thread group `g`.
    fn group_lanes(&self, g: usize) -> (usize, usize) {
        let lo = g * self.lanes_per_feeder;
        (lo, ((g + 1) * self.lanes_per_feeder).min(self.n_lanes))
    }

    /// Capacity of one replica's frame ring. Scales with the lane count:
    /// shallower rings concentrate producer contention on the ring's
    /// head, which costs more than the queued frames' cache footprint
    /// saves.
    fn ring_capacity(&self) -> usize {
        (self.n_lanes * 4).max(16)
    }
}

struct Shared {
    stop: AtomicBool,
    alive: Vec<AtomicBool>,
    beats: Vec<AtomicU64>,
    /// Highest stable time any leader has published — what followers
    /// discard by, and the count-once guard across overlapping leaders
    /// during fail-over.
    stable_published: AtomicU64,
    stabilized: AtomicU64,
    /// Per feeder thread: whether it waits on grants (see `feeder_loop`).
    /// Replicas ring the doorbell of a blocked thread only; one that is
    /// pacing on its own deadlines picks its grants up when it wakes.
    feeder_blocked: Vec<AtomicBool>,
    /// Per replica: its running stabilization thread, for the feeders'
    /// frame doorbell (a revived replica registers its new thread).
    replica_threads: Vec<Mutex<Option<Thread>>>,
    epoch: Instant,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Wakes replica `r`'s stabilization thread, if it has one.
    fn ring_replica(&self, r: usize) {
        if let Some(t) = &*self.replica_threads[r]
            .lock()
            .expect("replica thread slot poisoned")
        {
            t.unpark();
        }
    }

    /// Leader as seen by replica `me`: the lowest-indexed live replica
    /// with a fresh beat. A replica executing this check is trivially
    /// alive to itself — the beat freshness test applies only to *other*
    /// replicas, else a tick delayed past `omega_timeout` by ingest load
    /// makes a lone replica disown its own leadership and stabilization
    /// halts. `None` while everyone looks dead.
    fn leader(&self, me: usize, omega_timeout: Duration) -> Option<usize> {
        let now = self.now_ns();
        let timeout = omega_timeout.as_nanos() as u64;
        (0..self.alive.len()).find(|&r| {
            self.alive[r].load(Ordering::Relaxed)
                && (r == me || now.saturating_sub(self.beats[r].load(Ordering::Relaxed)) <= timeout)
        })
    }
}

/// `due_since` value of a (lane, replica) pair with nothing unsent.
const NOTHING_UNSENT: u64 = u64::MAX;

/// The pressure floor of a (lane, replica) pair: how many sendable ids
/// a lane holds back for while the replica's ingest ring is filling.
/// Zero at no pressure, a full frame at a full ring; never more than the
/// replica's credit admits or a window holds, or it could never be met.
fn pressure_floor(pressure: u8, credit: u32, window_cap: usize) -> usize {
    (pressure as usize * MAX_FRAME_IDS / 255)
        .min(credit as usize)
        .min(window_cap)
}

/// Whether a lane ships its unsent ids to a replica in this pass.
///
/// `sendable` is what the replica's credit window admits, `waited` how
/// long the oldest unsent id has been due, `floor` the
/// [`pressure_floor`]. Nothing ships without credit. Once the oldest id
/// has waited `deadline`, everything sendable ships. Before that a
/// closed-loop lane ships as soon as it meets the floor — at no
/// pressure, at once. A rate-limited lane holds for the deadline unless
/// pressure raised the floor and it is met: it offers a few ids per
/// millisecond, and shipping each dribble would cost a frame, a grant
/// and a wake per dribble.
fn ship_now(
    sendable: usize,
    waited: Duration,
    floor: usize,
    deadline: Duration,
    rate_limited: bool,
) -> bool {
    sendable > 0 && (waited >= deadline || (sendable >= floor && (floor > 0 || !rate_limited)))
}

/// One feeder thread driving `geo.group_lanes(group)` logical lanes
/// through a [`MuxSender`]: one pooled window budget, one grant ring,
/// one doorbell, one physical-clock read per pass.
#[allow(clippy::too_many_arguments)]
fn feeder_loop(
    group: usize,
    geo: &Geometry,
    cfg: &EunomiaBenchConfig,
    shared: &Shared,
    frame_txs: &[Sender<ToReplica>],
    grants: &Receiver<GrantBatch>,
    start: &Barrier,
) -> ServiceStats {
    let (lane_lo, lane_hi) = geo.group_lanes(group);
    let n_lanes = lane_hi - lane_lo;
    let n_replicas = cfg.replicas;
    let mut stats = ServiceStats::default();
    let mut mux = MuxSender::new(PartitionId(lane_lo as u32), n_lanes, n_replicas);
    let mut hlc: Vec<ScalarHlc> = vec![ScalarHlc::new(); n_lanes];
    let mut dead = vec![false; n_replicas];
    let mut grant_buf: Vec<GrantBatch> = Vec::with_capacity(8);
    // Per-replica pressure (last grant's ingest-ring fill, 0..=255); the
    // due clock and ack-progress clock are per (lane, replica) — flat
    // `lane * n_replicas + r` indexed.
    let mut pressure = vec![0u8; n_replicas];
    let slot = |lane: usize, r: usize| lane * n_replicas + r;
    // Pacing jitter (xorshift, seeded by group id): feeders sharing one
    // RTT phase-lock into convoys — everyone ships together, the replica
    // chews the burst, everyone sleeps together and the ring runs dry.
    // Randomizing each back-off sleep +/-a third keeps arrivals spread
    // out. Only closed-loop and blocked feeders back off; a rate-limited
    // feeder wakes at its lanes' deadlines, which need no jitter: only
    // the benchmark's single feeder thread runs rate-limited.
    // Audited, kept: convoys need several feeder threads and every
    // BENCHMARK.json workload runs one, so the benchmark sees only the
    // stretched sleeps. Without it (4 pairs, 10 s): svc-rate p50/p99
    // 2.4/24.1 -> 2.0/17.2 ms, cpu_ns_per_op 20.7 -> 21.7; svc-fanin
    // 22.2/96 -> 22.3/95 ms here, 22 -> 25 ms p50 in another set of 4
    // runs. Unresolved at that count; the multi-thread drivers it exists
    // for are `fig2`/`fig3`/`fig4` and `ablation_batching`, which run
    // 15-75 thread-per-lane feeders and are not in the benchmark.
    let mut jitter_state = (0x9E37_79B9_7F4A_7C15u64 ^ group as u64) | 1;
    let mut jitter = move |d: Duration| {
        jitter_state ^= jitter_state << 13;
        jitter_state ^= jitter_state >> 7;
        jitter_state ^= jitter_state << 17;
        d * (667 + (jitter_state % 667) as u32) / 1000
    };
    let coalesce_deadline = cfg.batch_interval * COALESCE_DEADLINE_INTERVALS;
    let deadline_ns = coalesce_deadline.as_nanos() as u64;
    // The pooled window budget: any lane may borrow up to 2x its own cap
    // from siblings the replica has throttled, but the thread as a whole
    // never holds more than `window_cap x lanes` unacknowledged ids.
    let pool_cap = cfg.window_cap * n_lanes;
    let lane_soft_cap = cfg.window_cap * 2;
    // Spare frame buffers (any lane): a frame that could not be sent
    // (ring full) hands its allocation back, so a saturated replica
    // costs a binary search + copy per interval, not an alloc too.
    let mut spares: Vec<Vec<Timestamp>> = Vec::new();
    let mut backoff = cfg.batch_interval;
    let mut rotate = 0usize;

    // Wait for every replica to come up before generating: without
    // the barrier the feeder fleet floods the rings while replicas are
    // still spawning, and the first seconds of the credit timeline show
    // zero-credit grants that are a startup artifact, not flow control.
    start.wait();
    let rate_start = shared.now_ns();
    // When id `k` of a rate-limited lane falls due on the shared clock.
    let due_at = |k: u64, rate: u64| rate_start + k.saturating_mul(1_000_000_000) / rate.max(1);
    let mut generated: Vec<u64> = vec![0; n_lanes];
    let mut last_ship = vec![Instant::now(); n_lanes * n_replicas];
    let mut last_progress = vec![Instant::now(); n_lanes * n_replicas];
    // When the oldest id not yet shipped to the replica fell due
    // (`NOTHING_UNSENT` when everything shipped): a rate-limited id is
    // due at its place in the lane's schedule, a closed-loop one when it
    // is stamped. An id waits from when it was due, not from when this
    // thread got round to stamping it.
    let mut due_since = vec![NOTHING_UNSENT; n_lanes * n_replicas];
    // Per-replica EWMA of the ship-to-grant round trip — the retransmit
    // threshold's unit and the park-timeout fallback of a blocked thread.
    let mut rtt_est = vec![cfg.batch_interval; n_replicas];
    // Frames shipped to each replica since its doorbell last rang.
    let mut unrung = vec![0usize; n_replicas];
    while !shared.stop.load(Ordering::Relaxed) {
        // Drain grant batches in one sweep; each batch carries at most
        // one folded grant per lane this thread owns.
        grant_buf.clear();
        grants.try_recv_batch(&mut grant_buf, usize::MAX);
        for batch in grant_buf.drain(..) {
            for lg in &batch.grants {
                let lane = lg.lane.index() - lane_lo;
                let r = lg.grant.replica.index();
                // Any grant is progress: the replica is alive and
                // talking, so the retransmission timeout (a lost-grant
                // safety net, not a liveness probe) must not fire merely
                // because the watermark paused while the replica drains
                // a deep ring.
                last_progress[slot(lane, r)] = Instant::now();
                pressure[r] = lg.grant.pressure;
                if lg.grant.ack > mux.ack_of(lane, lg.grant.replica) {
                    // Elapsed-since-last-ship under-estimates the true
                    // round trip when several frames are in flight; an
                    // EWMA biased low only shortens the park-timeout
                    // fallback, which is the safe direction.
                    let sample = last_ship[slot(lane, r)].elapsed();
                    rtt_est[r] = (rtt_est[r] * 7 + sample) / 8;
                }
                mux.on_grant(lane, lg.grant);
            }
        }
        // Crash/revival transitions, once per replica for all lanes.
        for (r, dead_flag) in dead.iter_mut().enumerate() {
            let alive = shared.alive[r].load(Ordering::Relaxed);
            if !*dead_flag && !alive {
                *dead_flag = true;
                mux.mark_dead(ReplicaId(r as u32));
            } else if *dead_flag && alive {
                // Revived: rejoin by resend from the window floor (state
                // transfer, not replay — `mark_alive`'s contract). The
                // resend is overdue.
                *dead_flag = false;
                mux.mark_alive(ReplicaId(r as u32));
                pressure[r] = 0;
                for lane in 0..n_lanes {
                    last_progress[slot(lane, r)] = Instant::now();
                    due_since[slot(lane, r)] = 0;
                }
            }
        }
        // Whether the thread waits on the replicas rather than on its own
        // schedule; a closed-loop thread always does.
        let mut blocked = cfg.feeder_rate.is_none();
        // Generate eagerly up to the pooled window budget (ids only,
        // §5). The physical clock is read once per pass; each lane's
        // HLC logical bump keeps its ids strictly monotone within the
        // burst. The rotating start index keeps pool borrowing fair.
        let mut pool_room = pool_cap.saturating_sub(mux.window_len());
        let physical = Timestamp(shared.now_ns());
        let entitled = cfg
            .feeder_rate
            .map(|rate| ((physical.0 - rate_start) as u128 * rate as u128 / 1_000_000_000) as u64);
        let mut behind_max = 0u64;
        for i in 0..n_lanes {
            let lane = (i + rotate) % n_lanes;
            let mut room = lane_soft_cap
                .saturating_sub(mux.lane_window_len(lane))
                .min(pool_room);
            let mut first_due = physical.0;
            if let (Some(entitled), Some(rate)) = (entitled, cfg.feeder_rate) {
                let behind = entitled.saturating_sub(generated[lane]);
                behind_max = behind_max.max(behind);
                // A lane held below its entitlement by its soft cap or
                // the pool waits on grants.
                blocked |= behind > room as u64;
                room = room.min(behind as usize);
                first_due = due_at(generated[lane], rate);
            }
            if room == 0 {
                continue;
            }
            for r in 0..n_replicas {
                let due = &mut due_since[slot(lane, r)];
                *due = (*due).min(first_due);
            }
            generated[lane] += room as u64;
            pool_room -= room;
            let first = hlc[lane].tick_local_run(physical, room as u64);
            mux.push_run(lane, first, room);
        }
        rotate = rotate.wrapping_add(1);
        if let Some(rate) = cfg.feeder_rate {
            let lag = behind_max.saturating_mul(1_000_000_000) / rate.max(1);
            stats.feeder_lag_peak_ns = stats.feeder_lag_peak_ns.max(lag);
        }
        blocked |= mux.window_len() >= pool_cap;
        // Ship per-(lane, replica) frames, honouring each credit window,
        // and find the earliest moment a held lane falls due.
        let mut sent_something = false;
        let mut next_due = NOTHING_UNSENT;
        unrung.fill(0);
        for (lane, clock) in hlc.iter_mut().enumerate() {
            let heartbeat = if mux.lane_window_len(lane) == 0
                && clock.heartbeat_due(physical, cfg.batch_interval.as_nanos() as u64)
            {
                Some(clock.heartbeat(Timestamp(shared.now_ns())))
            } else {
                None
            };
            for (r, tx) in frame_txs.iter().enumerate() {
                if dead[r] {
                    continue;
                }
                let rid = ReplicaId(r as u32);
                let s = slot(lane, r);
                // The retransmission timeout scales with the observed
                // round trip: a fixed constant misfires the moment
                // scheduling delay exceeds it, and every misfire is a
                // duplicate storm in miniature.
                let timed_out = mux.in_flight(lane, rid) > 0
                    && last_progress[s].elapsed() > cfg.retransmit_after.max(rtt_est[r] * 8);
                let sendable = mux.sendable(lane, rid);
                if sendable == 0 && !timed_out && heartbeat.is_none() {
                    // EXHAUSTED: the credit window admits nothing. Park
                    // the lane; the replica re-advertises on its theta
                    // tick and rings this thread's doorbell.
                    if mux.starved(lane, rid) {
                        stats.credit_stalls += 1;
                        blocked = true;
                    } else {
                        due_since[s] = NOTHING_UNSENT;
                    }
                    continue;
                }
                // The age bound: a lane ships once its oldest unsent id
                // has waited the coalesce deadline, or earlier when it
                // meets the pressure floor (see `ship_now`).
                // Audited (10 alternating pairs, 10 s), this rule with
                // the batched replica doorbell and run pushes against the
                // quarter-frame accrual floor it replaced: svc-fanin
                // p50/p99 24.3/103 -> 4.1/6.8 ms and cpu_ns_per_op
                // 12.6 -> 9.7; svc-rate 2.4/25.1 -> 1.1/1.9 ms and
                // 30.6 -> 20.9. Shipping whatever is sendable, with no
                // age bound, had taken the accrual floor's 22.4/98.7 ms
                // (svc-fanin) and 2.1/24.6 ms (svc-rate) to 1.7/5.0 and
                // 0.69/3.8 ms, but cpu_ns_per_op from 11.6 to 18.7 and
                // from 24.8 to 289 (4 pairs): a grant and a doorbell per
                // dribble.
                let floor = pressure_floor(pressure[r], mux.credit_of(lane, rid), cfg.window_cap);
                let waited = Duration::from_nanos(physical.0.saturating_sub(due_since[s]));
                if !timed_out
                    && heartbeat.is_none()
                    && !ship_now(
                        sendable,
                        waited,
                        floor,
                        coalesce_deadline,
                        cfg.feeder_rate.is_some(),
                    )
                {
                    next_due = next_due.min(due_since[s].saturating_add(deadline_ns));
                    continue;
                }
                let floor_ts = if timed_out {
                    last_progress[s] = Instant::now();
                    Timestamp::ZERO // Re-ship everything unacked (credit-bounded).
                } else {
                    mux.sent_of(lane, rid) // New ids only.
                };
                let sent_before = mux.sent_of(lane, rid);
                let spare = spares.pop().unwrap_or_default();
                let frame = mux.build_frame(lane, rid, floor_ts, heartbeat, MAX_FRAME_IDS, spare);
                if frame.ids.is_empty() && heartbeat.is_none() {
                    spares.push(frame.ids);
                    continue;
                }
                let newest = frame.ids.last().copied();
                let resent = frame.ids.partition_point(|&ts| ts <= sent_before) as u64;
                // A full channel defers the frame; nothing is counted as
                // sent (`note_sent` advances only on success: skipping
                // ids would break the contiguous-suffix contract the
                // watermark dedup relies on), so the next pass re-builds
                // the same suffix — woken by the replica's grants.
                match tx.try_send(ToReplica::Frame(frame)) {
                    Ok(()) => {
                        sent_something = true;
                        last_ship[s] = Instant::now();
                        unrung[r] += 1;
                        if unrung[r] == DRAIN_MAX {
                            shared.ring_replica(r);
                            unrung[r] = 0;
                        }
                        stats.retransmitted_ids += resent;
                        if floor > 0 {
                            stats.pressure_floor_frames += 1;
                        }
                        if let Some(ts) = newest {
                            mux.note_sent(lane, rid, ts);
                        }
                        // A frame cut short by the credit window leaves
                        // the lane waiting on grants; one cut at the
                        // frame cap is still due.
                        if mux.unsent(lane, rid) == 0 {
                            due_since[s] = NOTHING_UNSENT;
                        } else if mux.sendable(lane, rid) == 0 {
                            blocked = true;
                        } else {
                            next_due = next_due.min(due_since[s].saturating_add(deadline_ns));
                        }
                    }
                    Err(TrySendError::Full(ToReplica::Frame(f)))
                    | Err(TrySendError::Disconnected(ToReplica::Frame(f))) => {
                        stats.ring_full_stalls += 1;
                        spares.push(f.ids);
                        blocked = true;
                    }
                    Err(_) => {}
                }
            }
        }
        for (r, &n) in unrung.iter().enumerate() {
            if n > 0 {
                shared.ring_replica(r);
            }
        }
        // A rate-limited lane with nothing unsent falls due again when
        // its next id does, a deadline later; lanes at their soft cap
        // wait on grants instead.
        if let (Some(rate), Some(entitled)) = (cfg.feeder_rate, entitled) {
            if generated.iter().any(|&g| g >= entitled) {
                next_due = next_due.min(due_at(entitled, rate).saturating_add(deadline_ns));
            }
        }
        // Pacing. A thread that is not blocked sleeps until its earliest
        // deadline: grants for what it shipped wait in its ring, and no
        // doorbell wakes it for them. A blocked thread — closed loop,
        // window or soft cap full, a lane starved of credit, a replica's
        // ring full — waits on the replicas: they unpark it when they
        // enqueue a grant batch worth a wake, so its park timeout is
        // only a fallback (lost grant, dead replica). A pass that
        // neither shipped nor heard grants backs off exponentially
        // instead of stealing CPU from the service on small hosts (the
        // paper's feeders are separate machines).
        backoff = if sent_something {
            let next_grant = dead
                .iter()
                .zip(&rtt_est)
                .filter(|(d, _)| !**d)
                .map(|(_, rtt)| *rtt * 2)
                .min()
                .unwrap_or(cfg.batch_interval);
            next_grant.clamp(cfg.batch_interval, cfg.batch_interval * 64)
        } else {
            // Shipped nothing: every wake until some window reopens is a
            // context switch taken from the replica that would have
            // refilled the credits, so back off exponentially. Hearing a
            // grant is no reason to reset — an actionable grant would
            // have made the ship loop send (the branch above); a
            // zero-credit grant is just the replica saying "still full".
            // Starved lanes are woken by the grant doorbell, not the
            // clock — they may park for whole seconds without adding
            // latency.
            (backoff * 2).min(cfg.batch_interval * 1024)
        };
        let until_due = (cfg.feeder_rate.is_some() && next_due != NOTHING_UNSENT)
            .then(|| Duration::from_nanos(next_due.saturating_sub(shared.now_ns())));
        let park = match until_due {
            Some(d) if !blocked => d,
            Some(d) => jitter(backoff).min(d),
            None => jitter(backoff),
        };
        // Publish the flag before parking. On becoming blocked, look at
        // the grant ring once more: a batch a replica enqueued before it
        // could see the flag rang no doorbell (pairs with the fence in
        // `replica_loop`).
        let was_blocked = shared.feeder_blocked[group].swap(blocked, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if !(blocked && !was_blocked && !grants.is_empty()) {
            std::thread::park_timeout(park);
        }
    }
    if let (Some(rate), Some(&least)) = (cfg.feeder_rate, generated.iter().min()) {
        stats.feeder_lag_at_stop_ns = shared.now_ns().saturating_sub(due_at(least, rate));
        stats.feeder_lag_peak_ns = stats.feeder_lag_peak_ns.max(stats.feeder_lag_at_stop_ns);
    }
    stats
}

/// The stabilization thread of replica `me`: its frame ring and a
/// [`ShardedReplicaState`] over every lane. Grants are coalesced per
/// feeder-thread group and flushed as one [`GrantBatch`] (plus at most
/// one doorbell unpark, for a thread blocked on grants) per sweep.
#[allow(clippy::too_many_arguments)]
fn replica_loop(
    me: usize,
    geo: &Geometry,
    cfg: &EunomiaBenchConfig,
    shared: &Shared,
    rx: &Receiver<ToReplica>,
    grant_txs: &[Sender<GrantBatch>],
    feeders: &[std::thread::Thread],
    start: Option<&Barrier>,
) -> ServiceStats {
    let mut state = ShardedReplicaState::new(ReplicaId(me as u32), geo.n_lanes);
    let mut stats = ServiceStats::default();
    let mut frames: Vec<ToReplica> = Vec::with_capacity(DRAIN_MAX);
    let mut latency_scratch: Vec<u64> = Vec::new();
    let ring_cap = geo.ring_capacity() as f64;
    let budget = cfg.credit_budget.min(u32::MAX as usize) as u32;
    // Last credit advertised per lane. Starting at zero makes the
    // first theta tick advertise every lane — on a fresh start that is
    // the opening grant, and on revival it is what tells parked feeders
    // the replica is back without them having to poll.
    let mut advertised: Vec<u32> = vec![0; geo.n_lanes];
    // One grant coalescer per feeder-thread group, plus its
    // doorbell-worthiness flag and a spare batch allocation.
    let mut coalescers: Vec<GrantCoalescer> = (0..geo.n_groups)
        .map(|g| {
            let (lo, hi) = geo.group_lanes(g);
            GrantCoalescer::new(PartitionId(lo as u32), hi - lo)
        })
        .collect();
    let mut ring_worthy = vec![false; geo.n_groups];
    let mut batch_spares: Vec<GrantBatch> = Vec::new();
    let reopen = (MAX_FRAME_IDS / 4) as u32;
    *shared.replica_threads[me]
        .lock()
        .expect("replica thread slot poisoned") = Some(std::thread::current());
    if let Some(b) = start {
        b.wait();
    }
    let mut next_theta = Instant::now() + cfg.theta;
    'run: loop {
        if shared.stop.load(Ordering::Relaxed) || !shared.alive[me].load(Ordering::Relaxed) {
            break 'run;
        }
        // Batch ingestion: drain whatever is queued in one sweep; park
        // until the next θ tick only when the ring is empty.
        frames.clear();
        stats.queue_depth_high_water = stats.queue_depth_high_water.max(rx.len() as u64);
        if rx.try_recv_batch(&mut frames, DRAIN_MAX) == 0 {
            // Yield once before parking: what this thread waits for is
            // often a time slice away on a busy host, and finding it then
            // costs less than a park and an unpark. Feeders ring this
            // thread once per `DRAIN_MAX` frames they ship it and at the
            // end of each pass, so it wakes to a batch instead of chasing
            // a pass frame by frame.
            std::thread::yield_now();
            if rx.try_recv_batch(&mut frames, DRAIN_MAX) == 0 {
                std::thread::park_timeout(next_theta.saturating_duration_since(Instant::now()));
                rx.try_recv_batch(&mut frames, DRAIN_MAX);
            }
        }
        let ring_still_deep = frames.len() == DRAIN_MAX;
        // Beat per sweep, not just per theta tick: a replica buried in
        // ingest is alive, and its peers must not steal leadership from
        // it merely because its theta clock ran late.
        shared.beats[me].store(shared.now_ns(), Ordering::Relaxed);
        let fill = rx.len() as f64 / ring_cap;
        for msg in frames.drain(..) {
            let frame = match msg {
                ToReplica::Frame(f) => f,
                ToReplica::Stop => break 'run,
            };
            let lane = frame.partition;
            let n_ids = frame.ids.len() as u64;
            state
                .ingest_owned(frame)
                .expect("bench wiring guarantees valid partitions");
            stats.frames += 1;
            stats.batch_sizes.record(n_ids);
            // Watermark + credit in one grant: the ack the feeder prunes
            // by, the window it may fill, the pressure it sizes frames
            // by. Not sent per frame — folded into this sweep's batch for
            // the owning feeder thread (max ack, latest credit), flushed
            // below as one ring entry + at most one doorbell unpark.
            if let Some(mut grant) = state.advertise(lane, fill, budget) {
                grant.pressure = (fill * 255.0) as u8;
                advertised[lane.index()] = grant.credit;
                let g = geo.group_of(lane.index());
                coalescers[g].note(lane, grant);
                // A per-frame grant is doorbell-worthy when the credit is
                // worth a context switch: unparking a thousand overloaded
                // lanes to hand each a zero is a wake storm that starves
                // the very drain that would refill the credits.
                if grant.credit >= reopen {
                    ring_worthy[g] = true;
                }
            }
        }
        let theta_ticked = Instant::now() >= next_theta;
        if theta_ticked {
            let sweep_start = Instant::now();
            next_theta = sweep_start + cfg.theta;
            shared.beats[me].store(shared.now_ns(), Ordering::Relaxed);
            let leader = shared.leader(me, cfg.omega_timeout);
            state.set_leader(ReplicaId(leader.unwrap_or(me) as u32));
            if leader == Some(me) {
                // Tentatively drain up to the stable cutoff, buffering
                // 1-in-64 sampled latencies (a drain can cover tens of
                // millions of ids; a per-id sample vector is tens of
                // megabytes re-written every sweep and evicts the very
                // backlog chunks the drain is scanning). Count and flush
                // the samples only if this drain advanced the globally
                // published stable time, so overlapping leaders during
                // fail-over can neither double-count nor double-sample
                // the histogram.
                let now = shared.now_ns();
                latency_scratch.clear();
                let scratch = &mut latency_scratch;
                let mut emitted = 0u64;
                let stable = state.leader_process_stable_with(|_, ts| {
                    if emitted.is_multiple_of(64) {
                        scratch.push(now.saturating_sub(ts.0));
                    }
                    emitted += 1;
                });
                if let Some(stable) = stable {
                    let prev = shared
                        .stable_published
                        .fetch_max(stable.0, Ordering::SeqCst);
                    if prev < stable.0 {
                        stats.stabilized_ids += emitted;
                        shared.stabilized.fetch_add(emitted, Ordering::Relaxed);
                        for &ns in &latency_scratch {
                            stats.stabilization_latency.record(ns);
                        }
                    }
                }
            } else {
                let stable = Timestamp(shared.stable_published.load(Ordering::Relaxed));
                state.apply_stable(stable);
            }
            // Re-advertise throttled lanes: stabilization just freed
            // backlog (and the drain above freed ring slots), so parked
            // feeders learn their window reopened without polling. Lanes
            // advertised at half the budget or more are still OPEN and
            // will be refreshed by their own next frame's grant.
            let fill = rx.len() as f64 / ring_cap;
            for (lane, adv) in advertised.iter_mut().enumerate() {
                if *adv >= budget / 2 {
                    continue;
                }
                if let Some(grant) = state.advertise(PartitionId(lane as u32), fill, budget) {
                    // Ring the doorbell only on the reopening *edge*: a
                    // lane already holding workable credit is pacing on
                    // its own schedule, and re-waking every throttled lane
                    // every tick is the wake storm all over again.
                    let reopened = *adv < reopen && grant.credit >= reopen;
                    *adv = grant.credit;
                    let g = geo.group_of(lane);
                    coalescers[g].note(PartitionId(lane as u32), grant);
                    if reopened {
                        ring_worthy[g] = true;
                    }
                }
            }
            stats
                .theta_sweep_ns
                .record(sweep_start.elapsed().as_nanos() as u64);
        }
        // Flush the coalesced grants: one ring entry per feeder thread
        // with pending grants, one doorbell unpark at most — however
        // many lanes and frames were covered. While the ring stays deep
        // the flush is deferred (bounded by the theta tick): under
        // backlog each batch then folds a whole interval's worth of a
        // thread's lanes instead of one ring entry per 64-frame sweep.
        if !ring_still_deep || theta_ticked {
            for (g, coalescer) in coalescers.iter_mut().enumerate() {
                let Some(batch) = coalescer.drain(batch_spares.pop().unwrap_or_default()) else {
                    continue;
                };
                let sec = (shared.now_ns() / 1_000_000_000) as usize;
                for lg in &batch.grants {
                    stats.advertised_credits.record(lg.grant.credit as u64);
                    stats.record_credit(sec, lg.grant.credit as u64);
                }
                let worthy = ring_worthy[g] && batch.workable(reopen);
                let lanes_in_batch = batch.grants.len() as u64;
                match grant_txs[g].try_send(batch) {
                    Ok(()) => {
                        stats.grant_batches += 1;
                        stats.grant_batch_lanes.record(lanes_in_batch);
                        // Pairs with the feeder's fence between
                        // publishing its flag and its last look at the
                        // ring: either it sees this batch or this sees
                        // it blocked.
                        fence(Ordering::SeqCst);
                        if worthy && shared.feeder_blocked[g].load(Ordering::SeqCst) {
                            feeders[g].unpark();
                            stats.doorbell_unparks += 1;
                        }
                        ring_worthy[g] = false;
                    }
                    Err(TrySendError::Full(b)) | Err(TrySendError::Disconnected(b)) => {
                        // Grant ring full: put the grants back (without
                        // clobbering anything fresher) so the next sweep
                        // retries; keep the doorbell flag so the retry still
                        // rings it.
                        coalescer.restore(&b);
                        batch_spares.push(b);
                    }
                }
            }
        }
    }
    stats.accepted_ids = state.total_accepted();
    stats.duplicate_ids = state.total_duplicates();
    stats
}

/// Runs the threaded Eunomia service benchmark.
///
/// Returns the per-second stabilization timeline. With `cfg.crashes`
/// non-empty, replicas die at the scheduled offsets (the Fig. 4 setup);
/// `cfg.revives` restarts them.
pub fn run_eunomia_service(cfg: &EunomiaBenchConfig) -> ThroughputTimeline {
    run_eunomia_service_with_stats(cfg).0
}

/// Runs the threaded Eunomia service benchmark and also returns the
/// merged [`ServiceStats`] of all feeder and stabilizer threads (batch
/// sizes, queue depths, stabilization latency, theta sweep timings,
/// grant-batch occupancy, ids/s).
pub fn run_eunomia_service_with_stats(
    cfg: &EunomiaBenchConfig,
) -> (ThroughputTimeline, ServiceStats) {
    assert!(
        cfg.feeders > 0 && cfg.replicas > 0,
        "need feeders and replicas"
    );
    assert!(
        cfg.lanes_per_feeder > 0,
        "need at least one lane per feeder thread"
    );
    assert!(
        cfg.stabilizers == 1,
        "{} stabilizers per replica: each replica runs one stabilization thread, so only 1 is accepted",
        cfg.stabilizers
    );
    let geo = Arc::new(Geometry::new(cfg));
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        alive: (0..cfg.replicas).map(|_| AtomicBool::new(true)).collect(),
        beats: (0..cfg.replicas).map(|_| AtomicU64::new(0)).collect(),
        stable_published: AtomicU64::new(0),
        stabilized: AtomicU64::new(0),
        feeder_blocked: (0..geo.n_groups).map(|_| AtomicBool::new(true)).collect(),
        replica_threads: (0..cfg.replicas).map(|_| Mutex::new(None)).collect(),
        epoch: Instant::now(),
    });

    // Frame rings: one per replica.
    let (frame_txs, frame_rxs): (Vec<Sender<ToReplica>>, Vec<Receiver<ToReplica>>) = (0..cfg
        .replicas)
        .map(|_| bounded::<ToReplica>(geo.ring_capacity()))
        .unzip();
    // Grant rings: one per feeder thread, carrying coalesced batches from
    // every replica. Batches supersede per lane (and a failed send is
    // restored into the next sweep's batch), so the ring only needs to
    // cover the replicas' natural burstiness.
    let (grant_txs, grant_rxs): (Vec<Sender<GrantBatch>>, Vec<Receiver<GrantBatch>>) = (0..geo
        .n_groups)
        .map(|_| bounded::<GrantBatch>((cfg.replicas * 8).max(32)))
        .unzip();

    // The start barrier covers every feeder, every replica, and the
    // supervisor: measurement (and generation) begins only once the
    // whole topology is up. Without it the feeder fleet spawns first,
    // floods the rings, and the first seconds of every run measure the
    // spawn storm instead of the service.
    let start = Arc::new(Barrier::new(geo.n_groups + cfg.replicas + 1));

    // Feeders first: replicas need their `Thread` handles to ring the
    // grant doorbell (`unpark`) when a credit window reopens.
    let mut feeder_handles = Vec::new();
    for (g, rx) in grant_rxs.into_iter().enumerate() {
        let cfg = cfg.clone();
        let geo = geo.clone();
        let shared = shared.clone();
        let txs = frame_txs.clone();
        let start = start.clone();
        feeder_handles.push(std::thread::spawn(move || {
            feeder_loop(g, &geo, &cfg, &shared, &txs, &rx, &start)
        }));
    }
    let feeder_threads: Arc<Vec<std::thread::Thread>> =
        Arc::new(feeder_handles.iter().map(|h| h.thread().clone()).collect());
    let spawn_replica = |me: usize, with_barrier: bool| {
        let cfg = cfg.clone();
        let geo = geo.clone();
        let shared = shared.clone();
        let rx = frame_rxs[me].clone();
        let grant_txs = grant_txs.clone();
        let feeder_threads = feeder_threads.clone();
        let start = with_barrier.then(|| start.clone());
        std::thread::spawn(move || {
            replica_loop(
                me,
                &geo,
                &cfg,
                &shared,
                &rx,
                &grant_txs,
                &feeder_threads,
                start.as_deref(),
            )
        })
    };
    let mut replica_handles: Vec<Option<std::thread::JoinHandle<ServiceStats>>> = (0..cfg.replicas)
        .map(|me| Some(spawn_replica(me, true)))
        .collect();
    start.wait();

    // Sampling + crash/revival-injection loop.
    let start_t = Instant::now();
    let mut per_second = Vec::new();
    let mut last_count = 0u64;
    let mut stats = ServiceStats::default();
    // Crash and revival events interleaved in time order.
    let mut events: Vec<(Duration, usize, bool)> = cfg
        .crashes
        .iter()
        .map(|&(t, r)| (t, r, false))
        .chain(cfg.revives.iter().map(|&(t, r)| (t, r, true)))
        .collect();
    events.sort_by_key(|&(t, _, _)| t);
    let mut event_idx = 0;
    let mut next_sample = start_t + Duration::from_secs(1);
    let mut stale: Vec<ToReplica> = Vec::new();
    while start_t.elapsed() < cfg.duration {
        let next_event = events.get(event_idx).map(|(t, _, _)| start_t + *t);
        let wake = match next_event {
            Some(c) if c < next_sample => c,
            _ => next_sample,
        };
        let now = Instant::now();
        if wake > now {
            std::thread::sleep((wake - now).min(Duration::from_millis(50)));
        }
        if let Some(&(t, r, revive)) = events.get(event_idx) {
            if start_t.elapsed() >= t {
                event_idx += 1;
                if !revive {
                    shared.alive[r].store(false, Ordering::SeqCst);
                } else if !shared.alive[r].load(Ordering::SeqCst) {
                    // Revive: reap the dead replica thread (folding its
                    // stats in), discard frames that went stale in its
                    // ring while it was down (a fresh replica re-learns
                    // the stream from the feeders' resend — a stale frame
                    // would land as duplicates), then restart it with
                    // fresh state.
                    if let Some(h) = replica_handles[r].take() {
                        if let Ok(s) = h.join() {
                            stats.merge(&s);
                        }
                    }
                    stale.clear();
                    frame_rxs[r].try_recv_batch(&mut stale, usize::MAX);
                    stale.clear();
                    shared.alive[r].store(true, Ordering::SeqCst);
                    replica_handles[r] = Some(spawn_replica(r, false));
                }
            }
        }
        if Instant::now() >= next_sample {
            let count = shared.stabilized.load(Ordering::Relaxed);
            per_second.push(count - last_count);
            last_count = count;
            next_sample += Duration::from_secs(1);
        }
    }
    shared.stop.store(true, Ordering::SeqCst);
    for tx in &frame_txs {
        let _ = tx.try_send(ToReplica::Stop);
    }
    for t in feeder_threads.iter() {
        t.unpark();
    }
    for r in 0..cfg.replicas {
        shared.ring_replica(r);
    }
    let elapsed = start_t.elapsed();
    for h in feeder_handles {
        if let Ok(s) = h.join() {
            stats.merge(&s);
        }
    }
    for h in replica_handles.into_iter().flatten() {
        if let Ok(s) = h.join() {
            stats.merge(&s);
        }
    }
    stats.elapsed = elapsed;
    // The shared counter is authoritative (a replica killed mid-update
    // may not have flushed its local copy).
    let total = shared.stabilized.load(Ordering::Relaxed);
    stats.stabilized_ids = total;
    (
        ThroughputTimeline {
            per_second,
            total,
            elapsed,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(feeders: usize, replicas: usize) -> EunomiaBenchConfig {
        EunomiaBenchConfig {
            feeders,
            replicas,
            duration: Duration::from_millis(800),
            window_cap: 512,
            ..EunomiaBenchConfig::default()
        }
    }

    #[test]
    fn single_replica_stabilizes_operations() {
        let (t, stats) = run_eunomia_service_with_stats(&quick(4, 1));
        assert!(t.total > 1_000, "stabilized only {} ops", t.total);
        assert_eq!(stats.stabilized_ids, t.total);
        assert!(stats.frames > 0);
        assert!(stats.batch_sizes.count() > 0);
        assert!(
            stats.stabilization_latency.count() >= t.total / 64,
            "stabilized ids are latency-sampled at 1-in-64: {} samples for {} ids",
            stats.stabilization_latency.count(),
            t.total
        );
        let p50 = stats.stabilization_latency_ms(50.0).unwrap();
        assert!(p50 > 0.0, "stabilization takes nonzero time: {p50}");
        assert!(stats.theta_sweep_ns.count() > 0, "theta sweeps are timed");
    }

    #[test]
    fn ship_rule_bounds_age_and_honours_credit_and_pressure() {
        let deadline = Duration::from_millis(8);
        let young = Duration::from_millis(1);
        // Without credit nothing ships, however old.
        for rate_limited in [false, true] {
            assert!(!ship_now(0, deadline * 10, 0, deadline, rate_limited));
        }
        // At no pressure a closed-loop lane ships at once; a rate-limited
        // one holds until its oldest id has waited the deadline.
        let floor = pressure_floor(0, 65_536, 4096);
        assert_eq!(floor, 0);
        assert!(ship_now(10, young, floor, deadline, false));
        assert!(!ship_now(10, young, floor, deadline, true));
        assert!(ship_now(10, deadline, floor, deadline, true));
        // A full ring raises the floor to a full frame: below it both
        // kinds hold until the deadline, at it both ship early.
        let full = pressure_floor(255, 65_536, 8192);
        assert_eq!(full, MAX_FRAME_IDS);
        for rate_limited in [false, true] {
            assert!(!ship_now(full - 1, young, full, deadline, rate_limited));
            assert!(ship_now(full, young, full, deadline, rate_limited));
            assert!(ship_now(full - 1, deadline, full, deadline, rate_limited));
        }
        // The floor never exceeds the credit or the window, so a lane can
        // always meet it.
        let tight = pressure_floor(255, 100, 4096);
        assert_eq!(tight, 100);
        assert_eq!(pressure_floor(255, 65_536, 512), 512);
        assert!(ship_now(100, young, tight, deadline, true));
    }

    /// A rate-limited feeder that keeps up paces on its own deadlines:
    /// the replicas still return its grants in batches, but ring its
    /// doorbell only while it waits on them, which an unsaturated run
    /// almost never does.
    #[test]
    fn unsaturated_rate_limited_feeder_is_rarely_rung() {
        let cfg = EunomiaBenchConfig {
            feeders: 16,
            lanes_per_feeder: 16,
            replicas: 2,
            duration: Duration::from_millis(900),
            feeder_rate: Some(20_000),
            retransmit_after: Duration::from_secs(3600),
            ..EunomiaBenchConfig::default()
        };
        let (t, stats) = run_eunomia_service_with_stats(&cfg);
        assert!(t.total > 0, "stabilized nothing");
        assert_eq!(stats.duplicate_ids, 0);
        assert!(
            stats.grant_batches >= 50,
            "{} grant batches",
            stats.grant_batches
        );
        assert!(
            stats.doorbell_unparks * 10 <= stats.grant_batches,
            "{} unparks for {} grant batches",
            stats.doorbell_unparks,
            stats.grant_batches
        );
        assert!(stats.feeder_lag_peak_ns > 0, "the schedule lag is measured");
        assert!(stats.feeder_lag_at_stop_ns <= stats.feeder_lag_peak_ns);
    }

    #[test]
    #[should_panic(expected = "2 stabilizers per replica")]
    fn more_than_one_stabilizer_is_rejected() {
        let mut cfg = quick(4, 1);
        cfg.stabilizers = 2;
        run_eunomia_service(&cfg);
    }

    #[test]
    fn replicated_service_still_makes_progress() {
        let (t, stats) = run_eunomia_service_with_stats(&quick(4, 3));
        assert!(t.total > 1_000, "stabilized only {} ops", t.total);
        // All three replicas ingest every frame at least once.
        assert!(stats.accepted_ids >= 3 * t.total, "replicas ingest 3x");
    }

    /// A multiplexed topology (lanes sharing feeder threads) must preserve
    /// the service semantics: progress, zero duplicates, and grants
    /// batched with at most one unpark per enqueued batch.
    #[test]
    fn muxed_lanes_preserve_semantics() {
        let cfg = EunomiaBenchConfig {
            feeders: 16,
            lanes_per_feeder: 4,
            replicas: 2,
            duration: Duration::from_millis(900),
            window_cap: 512,
            retransmit_after: Duration::from_secs(3600),
            ..EunomiaBenchConfig::default()
        };
        let (t, stats) = run_eunomia_service_with_stats(&cfg);
        assert!(t.total > 1_000, "stabilized only {} ops", t.total);
        assert_eq!(stats.duplicate_ids, 0, "mux must not re-send ids");
        assert_eq!(stats.retransmitted_ids, 0);
        assert!(stats.grant_batches > 0, "grants must travel as batches");
        assert!(
            stats.doorbell_unparks <= stats.grant_batches,
            "at most one unpark per enqueued grant batch: {} unparks, {} batches",
            stats.doorbell_unparks,
            stats.grant_batches
        );
        assert!(
            stats.mean_grant_batch_lanes() >= 1.0,
            "batches carry at least one lane"
        );
    }

    /// The regression the credit protocol exists for: at 256 feeders the
    /// drop-on-full ack ring re-sent hundreds of millions of ids
    /// (238M at 256x3 in the pre-credit committed sweep). With flow
    /// control and the retransmission timeout effectively disabled,
    /// overload must throttle at the source: zero duplicates, while the
    /// service still makes progress.
    #[test]
    fn overloaded_256_feeders_produce_zero_duplicates() {
        let cfg = EunomiaBenchConfig {
            feeders: 256,
            lanes_per_feeder: 16,
            replicas: 1,
            duration: Duration::from_millis(900),
            window_cap: 512,
            // No safety-net retransmissions: every duplicate would be a
            // flow-control bug, so pin the count to exactly zero.
            retransmit_after: Duration::from_secs(3600),
            ..EunomiaBenchConfig::default()
        };
        let (t, stats) = run_eunomia_service_with_stats(&cfg);
        assert!(t.total > 0, "overloaded service must still make progress");
        assert_eq!(
            stats.duplicate_ids, 0,
            "credit flow control must not re-send ids under overload"
        );
        assert_eq!(stats.retransmitted_ids, 0);
        assert!(
            stats.advertised_credits.count() > 0,
            "replicas must advertise credit windows"
        );
    }

    #[test]
    fn crash_of_only_replica_halts_progress() {
        let mut cfg = quick(2, 1);
        cfg.duration = Duration::from_millis(2300);
        cfg.crashes = vec![(Duration::from_millis(300), 0)];
        let t = run_eunomia_service(&cfg);
        // Something was stabilized before the crash, and the second whole
        // second (entirely post-crash) shows nothing.
        assert!(t.total > 0);
        assert!(
            t.per_second.len() >= 2,
            "timeline too short: {:?}",
            t.per_second
        );
        assert_eq!(
            t.per_second[1], 0,
            "progress should stop after the crash: {:?}",
            t.per_second
        );
    }

    #[test]
    fn crash_of_leader_fails_over_with_three_replicas() {
        let mut cfg = quick(2, 3);
        cfg.duration = Duration::from_millis(2500);
        cfg.omega_timeout = Duration::from_millis(60);
        cfg.crashes = vec![(Duration::from_millis(600), 0)];
        let t = run_eunomia_service(&cfg);
        // Ops continue to stabilize after the leader dies.
        let tail: u64 = t.per_second.iter().skip(1).sum();
        assert!(tail > 0, "no progress after fail-over: {:?}", t.per_second);
    }

    /// Kill a replica mid-run, then revive it: the service must keep
    /// stabilizing through the outage (the surviving replicas hold
    /// quorumless Eunomia up fine — stabilization only needs the leader)
    /// and the revived replica must rejoin without duplicate emissions.
    /// Recovery is judged on machine-independent properties: the final
    /// second still stabilizes, the advertised-credit timeline ends off
    /// the floor, and the rejoin resend costs at most 0.1% duplicates.
    #[test]
    fn killed_replica_revives_and_rejoins() {
        let cfg = EunomiaBenchConfig {
            feeders: 4,
            replicas: 3,
            duration: Duration::from_millis(3300),
            window_cap: 512,
            omega_timeout: Duration::from_millis(60),
            crashes: vec![(Duration::from_millis(500), 0)],
            revives: vec![(Duration::from_millis(1300), 0)],
            ..EunomiaBenchConfig::default()
        };
        let (t, stats) = run_eunomia_service_with_stats(&cfg);
        assert!(
            t.per_second.len() >= 3 && t.per_second.last().is_some_and(|&n| n > 0),
            "no stabilization in the final second after revival: {:?}",
            t.per_second
        );
        // The revived replica accepted a resend of the in-flight window,
        // not a replay of history: nothing was emitted twice, so the
        // stabilized total counts every id at most once.
        assert!(
            stats.stabilized_ids <= stats.accepted_ids,
            "stabilized {} > accepted {}",
            stats.stabilized_ids,
            stats.accepted_ids
        );
        let last_credit = stats.credit_timeline.last().copied();
        assert!(
            matches!(last_credit, Some(v) if v != ServiceStats::NO_CREDIT_SAMPLE && v > 0),
            "credit timeline did not recover after revival: {:?}",
            stats.credit_timeline
        );
        assert!(
            stats.duplicate_ids * 1000 <= stats.accepted_ids,
            "revival resend produced {} duplicates against {} accepted",
            stats.duplicate_ids,
            stats.accepted_ids
        );
    }
}
