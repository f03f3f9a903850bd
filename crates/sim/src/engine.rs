//! The discrete-event engine: processes, messages, timers, queueing.
//!
//! # The scheduler: a calendar queue
//!
//! Events are kept in a calendar (bucket) queue instead of one global
//! binary heap, because the pending set at scale (tens of thousands of
//! in-flight cross-DC messages) stopped fitting in cache and every pop
//! paid a full O(log n) sift over cold memory. The structure is three
//! tiers with a strict residency invariant:
//!
//! * **Active bucket** — a small `BinaryHeap` holding every pending entry
//!   whose time bucket (`time >> shift`) is `<= cursor`. Popping its
//!   minimum is popping the global `(time, seq)` minimum.
//! * **Bucket ring** — `NBUCKETS` (power of two) unsorted `Vec`s; slot
//!   `b & (NBUCKETS-1)` holds exactly the entries of absolute bucket `b`
//!   for `cursor < b < cursor + NBUCKETS` (the *epoch window*). Pushes
//!   inside the window are O(1) appends; a bucket is heapified only when
//!   the cursor reaches it ("opening" it into the active heap).
//! * **Overflow heap** — entries at or beyond the window's end (far
//!   timers, crash/pause schedules). As the cursor advances, entries
//!   whose bucket slides into the window migrate to the ring (counted in
//!   [`EngineStats::overflow_migrations`]); when the ring is empty the
//!   cursor jumps straight to the overflow's earliest bucket.
//!
//! The bucket width (`1 << shift`) auto-sizes from observed behaviour:
//! too many overflow migrations per pop mean the window is too short
//! (width doubles), fat opened buckets mean it is too coarse (width
//! halves). Both signals are pure event counts — never wall clock — so
//! resizing is deterministic and same-seed runs stay bit-identical.
//! Within a timestamp, order is fixed by the monotone `seq` stamp, so
//! FIFO-per-link and replayed model-checker traces are unaffected by
//! which tier an entry happened to sit in.
//!
//! # The dispatch hot path
//!
//! Beyond the scheduler, the engine pays *no allocation* in the steady
//! state:
//!
//! * **Direct delivery** — a message (or timer, or start) arriving at an
//!   idle process runs its handler immediately instead of bouncing
//!   through a separate `Dispatch` queue event. The Arrive→Dispatch
//!   double-hop only remains for busy processes, where the dispatch time
//!   (the server's `busy_until`) genuinely differs from the arrival time.
//! * **Payload arena** — arrival payloads live in a `PayloadArena`
//!   slab (scheduler entries stay 24 bytes and carry only a slot index);
//!   slots recycle through an internal free list and the arena reports
//!   its high-water mark ([`EngineStats::arena_high_water`]).
//! * **Pooled scratch buffers** — the [`Context`] handed to handlers
//!   borrows the simulation's reusable outbox/timer buffers
//!   (`std::mem::take`d around the handler call), so sending messages and
//!   arming timers allocates only until the high-water mark is reached.
//! * **Windowed link state** — in fault-free runs the per-link FIFO
//!   clamp tracks only pairs with a send inside the jitter horizon (a
//!   tiny L1-hot map pruned as time advances) instead of an n² flat
//!   table; arrivals are bit-identical because a constant per-pair base
//!   latency means the clamp provably cannot bind past
//!   `departure + jitter`. Runs with a fault schedule keep the flat
//!   `from * nprocs + to` table, since fault windows shift base
//!   latencies (those presets are small deployments).
//! * **Cached process tables** — the clock and region tables are
//!   maintained as processes are added, not re-collected per dispatch.
//! * **Timer generations** — timer ids encode a slot + generation pair in
//!   a slab ([`TimerTable`]); cancellation bumps the generation in O(1)
//!   and cancelled entries are skipped on drain, never searched.
//!
//! [`Simulation::stats`] exposes the engine counters ([`EngineStats`])
//! that the geo harness threads into every `RunReport`.

use crate::faults::{CompiledFaults, FaultSchedule};
use crate::network::{JitterRng, NodeId, Topology};
use crate::ClockModel;
use crate::SimTime;
use eunomia_collections::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, VecDeque};

/// Identifies a simulated process (actor).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// Index for per-process tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A simulated actor handling messages of type `M`.
///
/// Handlers run to completion; any service time declared through
/// [`Context::consume`] keeps the process busy, queueing subsequent work.
pub trait Process<M> {
    /// Invoked once, at time zero, before any message.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Invoked for every delivered message.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ProcessId, msg: M);

    /// Invoked when a timer set with [`Context::set_timer`] fires; `tag` is
    /// the caller-chosen discriminator.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Folds this process's protocol-visible state into `h` for
    /// model-checking state-hash pruning (see [`Simulation::mc_fingerprint`])
    /// and returns `true` if the digest is complete.
    ///
    /// The default returns `false` — an opaque process — which disables
    /// pruning for any simulation containing it (exploration stays sound,
    /// just unpruned). Implementations must hash only state that affects
    /// future behaviour: protocol fields yes, wall-clock bookkeeping and
    /// metrics counters no, unordered maps folded commutatively (see
    /// `eunomia_collections::combine_unordered`).
    fn mc_state(&self, h: &mut dyn std::hash::Hasher) -> bool {
        let _ = h;
        false
    }
}

enum Work<M> {
    Start,
    Message { from: ProcessId, msg: M },
    Timer { tag: u64, id: u64 },
}

/// A schedulable event the model checker may pick as the next step while
/// the simulation is in MC mode (see [`Simulation::mc_begin`]).
///
/// Message delivery is offered per ordered `(from, to)` link: the network
/// is FIFO per link, so the only free choice *within* a link is nothing —
/// the oldest in-flight message is the one delivered — while the
/// interleaving *between* links (and against timers) is the checker's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum McEvent {
    /// Deliver the oldest in-flight message on the link `from → to`.
    Deliver {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
    },
    /// Fire the earliest (by schedule order) live pending timer.
    Timer,
}

/// What a heap entry points at. Arrivals carry a message payload, so
/// they live in the arrival slab and the heap holds only a slot index;
/// Dispatch/Crash fit inline. Keeping `HeapEntry` at 24 bytes means heap
/// sifts never move message payloads.
#[derive(Clone, Copy)]
enum Target {
    Arrive { slot: u32 },
    Dispatch { to: ProcessId },
    Crash { pid: ProcessId },
    Pause { pid: ProcessId },
    Resume { pid: ProcessId },
}

struct HeapEntry {
    time: SimTime,
    seq: u64,
    what: Target,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Ring size of the calendar queue (power of two). 96 KiB of `Vec`
/// headers per simulation; bucket capacity is retained across reuse so
/// the steady state allocates nothing. Sized so that when fat-bucket
/// pressure drives the width down to 2^16 ns (dense geo scenarios sit
/// there), the epoch window — `NBUCKETS << shift` ≈ 268 ms — still
/// covers typical cross-DC one-way latencies; a shorter ring left those
/// arrivals churning through the overflow heap.
const NBUCKETS: usize = 4096;
/// Initial bucket width exponent: 2^18 ns ≈ 262 µs, giving a ~1.07 s
/// epoch window that covers cross-DC one-way latencies with room for
/// the auto-sizer to narrow the width under fat-bucket pressure.
const INIT_SHIFT: u32 = 18;
/// Auto-sizing bounds: 2^12 ns (4 µs) to 2^26 ns (67 ms) buckets.
const MIN_SHIFT: u32 = 12;
const MAX_SHIFT: u32 = 26;
/// Pops between auto-sizing checks (amortizes the rebuild).
const RESIZE_CHECK_EVERY: u64 = 8192;
/// Average opened-bucket occupancy above which the width halves.
const FAT_BUCKET: u64 = 96;

/// The three-tier calendar queue described in the module docs.
///
/// Residency invariant (with `b = time >> shift`): entries with
/// `b <= cursor` are in `active`, entries with
/// `cursor < b < cursor + NBUCKETS` are in ring slot `b & mask`, and
/// entries with `b >= cursor + NBUCKETS` are in `overflow`. Every bucket
/// start is `>=` every time in earlier buckets, so the active heap's
/// minimum is the global `(time, seq)` minimum.
struct CalendarQueue {
    shift: u32,
    mask: u64,
    /// Absolute bucket number currently being drained.
    cursor: u64,
    active: BinaryHeap<Reverse<HeapEntry>>,
    ring: Vec<Vec<HeapEntry>>,
    /// Entries resident in the ring (not counting `active`/`overflow`).
    ring_len: usize,
    overflow: BinaryHeap<Reverse<HeapEntry>>,
    len: usize,
    // --- stats ---
    bucket_peak: usize,
    overflow_migrations: u64,
    // --- auto-sizing signals (event counts only: deterministic) ---
    pops: u64,
    last_check: u64,
    migrations_window: u64,
    opened_buckets: u64,
    opened_entries: u64,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            shift: INIT_SHIFT,
            mask: (NBUCKETS - 1) as u64,
            cursor: 0,
            active: BinaryHeap::new(),
            ring: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            ring_len: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            bucket_peak: 0,
            overflow_migrations: 0,
            pops: 0,
            last_check: 0,
            migrations_window: 0,
            opened_buckets: 0,
            opened_entries: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn push(&mut self, e: HeapEntry) {
        let b = e.time >> self.shift;
        if b <= self.cursor {
            self.active.push(Reverse(e));
        } else if b < self.cursor + NBUCKETS as u64 {
            self.ring[(b & self.mask) as usize].push(e);
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse(e));
        }
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<HeapEntry> {
        if self.len == 0 {
            return None;
        }
        if self.active.is_empty() {
            self.advance();
        }
        let Reverse(e) = self.active.pop().expect("advance fills the active bucket");
        self.len -= 1;
        self.pops += 1;
        if self.pops - self.last_check >= RESIZE_CHECK_EVERY {
            self.maybe_resize();
        }
        Some(e)
    }

    /// Earliest pending entry; advances the cursor if the active bucket
    /// is drained (cursor motion never changes pop order, only which
    /// tier holds an entry).
    #[inline]
    fn peek(&mut self) -> Option<&HeapEntry> {
        if self.len == 0 {
            return None;
        }
        if self.active.is_empty() {
            self.advance();
        }
        self.active.peek().map(|r| &r.0)
    }

    /// Moves the cursor to the next non-empty bucket and opens it into
    /// the active heap. Requires `len > 0` and an empty active heap.
    fn advance(&mut self) {
        debug_assert!(self.len > 0 && self.active.is_empty());
        loop {
            if self.ring_len == 0 {
                // Everything pending is far-future: jump straight to the
                // overflow's earliest bucket and migrate the window in.
                let t = self.overflow.peek().expect("pending entries exist").0.time;
                self.cursor = t >> self.shift;
                self.migrate_window();
                return;
            }
            self.cursor += 1;
            // The window slid one bucket: overflow entries now inside it
            // belong to the freshly exposed tail slot.
            let tail = self.cursor + NBUCKETS as u64 - 1;
            while let Some(Reverse(e)) = self.overflow.peek() {
                if e.time >> self.shift > tail {
                    break;
                }
                let Reverse(e) = self.overflow.pop().expect("peeked entry pops");
                debug_assert_eq!(e.time >> self.shift, tail);
                self.ring[(tail & self.mask) as usize].push(e);
                self.ring_len += 1;
                self.overflow_migrations += 1;
                self.migrations_window += 1;
            }
            let slot = (self.cursor & self.mask) as usize;
            if !self.ring[slot].is_empty() {
                self.open(slot);
                return;
            }
        }
    }

    /// Migrates every overflow entry inside the current window after a
    /// cursor jump; at least one lands in the active heap (the one whose
    /// bucket the cursor jumped to).
    fn migrate_window(&mut self) {
        let end = self.cursor + NBUCKETS as u64;
        let mut opened = 0usize;
        while let Some(Reverse(e)) = self.overflow.peek() {
            let b = e.time >> self.shift;
            if b >= end {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked entry pops");
            self.overflow_migrations += 1;
            self.migrations_window += 1;
            if b <= self.cursor {
                self.active.push(Reverse(e));
                opened += 1;
            } else {
                self.ring[(b & self.mask) as usize].push(e);
                self.ring_len += 1;
            }
        }
        self.opened_buckets += 1;
        self.opened_entries += opened as u64;
        if opened > self.bucket_peak {
            self.bucket_peak = opened;
        }
        debug_assert!(!self.active.is_empty());
    }

    /// Heapifies ring slot `slot` into the active bucket.
    fn open(&mut self, slot: usize) {
        let n = self.ring[slot].len();
        self.ring_len -= n;
        self.opened_buckets += 1;
        self.opened_entries += n as u64;
        if n > self.bucket_peak {
            self.bucket_peak = n;
        }
        for e in self.ring[slot].drain(..) {
            self.active.push(Reverse(e));
        }
    }

    /// Auto-sizing: heavy overflow migration means the window is too
    /// short (double the width); fat opened buckets mean it is too
    /// coarse (halve it). Rate-limited and driven by counts only, so
    /// same-seed runs resize at identical points.
    fn maybe_resize(&mut self) {
        let pops_window = self.pops - self.last_check;
        self.last_check = self.pops;
        let migrated = self.migrations_window;
        let opened_b = self.opened_buckets.max(1);
        let opened_e = self.opened_entries;
        self.migrations_window = 0;
        self.opened_buckets = 0;
        self.opened_entries = 0;
        if self.len < 256 {
            return;
        }
        if migrated * 4 >= pops_window && self.shift < MAX_SHIFT {
            self.rebuild(self.shift + 1);
        } else if opened_e / opened_b > FAT_BUCKET && self.shift > MIN_SHIFT {
            self.rebuild(self.shift - 1);
        }
    }

    /// Re-inserts every pending entry under a new bucket width.
    fn rebuild(&mut self, new_shift: u32) {
        let mut all: Vec<HeapEntry> = Vec::with_capacity(self.len);
        all.extend(self.active.drain().map(|Reverse(e)| e));
        for bucket in &mut self.ring {
            all.append(bucket);
        }
        all.extend(self.overflow.drain().map(|Reverse(e)| e));
        self.shift = new_shift;
        self.cursor = all.iter().map(|e| e.time).min().unwrap_or(0) >> new_shift;
        self.ring_len = 0;
        self.len = 0;
        for e in all {
            self.push(e);
        }
    }
}

/// Arrival payload arena: in-flight `(ProcessId, Work)` payloads keyed
/// by the slot index scheduler entries carry. Slots recycle through a
/// free list; `high_water` is the peak number of simultaneously
/// resident payloads.
struct PayloadArena<M> {
    slots: Vec<Option<(ProcessId, Work<M>)>>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
}

impl<M> PayloadArena<M> {
    fn new() -> Self {
        PayloadArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
        }
    }

    #[inline]
    fn insert(&mut self, to: ProcessId, work: Work<M>) -> u32 {
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some((to, work));
                s
            }
            None => {
                self.slots.push(Some((to, work)));
                (self.slots.len() - 1) as u32
            }
        }
    }

    #[inline]
    fn take(&mut self, slot: u32) -> (ProcessId, Work<M>) {
        let payload = self.slots[slot as usize].take().expect("arena slot filled");
        self.free.push(slot);
        self.live -= 1;
        payload
    }

    #[inline]
    fn get(&self, slot: u32) -> Option<&(ProcessId, Work<M>)> {
        self.slots[slot as usize].as_ref()
    }
}

struct Slot<M> {
    proc: Option<Box<dyn Process<M>>>,
    node: NodeId,
    crashed: bool,
    /// A paused process (gray failure: alive but unresponsive) queues all
    /// arriving work and runs nothing until resumed — unlike a crash,
    /// nothing is dropped.
    paused: bool,
    busy_until: SimTime,
    queue: VecDeque<Work<M>>,
    dispatch_scheduled: bool,
}

/// Slab of timer generations: a timer id packs `slot << 32 | generation`.
///
/// Arming allocates a slot (reusing freed ones); firing or cancelling
/// *retires* the id by bumping the slot's generation and freeing the
/// slot. A stale id — cancelled after firing, fired after cancelling, or
/// double-cancelled — simply fails the generation check, so the table's
/// size is bounded by the peak number of concurrently armed timers.
#[derive(Debug, Default)]
struct TimerTable {
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl TimerTable {
    fn arm(&mut self) -> u64 {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.gens.push(0);
                (self.gens.len() - 1) as u32
            }
        };
        ((slot as u64) << 32) | self.gens[slot as usize] as u64
    }

    fn is_live(&self, id: u64) -> bool {
        let slot = (id >> 32) as usize;
        self.gens.get(slot).is_some_and(|&g| g == id as u32)
    }

    /// Retires a live id (fire or cancel); returns whether it was live.
    fn retire(&mut self, id: u64) -> bool {
        if !self.is_live(id) {
            return false;
        }
        let slot = (id >> 32) as usize;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot as u32);
        true
    }

    /// Live (armed, not yet fired or cancelled) timer count.
    fn live_count(&self) -> usize {
        self.gens.len() - self.free.len()
    }
}

/// Aggregate engine counters for one simulation run.
///
/// Returned by [`Simulation::stats`]; the geo harness copies it into
/// every `RunReport` so benchmarks can report raw engine throughput.
/// All fields except `wall_ns` are deterministic for a fixed seed;
/// `wall_ns` is real elapsed time and varies run to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Handler invocations (starts, delivered messages, fired timers).
    pub events: u64,
    /// Messages routed through the network model.
    pub messages_routed: u64,
    /// Timers armed and actually scheduled (set-then-cancelled timers
    /// that never reached the heap are excluded).
    pub timers_set: u64,
    /// Arrivals run directly at an idle process, skipping the Dispatch
    /// heap round-trip.
    pub direct_deliveries: u64,
    /// Messages whose delivery was deferred past a partition's heal time
    /// by the fault schedule (TCP-like outage buffering, not loss).
    pub messages_deferred: u64,
    /// Simulated retransmissions on gray links: each adds one RTO of
    /// latency to the affected message.
    pub retransmits: u64,
    /// Peak pending events across the whole scheduler (active bucket +
    /// ring + overflow). The name predates the calendar queue: this was
    /// the binary heap's peak length, and keeps meaning the same thing.
    pub heap_peak: usize,
    /// Peak occupancy of a single calendar bucket at the moment the
    /// cursor opened it for draining.
    pub bucket_peak: usize,
    /// Entries migrated from the far-future overflow heap into the
    /// bucket ring as the epoch window advanced.
    pub overflow_migrations: u64,
    /// Peak number of in-flight payloads resident in the arrival arena.
    pub arena_high_water: usize,
    /// Wall-clock nanoseconds spent inside `run_until` (accumulated
    /// across calls). Not deterministic.
    pub wall_ns: u64,
}

impl EngineStats {
    /// Events per wall-clock second (0 if no wall time was recorded).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Handler-side view of the simulation.
///
/// Lets a process read clocks, send messages, set timers and declare the
/// CPU cost of the work it is doing. Messages sent and timers set from a
/// handler take effect at the handler's *completion* time (start time plus
/// consumed service time), modelling a single-threaded server.
pub struct Context<'a, M> {
    now: SimTime,
    self_id: ProcessId,
    node: NodeId,
    consumed: SimTime,
    outbox: Vec<(ProcessId, M, SimTime)>,
    timers: Vec<(SimTime, u64, u64)>,
    clocks: &'a [ClockModel],
    node_regions: &'a [usize],
    rng: &'a mut StdRng,
    timer_table: &'a mut TimerTable,
}

impl<'a, M> Context<'a, M> {
    /// Current simulated (true) time: the start of this handler.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This process's id.
    pub fn self_id(&self) -> ProcessId {
        self.self_id
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The region (datacenter) of this process's node.
    pub fn region(&self) -> usize {
        self.node_regions[self.node.index()]
    }

    /// Reads this node's *physical* clock — offset and drift included.
    pub fn clock(&self) -> u64 {
        self.clocks[self.node.index()].read(self.now + self.consumed)
    }

    /// Declares `cost` nanoseconds of CPU service time for the current
    /// work item; the process stays busy (queueing later arrivals) until
    /// the accumulated cost elapses.
    pub fn consume(&mut self, cost: SimTime) {
        self.consumed += cost;
    }

    /// Sends `msg` to `to` over the (FIFO, latency-modelled) network at
    /// handler completion time.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((to, msg, 0));
    }

    /// Like [`Context::send`] with an extra artificial delay before the
    /// message enters the link (used e.g. to model a straggler).
    pub fn send_delayed(&mut self, to: ProcessId, msg: M, extra: SimTime) {
        self.outbox.push((to, msg, extra));
    }

    /// Arms a timer to fire `delay` ns after handler completion; `tag`
    /// distinguishes timer purposes. Returns an id usable with
    /// [`Context::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) -> u64 {
        let id = self.timer_table.arm();
        self.timers.push((delay, tag, id));
        id
    }

    /// Cancels a previously armed timer (no-op if already fired).
    pub fn cancel_timer(&mut self, id: u64) {
        self.timer_table.retire(id);
    }

    /// Deterministic per-simulation RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// The discrete-event simulation over messages of type `M`.
pub struct Simulation<M> {
    queue: CalendarQueue,
    /// Arrival payload arena, indexed by `Target::Arrive::slot`; slots
    /// recycle through its free list so steady-state scheduling
    /// allocates nothing.
    arena: PayloadArena<M>,
    seq: u64,
    now: SimTime,
    slots: Vec<Slot<M>>,
    nodes: Vec<ClockModel>,
    node_regions: Vec<usize>,
    /// Region of each process, cached for the routing path.
    proc_regions: Vec<usize>,
    topology: Topology,
    rng: StdRng,
    /// Dedicated fast stream for per-message latency jitter (see
    /// [`JitterRng`]): routing never burns `StdRng` (ChaCha) draws.
    jitter_rng: JitterRng,
    /// Last delivery time per ordered `(from, to)` process pair, indexed
    /// `from * nprocs + to`. Allocated only for runs with a fault
    /// schedule: fault windows change a pair's base latency over time, so
    /// the FIFO clamp can bind arbitrarily long after a send and every
    /// pair must stay tracked. Faulted presets are small deployments, so
    /// the n² table is cheap there.
    link_last: Vec<SimTime>,
    /// FIFO clamp state for fault-free runs, keyed `(from << 32) | to`,
    /// holding `(latest departure, latest arrival)` per recently active
    /// pair. With a constant per-pair base latency the clamp can only
    /// bind while `now < departure + jitter`, so only pairs with a send
    /// inside that window need tracking — a handful of L1-hot entries
    /// instead of an n² table (2.6 MB of cold DRAM at 576 processes,
    /// roughly a fifth of massive-scale wall time in misses). Arrivals
    /// are bit-identical to the flat table.
    fifo_recent: FxHashMap<u64, (SimTime, SimTime)>,
    /// Retirement queue for `fifo_recent`: `(departure, key)` records in
    /// insertion order, pruned from the front as `now` advances past the
    /// clamp horizon.
    fifo_age: VecDeque<(SimTime, u64)>,
    /// Base one-way latency per ordered region pair, indexed
    /// `from_region * nregions + to_region`; flattened from the topology
    /// when the run starts so routing never chases nested Vecs.
    oneway_base: Vec<SimTime>,
    /// Cached `topology.jitter()`.
    jitter: SimTime,
    /// Cached `topology.regions()`.
    nregions: usize,
    timer_table: TimerTable,
    /// Link-fault schedule as installed (compiled when the run starts).
    fault_schedule: Option<FaultSchedule>,
    /// Compiled per-pair fault timelines consulted by `route`.
    faults: Option<CompiledFaults>,
    /// Pooled scratch buffers lent to `Context` around each handler call.
    scratch_outbox: Vec<(ProcessId, M, SimTime)>,
    scratch_timers: Vec<(SimTime, u64, u64)>,
    stats: EngineStats,
    started: bool,
    /// Model-checking mode: scheduling decisions are externalized. While
    /// set, newly scheduled events land in `mc_queue` (an unordered pool)
    /// instead of the time-ordered heap, and the model checker picks which
    /// pending event fires next via [`Simulation::mc_fire`].
    mc_mode: bool,
    /// Pending events while in MC mode. Per-link FIFO order is recovered
    /// from `(time, seq)`; *between* links the checker chooses freely.
    mc_queue: Vec<HeapEntry>,
}

impl<M> Simulation<M> {
    /// Creates a simulation over `topology` with a deterministic `seed`.
    pub fn new(topology: Topology, seed: u64) -> Self {
        Simulation {
            queue: CalendarQueue::new(),
            arena: PayloadArena::new(),
            seq: 0,
            now: 0,
            slots: Vec::new(),
            nodes: Vec::new(),
            node_regions: Vec::new(),
            proc_regions: Vec::new(),
            topology,
            rng: StdRng::seed_from_u64(seed),
            jitter_rng: JitterRng::new(seed),
            link_last: Vec::new(),
            fifo_recent: FxHashMap::default(),
            fifo_age: VecDeque::new(),
            oneway_base: Vec::new(),
            jitter: 0,
            nregions: 0,
            timer_table: TimerTable::default(),
            fault_schedule: None,
            faults: None,
            scratch_outbox: Vec::new(),
            scratch_timers: Vec::new(),
            stats: EngineStats::default(),
            started: false,
            mc_mode: false,
            mc_queue: Vec::new(),
        }
    }

    /// Adds a node (machine) in `region` with a perfect clock.
    ///
    /// # Panics
    ///
    /// Panics if `region` is outside the topology.
    pub fn add_node(&mut self, region: usize) -> NodeId {
        self.add_node_with_clock(region, ClockModel::perfect())
    }

    /// Adds a node with an explicit clock model.
    pub fn add_node_with_clock(&mut self, region: usize, clock: ClockModel) -> NodeId {
        assert!(region < self.topology.regions(), "region out of range");
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(clock);
        self.node_regions.push(region);
        id
    }

    /// Convenience: adds a fresh node in `region` and a process on it.
    pub fn add_process(&mut self, region: usize, proc: Box<dyn Process<M>>) -> ProcessId {
        let node = self.add_node(region);
        self.add_process_on(node, proc)
    }

    /// Adds a process on an existing node.
    pub fn add_process_on(&mut self, node: NodeId, proc: Box<dyn Process<M>>) -> ProcessId {
        assert!(
            !self.started,
            "processes must be added before the run starts"
        );
        let pid = ProcessId(self.slots.len() as u32);
        self.slots.push(Slot {
            proc: Some(proc),
            node,
            crashed: false,
            paused: false,
            busy_until: 0,
            queue: VecDeque::new(),
            dispatch_scheduled: false,
        });
        self.proc_regions.push(self.node_regions[node.index()]);
        pid
    }

    /// Schedules `pid` to crash at `time`: it stops handling anything and
    /// all its queued and future work is dropped.
    pub fn crash_at(&mut self, pid: ProcessId, time: SimTime) {
        self.push_entry(time, Target::Crash { pid });
    }

    /// Whether `pid` has crashed.
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.slots[pid.index()].crashed
    }

    /// Schedules `pid` to pause during `[from, to)`: a gray failure where
    /// the process is alive but unresponsive. Arriving work (messages and
    /// timer firings) queues instead of running and drains — in arrival
    /// order — once the process resumes. Nothing is dropped.
    ///
    /// # Panics
    /// Panics if the window is empty or inverted.
    pub fn pause_between(&mut self, pid: ProcessId, from: SimTime, to: SimTime) {
        assert!(from < to, "pause window [{from}, {to}) is empty");
        self.push_entry(from, Target::Pause { pid });
        self.push_entry(to, Target::Resume { pid });
    }

    /// Whether `pid` is currently paused.
    pub fn is_paused(&self, pid: ProcessId) -> bool {
        self.slots[pid.index()].paused
    }

    /// Installs the link-fault schedule (partitions, gray links,
    /// asymmetric overrides) interpreted by the routing path. See
    /// [`FaultSchedule`] for the fault model.
    ///
    /// # Panics
    /// Panics if the run has already started.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        assert!(
            !self.started,
            "fault schedules must be installed before the run starts"
        );
        self.fault_schedule = Some(schedule);
    }

    /// Current simulated time (ns).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total handler invocations so far.
    pub fn events_processed(&self) -> u64 {
        self.stats.events
    }

    /// Engine counters for this run so far.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.bucket_peak = self.queue.bucket_peak;
        s.overflow_migrations = self.queue.overflow_migrations;
        s.arena_high_water = self.arena.high_water;
        s
    }

    /// Currently armed (not yet fired or cancelled) timers. Bounded by
    /// the protocols' live timer needs — the cancellation bookkeeping
    /// itself holds no per-cancel state (see [`EngineStats`]).
    pub fn live_timers(&self) -> usize {
        self.timer_table.live_count()
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    #[inline]
    fn push_entry(&mut self, time: SimTime, what: Target) {
        self.seq += 1;
        let entry = HeapEntry {
            time,
            seq: self.seq,
            what,
        };
        if self.mc_mode {
            self.mc_queue.push(entry);
            return;
        }
        self.enqueue_timed(entry);
    }

    #[inline]
    fn enqueue_timed(&mut self, entry: HeapEntry) {
        self.queue.push(entry);
        if self.queue.len() > self.stats.heap_peak {
            self.stats.heap_peak = self.queue.len();
        }
    }

    #[inline]
    fn push_arrive(&mut self, time: SimTime, to: ProcessId, work: Work<M>) {
        let slot = self.arena.insert(to, work);
        self.push_entry(time, Target::Arrive { slot });
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // The process set is frozen now: flatten the topology's latency
        // matrix and set up the FIFO clamp state.
        let n = self.slots.len();
        let regions = self.topology.regions();
        self.oneway_base = (0..regions * regions)
            .map(|k| self.topology.oneway(k / regions, k % regions))
            .collect();
        self.jitter = self.topology.jitter();
        self.nregions = regions;
        if let Some(schedule) = self.fault_schedule.take() {
            if !schedule.is_empty() {
                self.faults = Some(schedule.compile(regions));
            }
        }
        if self.faults.is_some() {
            // Fault windows shift base latencies, so every pair keeps a
            // persistent clamp slot (see `link_last`).
            self.link_last = vec![0; n * n];
        } else {
            self.fifo_recent.reserve(256);
            self.fifo_age.reserve(256);
        }
        for i in 0..n {
            self.push_arrive(0, ProcessId(i as u32), Work::Start);
        }
    }

    /// Runs until the event queue drains or simulated time reaches
    /// `deadline` (events after the deadline stay queued).
    pub fn run_until(&mut self, deadline: SimTime) {
        let wall_start = std::time::Instant::now();
        self.start_if_needed();
        while let Some(e) = self.queue.peek() {
            if e.time > deadline {
                break;
            }
            let e = self.queue.pop().expect("peeked event must pop");
            self.now = e.time;
            match e.what {
                Target::Arrive { slot } => {
                    let (to, work) = self.arena.take(slot);
                    self.arrive(to, work);
                }
                Target::Dispatch { to } => self.dispatch(to),
                Target::Crash { pid } => {
                    let s = &mut self.slots[pid.index()];
                    s.crashed = true;
                    // Dropped work may hold armed timers: retire them so
                    // their slots recycle and live_timers() stays exact.
                    for w in s.queue.drain(..) {
                        if let Work::Timer { id, .. } = w {
                            self.timer_table.retire(id);
                        }
                    }
                }
                Target::Pause { pid } => {
                    let s = &mut self.slots[pid.index()];
                    if !s.crashed {
                        s.paused = true;
                    }
                }
                Target::Resume { pid } => {
                    let idx = pid.index();
                    if self.slots[idx].paused {
                        self.slots[idx].paused = false;
                        // Drain what accumulated during the pause.
                        let at = self.slots[idx].busy_until.max(self.now);
                        self.reschedule_if_queued(idx, pid, at);
                    }
                }
            }
        }
        self.now = self
            .now
            .max(deadline.min(self.peek_time().unwrap_or(deadline)));
        self.stats.wall_ns += wall_start.elapsed().as_nanos() as u64;
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek().map(|e| e.time)
    }

    fn arrive(&mut self, to: ProcessId, work: Work<M>) {
        let slot = &mut self.slots[to.index()];
        if slot.crashed {
            // A timer landing on a crashed process still owns its table
            // slot — retire it so the slab stays tight.
            if let Work::Timer { id, .. } = work {
                self.timer_table.retire(id);
            }
            return;
        }
        if slot.paused {
            // Unresponsive, not dead: everything waits for the resume.
            slot.queue.push_back(work);
            return;
        }
        // Direct delivery: an idle process with nothing queued runs the
        // handler now — no Dispatch heap round-trip. (Stale timer
        // arrivals don't count: their handler never runs.)
        if !slot.dispatch_scheduled && slot.queue.is_empty() && slot.busy_until <= self.now {
            if self.run_work(to, work) {
                self.stats.direct_deliveries += 1;
            }
            return;
        }
        slot.queue.push_back(work);
        if !slot.dispatch_scheduled {
            slot.dispatch_scheduled = true;
            let at = slot.busy_until.max(self.now);
            self.push_entry(at, Target::Dispatch { to });
        }
    }

    fn dispatch(&mut self, pid: ProcessId) {
        let idx = pid.index();
        self.slots[idx].dispatch_scheduled = false;
        if self.slots[idx].crashed {
            // The Crash event drained the queue and arrive() rejects
            // work for crashed processes, so there is nothing to drop.
            debug_assert!(self.slots[idx].queue.is_empty());
            return;
        }
        if self.slots[idx].paused {
            // A dispatch scheduled before the pause landed: the queued
            // work stays put until the resume reschedules it.
            return;
        }
        let Some(work) = self.slots[idx].queue.pop_front() else {
            return;
        };
        self.run_work(pid, work);
    }

    /// Runs one work item's handler at `self.now`, then flushes its
    /// outbox/timers at the handler's completion time and reschedules the
    /// process if more work is queued. Returns whether a handler actually
    /// ran (false for stale — cancelled — timer arrivals).
    fn run_work(&mut self, pid: ProcessId, work: Work<M>) -> bool {
        let idx = pid.index();
        if let Work::Timer { id, .. } = work {
            // A dead generation means the timer was cancelled.
            if !self.timer_table.retire(id) {
                self.reschedule_if_queued(idx, pid, self.now);
                return false;
            }
        }
        // Temporarily take the process out so the handler can borrow the
        // simulation's shared state through the context.
        let mut proc = self.slots[idx].proc.take().expect("process present");
        let node = self.slots[idx].node;
        let mut ctx = Context {
            now: self.now,
            self_id: pid,
            node,
            consumed: 0,
            outbox: std::mem::take(&mut self.scratch_outbox),
            timers: std::mem::take(&mut self.scratch_timers),
            clocks: &self.nodes,
            node_regions: &self.node_regions,
            rng: &mut self.rng,
            timer_table: &mut self.timer_table,
        };
        match work {
            Work::Start => proc.on_start(&mut ctx),
            Work::Message { from, msg } => proc.on_message(&mut ctx, from, msg),
            Work::Timer { tag, .. } => proc.on_timer(&mut ctx, tag),
        }
        self.stats.events += 1;
        let consumed = ctx.consumed;
        let mut outbox = std::mem::take(&mut ctx.outbox);
        let mut timers = std::mem::take(&mut ctx.timers);
        drop(ctx);
        self.slots[idx].proc = Some(proc);
        let completion = self.now + consumed;
        self.slots[idx].busy_until = completion;
        for (to, msg, extra) in outbox.drain(..) {
            self.route(pid, to, msg, completion + extra);
        }
        self.scratch_outbox = outbox;
        for (delay, tag, id) in timers.drain(..) {
            // Set-then-cancelled within the same handler: never schedule.
            if !self.timer_table.is_live(id) {
                continue;
            }
            self.stats.timers_set += 1;
            self.push_arrive(completion + delay, pid, Work::Timer { tag, id });
        }
        self.scratch_timers = timers;
        self.reschedule_if_queued(idx, pid, completion);
        true
    }

    /// More queued work: dispatch again at `at` (the handler's completion
    /// time) unless a dispatch is already in flight.
    fn reschedule_if_queued(&mut self, idx: usize, pid: ProcessId, at: SimTime) {
        if !self.slots[idx].queue.is_empty() && !self.slots[idx].dispatch_scheduled {
            self.slots[idx].dispatch_scheduled = true;
            self.push_entry(at, Target::Dispatch { to: pid });
        }
    }

    fn route(&mut self, from: ProcessId, to: ProcessId, msg: M, departure: SimTime) {
        let from_region = self.proc_regions[from.index()];
        let to_region = self.proc_regions[to.index()];
        let mut base = self.oneway_base[from_region * self.nregions + to_region];
        let mut departure = departure;
        let mut extra = 0;
        if let Some(faults) = &self.faults {
            let mut st = faults.state_at(from_region, to_region, departure);
            if !st.is_clear() {
                // Partition: the transport buffers the message and sends
                // it at the heal. Chained windows are walked until the
                // link is open (each heal is strictly later — terminates),
                // but however many windows it crosses, one message was
                // deferred once.
                if st.blocked_until.is_some() {
                    self.stats.messages_deferred += 1;
                }
                while let Some(heal) = st.blocked_until {
                    departure = heal;
                    st = faults.state_at(from_region, to_region, departure);
                }
                if let Some(oneway) = st.oneway {
                    base = oneway;
                }
                extra = st.extra;
                if st.loss_ppm > 0 {
                    // Gray link: each simulated loss costs one RTO before
                    // the retransmission gets through (geometric, capped).
                    let mut tries = 0;
                    while tries < 16 && self.rng.random_range(0..1_000_000u32) < st.loss_ppm {
                        extra += st.rto;
                        self.stats.retransmits += 1;
                        tries += 1;
                    }
                }
            }
        }
        let latency = self.jitter_rng.sample(base + extra, self.jitter);
        let mut arrival = departure + latency;
        // FIFO clamp per ordered (from, to) pair.
        if self.faults.is_some() {
            // Flat table: a fault window can lower a pair's latency after
            // a slow send, so any pair may need clamping at any distance.
            let last = &mut self.link_last[from.index() * self.slots.len() + to.index()];
            if arrival < *last {
                arrival = *last;
            }
            *last = arrival;
        } else {
            // Fault-free: base latency is constant per pair, so a prior
            // send can only force a clamp on a message departing before
            // `departure_prev + jitter` — anything routed later already
            // arrives no earlier than everything before it on the link.
            // Retire pairs past that horizon (departures are >= `now`,
            // which is monotone), keeping the map to the handful of pairs
            // active inside the jitter window.
            while let Some(&(dep, key)) = self.fifo_age.front() {
                if dep + self.jitter > self.now {
                    break;
                }
                self.fifo_age.pop_front();
                if let Some(&(d, _)) = self.fifo_recent.get(&key) {
                    if d == dep {
                        self.fifo_recent.remove(&key);
                    }
                }
            }
            let key = ((from.0 as u64) << 32) | to.0 as u64;
            match self.fifo_recent.entry(key) {
                Entry::Occupied(mut e) => {
                    let (dep_max, arr_max) = e.get_mut();
                    if arrival < *arr_max {
                        arrival = *arr_max;
                    } else {
                        *arr_max = arrival;
                    }
                    if departure > *dep_max {
                        *dep_max = departure;
                        self.fifo_age.push_back((departure, key));
                    }
                }
                Entry::Vacant(v) => {
                    v.insert((departure, arrival));
                    self.fifo_age.push_back((departure, key));
                }
            }
        }
        self.stats.messages_routed += 1;
        self.push_arrive(arrival, to, Work::Message { from, msg });
    }

    // --- Model-checking hooks -------------------------------------------
    //
    // `mc_begin` flips the engine into MC mode: every event scheduled from
    // then on lands in `mc_queue` instead of the heap, and an external
    // model checker (see `crate::mc`) decides the order with `mc_fire`.
    // `mc_close` hands control back for a normal timed run (quiescence
    // closure). Crash/pause schedules and in-handler randomness are out of
    // scope: MC configs use zero latency/jitter and no fault schedules.

    /// Enters model-checking mode and runs every process's `on_start`
    /// eagerly, in process-id order.
    ///
    /// Start events are a deterministic prologue, not a scheduling choice:
    /// exploring their `n!` permutations would explode the state space
    /// without exercising any protocol behaviour (starts only arm timers
    /// and send initial messages; the *deliveries* are where orderings
    /// diverge, and those remain fully under checker control).
    ///
    /// # Panics
    /// Panics if the run has already started, or if crash/pause events or
    /// a fault schedule were installed (unsupported in MC mode).
    pub fn mc_begin(&mut self) {
        assert!(!self.started, "mc_begin must precede any run_until");
        assert!(
            self.fault_schedule.is_none(),
            "fault schedules are not supported in MC mode (use Drop/Dup choices)"
        );
        assert!(
            self.queue.is_empty(),
            "crash/pause schedules are not supported in MC mode"
        );
        self.mc_mode = true;
        self.start_if_needed();
        for pid in 0..self.slots.len() as u32 {
            let idx = self
                .mc_queue
                .iter()
                .position(|e| match e.what {
                    Target::Arrive { slot } => matches!(
                        self.arena.get(slot),
                        Some((to, Work::Start)) if to.0 == pid
                    ),
                    _ => false,
                })
                .expect("every process has a pending start arrival");
            self.mc_run_entry(idx);
        }
    }

    /// Whether the simulation is currently in MC mode.
    pub fn mc_active(&self) -> bool {
        self.mc_mode
    }

    /// In-flight (undelivered) messages while in MC mode.
    pub fn mc_pending_messages(&self) -> usize {
        self.mc_queue
            .iter()
            .filter(|e| match e.what {
                Target::Arrive { slot } => {
                    matches!(self.arena.get(slot), Some((_, Work::Message { .. })))
                }
                _ => false,
            })
            .count()
    }

    /// The schedulable events at the current state, deterministically
    /// ordered: one `Deliver` per ordered link with an in-flight message
    /// (sorted by `(from, to)`), then `Timer` if any live timer is
    /// pending. An empty result means the state is quiescent up to timers
    /// already excluded by the caller's budget.
    pub fn mc_candidates(&self) -> Vec<McEvent> {
        let mut links: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
        let mut timer = false;
        for e in &self.mc_queue {
            let Target::Arrive { slot } = e.what else {
                debug_assert!(false, "only arrivals may be pending in MC mode");
                continue;
            };
            match self.arena.get(slot) {
                Some((to, Work::Message { from, .. })) => {
                    links.insert((from.0, to.0));
                }
                Some((_, Work::Timer { id, .. })) => {
                    // Cancelled timers still hold a queue entry but their
                    // generation is dead; firing them is a no-op, so they
                    // are not offered as choices.
                    timer |= self.timer_table.is_live(*id);
                }
                Some((_, Work::Start)) => {
                    debug_assert!(false, "start arrivals fire inside mc_begin")
                }
                None => debug_assert!(false, "pending arrival slot must be filled"),
            }
        }
        let mut out: Vec<McEvent> = links
            .into_iter()
            .map(|(f, t)| McEvent::Deliver {
                from: ProcessId(f),
                to: ProcessId(t),
            })
            .collect();
        if timer {
            out.push(McEvent::Timer);
        }
        out
    }

    /// Fires one schedulable event: the oldest in-flight message on the
    /// given link, or the earliest live timer. Any events the handler
    /// schedules join the pending pool. Returns `false` if no matching
    /// event is pending (stale choice).
    pub fn mc_fire(&mut self, ev: McEvent) -> bool {
        assert!(self.mc_mode, "mc_fire outside MC mode");
        match self.mc_find(ev) {
            Some(idx) => {
                self.mc_run_entry(idx);
                true
            }
            None => false,
        }
    }

    /// Drops (loses) the oldest in-flight message on `from → to`,
    /// modelling a lossy transport. Returns `false` if the link is empty.
    pub fn mc_drop(&mut self, from: ProcessId, to: ProcessId) -> bool {
        assert!(self.mc_mode, "mc_drop outside MC mode");
        let Some(idx) = self.mc_find(McEvent::Deliver { from, to }) else {
            return false;
        };
        let e = self.mc_queue.swap_remove(idx);
        let Target::Arrive { slot } = e.what else {
            unreachable!("mc_find returns arrivals only");
        };
        drop(self.arena.take(slot));
        true
    }

    /// Index into `mc_queue` of the oldest (per-link FIFO, i.e. minimal
    /// `(time, seq)`) pending event matching `ev`.
    fn mc_find(&self, ev: McEvent) -> Option<usize> {
        let mut best: Option<(usize, SimTime, u64)> = None;
        for (i, e) in self.mc_queue.iter().enumerate() {
            let Target::Arrive { slot } = e.what else {
                continue;
            };
            let hit = match (&ev, self.arena.get(slot)) {
                (McEvent::Deliver { from, to }, Some((t, Work::Message { from: f, .. }))) => {
                    f == from && t == to
                }
                (McEvent::Timer, Some((_, Work::Timer { id, .. }))) => {
                    self.timer_table.is_live(*id)
                }
                _ => false,
            };
            if hit && best.is_none_or(|(_, bt, bs)| (e.time, e.seq) < (bt, bs)) {
                best = Some((i, e.time, e.seq));
            }
        }
        best.map(|(i, _, _)| i)
    }

    /// Removes entry `idx` from the pending pool and runs it, then drains
    /// any internal Dispatch events it produced (a busy process's queued
    /// work is engine bookkeeping, not a scheduling choice).
    fn mc_run_entry(&mut self, idx: usize) {
        let e = self.mc_queue.swap_remove(idx);
        if e.time > self.now {
            self.now = e.time;
        }
        match e.what {
            Target::Arrive { slot } => {
                let (to, work) = self.arena.take(slot);
                self.arrive(to, work);
            }
            Target::Dispatch { to } => self.dispatch(to),
            _ => unreachable!("crash/pause events are rejected by mc_begin"),
        }
        loop {
            let mut best: Option<(usize, SimTime, u64)> = None;
            for (i, e) in self.mc_queue.iter().enumerate() {
                if matches!(e.what, Target::Dispatch { .. })
                    && best.is_none_or(|(_, bt, bs)| (e.time, e.seq) < (bt, bs))
                {
                    best = Some((i, e.time, e.seq));
                }
            }
            let Some((i, _, _)) = best else { break };
            let e = self.mc_queue.swap_remove(i);
            if e.time > self.now {
                self.now = e.time;
            }
            let Target::Dispatch { to } = e.what else {
                unreachable!();
            };
            self.dispatch(to);
        }
    }

    /// Exits MC mode and runs the remaining (checker-untouched) events
    /// plus everything they trigger for `horizon` more nanoseconds of
    /// simulated time — the quiescence closure that lets timer-driven
    /// machinery (metadata flushes, stabilization rounds) finish so
    /// convergence predicates can be checked on a settled state.
    pub fn mc_close(&mut self, horizon: SimTime) {
        assert!(self.mc_mode, "mc_close outside MC mode");
        self.mc_mode = false;
        for e in std::mem::take(&mut self.mc_queue) {
            self.enqueue_timed(e);
        }
        let deadline = self.now + horizon;
        self.run_until(deadline);
    }
}

impl<M: Clone> Simulation<M> {
    /// Delivers the oldest in-flight message on `from → to` *and*
    /// re-enqueues a copy behind it on the same link, modelling an
    /// at-least-once transport (duplicate delivery). Returns `false` if
    /// the link is empty.
    pub fn mc_fire_dup(&mut self, from: ProcessId, to: ProcessId) -> bool {
        assert!(self.mc_mode, "mc_fire_dup outside MC mode");
        let Some(idx) = self.mc_find(McEvent::Deliver { from, to }) else {
            return false;
        };
        let (time, slot) = {
            let e = &self.mc_queue[idx];
            let Target::Arrive { slot } = e.what else {
                unreachable!("mc_find returns arrivals only");
            };
            (e.time, slot)
        };
        let msg = match self.arena.get(slot) {
            Some((_, Work::Message { msg, .. })) => msg.clone(),
            _ => unreachable!("mc_find matched a message arrival"),
        };
        // The copy gets a fresh (larger) seq, so it sits *behind* the
        // original in the link's FIFO order; `idx` stays valid because
        // push only appends.
        self.push_arrive(time, to, Work::Message { from, msg });
        self.mc_run_entry(idx);
        true
    }
}

impl<M: std::hash::Hash> Simulation<M> {
    /// A 64-bit fingerprint of the global state for MC pruning, or `None`
    /// if any live process keeps the default opaque
    /// [`Process::mc_state`] (pruning then stays off — sound, just slow).
    ///
    /// The digest covers each process's protocol state, the multiset of
    /// in-flight messages (commutatively — the pending pool is unordered),
    /// pending live timers by owner and tag, and the RNG state. It
    /// deliberately *excludes* simulated time, arrival times and timer
    /// generation ids: two states differing only in clock readings behave
    /// identically under the zero-latency configs MC runs use, and folding
    /// time in would make every interleaving look unique, defeating
    /// pruning. Predicates are still checked on every traversed edge
    /// before the prune test, so collapsing time-equivalent states never
    /// skips a violation reachable along the pruned path's prefix.
    pub fn mc_fingerprint(&self) -> Option<u64> {
        use eunomia_collections::{combine_unordered, hash_one, Fnv64};
        use std::hash::Hasher as _;
        let mut h = Fnv64::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let proc = slot
                .proc
                .as_ref()
                .expect("no handler is running while fingerprinting");
            h.write_usize(i);
            if !proc.mc_state(&mut h) {
                return None;
            }
            // Queued work only exists for busy/paused processes; MC
            // configs use zero service costs and no pauses.
            debug_assert!(slot.queue.is_empty(), "unexpected queued work in MC mode");
        }
        let mut pending = 0u64;
        for e in &self.mc_queue {
            let Target::Arrive { slot } = e.what else {
                continue;
            };
            match self.arena.get(slot) {
                Some((to, Work::Message { from, msg })) => {
                    pending = combine_unordered(pending, hash_one(&(1u8, from.0, to.0, msg)));
                }
                Some((to, Work::Timer { tag, id })) if self.timer_table.is_live(*id) => {
                    pending = combine_unordered(pending, hash_one(&(2u8, to.0, *tag)));
                }
                _ => {}
            }
        }
        h.write_u64(pending);
        // Two states with different RNG positions can diverge on the next
        // client op draw; sample (a clone of) the stream instead of
        // depending on StdRng's internals being hashable.
        let mut rng = self.rng.clone();
        h.write_u64(rng.random());
        h.write_u64(rng.random());
        Some(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<(SimTime, String)>>>;

    /// Drives the calendar queue across a bucket-epoch rollover and an
    /// overflow migration pinned to the exact window boundary: an entry
    /// at `NBUCKETS << shift` is the first time that must land in
    /// overflow (one tick earlier is the last ring slot), and both must
    /// come back in global `(time, seq)` order as the cursor slides,
    /// wraps the ring, and jumps.
    #[test]
    fn calendar_queue_rollover_and_boundary_migration() {
        let entry = |time, seq| HeapEntry {
            time,
            seq,
            what: Target::Dispatch { to: ProcessId(0) },
        };
        let mut q = CalendarQueue::new();
        let w = 1u64 << q.shift;
        let boundary = w * NBUCKETS as u64; // first time outside the window
        q.push(entry(0, 0)); // bucket 0: straight to active
        q.push(entry(w, 1)); // bucket 1: ring
        q.push(entry(boundary - 1, 2)); // last bucket inside the window
        q.push(entry(boundary, 3)); // exactly on the boundary: overflow
        q.push(entry(boundary + 5 * w, 4)); // deeper overflow
        assert_eq!(q.len(), 5);
        assert_eq!(
            q.overflow.len(),
            2,
            "the boundary entry itself must start in overflow"
        );
        // Bucket `NBUCKETS` reuses ring slot 0 (epoch wrap) after the
        // boundary entry migrates in; order must be untouched by which
        // tier each entry sat in.
        let times: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(times, vec![0, w, boundary - 1, boundary, boundary + 5 * w]);
        assert_eq!(q.overflow_migrations, 2);
        assert!(q.is_empty());

        // Far-future-only pending: the cursor jumps (no bucket walk) and
        // migrates the window in.
        let mut q = CalendarQueue::new();
        q.push(entry(3 * boundary + 7, 9));
        assert_eq!(q.overflow.len(), 1);
        let e = q.pop().expect("entry is pending");
        assert_eq!((e.time, e.seq), (3 * boundary + 7, 9));
        assert_eq!(q.overflow_migrations, 1);

        // Same-timestamp entries pushed out of seq order, one far future
        // (migrates) and one near: `seq` still breaks the tie.
        let mut q = CalendarQueue::new();
        q.push(entry(boundary, 8));
        q.push(entry(boundary, 6));
        let first = q.pop().expect("two entries pending");
        let second = q.pop().expect("one entry pending");
        assert_eq!((first.time, first.seq), (boundary, 6));
        assert_eq!((second.time, second.seq), (boundary, 8));
    }

    struct Recorder {
        log: Log,
        label: &'static str,
    }

    impl Process<u64> for Recorder {
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: ProcessId, msg: u64) {
            self.log
                .borrow_mut()
                .push((ctx.now(), format!("{}:{}", self.label, msg)));
        }
    }

    struct Burst {
        peer: ProcessId,
        n: u64,
    }

    impl Process<u64> for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            for i in 0..self.n {
                ctx.send(self.peer, i);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: ProcessId, _msg: u64) {}
    }

    #[test]
    fn fifo_per_link_with_jitter() {
        let log: Log = Rc::default();
        let mut sim = Simulation::new(Topology::single_region(2, units::us(100), units::us(90)), 1);
        let rec = sim.add_process(
            0,
            Box::new(Recorder {
                log: log.clone(),
                label: "r",
            }),
        );
        let _send = sim.add_process(0, Box::new(Burst { peer: rec, n: 50 }));
        sim.run_until(units::secs(1));
        let log = log.borrow();
        assert_eq!(log.len(), 50);
        // Messages arrive in send order despite jitter (FIFO clamp).
        for (i, (_, m)) in log.iter().enumerate() {
            assert_eq!(m, &format!("r:{i}"));
        }
        // Arrival times never regress.
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    struct SlowServer {
        log: Log,
        cost: SimTime,
    }

    impl Process<u64> for SlowServer {
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: ProcessId, msg: u64) {
            ctx.consume(self.cost);
            self.log.borrow_mut().push((ctx.now(), format!("s:{msg}")));
        }
    }

    #[test]
    fn busy_server_serializes_work() {
        let log: Log = Rc::default();
        let mut sim = Simulation::new(Topology::single_region(2, units::us(10), 0), 2);
        let server = sim.add_process(
            0,
            Box::new(SlowServer {
                log: log.clone(),
                cost: units::us(100),
            }),
        );
        let _client = sim.add_process(
            0,
            Box::new(Burst {
                peer: server,
                n: 10,
            }),
        );
        sim.run_until(units::secs(1));
        let log = log.borrow();
        assert_eq!(log.len(), 10);
        // All ten arrive at ~10us, but handling is spaced by the 100us
        // service time: message k starts at 10us + k*100us.
        for (k, (t, _)) in log.iter().enumerate() {
            assert_eq!(*t, units::us(10) + k as u64 * units::us(100));
        }
    }

    struct Ticker {
        log: Log,
        period: SimTime,
        remaining: u32,
    }

    impl Process<u64> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.set_timer(self.period, 7);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: ProcessId, _msg: u64) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, tag: u64) {
            assert_eq!(tag, 7);
            self.log.borrow_mut().push((ctx.now(), "tick".into()));
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.set_timer(self.period, 7);
            }
        }
    }

    #[test]
    fn timers_fire_periodically() {
        let log: Log = Rc::default();
        let mut sim = Simulation::new(Topology::single_region(1, 0, 0), 3);
        sim.add_process(
            0,
            Box::new(Ticker {
                log: log.clone(),
                period: units::ms(5),
                remaining: 4,
            }),
        );
        sim.run_until(units::secs(1));
        let times: Vec<SimTime> = log.borrow().iter().map(|(t, _)| *t).collect();
        assert_eq!(
            times,
            vec![units::ms(5), units::ms(10), units::ms(15), units::ms(20)]
        );
    }

    #[test]
    fn crash_drops_pending_and_future_work() {
        let log: Log = Rc::default();
        let mut sim = Simulation::new(Topology::single_region(2, units::ms(1), 0), 4);
        let server = sim.add_process(
            0,
            Box::new(SlowServer {
                log: log.clone(),
                cost: units::ms(2),
            }),
        );
        let _client = sim.add_process(
            0,
            Box::new(Burst {
                peer: server,
                n: 100,
            }),
        );
        sim.crash_at(server, units::ms(10));
        sim.run_until(units::secs(1));
        // Arrived at 1ms, 2ms service each: handled at 1,3,5,7,9 -> 5 done.
        assert_eq!(log.borrow().len(), 5);
        assert!(sim.is_crashed(server));
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        fn run(seed: u64) -> Vec<(SimTime, String)> {
            let log: Log = Rc::default();
            let mut sim = Simulation::new(
                Topology::single_region(3, units::us(50), units::us(77)),
                seed,
            );
            let rec = sim.add_process(
                0,
                Box::new(Recorder {
                    log: log.clone(),
                    label: "x",
                }),
            );
            for _ in 0..3 {
                let _ = sim.add_process(0, Box::new(Burst { peer: rec, n: 20 }));
            }
            sim.run_until(units::secs(1));
            let out = log.borrow().clone();
            out
        }
        assert_eq!(run(99), run(99));
        assert_ne!(
            run(99),
            run(100),
            "different seeds should differ under jitter"
        );
    }

    #[test]
    fn clock_models_apply_per_node() {
        struct ClockReader {
            log: Log,
        }
        impl Process<u64> for ClockReader {
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                ctx.set_timer(units::ms(10), 0);
            }
            fn on_message(&mut self, _c: &mut Context<'_, u64>, _f: ProcessId, _m: u64) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _tag: u64) {
                self.log.borrow_mut().push((ctx.clock(), "c".into()));
            }
        }
        let log: Log = Rc::default();
        let mut sim = Simulation::new(Topology::single_region(2, 0, 0), 5);
        let ahead = sim.add_node_with_clock(0, ClockModel::new(units::ms(3) as i64, 0.0));
        sim.add_process_on(ahead, Box::new(ClockReader { log: log.clone() }));
        sim.run_until(units::secs(1));
        let clock_read = log.borrow()[0].0;
        assert_eq!(clock_read, units::ms(13));
    }

    #[test]
    fn cross_region_latency_is_half_rtt() {
        let log: Log = Rc::default();
        let mut sim = Simulation::new(Topology::paper_three_dcs(0, 0), 6);
        let rec = sim.add_process(
            1,
            Box::new(Recorder {
                log: log.clone(),
                label: "r",
            }),
        );
        let _send = sim.add_process(0, Box::new(Burst { peer: rec, n: 1 }));
        sim.run_until(units::secs(1));
        assert_eq!(log.borrow()[0].0, units::ms(40));
    }

    #[test]
    fn send_delayed_adds_to_departure() {
        struct DelaySender {
            peer: ProcessId,
        }
        impl Process<u64> for DelaySender {
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                ctx.send_delayed(self.peer, 1, units::ms(7));
            }
            fn on_message(&mut self, _c: &mut Context<'_, u64>, _f: ProcessId, _m: u64) {}
        }
        let log: Log = Rc::default();
        let mut sim = Simulation::new(Topology::single_region(2, units::ms(1), 0), 8);
        let rec = sim.add_process(
            0,
            Box::new(Recorder {
                log: log.clone(),
                label: "r",
            }),
        );
        let _s = sim.add_process(0, Box::new(DelaySender { peer: rec }));
        sim.run_until(units::secs(1));
        assert_eq!(log.borrow()[0].0, units::ms(8));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// FIFO per link holds for any jitter bound and seed, and the
            /// busy-server model never loses or duplicates messages.
            #[test]
            fn fifo_and_conservation(seed in 0u64..5000, jitter_us in 0u64..500, n in 1u64..80) {
                let log: Log = Rc::default();
                let mut sim = Simulation::new(
                    Topology::single_region(2, units::us(50), units::us(jitter_us)),
                    seed,
                );
                let rec = sim.add_process(
                    0,
                    Box::new(SlowServer { log: log.clone(), cost: units::us(10) }),
                );
                let _send = sim.add_process(0, Box::new(Burst { peer: rec, n }));
                sim.run_until(units::secs(2));
                let log = log.borrow();
                prop_assert_eq!(log.len(), n as usize, "conservation");
                for (i, (_, m)) in log.iter().enumerate() {
                    prop_assert_eq!(m, &format!("s:{i}"), "FIFO order");
                }
                for w in log.windows(2) {
                    prop_assert!(w[0].0 <= w[1].0, "time monotone");
                }
            }
        }
    }

    #[test]
    fn stale_cancels_leak_nothing_and_spare_reused_slots() {
        // A process that every tick: fires timer A, then cancels A's
        // already-fired id (the old engine accumulated one HashSet entry
        // per such cancel, forever) and arms the next tick. The stale
        // cancel must also not kill the fresh timer even when the slab
        // reuses A's slot.
        struct StaleCanceller {
            last: u64,
            fired: u32,
            rounds: u32,
        }
        impl Process<u64> for StaleCanceller {
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                self.last = ctx.set_timer(units::us(10), 0);
            }
            fn on_message(&mut self, _c: &mut Context<'_, u64>, _f: ProcessId, _m: u64) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _tag: u64) {
                self.fired += 1;
                let stale = self.last;
                if self.fired < self.rounds {
                    // Arm first so the freed slot is reused, then cancel
                    // the stale id — the new timer must survive.
                    self.last = ctx.set_timer(units::us(10), 0);
                    ctx.cancel_timer(stale);
                    ctx.cancel_timer(stale); // double-cancel: also a no-op
                }
            }
        }
        let mut sim = Simulation::new(Topology::single_region(1, 0, 0), 10);
        sim.add_process(
            0,
            Box::new(StaleCanceller {
                last: 0,
                fired: 0,
                rounds: 10_000,
            }),
        );
        sim.run_until(units::secs(1));
        // Every round fired (stale cancels killed nothing)...
        assert_eq!(sim.events_processed(), 1 + 10_000);
        // ...and no cancellation state accumulated.
        assert_eq!(sim.live_timers(), 0);
    }

    #[test]
    fn crash_retires_armed_timers() {
        // A ticker that always has one timer armed, crashed mid-run: the
        // in-flight timer arrival lands on a crashed process and must
        // give its table slot back.
        let log: Log = Rc::default();
        let mut sim = Simulation::new(Topology::single_region(1, 0, 0), 13);
        let pid = sim.add_process(
            0,
            Box::new(Ticker {
                log: log.clone(),
                period: units::ms(5),
                remaining: u32::MAX,
            }),
        );
        sim.crash_at(pid, units::ms(12));
        sim.run_until(units::secs(1));
        assert_eq!(log.borrow().len(), 2); // ticks at 5 ms and 10 ms
        assert_eq!(sim.live_timers(), 0, "crashed process's timer leaked");
    }

    #[test]
    fn engine_stats_count_the_run() {
        let log: Log = Rc::default();
        let mut sim = Simulation::new(Topology::single_region(2, units::us(100), 0), 12);
        let rec = sim.add_process(
            0,
            Box::new(Recorder {
                log: log.clone(),
                label: "r",
            }),
        );
        let _send = sim.add_process(0, Box::new(Burst { peer: rec, n: 50 }));
        sim.run_until(units::secs(1));
        let st = sim.stats();
        assert_eq!(st.events, sim.events_processed());
        assert_eq!(st.events, 2 + 50); // two starts + fifty deliveries
        assert_eq!(st.messages_routed, 50);
        assert!(st.heap_peak >= 50, "burst fills the heap: {}", st.heap_peak);
        assert!(st.direct_deliveries >= 2, "starts run direct");
        assert!(st.wall_ns > 0);
        assert!(st.events_per_sec() > 0.0);
    }

    #[test]
    fn partitioned_link_defers_delivery_to_heal() {
        use crate::faults::FaultSchedule;
        struct TimedSender {
            peer: ProcessId,
        }
        impl Process<u64> for TimedSender {
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                ctx.set_timer(units::ms(10), 0);
            }
            fn on_message(&mut self, _c: &mut Context<'_, u64>, _f: ProcessId, _m: u64) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _tag: u64) {
                ctx.send(self.peer, ctx.now());
            }
        }
        let log: Log = Rc::default();
        let mut sim = Simulation::new(Topology::paper_three_dcs(0, 0), 21);
        let rec = sim.add_process(
            1,
            Box::new(Recorder {
                log: log.clone(),
                label: "r",
            }),
        );
        let _s = sim.add_process(0, Box::new(TimedSender { peer: rec }));
        let mut fs = FaultSchedule::new();
        // dc0 <-> dc1 partitioned over the send instant (10 ms).
        fs.partition(0, 1, units::ms(5), units::ms(200));
        sim.set_fault_schedule(fs);
        sim.run_until(units::secs(1));
        // Normal arrival would be 10 + 40 ms; deferred to heal + 40 ms.
        assert_eq!(log.borrow()[0].0, units::ms(240));
        assert_eq!(sim.stats().messages_deferred, 1);
    }

    #[test]
    fn gray_link_inflates_latency_without_loss() {
        use crate::faults::FaultSchedule;
        let log: Log = Rc::default();
        let mut sim = Simulation::new(Topology::paper_three_dcs(0, 0), 22);
        let rec = sim.add_process(
            1,
            Box::new(Recorder {
                log: log.clone(),
                label: "r",
            }),
        );
        let _s = sim.add_process(0, Box::new(Burst { peer: rec, n: 200 }));
        let mut fs = FaultSchedule::new();
        fs.degrade(0, 1, 0, units::secs(1), 0.5, units::ms(5), units::ms(50));
        sim.set_fault_schedule(fs);
        sim.run_until(units::secs(5));
        let log = log.borrow();
        // Nothing is lost; FIFO order holds despite random RTO penalties.
        assert_eq!(log.len(), 200);
        for (i, (_, m)) in log.iter().enumerate() {
            assert_eq!(m, &format!("r:{i}"));
        }
        // Every message pays at least base + extra.
        assert!(log.iter().all(|(t, _)| *t >= units::ms(45)));
        // ~50% loss over 200 messages: retransmits happened.
        let st = sim.stats();
        assert!(st.retransmits > 50, "retransmits: {}", st.retransmits);
        assert_eq!(st.messages_deferred, 0);
    }

    #[test]
    fn oneway_override_makes_links_asymmetric() {
        use crate::faults::FaultSchedule;
        struct Echo;
        impl Process<u64> for Echo {
            fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, msg: u64) {
                ctx.send(from, msg);
            }
        }
        let log: Log = Rc::default();
        let mut sim = Simulation::new(Topology::paper_three_dcs(0, 0), 23);
        let echo = sim.add_process(1, Box::new(Echo));
        struct PingOnce {
            peer: ProcessId,
            log: Log,
        }
        impl Process<u64> for PingOnce {
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                ctx.send(self.peer, 1);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u64>, _f: ProcessId, _m: u64) {
                self.log.borrow_mut().push((ctx.now(), "pong".into()));
            }
        }
        let _p = sim.add_process(
            0,
            Box::new(PingOnce {
                peer: echo,
                log: log.clone(),
            }),
        );
        let mut fs = FaultSchedule::new();
        // dc0 -> dc1 slowed to 100 ms one-way; the return path keeps 40 ms.
        fs.override_oneway(0, 1, 0, units::secs(10), units::ms(100));
        sim.set_fault_schedule(fs);
        sim.run_until(units::secs(1));
        assert_eq!(log.borrow()[0].0, units::ms(140));
    }

    #[test]
    fn pause_queues_everything_and_resumes_in_order() {
        let log: Log = Rc::default();
        let mut sim = Simulation::new(Topology::single_region(2, units::ms(1), 0), 24);
        let server = sim.add_process(
            0,
            Box::new(SlowServer {
                log: log.clone(),
                cost: units::us(10),
            }),
        );
        let _client = sim.add_process(
            0,
            Box::new(Burst {
                peer: server,
                n: 20,
            }),
        );
        // Messages arrive at 1 ms; the server is paused over that instant.
        sim.pause_between(server, units::us(500), units::ms(50));
        sim.run_until(units::secs(1));
        let log = log.borrow();
        assert_eq!(log.len(), 20, "pause drops nothing");
        // First handled at the resume, in FIFO order.
        assert_eq!(log[0].0, units::ms(50));
        for (i, (_, m)) in log.iter().enumerate() {
            assert_eq!(m, &format!("s:{i}"));
        }
        assert!(!sim.is_paused(server));
    }

    #[test]
    fn paused_timers_fire_late_but_fire() {
        let log: Log = Rc::default();
        let mut sim = Simulation::new(Topology::single_region(1, 0, 0), 25);
        let pid = sim.add_process(
            0,
            Box::new(Ticker {
                log: log.clone(),
                period: units::ms(5),
                remaining: 3,
            }),
        );
        sim.pause_between(pid, units::ms(2), units::ms(30));
        sim.run_until(units::secs(1));
        let times: Vec<SimTime> = log.borrow().iter().map(|(t, _)| *t).collect();
        // First tick (scheduled for 5 ms) runs at the resume; the rest
        // re-arm from there.
        assert_eq!(times, vec![units::ms(30), units::ms(35), units::ms(40)]);
        assert_eq!(sim.live_timers(), 0);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct Canceller;
        impl Process<u64> for Canceller {
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                let id = ctx.set_timer(units::ms(1), 1);
                ctx.cancel_timer(id);
                ctx.set_timer(units::ms(2), 2);
            }
            fn on_message(&mut self, _c: &mut Context<'_, u64>, _f: ProcessId, _m: u64) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, tag: u64) {
                assert_eq!(tag, 2, "cancelled timer must not fire");
            }
        }
        let mut sim = Simulation::new(Topology::single_region(1, 0, 0), 9);
        sim.add_process(0, Box::new(Canceller));
        sim.run_until(units::secs(1));
        assert_eq!(sim.events_processed(), 2); // start + timer 2
    }
}
