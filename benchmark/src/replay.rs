//! Single-threaded replay of the service path under spans.
//!
//! The threaded run cannot be traced from outside — its calls into
//! `core::shard` and the ring happen on threads the runtime owns — so the
//! traced run also drives the same state machines itself, on one thread,
//! in the runtime's call order:
//!
//! ```text
//! feeder pass:  grant ring -> MuxSender::on_grant
//!               ScalarHlc::tick_local + MuxSender::push     (per id)
//!               MuxSender::build_frame -> frame ring        (per lane x replica)
//! replica pass: frame ring -> ShardedReplicaState::ingest_owned
//!               advertise -> GrantCoalescer::note           (per frame)
//!               every theta: stable_time, drain or discard, re-advertise
//!               GrantCoalescer::drain -> grant ring
//! ```
//!
//! with a span around every call. Its shape — lanes, replicas, ids per
//! frame, frames per theta sweep — comes from the threaded run's own
//! counters; the clock gaps between passes come from the seed.

use crate::span::Tracer;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use eunomia_core::ids::{PartitionId, ReplicaId};
use eunomia_core::shard::{BatchFrame, GrantBatch, GrantCoalescer, MuxSender, ShardedReplicaState};
use eunomia_core::time::{ScalarHlc, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The runtime's private constants, restated: frames drained per replica
/// wake and the cap on ids per frame.
const DRAIN_MAX: usize = 64;
const MAX_FRAME_IDS: usize = 4096;

/// Names of the spans [`run`] records, in call order.
pub const SPANS: &[&str] = &[
    "crossbeam.recv_grants",
    "core.on_grant",
    "core.push",
    "core.build_frame",
    "crossbeam.send_frame",
    "crossbeam.recv_batch",
    "core.ingest_owned",
    "core.advertise_note",
    "core.sweep",
    "core.drain_stable",
    "core.grant_drain",
    "crossbeam.send_grants",
];

#[derive(Clone, Debug)]
pub struct ReplayShape {
    pub lanes: usize,
    pub replicas: usize,
    pub ids_per_frame: usize,
    pub frames_per_sweep: u64,
    pub total_ids: u64,
    pub credit_budget: u32,
    pub window_cap: usize,
    pub batch_interval_ns: u64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct ReplayOutcome {
    pub wall_ns: u64,
    pub generated: u64,
    pub stabilized: u64,
    pub frames: u64,
    pub duplicates: u64,
    /// Sum of the 1-in-64 sampled stabilization latencies (replay-clock
    /// ns): the sampling work the runtime's leader does in its drain.
    pub sampled_latency_ns: u64,
}

struct Replica {
    state: ShardedReplicaState,
    coalescer: GrantCoalescer,
    frames_tx: Sender<BatchFrame>,
    frames_rx: Receiver<BatchFrame>,
    advertised: Vec<u32>,
    frames_since_sweep: u64,
}

pub fn run(shape: &ReplayShape, seed: u64, t: &mut Tracer) -> ReplayOutcome {
    let lanes = shape.lanes;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mux = MuxSender::new(PartitionId(0), lanes, shape.replicas);
    let mut hlc = vec![ScalarHlc::new(); lanes];
    let ring_cap = (lanes * 4).max(16);
    let mut replicas: Vec<Replica> = (0..shape.replicas)
        .map(|r| {
            let (frames_tx, frames_rx) = bounded(ring_cap);
            let mut state = ShardedReplicaState::new(ReplicaId(r as u32), lanes);
            state.set_leader(ReplicaId(0));
            Replica {
                state,
                coalescer: GrantCoalescer::new(PartitionId(0), lanes),
                frames_tx,
                frames_rx,
                advertised: vec![0; lanes],
                frames_since_sweep: 0,
            }
        })
        .collect();
    let (grants_tx, grants_rx) = bounded::<GrantBatch>((shape.replicas * 8).max(32));
    let mut grant_buf: Vec<GrantBatch> = Vec::new();
    let mut batch_spares: Vec<GrantBatch> = Vec::new();
    let mut frame_spares: Vec<Vec<Timestamp>> = Vec::new();
    let mut frames_buf: Vec<BatchFrame> = Vec::with_capacity(DRAIN_MAX);
    let lane_soft_cap = shape.window_cap * 2;
    let burst = shape.ids_per_frame.min(MAX_FRAME_IDS);

    let mut out = ReplayOutcome {
        wall_ns: 0,
        generated: 0,
        stabilized: 0,
        frames: 0,
        duplicates: 0,
        sampled_latency_ns: 0,
    };
    let mut stable_published = Timestamp::ZERO;
    let mut now_ns = 1_000_000u64;
    let start = Instant::now();
    // Generation stops at the id count; passes continue until the last
    // generated id has left stabilized (or nothing moves any more).
    let mut idle_passes = 0;
    while out.stabilized < out.generated || out.generated < shape.total_ids {
        let stabilized_before = out.stabilized;
        // One pass is one feeder wake: the clock moved by about a batch
        // interval since the last one.
        now_ns += rng.random_range(shape.batch_interval_ns / 2..=shape.batch_interval_ns * 3 / 2);
        let physical = Timestamp(now_ns);

        grant_buf.clear();
        t.span("crossbeam.recv_grants", |_| {
            grants_rx.try_recv_batch(&mut grant_buf, usize::MAX)
        });
        for batch in grant_buf.drain(..) {
            t.span_units("core.on_grant", |_| {
                for lg in &batch.grants {
                    mux.on_grant(lg.lane.index(), lg.grant);
                }
                ((), batch.grants.len() as u64)
            });
            batch_spares.push(batch);
        }

        if out.generated < shape.total_ids {
            out.generated += t.span_units("core.push", |_| {
                let mut pushed = 0;
                for (lane, clock) in hlc.iter_mut().enumerate() {
                    let room = lane_soft_cap
                        .saturating_sub(mux.lane_window_len(lane))
                        .min(burst);
                    for _ in 0..room {
                        mux.push(lane, clock.tick_local(physical));
                    }
                    pushed += room as u64;
                }
                (pushed, pushed)
            });
        }

        for lane in 0..lanes {
            for (r, replica) in replicas.iter().enumerate() {
                let rid = ReplicaId(r as u32);
                if mux.sendable(lane, rid) == 0 {
                    continue;
                }
                let spare = frame_spares.pop().unwrap_or_default();
                let frame = t.span_units("core.build_frame", |_| {
                    let floor = mux.sent_of(lane, rid);
                    let f = mux.build_frame(lane, rid, floor, None, MAX_FRAME_IDS, spare);
                    let n = f.ids.len() as u64;
                    (f, n)
                });
                let Some(&newest) = frame.ids.last() else {
                    frame_spares.push(frame.ids);
                    continue;
                };
                let sent = t.span_units("crossbeam.send_frame", |_| {
                    (replica.frames_tx.try_send(frame), 1)
                });
                match sent {
                    Ok(()) => mux.note_sent(lane, rid, newest),
                    // Ring full: nothing counts as sent, the next pass
                    // rebuilds the same suffix.
                    Err(TrySendError::Full(f) | TrySendError::Disconnected(f)) => {
                        frame_spares.push(f.ids)
                    }
                }
            }
        }

        for (r, replica) in replicas.iter_mut().enumerate() {
            loop {
                frames_buf.clear();
                let n = t.span_units("crossbeam.recv_batch", |_| {
                    let n = replica.frames_rx.try_recv_batch(&mut frames_buf, DRAIN_MAX);
                    (n, n as u64)
                });
                if n == 0 {
                    break;
                }
                let fill = replica.frames_rx.len() as f64 / ring_cap as f64;
                for frame in frames_buf.drain(..) {
                    let lane = frame.partition;
                    t.span_units("core.ingest_owned", |_| {
                        let n = frame.ids.len() as u64;
                        replica
                            .state
                            .ingest_owned(frame)
                            .expect("the replay only sends lanes the replica has");
                        ((), n)
                    });
                    t.span_units("core.advertise_note", |_| {
                        if let Some(grant) =
                            replica.state.advertise(lane, fill, shape.credit_budget)
                        {
                            replica.advertised[lane.index()] = grant.credit;
                            replica.coalescer.note(lane, grant);
                        }
                        ((), 1)
                    });
                }
                out.frames += n as u64;
                replica.frames_since_sweep += n as u64;
            }

            if replica.frames_since_sweep >= shape.frames_per_sweep {
                replica.frames_since_sweep = 0;
                t.span("core.sweep", |t| {
                    let cutoff = replica.state.stable_time();
                    if r == 0 {
                        let mut emitted = 0u64;
                        let mut sampled_ns = 0u64;
                        let stable = t.span_units("core.drain_stable", |_| {
                            let stable =
                                replica.state.leader_process_stable_up_to(cutoff, |_, ts| {
                                    if emitted.is_multiple_of(64) {
                                        sampled_ns += now_ns.saturating_sub(ts.0);
                                    }
                                    emitted += 1;
                                });
                            (stable, emitted)
                        });
                        if let Some(stable) = stable {
                            stable_published = stable_published.max(stable);
                            out.stabilized += emitted;
                            out.sampled_latency_ns += sampled_ns;
                        }
                    } else {
                        replica.state.apply_stable(stable_published);
                    }
                    // Re-advertise throttled lanes, as the runtime's
                    // theta tick does.
                    let fill = replica.frames_rx.len() as f64 / ring_cap as f64;
                    for (lane, adv) in replica.advertised.iter_mut().enumerate() {
                        if *adv >= shape.credit_budget / 2 {
                            continue;
                        }
                        let lane = PartitionId(lane as u32);
                        if let Some(grant) =
                            replica.state.advertise(lane, fill, shape.credit_budget)
                        {
                            *adv = grant.credit;
                            replica.coalescer.note(lane, grant);
                        }
                    }
                });
            }

            let spare = batch_spares.pop().unwrap_or_default();
            let batch = t.span_units("core.grant_drain", |_| {
                let b = replica.coalescer.drain(spare);
                let n = b.as_ref().map_or(0, |b| b.grants.len() as u64);
                (b, n)
            });
            if let Some(batch) = batch {
                let sent =
                    t.span_units("crossbeam.send_grants", |_| (grants_tx.try_send(batch), 1));
                if let Err(TrySendError::Full(b) | TrySendError::Disconnected(b)) = sent {
                    replica.coalescer.restore(&b);
                    batch_spares.push(b);
                }
            }
        }

        // Once generation has stopped, a sweep is forced each pass so
        // the tail drains; a pass that moves nothing twice in a row
        // means the tail cannot drain (it would be a bug) — stop rather
        // than spin.
        if out.generated >= shape.total_ids {
            for replica in &mut replicas {
                replica.frames_since_sweep = shape.frames_per_sweep;
            }
            idle_passes = if out.stabilized == stabilized_before {
                idle_passes + 1
            } else {
                0
            };
            if idle_passes > 4 {
                break;
            }
        }
    }
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out.duplicates = replicas.iter().map(|r| r.state.total_duplicates()).sum();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(lanes: usize, replicas: usize) -> ReplayShape {
        ReplayShape {
            lanes,
            replicas,
            ids_per_frame: 256,
            frames_per_sweep: 8,
            total_ids: 200_000,
            credit_budget: 65_536,
            window_cap: 4_096,
            batch_interval_ns: 1_000_000,
        }
    }

    #[test]
    fn every_generated_id_leaves_stabilized_exactly_once() {
        for (lanes, replicas) in [(1, 1), (64, 1), (64, 3), (1024, 1)] {
            let out = run(&shape(lanes, replicas), 7, &mut Tracer::new(false));
            assert!(out.generated >= 200_000, "{lanes}x{replicas}: {out:?}");
            assert_eq!(out.stabilized, out.generated, "{lanes}x{replicas}: {out:?}");
            assert_eq!(out.duplicates, 0, "{lanes}x{replicas}");
            assert!(out.frames > 0);
        }
    }

    #[test]
    fn traced_and_untraced_replays_do_the_same_work_and_name_their_spans() {
        let plain = run(&shape(16, 2), 3, &mut Tracer::new(false));
        let mut t = Tracer::new(true);
        let traced = run(&shape(16, 2), 3, &mut t);
        assert_eq!(
            (plain.generated, plain.stabilized, plain.frames),
            (traced.generated, traced.stabilized, traced.frames)
        );
        let rollup = t.rollup();
        for name in SPANS {
            assert!(rollup.contains_key(name), "no {name} span recorded");
        }
        assert_eq!(rollup["core.push"].units, traced.generated);
        assert_eq!(rollup["core.drain_stable"].units, traced.stabilized);
        assert_eq!(rollup["core.ingest_owned"].calls, traced.frames);
    }
}
