//! Criterion bench — micro-operations on the protocol hot paths: clock
//! ticks, vector merges, Eunomia ingest/stabilize cycles, sharded-replica
//! frame ingestion (the code the threaded figures run), sequencer
//! counter, lane-sender window maintenance.

use criterion::{criterion_group, criterion_main, Criterion};
use eunomia_core::ids::{PartitionId, ReplicaId};
use eunomia_core::replica::ReplicaState;
use eunomia_core::sequencer::Sequencer;
use eunomia_core::shard::{BatchFrame, LaneSender, ShardedReplicaState};
use eunomia_core::time::{ScalarHlc, Timestamp, VectorTime};
use std::hint::black_box;
use std::time::Duration;

fn clock_benches(c: &mut Criterion) {
    c.bench_function("clock/scalar_hlc_tick", |b| {
        let mut clock = ScalarHlc::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 3;
            black_box(clock.tick(Timestamp(t), Timestamp(t / 2)))
        })
    });
    c.bench_function("clock/vector_merge_and_dominates_m3", |b| {
        let mut a = VectorTime::from_ticks(&[10, 20, 30]);
        let v = VectorTime::from_ticks(&[15, 18, 33]);
        b.iter(|| {
            a.merge_max(black_box(&v));
            black_box(a.dominates(&v))
        })
    });
}

fn eunomia_benches(c: &mut Criterion) {
    c.bench_function("eunomia/ingest_and_stabilize_16p", |b| {
        // Steady state: 16 partitions round-robin one op each, then a
        // stabilization pass drains what became stable.
        b.iter_with_setup(
            || (ReplicaState::<u64>::new(ReplicaId(0), 16), Vec::new()),
            |(mut svc, mut out)| {
                for round in 0..64u64 {
                    for p in 0..16u32 {
                        let ts = round * 100 + u64::from(p) + 1;
                        svc.new_batch(PartitionId(p), [(Timestamp(ts), ts)])
                            .unwrap();
                    }
                    svc.leader_process_stable(&mut out);
                }
                black_box(out.len())
            },
        )
    });
    c.bench_function("eunomia/replica_duplicate_filtering", |b| {
        // At-least-once delivery on the threaded hot path: half of each
        // batch frame was already seen, sliced off by the watermark dedup
        // (this is the same `ShardedReplicaState::ingest` the fig2–fig4
        // service figures and the `svc-*` benchmark workloads exercise).
        b.iter_with_setup(
            || {
                let mut r = ShardedReplicaState::new(ReplicaId(0), 1);
                let first = BatchFrame {
                    partition: PartitionId(0),
                    ids: (1..=512u64).map(Timestamp).collect(),
                    heartbeat: None,
                };
                r.ingest(&first).unwrap();
                let redelivery = BatchFrame {
                    partition: PartitionId(0),
                    ids: (256..=768u64).map(Timestamp).collect(),
                    heartbeat: None,
                };
                (r, redelivery)
            },
            |(mut r, redelivery)| black_box(r.ingest(&redelivery).unwrap()),
        )
    });
    c.bench_function("eunomia/sharded_ingest_and_stabilize_16_lanes", |b| {
        // Steady-state frame cycle of the threaded service: 16 lanes each
        // ingest a 64-id frame, then the leader drains the stable cutoff.
        b.iter_with_setup(
            || {
                let frames: Vec<BatchFrame> = (0..16u32)
                    .map(|lane| BatchFrame {
                        partition: PartitionId(lane),
                        ids: (1..=64u64)
                            .map(|i| Timestamp(i * 100 + lane as u64))
                            .collect(),
                        heartbeat: None,
                    })
                    .collect();
                (ShardedReplicaState::new(ReplicaId(0), 16), frames)
            },
            |(mut r, frames)| {
                for f in &frames {
                    r.ingest(f).unwrap();
                }
                let mut n = 0u64;
                r.leader_process_stable_with(|_, _| n += 1);
                black_box(n)
            },
        )
    });
    c.bench_function("eunomia/lane_sender_frame_ack_cycle", |b| {
        let mut sender = LaneSender::new(3);
        let mut scratch: Vec<Timestamp> = Vec::with_capacity(64);
        let mut ts = 0u64;
        b.iter(|| {
            for _ in 0..64 {
                ts += 1;
                sender.push(Timestamp(ts));
            }
            scratch.clear();
            sender.append_above(Timestamp(ts - 64), &mut scratch);
            for r in 0..3u32 {
                sender.on_ack(ReplicaId(r), Timestamp(ts));
            }
            black_box((scratch.len(), sender.window_len()))
        })
    });
}

fn sequencer_benches(c: &mut Criterion) {
    c.bench_function("sequencer/next", |b| {
        let mut s = Sequencer::new();
        b.iter(|| black_box(s.next_seq()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900))
        .sample_size(20);
    targets = clock_benches, eunomia_benches, sequencer_benches
}
criterion_main!(benches);
