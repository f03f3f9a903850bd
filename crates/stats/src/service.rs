//! Counters and distributions of one threaded-service run.
//!
//! The threaded runtime (`eunomia-runtime`) fills one [`ServiceStats`]
//! per run; the service figures and the benchmark read it. It lives here
//! so the runtime and the bench harnesses can share it without depending
//! on each other.

use crate::Histogram;
use std::time::Duration;

/// Measurements of the threaded Eunomia service's hot path.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Ids that left the service stabilized — the paper's throughput
    /// quantity (operations leaving towards remote datacenters).
    pub stabilized_ids: u64,
    /// Ids accepted by replicas (non-duplicate).
    pub accepted_ids: u64,
    /// Duplicate id deliveries filtered by the watermark dedup.
    pub duplicate_ids: u64,
    /// Batch frames ingested by replicas.
    pub frames: u64,
    /// Distribution of ids per ingested frame.
    pub batch_sizes: Histogram,
    /// Highest frame backlog observed on any replica's ingest queue.
    pub queue_depth_high_water: u64,
    /// Stabilization latency (ns): id issue (its timestamp) to the
    /// leader's stable drain that emitted it.
    pub stabilization_latency: Histogram,
    /// Feeder-side: intervals in which a lane had unshipped ids but its
    /// credit window admitted none of them (the `EXHAUSTED` state of the
    /// flow-control machine) — how often backpressure actually bit.
    pub credit_stalls: u64,
    /// Feeder-side: frames deferred because a replica's ingest ring was
    /// full. Under credit flow control this should stay near zero — the
    /// credits, not the ring, are supposed to be the limit.
    pub ring_full_stalls: u64,
    /// Feeder-side: ids re-shipped by the retransmission timeout (the
    /// at-least-once safety net). Every one of these lands as a
    /// `duplicate_ids` entry at some replica.
    pub retransmitted_ids: u64,
    /// Replica-side: distribution of credits advertised in grants.
    pub advertised_credits: Histogram,
    /// Replica-side: per-second minimum credit advertised by any lane —
    /// the advertised-window timeline. [`ServiceStats::NO_CREDIT_SAMPLE`]
    /// marks seconds in which no grant was issued.
    ///
    /// Each stabilizer thread (one per replica, plus the thread a revival
    /// replaced) records only the grants *it* issued;
    /// [`merge`](ServiceStats::merge) folds the per-thread series
    /// element-wise by minimum (a second one thread never sampled keeps
    /// the other threads' minimum — the sentinel always loses), so the
    /// merged run-level series is one per-second min over every lane of
    /// every stabilizer thread.
    pub credit_timeline: Vec<u64>,
    /// Stabilizer-side: wall-clock nanoseconds of each theta sweep (one
    /// sample per stabilizer thread per tick: compute the stable cutoff,
    /// drain or discard the stable prefix, re-advertise throttled lanes).
    pub theta_sweep_ns: Histogram,
    /// Replica-side: lanes carried per enqueued [`GrantBatch`] — the
    /// grant-coalescing occupancy (1 everywhere means batching never
    /// amortized anything; the lanes-per-feeder-thread ceiling means the
    /// doorbell storm collapsed into one ring entry per sweep).
    ///
    /// [`GrantBatch`]: ../eunomia_core/shard/struct.GrantBatch.html
    pub grant_batch_lanes: Histogram,
    /// Replica-side: grant batches successfully enqueued to feeder rings.
    pub grant_batches: u64,
    /// Replica-side: doorbell unparks rung — at most one per enqueued
    /// batch, so `doorbell_unparks / grant_batches <= 1` pins the
    /// one-unpark-per-batch amortization, and none for a feeder thread
    /// that is not blocked on grants.
    pub doorbell_unparks: u64,
    /// Feeder-side: frames shipped while ring pressure held the lane's
    /// ship floor above zero — how often a replica's filling ingest ring
    /// made a feeder coalesce toward a full frame.
    pub pressure_floor_frames: u64,
    /// Feeder-side: the furthest any rate-limited lane fell behind its
    /// `feeder_rate` schedule, in ns: how long the oldest id the feeder
    /// had not yet generated had been due. It includes the sleep between
    /// passes, so it never reads below the time between passes. Zero in
    /// closed loop.
    pub feeder_lag_peak_ns: u64,
    /// Feeder-side: the same lag read once more when the run stops. An
    /// id the schedule offered but that no replica reached is either
    /// behind this lag or held in a window.
    pub feeder_lag_at_stop_ns: u64,
    /// Measured wall-clock duration of the run.
    pub elapsed: Duration,
}

impl ServiceStats {
    /// Sentinel in [`credit_timeline`](ServiceStats::credit_timeline) for
    /// a second with no grants.
    pub const NO_CREDIT_SAMPLE: u64 = u64::MAX;

    /// Folds one advertised credit into the per-second timeline: the
    /// bucket keeps the *minimum* credit seen that second, the clearest
    /// view of how hard flow control was squeezing.
    pub fn record_credit(&mut self, second: usize, credit: u64) {
        if self.credit_timeline.len() <= second {
            self.credit_timeline
                .resize(second + 1, Self::NO_CREDIT_SAMPLE);
        }
        let slot = &mut self.credit_timeline[second];
        *slot = (*slot).min(credit);
    }

    /// Ids stabilized per wall-clock second.
    pub fn ids_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.stabilized_ids as f64 / self.elapsed.as_secs_f64()
    }

    /// Mean ids per ingested frame.
    pub fn mean_batch_size(&self) -> f64 {
        self.batch_sizes.mean().unwrap_or(0.0)
    }

    /// Stabilization-latency percentile in milliseconds (`None` until at
    /// least one id stabilized).
    pub fn stabilization_latency_ms(&self, p: f64) -> Option<f64> {
        self.stabilization_latency
            .percentile(p)
            .map(|ns| ns as f64 / 1e6)
    }

    /// Batched form of [`stabilization_latency_ms`]: one histogram scan
    /// for any number of percentiles.
    ///
    /// [`stabilization_latency_ms`]: ServiceStats::stabilization_latency_ms
    pub fn stabilization_latencies_ms(&self, ps: &[f64]) -> Vec<Option<f64>> {
        self.stabilization_latency
            .percentiles(ps)
            .into_iter()
            .map(|v| v.map(|ns| ns as f64 / 1e6))
            .collect()
    }

    /// Folds another replica's (or run's) stats into this one: counters
    /// add, histograms merge, high-waters take the max, and the longer
    /// elapsed time wins (replica threads of one run overlap in time).
    pub fn merge(&mut self, other: &ServiceStats) {
        self.stabilized_ids += other.stabilized_ids;
        self.accepted_ids += other.accepted_ids;
        self.duplicate_ids += other.duplicate_ids;
        self.frames += other.frames;
        self.batch_sizes.merge(&other.batch_sizes);
        self.queue_depth_high_water = self
            .queue_depth_high_water
            .max(other.queue_depth_high_water);
        self.stabilization_latency
            .merge(&other.stabilization_latency);
        self.credit_stalls += other.credit_stalls;
        self.ring_full_stalls += other.ring_full_stalls;
        self.retransmitted_ids += other.retransmitted_ids;
        self.advertised_credits.merge(&other.advertised_credits);
        // Per-stabilizer-thread timelines fold element-wise by minimum
        // into one per-second min series. The no-sample sentinel is
        // `u64::MAX`, so it loses against any real sample on either side
        // and survives only for seconds in which *no* thread issued a
        // grant.
        if self.credit_timeline.len() < other.credit_timeline.len() {
            self.credit_timeline
                .resize(other.credit_timeline.len(), Self::NO_CREDIT_SAMPLE);
        }
        for (slot, &v) in self.credit_timeline.iter_mut().zip(&other.credit_timeline) {
            *slot = (*slot).min(v);
        }
        self.theta_sweep_ns.merge(&other.theta_sweep_ns);
        self.grant_batch_lanes.merge(&other.grant_batch_lanes);
        self.grant_batches += other.grant_batches;
        self.doorbell_unparks += other.doorbell_unparks;
        self.pressure_floor_frames += other.pressure_floor_frames;
        // Lags take the worst feeder thread, not a sum: threads run side
        // by side, each on its own schedule.
        self.feeder_lag_peak_ns = self.feeder_lag_peak_ns.max(other.feeder_lag_peak_ns);
        self.feeder_lag_at_stop_ns = self.feeder_lag_at_stop_ns.max(other.feeder_lag_at_stop_ns);
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    /// Theta-sweep duration percentile in microseconds (`None` until a
    /// stabilizer thread has swept at least once).
    pub fn theta_sweep_us(&self, p: f64) -> Option<f64> {
        self.theta_sweep_ns.percentile(p).map(|ns| ns as f64 / 1e3)
    }

    /// Mean lanes per enqueued grant batch (0.0 before any batch).
    pub fn mean_grant_batch_lanes(&self) -> f64 {
        self.grant_batch_lanes.mean().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_percentiles() {
        let mut s = ServiceStats {
            stabilized_ids: 2_000,
            elapsed: Duration::from_secs(2),
            ..ServiceStats::default()
        };
        assert!((s.ids_per_sec() - 1_000.0).abs() < 1e-9);
        assert_eq!(s.stabilization_latency_ms(99.0), None);
        for ns in [1_000_000u64, 2_000_000, 30_000_000] {
            s.stabilization_latency.record(ns);
        }
        let p50 = s.stabilization_latency_ms(50.0).unwrap();
        assert!((1.0..30.0).contains(&p50), "{p50}");
        assert_eq!(ServiceStats::default().ids_per_sec(), 0.0);
    }

    #[test]
    fn merge_adds_counters_and_maxes_watermarks() {
        let mut a = ServiceStats {
            stabilized_ids: 10,
            accepted_ids: 12,
            duplicate_ids: 1,
            frames: 3,
            queue_depth_high_water: 4,
            elapsed: Duration::from_secs(1),
            ..ServiceStats::default()
        };
        a.batch_sizes.record(4);
        let mut b = ServiceStats {
            stabilized_ids: 5,
            accepted_ids: 5,
            duplicate_ids: 0,
            frames: 2,
            queue_depth_high_water: 9,
            elapsed: Duration::from_millis(500),
            ..ServiceStats::default()
        };
        b.batch_sizes.record(2);
        b.batch_sizes.record(3);
        a.merge(&b);
        assert_eq!(a.stabilized_ids, 15);
        assert_eq!(a.accepted_ids, 17);
        assert_eq!(a.frames, 5);
        assert_eq!(a.queue_depth_high_water, 9);
        assert_eq!(a.batch_sizes.count(), 3);
        assert_eq!(a.elapsed, Duration::from_secs(1));
    }

    #[test]
    fn credit_timeline_keeps_per_second_minimum_across_merges() {
        let mut a = ServiceStats::default();
        a.record_credit(0, 500);
        a.record_credit(0, 200);
        a.record_credit(2, 900);
        assert_eq!(
            a.credit_timeline,
            vec![200, ServiceStats::NO_CREDIT_SAMPLE, 900]
        );
        let mut b = ServiceStats {
            credit_stalls: 3,
            ring_full_stalls: 1,
            retransmitted_ids: 7,
            ..ServiceStats::default()
        };
        b.record_credit(1, 50);
        b.record_credit(2, 1000);
        b.record_credit(3, 10);
        b.advertised_credits.record(50);
        a.merge(&b);
        assert_eq!(a.credit_timeline, vec![200, 50, 900, 10]);
        assert_eq!(a.credit_stalls, 3);
        assert_eq!(a.ring_full_stalls, 1);
        assert_eq!(a.retransmitted_ids, 7);
        assert_eq!(a.advertised_credits.count(), 1);
    }

    #[test]
    fn feeder_lag_takes_the_worst_thread_and_pressure_frames_add() {
        let mut run = ServiceStats::default();
        for (peak, at_stop, frames) in [(9_000_000, 2_000_000, 4), (40_000_000, 1_000_000, 6)] {
            run.merge(&ServiceStats {
                feeder_lag_peak_ns: peak,
                feeder_lag_at_stop_ns: at_stop,
                pressure_floor_frames: frames,
                ..ServiceStats::default()
            });
        }
        assert_eq!(run.feeder_lag_peak_ns, 40_000_000);
        assert_eq!(run.feeder_lag_at_stop_ns, 2_000_000);
        assert_eq!(run.pressure_floor_frames, 10);
    }

    /// The multi-thread stabilizer fold: three stabilizer threads (say,
    /// three replicas), each sampling only its own grants in disjoint and
    /// overlapping seconds, merge into one per-second min series — no
    /// thread clobbers another's seconds, and a second nobody sampled
    /// stays the sentinel instead of a spurious zero.
    #[test]
    fn per_thread_timelines_fold_into_one_min_series() {
        let mut t0 = ServiceStats::default();
        t0.record_credit(0, 800);
        t0.record_credit(2, 300);
        t0.theta_sweep_ns.record(1_000);
        t0.grant_batch_lanes.record(16);
        t0.grant_batches = 1;
        t0.doorbell_unparks = 1;
        let mut t1 = ServiceStats::default();
        t1.record_credit(0, 900); // Loses second 0 to t0's 800.
        t1.record_credit(1, 40); // Only thread with a sample here.
        let mut t2 = ServiceStats::default();
        t2.record_credit(4, 700); // Longer series than the others.
        t2.theta_sweep_ns.record(3_000);
        t2.grant_batch_lanes.record(4);
        t2.grant_batches = 1;

        let mut run = ServiceStats::default();
        run.merge(&t0);
        run.merge(&t1);
        run.merge(&t2);
        assert_eq!(
            run.credit_timeline,
            vec![800, 40, 300, ServiceStats::NO_CREDIT_SAMPLE, 700]
        );
        assert_eq!(run.theta_sweep_ns.count(), 2);
        assert!(run.theta_sweep_us(100.0).unwrap() >= 1.0);
        assert_eq!(run.grant_batches, 2);
        assert_eq!(run.doorbell_unparks, 1);
        assert!((run.mean_grant_batch_lanes() - 10.0).abs() < 1e-9);
        assert!(
            run.doorbell_unparks <= run.grant_batches,
            "at most one unpark per enqueued batch"
        );
    }
}
