#![deny(missing_docs)]

//! Eunomia core: unobtrusive deferred update stabilization.
//!
//! This crate implements the paper's primary contribution as *sans-IO*
//! state machines — pure data structures whose inputs are messages and
//! clock readings and whose outputs are returned values. Two drivers exist
//! in the workspace, and they run *different* implementations of
//! Algorithm 4 from this crate: the deterministic discrete-event simulator
//! (`eunomia-sim` + `eunomia-geo`) runs [`replica`], the real-thread
//! runtime (`eunomia-runtime`) runs [`shard`]. A proptest in [`shard`]
//! pins the two equal id for id; merging them waits on the benchmark of
//! record, whose `benchmark/src/probes.rs` imports [`replica`] by name.
//!
//! Module map (paper section in parentheses):
//!
//! * [`time`] — scalar hybrid clocks (Alg. 2 line 5) and vector times
//!   with one entry per datacenter (§4).
//! * [`buffer`] — the stabilization buffer: a totally ordered set of
//!   unstable operations keyed by `(timestamp, partition)` (§6).
//! * [`replica`] — the Eunomia service state machine (Alg. 3 with one
//!   replica, Alg. 4 with several): `NEW_BATCH`, `HEARTBEAT`, leader-driven
//!   `PROCESS_STABLE` and stable broadcast, plus the partition-side
//!   replicated sender enforcing the prefix property (§3.1, §3.3).
//! * [`shard`] — the sharded, flat-buffer variant of the replica used by
//!   the threaded runtime's hot path: per-feeder lanes with watermark
//!   dedup, a tournament tree over stable cutoffs, and id batches in
//!   [`shard::BatchFrame`]s (one allocation per batch).
//! * [`election`] — an Ω-style eventual leader elector (§3.3 allows any
//!   asynchronous leader election; we provide a timeout-based one).
//! * [`sequencer`] — the traditional sequencer and its chain-replicated
//!   fault-tolerant variant, used as baselines (§7.1).
//! * [`tree`] — the fan-in propagation tree among partition servers (§5).
//!
//! # Examples
//!
//! Deferred stabilization of updates from two partitions:
//!
//! ```
//! use eunomia_core::ids::{PartitionId, ReplicaId};
//! use eunomia_core::replica::ReplicaState;
//! use eunomia_core::time::Timestamp;
//!
//! let mut service: ReplicaState<&str> = ReplicaState::new(ReplicaId(0), 2);
//! service.new_batch(PartitionId(0), [(Timestamp(10), "a")]).unwrap();
//! service.new_batch(PartitionId(1), [(Timestamp(12), "b")]).unwrap();
//! // Only "a" is stable: partition 0 might still send ts 11.
//! let mut stable = Vec::new();
//! service.leader_process_stable(&mut stable);
//! assert_eq!(stable.iter().map(|(_, v)| *v).collect::<Vec<_>>(), vec!["a"]);
//!
//! // A heartbeat from partition 0 pushes the stable time forward.
//! service.heartbeat(PartitionId(0), Timestamp(20)).unwrap();
//! service.leader_process_stable(&mut stable);
//! assert_eq!(stable.iter().map(|(_, v)| *v).collect::<Vec<_>>(), vec!["a", "b"]);
//! ```

pub mod buffer;
pub mod election;
pub mod ids;
pub mod replica;
pub mod sequencer;
pub mod shard;
pub mod time;
pub mod tree;

pub use buffer::{OpKey, StabilizationBuffer};
pub use ids::{DcId, PartitionId, ReplicaId};
pub use replica::{ReplicaState, ReplicatedSender};
pub use shard::{BatchFrame, LaneSender, ShardedReplicaState};
pub use time::{ScalarHlc, Timestamp, VectorTime};
