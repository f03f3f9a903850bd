#![warn(missing_docs)]

//! Geo-replication layer: full EunomiaKV and Eventual systems on the
//! discrete-event simulator.
//!
//! This crate assembles the pieces of `eunomia-core` and `eunomia-kv` into
//! running datacenters (§4 of the paper):
//!
//! * [`client::ClientProc`] — the one closed-/open-loop client of all six
//!   systems, generic over a [`client::ClientWire`] (Algorithm 1 / §4:
//!   vector sessions for EunomiaKV, none for Eventual; the baselines
//!   bring their own wire);
//! * [`partition::PartitionProc`] — partition servers: timestamping,
//!   batched metadata to the Eunomia replicas (§5), immediate data-path
//!   shipping to sibling partitions, remote applies;
//! * [`eunomia_proc::ReplicaProc`] — the (optionally replicated) Eunomia
//!   service: ingestion with duplicate filtering, Ω leader election,
//!   leader-driven `PROCESS_STABLE` and ordered shipping to remote
//!   receivers (Algorithms 3–4);
//! * [`receiver::ReceiverProc`] — the per-datacenter receiver running the
//!   FLUSH loop of Algorithm 5 (one outstanding APPLY, exactly as
//!   published; a pipelined extension exists for the ablation bench);
//! * [`cluster`] — wiring; [`harness`] — the shared [`RunReport`].
//!
//! The same crate also builds the **Eventual** baseline (no causality:
//! remote updates apply on arrival), which is the paper's normalization
//! reference.
//!
//! # The unified run API
//!
//! Every experiment goes through one entry point:
//!
//! * [`SystemId`] names all six systems of the paper's evaluation;
//! * [`Scenario`] is a named, validated [`ClusterConfig`] (presets:
//!   paper 3-DC, small-test, wide 5-DC, straggler, partial replication);
//! * [`run`] dispatches `(SystemId, &Scenario)` to the right assembly —
//!   the four baselines register themselves via
//!   `eunomia_baselines::install()`;
//! * [`Sweep`] runs a `[system x scenario]` grid and renders shared
//!   comparison tables.

pub mod client;
pub mod cluster;
pub mod config;
pub mod eunomia_proc;
pub mod faults;
pub mod harness;
pub mod mc;
pub mod metrics;
pub mod msg;
pub mod open_loop;
pub mod partition;
pub mod receiver;
pub mod registry;
pub mod scenario;
pub mod system;
pub mod table;

pub use config::{
    ClusterConfig, ClusterConfigBuilder, ConfigError, CostModel, OpenLoopConfig, ReplicaCrash,
    StragglerConfig,
};
pub use eunomia_sim::EngineStats;
pub use eunomia_stats::{LoadStats, ServiceStats};
pub use faults::{apply_faults, dc_unavailability, DcAvailability, FaultEvent};
pub use harness::{HealConvergence, RunReport};
pub use mc::{mc_replay, mc_run, register_mc_runner, McReport, McScenario, McSystemRunner};
pub use metrics::GeoMetrics;
pub use msg::Msg;
pub use open_loop::{Admission, OpenLoopDriver, TIMER_ARRIVAL};
pub use scenario::{Scenario, Sweep, SweepCell, SweepResults};
pub use system::{register_runner, run, SystemId, SystemRunner};
pub use table::format_table;
