//! Cluster assembly: spawns clients, partitions, Eunomia replicas and
//! receivers on the simulator and wires the registry.

use crate::client::{ClientProc, EunomiaKvWire, EventualWire};
use crate::config::ClusterConfig;
use crate::eunomia_proc::ReplicaProc;
use crate::metrics::GeoMetrics;
use crate::msg::Msg;
use crate::partition::PartitionProc;
use crate::receiver::ReceiverProc;
use crate::registry::{self, SharedRegistry};
use crate::system::SystemId;
use eunomia_core::ids::ReplicaId;
use eunomia_sim::{ClockModel, NodeId, Process, ProcessId, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// A built (not yet run) cluster.
pub struct Cluster {
    /// The simulation, ready to run.
    pub sim: Simulation<Msg>,
    /// Shared metrics sink.
    pub metrics: GeoMetrics,
    /// Process registry (filled).
    pub registry: SharedRegistry,
    /// Client process ids (for targeted inspection).
    pub clients: Vec<ProcessId>,
    /// Eunomia replica ids per datacenter (crash-injection targets).
    pub replicas: Vec<Vec<ProcessId>>,
    /// The configuration the cluster was built from.
    pub cfg: Rc<ClusterConfig>,
}

/// What every system's assembly starts from: the shared configuration,
/// the metrics sink with the configured logs switched on, an empty
/// registry, an empty simulation over the configured topology, and the
/// clock-skew RNG stream. `eunomia-baselines` starts from the same value,
/// so the six systems cannot drift apart on any of it.
pub struct Assembly<M> {
    /// The simulation, still empty.
    pub sim: Simulation<M>,
    /// Shared metrics sink.
    pub metrics: GeoMetrics,
    /// Process registry, for the builder to fill.
    pub reg: SharedRegistry,
    /// The configuration, shared with every process.
    pub cfg: Rc<ClusterConfig>,
    clock_rng: StdRng,
}

impl<M> Assembly<M> {
    /// Starts assembling a deployment per `cfg`.
    pub fn new(cfg: ClusterConfig) -> Self {
        let metrics = GeoMetrics::new(cfg.n_dcs);
        if cfg.apply_log {
            metrics.enable_apply_log();
        }
        if cfg.track_staleness {
            metrics.enable_staleness_tracking();
        }
        if cfg.track_sessions {
            metrics.enable_session_log();
        }
        Assembly {
            sim: Simulation::new(cfg.topology(), cfg.seed),
            metrics,
            reg: registry::shared(),
            clock_rng: StdRng::seed_from_u64(cfg.seed ^ 0x5EED_C10C),
            cfg: Rc::new(cfg),
        }
    }

    /// Adds a node to `dc` whose physical clock is drawn within the
    /// configured skew/drift bounds — for processes that read it.
    pub fn add_skewed_node(&mut self, dc: usize) -> NodeId {
        let (cfg, rng) = (&self.cfg, &mut self.clock_rng);
        let clock = if cfg.clock_skew == 0 && cfg.drift_ppm == 0.0 {
            ClockModel::perfect()
        } else {
            let skew = cfg.clock_skew as i64;
            let offset = if skew > 0 {
                rng.random_range(-skew..=skew)
            } else {
                0
            };
            let drift = if cfg.drift_ppm > 0.0 {
                rng.random_range(-cfg.drift_ppm..=cfg.drift_ppm)
            } else {
                0.0
            };
            ClockModel::new(offset, drift)
        };
        self.sim.add_node_with_clock(dc, clock)
    }
}

/// Builds a full deployment of one of the *native* systems (Eventual or
/// EunomiaKV) per `cfg`. Baseline systems are assembled by
/// `eunomia-baselines`; use [`crate::run`] for the unified entry point.
///
/// Node placement: every partition, Eunomia replica, receiver and client
/// gets its own simulated node in its datacenter's region; partitions and
/// replicas get clocks drawn within the configured skew/drift bounds
/// (clients and receivers never read physical clocks).
pub fn build(id: SystemId, cfg: ClusterConfig) -> Cluster {
    assert!(
        id.is_native(),
        "cluster::build assembles only the native systems (Eventual, EunomiaKV); \
         {id} is built by eunomia-baselines"
    );
    let mut a: Assembly<Msg> = Assembly::new(cfg);
    let (cfg, reg, metrics) = (a.cfg.clone(), a.reg.clone(), a.metrics.clone());

    let mut partitions = Vec::with_capacity(cfg.n_dcs);
    let mut eunomia = Vec::with_capacity(cfg.n_dcs);
    let mut receivers = Vec::with_capacity(cfg.n_dcs);
    let mut clients = Vec::with_capacity(cfg.n_dcs * cfg.clients_per_dc);

    for dc in 0..cfg.n_dcs {
        let mut dc_parts = Vec::with_capacity(cfg.partitions_per_dc);
        for p in 0..cfg.partitions_per_dc {
            let node = a.add_skewed_node(dc);
            let proc = PartitionProc::new(dc, p, id, cfg.clone(), reg.clone(), metrics.clone());
            dc_parts.push(a.sim.add_process_on(node, Box::new(proc)));
        }
        partitions.push(dc_parts);

        let mut dc_replicas = Vec::new();
        if id == SystemId::EunomiaKv {
            for r in 0..cfg.replicas.max(1) {
                let node = a.add_skewed_node(dc);
                let proc = ReplicaProc::new(
                    dc,
                    ReplicaId(r as u32),
                    cfg.clone(),
                    reg.clone(),
                    metrics.clone(),
                );
                dc_replicas.push(a.sim.add_process_on(node, Box::new(proc)));
            }
        }
        eunomia.push(dc_replicas);

        if id == SystemId::EunomiaKv {
            let node = a.sim.add_node(dc);
            let proc = ReceiverProc::new(dc, cfg.clone(), reg.clone(), metrics.clone());
            receivers.push(Some(a.sim.add_process_on(node, Box::new(proc))));
        } else {
            // Eventual runs no receiver; the registry slot stays empty so
            // a stray receiver-bound send fails loudly.
            receivers.push(None);
        }

        for c in 0..cfg.clients_per_dc {
            let node = a.sim.add_node(dc);
            let client_id = (dc * cfg.clients_per_dc + c) as u32;
            let (c, r, m) = (cfg.clone(), reg.clone(), metrics.clone());
            // The one place a client learns which system it drives.
            let client: Box<dyn Process<Msg>> = if id == SystemId::EunomiaKv {
                let wire = EunomiaKvWire::new(dc, client_id, c.clone(), m.clone());
                Box::new(ClientProc::new(wire, dc, c, r, m))
            } else {
                let wire = EventualWire::new(dc, client_id, c.clone(), m.clone());
                Box::new(ClientProc::new(wire, dc, c, r, m))
            };
            clients.push(a.sim.add_process_on(node, client));
        }
    }

    // Timed fault schedule: link faults + partition-server pauses.
    crate::faults::apply_faults(&cfg, &mut a.sim, &partitions);

    {
        let mut r = reg.borrow_mut();
        r.partitions = partitions;
        r.eunomia = eunomia.clone();
        r.receivers = receivers;
    }

    // Scheduled fault injection: crash the named Eunomia replicas.
    for crash in &cfg.crashes {
        if let Some(&pid) = eunomia.get(crash.dc).and_then(|dc| dc.get(crash.replica)) {
            a.sim.crash_at(pid, crash.at);
        }
    }

    Cluster {
        sim: a.sim,
        metrics,
        registry: reg,
        clients,
        replicas: eunomia,
        cfg,
    }
}
