//! Messages of the baseline systems.
//!
//! GentleRain is the scalar special case of the vector machinery, so both
//! global-stabilization systems share the same message shapes with
//! [`eunomia_core::time::VectorTime`] payloads (GentleRain vectors carry
//! meaningful data in one comparison — the min — and its per-op costs are
//! charged as scalar). Sequencer systems use per-datacenter sequence
//! numbers packed into the same vector type.

use eunomia_core::ids::{DcId, PartitionId};
use eunomia_core::time::{Timestamp, VectorTime};
use eunomia_geo::client::ClientWire;
use eunomia_kv::{Key, Update, Value};
use eunomia_sim::SimTime;
use std::hash::{Hash as _, Hasher};

/// All messages of the GentleRain / Cure / S-Seq / A-Seq systems.
#[derive(Clone, Debug, Hash)]
pub enum BMsg {
    /// Client → partition: read.
    Read {
        /// Key to read.
        key: Key,
    },
    /// Partition → client: read reply (version timestamp semantics depend
    /// on the system: update vector for GentleRain/Cure, per-DC sequence
    /// numbers for the sequencer systems).
    ReadReply {
        /// Stored value.
        value: Value,
        /// Version timestamp.
        vts: VectorTime,
    },
    /// Client → partition: update with dependency metadata.
    Update {
        /// Key to update.
        key: Key,
        /// New value.
        value: Value,
        /// Dependency clock (scalar systems use the max entry).
        deps: VectorTime,
    },
    /// Partition → client: update reply.
    UpdateReply {
        /// Assigned timestamp.
        vts: VectorTime,
    },
    /// Partition → remote sibling partition: replicated update
    /// (GentleRain/Cure ship updates directly, FIFO, in timestamp order).
    Replicate {
        /// The update (vts carries ut in the origin entry for GentleRain).
        update: Update,
    },
    /// Sibling heartbeat across datacenters (global stabilization):
    /// "partition `partition` of datacenter `origin` has issued everything
    /// up to `ts`".
    SiblingHeartbeat {
        /// Originating datacenter.
        origin: DcId,
        /// Originating partition.
        partition: PartitionId,
        /// Physical-clock timestamp.
        ts: Timestamp,
    },
    /// Partition → aggregator: local stable report (LST as a one-min
    /// vector for GentleRain, LSV for Cure).
    StableReport {
        /// Reporting partition.
        partition: PartitionId,
        /// The partition's minimum knowledge vector.
        lsv: VectorTime,
    },
    /// Aggregator → partitions: the datacenter's global stable time/vector.
    StableBroadcast {
        /// GST (scalar systems read the min entry) or GSV.
        gsv: VectorTime,
    },
    /// Partition → sequencer: request the next sequence number (S-Seq:
    /// synchronous, in the update critical path; A-Seq: fired in parallel).
    SeqRequest,
    /// Sequencer → partition: the assigned number.
    SeqReply {
        /// Monotonically increasing per-datacenter sequence number.
        seq: u64,
    },
    /// Partition → remote sequencer receiver: a sequenced update.
    SeqShip {
        /// The update; `vts` holds per-DC sequence-number dependencies and
        /// the origin entry holds this update's own sequence number.
        update: Update,
    },
    /// Sequencer receiver → partition: apply a remote sequenced update.
    SeqApply {
        /// The update to apply.
        update: Update,
        /// Arrival time at the receiver (for visibility accounting).
        arrival: eunomia_sim::SimTime,
    },
    /// Partition → sequencer receiver: apply done.
    SeqApplyOk {
        /// Origin datacenter of the applied update.
        origin: DcId,
        /// Its sequence number.
        seq: u64,
    },
}

/// The client wire of all four baselines: a dependency vector merged from
/// every reply and attached to every update. The scalar system reduces it
/// to its max at the partition and the sequencer systems fill it with
/// per-DC sequence numbers, so one session serves them all.
pub struct BaselineWire {
    dc: usize,
    vclock: VectorTime,
}

impl BaselineWire {
    /// The wire of a client homed at datacenter `dc` of `n_dcs`.
    pub fn new(dc: usize, n_dcs: usize) -> Self {
        BaselineWire {
            dc,
            vclock: VectorTime::new(n_dcs),
        }
    }
}

impl ClientWire for BaselineWire {
    type Msg = BMsg;

    fn read(&mut self, key: Key) -> BMsg {
        BMsg::Read { key }
    }

    fn update(&mut self, key: Key, value: Value) -> BMsg {
        let deps = self.vclock.clone();
        BMsg::Update { key, value, deps }
    }

    fn on_reply(&mut self, msg: BMsg, _now: SimTime) -> bool {
        match msg {
            BMsg::ReadReply { vts, .. } | BMsg::UpdateReply { vts } => {
                self.vclock.merge_max(&vts);
                true
            }
            _ => false,
        }
    }

    fn digest(&self, mut h: &mut dyn Hasher) {
        h.write_usize(self.dc);
        self.vclock.hash(&mut h);
    }
}
