//! Client sessions (Algorithm 1, in the vector form of §4).
//!
//! A client keeps the largest timestamp(s) seen in its session; that clock
//! is the whole causal dependency it ships with each update. Reads merge
//! the returned version's timestamp in; update replies *replace* the clock
//! (the returned timestamp is strictly greater — Alg. 1 l. 9, §4).

use eunomia_core::ids::DcId;
use eunomia_core::time::VectorTime;

/// Vector client session (§4): one entry per datacenter.
#[derive(Clone, Debug)]
pub struct ClientState {
    vclock: VectorTime,
    home: DcId,
    reads: u64,
    updates: u64,
}

impl ClientState {
    /// A fresh session homed at datacenter `home` in an `n_dcs` deployment.
    pub fn new(home: DcId, n_dcs: usize) -> Self {
        assert!(home.index() < n_dcs, "home datacenter out of range");
        ClientState {
            vclock: VectorTime::new(n_dcs),
            home,
            reads: 0,
            updates: 0,
        }
    }

    /// The session's dependency vector (`VClock_c`).
    pub fn vclock(&self) -> &VectorTime {
        &self.vclock
    }

    /// The client's home datacenter.
    pub fn home(&self) -> DcId {
        self.home
    }

    /// READ reply: entrywise max-merge (§4 "Read").
    pub fn on_read_reply(&mut self, vts: &VectorTime) {
        self.vclock.merge_max(vts);
        self.reads += 1;
    }

    /// UPDATE reply: substitute the returned vector, which is strictly
    /// greater than `VClock_c` (§4 "Update").
    pub fn on_update_reply(&mut self, vts: VectorTime) {
        debug_assert!(
            vts.dominates(&self.vclock),
            "update vts must dominate the session clock"
        );
        self.vclock = vts;
        self.updates += 1;
    }

    /// Session reads completed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Session updates completed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Folds the session state into `h` for model-checking state hashing:
    /// the dependency vector plus the read/update counts (both shape
    /// which version a future read may legally return).
    pub fn state_digest(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash as _;
        self.vclock.hash(&mut h);
        h.write_u16(self.home.0);
        h.write_u64(self.reads);
        h.write_u64(self.updates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_session_merges_reads_and_substitutes_updates() {
        let mut c = ClientState::new(DcId(0), 3);
        c.on_read_reply(&VectorTime::from_ticks(&[1, 9, 0]));
        c.on_read_reply(&VectorTime::from_ticks(&[4, 2, 3]));
        assert_eq!(c.vclock(), &VectorTime::from_ticks(&[4, 9, 3]));
        c.on_update_reply(VectorTime::from_ticks(&[5, 9, 3]));
        assert_eq!(c.vclock(), &VectorTime::from_ticks(&[5, 9, 3]));
        assert_eq!(c.reads(), 2);
        assert_eq!(c.updates(), 1);
    }

    #[test]
    #[should_panic(expected = "home datacenter out of range")]
    fn bad_home_panics() {
        let _ = ClientState::new(DcId(5), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must dominate")]
    fn regressing_update_reply_asserts() {
        let mut c = ClientState::new(DcId(0), 2);
        c.on_read_reply(&VectorTime::from_ticks(&[10, 10]));
        c.on_update_reply(VectorTime::from_ticks(&[11, 0]));
    }
}
