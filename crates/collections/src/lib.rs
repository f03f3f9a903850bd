#![warn(missing_docs)]

//! Ordered-map substrates for the Eunomia stabilization buffer.
//!
//! The paper (§6) reports that Eunomia's core is "a red-black tree, a
//! self-balancing binary search tree optimized for insertions and deletions"
//! and that "the red-black tree turned out to be more efficient than other
//! self-balancing binary search trees such as AVL trees". This crate
//! provides both trees — arena-based and `unsafe`-free — plus an adapter
//! over [`std::collections::BTreeMap`], behind a single [`OrderedMap`]
//! trait, so the choice can be benchmarked (see the `ordered_map` bench in
//! `eunomia-bench`).
//!
//! The operations that matter to Eunomia are:
//!
//! * `insert` — every update received from a partition lands in the buffer;
//! * `drain_up_to` — `PROCESS_STABLE` removes, *in timestamp order*, every
//!   operation with a timestamp less than or equal to the stable time;
//! * `pop_min` — incremental variant of the above.
//!
//! The crate also provides [`TournamentTree`], the min winner tree the
//! lane-sharded stabilizer (`core::shard`) uses to merge per-lane stable
//! cutoffs in `O(log lanes)` per watermark advance, and [`fasthash`], the
//! deterministic multiply-rotate hasher behind the simulator's hot maps
//! (versioned stores, pending-apply tables).
//!
//! # Examples
//!
//! ```
//! use eunomia_collections::{OrderedMap, RbTree};
//!
//! let mut tree: RbTree<u64, &str> = RbTree::new();
//! tree.insert(30, "c");
//! tree.insert(10, "a");
//! tree.insert(20, "b");
//! let mut stable = Vec::new();
//! tree.drain_up_to(&20, &mut stable);
//! assert_eq!(stable, vec![(10, "a"), (20, "b")]);
//! assert_eq!(tree.len(), 1);
//! ```

mod avl;
mod btree_adapter;
pub mod fasthash;
pub mod fingerprint;
mod rbtree;
mod tournament;

pub use avl::AvlTree;
pub use btree_adapter::BTreeAdapter;
pub use fasthash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use fingerprint::{combine_unordered, hash_one, FingerprintSet, Fnv64};
pub use rbtree::RbTree;
pub use tournament::TournamentTree;

/// A totally ordered map supporting the operations Eunomia's stabilization
/// buffer needs.
///
/// Implementations must keep entries sorted by key and must not contain
/// duplicate keys: inserting an existing key replaces the value and returns
/// the old one.
pub trait OrderedMap<K: Ord, V> {
    /// Creates an empty map.
    fn new() -> Self
    where
        Self: Sized;

    /// Inserts a key-value pair, returning the previous value for the key
    /// if one existed.
    fn insert(&mut self, key: K, value: V) -> Option<V>;

    /// Returns a reference to the value for `key`, if present.
    fn get(&self, key: &K) -> Option<&V>;

    /// Removes `key`, returning its value if it was present.
    fn remove(&mut self, key: &K) -> Option<V>;

    /// Removes and returns the entry with the smallest key.
    fn pop_min(&mut self) -> Option<(K, V)>;

    /// Returns a reference to the smallest key, if the map is non-empty.
    fn min_key(&self) -> Option<&K>;

    /// Number of entries.
    fn len(&self) -> usize;

    /// Whether the map holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry with key `<= bound`, appending them to `out` in
    /// ascending key order.
    ///
    /// This is the `FIND_STABLE` + removal step of Algorithm 3: the default
    /// implementation repeatedly pops the minimum, which costs
    /// `O(k log n)` for `k` drained entries.
    fn drain_up_to(&mut self, bound: &K, out: &mut Vec<(K, V)>) {
        while let Some(min) = self.min_key() {
            if min > bound {
                break;
            }
            // `min_key` returned `Some`, so `pop_min` cannot fail.
            let entry = self.pop_min().expect("non-empty map must pop");
            out.push(entry);
        }
    }

    /// Removes all entries.
    fn clear(&mut self);

    /// Visits every entry in ascending key order.
    fn for_each<F: FnMut(&K, &V)>(&self, f: F);
}

/// Collects all entries of a map in ascending order (test/diagnostic helper).
pub fn to_sorted_vec<K: Ord + Clone, V: Clone, M: OrderedMap<K, V>>(map: &M) -> Vec<(K, V)> {
    let mut out = Vec::with_capacity(map.len());
    map.for_each(|k, v| out.push((k.clone(), v.clone())));
    out
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise<M: OrderedMap<u32, u32>>() {
        let mut m = M::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, 50), None);
        assert_eq!(m.insert(3, 30), None);
        assert_eq!(m.insert(5, 55), Some(50));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&5), Some(&55));
        assert_eq!(m.min_key(), Some(&3));
        let mut out = Vec::new();
        m.drain_up_to(&4, &mut out);
        assert_eq!(out, vec![(3, 30)]);
        assert_eq!(m.pop_min(), Some((5, 55)));
        assert!(m.pop_min().is_none());
        m.insert(1, 1);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn rb_satisfies_trait_contract() {
        exercise::<RbTree<u32, u32>>();
    }

    #[test]
    fn avl_satisfies_trait_contract() {
        exercise::<AvlTree<u32, u32>>();
    }

    #[test]
    fn btree_satisfies_trait_contract() {
        exercise::<BTreeAdapter<u32, u32>>();
    }
}
