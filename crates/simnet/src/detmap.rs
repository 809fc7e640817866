//! A hash map that cannot be iterated in hash order.
//!
//! Every figure and oracle of this workspace is a pure function of its
//! seeds, and the standard `HashMap` iterates in an order drawn from a
//! per-process random key (or, under a fixed hasher, from the table's
//! history). clippy's `disallowed_types` therefore bans `HashMap` and
//! `HashSet` outside the benchmark crate, and a map lives on as one of two
//! types: a `BTreeMap` where it is walked every round, or a [`DetMap`]
//! where it is only looked up. `DetMap` keeps the hash table's O(1)
//! probes and offers no way to visit its entries but
//! [`DetMap::iter_sorted`], so an iteration whose result depends on hash
//! order is a compile error:
//!
//! ```compile_fail,E0599
//! let mut m: dsi_simnet::DetMap<u64, u64> = Default::default();
//! m.insert(7, 1);
//! let mut out = Vec::new();
//! for v in m.values() {
//!     out.push(*v);
//! }
//! ```
//!
//! [`DetMap::retain`] takes `Fn`, so its predicate cannot fold state
//! across entries in hash order either:
//!
//! ```compile_fail,E0594
//! let mut m: dsi_simnet::DetMap<u64, u64> = Default::default();
//! let mut seen = 0;
//! m.retain(|_, _| {
//!     seen += 1;
//!     seen > 1
//! });
//! ```
#![expect(clippy::disallowed_types, reason = "the one sanctioned wrapper around HashMap")]

use serde::{Deserialize, Error, MapKey, Serialize, Value};
use std::borrow::Borrow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::ops::Index;

/// A `HashMap` with lookups and updates but no hash-order iteration (see
/// the module docs). `S` is the hasher, `RandomState` unless a caller
/// measured a cheaper one.
#[derive(Clone)]
pub struct DetMap<K, V, S = RandomState>(HashMap<K, V, S>);

impl<K: Eq + Hash, V, S: BuildHasher> DetMap<K, V, S> {
    /// The value at `k`.
    #[inline]
    pub fn get<Q: Hash + Eq + ?Sized>(&self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.0.get(k)
    }

    /// The value at `k`, mutably.
    #[inline]
    pub fn get_mut<Q: Hash + Eq + ?Sized>(&mut self, k: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        self.0.get_mut(k)
    }

    /// Whether `k` has a value.
    #[inline]
    pub fn contains_key<Q: Hash + Eq + ?Sized>(&self, k: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.0.contains_key(k)
    }

    /// Sets the value at `k`, returning the one it replaced.
    #[inline]
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.0.insert(k, v)
    }

    /// Removes and returns the value at `k`.
    #[inline]
    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, k: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.0.remove(k)
    }

    /// The slot of `k`, for in-place update or insertion.
    #[inline]
    pub fn entry(&mut self, k: K) -> Entry<'_, K, V> {
        self.0.entry(k)
    }

    /// Keeps only the entries `keep` accepts. The predicate is `Fn`: it
    /// sees entries in hash order, so it must not carry state between them.
    pub fn retain(&mut self, keep: impl Fn(&K, &mut V) -> bool) {
        self.0.retain(keep);
    }
}

impl<K, V, S> DetMap<K, V, S> {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every entry in ascending key order. Sorts on each call: meant for
    /// cold accessors, not for loops that run every round (those maps are
    /// `BTreeMap`s).
    pub fn iter_sorted(&self) -> impl Iterator<Item = (&K, &V)>
    where
        K: Ord,
    {
        let mut entries: Vec<(&K, &V)> = self.0.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries.into_iter()
    }
}

impl<K, V, S: Default> Default for DetMap<K, V, S> {
    fn default() -> Self {
        DetMap(HashMap::default())
    }
}

impl<K, Q, V, S> Index<&Q> for DetMap<K, V, S>
where
    K: Eq + Hash + Borrow<Q>,
    Q: Eq + Hash + ?Sized,
    S: BuildHasher,
{
    type Output = V;

    /// # Panics
    /// Panics if `k` has no value.
    #[inline]
    fn index(&self, k: &Q) -> &V {
        &self.0[k]
    }
}

impl<K: Eq + Hash, V, S: BuildHasher + Default> FromIterator<(K, V)> for DetMap<K, V, S> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        DetMap(iter.into_iter().collect())
    }
}

/// Key order, like every other rendering of the map.
impl<K: Ord + fmt::Debug, V: fmt::Debug, S> fmt::Debug for DetMap<K, V, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter_sorted()).finish()
    }
}

/// The vendored serde sorts map keys, so the JSON does not depend on the
/// hasher.
impl<K: MapKey, V: Serialize, S> Serialize for DetMap<K, V, S> {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl<K: MapKey + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize for DetMap<K, V, S> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        HashMap::from_value(v).map(DetMap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_sorted_yields_key_order_whatever_the_insertion_order() {
        let keys: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        for order in [keys.clone(), keys.iter().rev().copied().collect(), sorted.clone()] {
            let m: DetMap<u64, u64> = order.iter().map(|&k| (k, k ^ 1)).collect();
            let seen: Vec<(u64, u64)> = m.iter_sorted().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(seen, sorted.iter().map(|&k| (k, k ^ 1)).collect::<Vec<_>>());
        }
    }
}
