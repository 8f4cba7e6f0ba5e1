//! Fast hash containers for packed page keys, plus a sorted page set.
//!
//! Profile capture and the profilers' per-page tallies hash a `u64` page
//! key once per observed page or sample (ground truth counts per frame and
//! leaves the epoch as a list, with no hashing; see `stats`). The std
//! `HashMap` default (SipHash with a per-process random seed) is both slow
//! for 8-byte keys and a source of run-to-run iteration-order variance.
//! [`KeyMap`]/[`KeySet`] swap in a multiplicative Fx-style hasher: a couple
//! of arithmetic ops per word, fully deterministic across runs and
//! machines. Anything iterating these containers into ordered output must
//! still sort explicitly — iteration order is arbitrary, merely
//! reproducible.
//!
//! [`PageSet`] is the complementary structure for *set algebra over page
//! keys* (per-epoch detection sets, Table IV accounting): a sorted,
//! deduplicated `Vec<u64>` with merge-based union and intersection, cheaper
//! to build and walk than a hash set and ordered for free.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative word-at-a-time hasher (FxHash construction).
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl KeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// Deterministic fast-hash builder.
pub type BuildKeyHasher = BuildHasherDefault<KeyHasher>;

/// `HashMap` keyed by packed page keys (or other small integer keys).
pub type KeyMap<K, V> = HashMap<K, V, BuildKeyHasher>;

/// `HashSet` counterpart of [`KeyMap`].
pub type KeySet<K> = HashSet<K, BuildKeyHasher>;

/// A sorted, deduplicated set of packed page keys.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PageSet {
    sorted: Vec<u64>,
}

impl PageSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an arbitrary batch (sorts and dedups).
    pub fn from_unsorted(mut keys: Vec<u64>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        Self { sorted: keys }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Membership by binary search.
    pub fn contains(&self, key: u64) -> bool {
        self.sorted.binary_search(&key).is_ok()
    }

    /// Ascending iteration.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.sorted.iter().copied()
    }

    /// The sorted keys.
    pub fn as_slice(&self) -> &[u64] {
        &self.sorted
    }

    /// Merge a batch of keys into the set (sorts the batch, then does a
    /// linear merge — the batch is typically much smaller than the set).
    // tmprof-lint: allow(panic-reachability) — batch[0] follows the is_empty early return; i and j are while-bounded by the slice lengths
    pub fn merge_unsorted(&mut self, mut batch: Vec<u64>) {
        if batch.is_empty() {
            return;
        }
        batch.sort_unstable();
        batch.dedup();
        // Fast path: the batch extends the tail (common for cursor scans
        // over growing address spaces).
        if self.sorted.last().is_none_or(|&last| last < batch[0]) {
            self.sorted.extend(batch);
            return;
        }
        let mut merged = Vec::with_capacity(self.sorted.len() + batch.len());
        let (mut i, mut j) = (0, 0);
        while i < self.sorted.len() && j < batch.len() {
            match self.sorted[i].cmp(&batch[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(self.sorted[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(batch[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(self.sorted[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.sorted[i..]);
        merged.extend_from_slice(&batch[j..]);
        self.sorted = merged;
    }

    /// Ascending intersection walk against another set.
    pub fn intersection<'a>(&'a self, other: &'a PageSet) -> impl Iterator<Item = u64> + 'a {
        Intersection {
            a: &self.sorted,
            b: &other.sorted,
        }
    }

    /// Size of the intersection without materializing it.
    pub fn intersection_count(&self, other: &PageSet) -> usize {
        self.intersection(other).count()
    }
}

impl FromIterator<u64> for PageSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Self::from_unsorted(iter.into_iter().collect())
    }
}

struct Intersection<'a> {
    a: &'a [u64],
    b: &'a [u64],
}

impl Iterator for Intersection<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while let (Some(&x), Some(&y)) = (self.a.first(), self.b.first()) {
            match x.cmp(&y) {
                std::cmp::Ordering::Less => self.a = &self.a[1..],
                std::cmp::Ordering::Greater => self.b = &self.b[1..],
                std::cmp::Ordering::Equal => {
                    self.a = &self.a[1..];
                    self.b = &self.b[1..];
                    return Some(x);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_is_deterministic_and_spreads() {
        let h = |v: u64| {
            let mut hasher = KeyHasher::default();
            hasher.write_u64(v);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(1), h(2));
        // Sequential keys should not collide in the low bits the table uses.
        let low: KeySet<u64> = (0..64u64).map(|v| h(v) & 0xFFF).collect();
        assert!(low.len() > 48, "low-bit spread too weak: {}", low.len());
    }

    #[test]
    fn keymap_roundtrip() {
        let mut m: KeyMap<u64, u64> = KeyMap::default();
        for k in 0..100 {
            *m.entry(k).or_insert(0) += k;
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&7], 7);
    }

    #[test]
    fn pageset_dedups_and_sorts() {
        let s = PageSet::from_unsorted(vec![5, 1, 5, 3, 1]);
        assert_eq!(s.as_slice(), &[1, 3, 5]);
        assert!(s.contains(3));
        assert!(!s.contains(4));
    }

    #[test]
    fn merge_handles_overlap_and_tail_extension() {
        let mut s = PageSet::from_unsorted(vec![1, 3, 5]);
        s.merge_unsorted(vec![4, 3, 9]);
        assert_eq!(s.as_slice(), &[1, 3, 4, 5, 9]);
        s.merge_unsorted(vec![11, 10]);
        assert_eq!(s.as_slice(), &[1, 3, 4, 5, 9, 10, 11]);
        s.merge_unsorted(vec![]);
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn intersection_walk_matches_naive() {
        let a = PageSet::from_unsorted((0..100).filter(|v| v % 2 == 0).collect());
        let b = PageSet::from_unsorted((0..100).filter(|v| v % 3 == 0).collect());
        let got: Vec<u64> = a.intersection(&b).collect();
        let want: Vec<u64> = (0..100).filter(|v| v % 6 == 0).collect();
        assert_eq!(got, want);
        assert_eq!(a.intersection_count(&b), want.len());
    }
}
