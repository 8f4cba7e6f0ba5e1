//! Data-Caching (CloudSuite memcached), paper Table III: 36 GB Twitter
//! dataset, 4 memcached instances, 8 clients.
//!
//! Memcached serving a Zipf-popular key space: every GET hashes the key,
//! probes a bucket in the hash table, chases to the item header, and reads
//! the value from slab storage; a small fraction of requests are SETs that
//! write the value. Popularity skew (θ≈0.99, the standard Twitter-trace
//! fit) concentrates traffic on a hot item subset while the long tail keeps
//! the total touched footprint broad — the regime where profiling-guided
//! placement wins by pinning the hot slabs in tier 1.

use tmprof_sim::prelude::*;

use crate::common::{ComputeMixer, OpQueue, Region};

mod site {
    pub const HASH_PROBE: u32 = 0x3001;
    pub const ITEM_HEADER: u32 = 0x3002;
    pub const VALUE_READ: u32 = 0x3003;
    pub const VALUE_WRITE: u32 = 0x3004;
    pub const LRU_UPDATE: u32 = 0x3005;
}

/// One in `SET_RATIO` requests is a SET.
const SET_RATIO: f64 = 0.10;

/// Zipf skew for key popularity (standard memcached/Twitter fit).
const ZIPF_THETA: f64 = 0.99;

/// Generator state for one memcached instance.
pub struct DataCaching {
    hash_table: Region,
    slabs: Region,
    lru: Region,
    keys: u64,
    zipf: Zipf,
    rng: Rng,
    mixer: ComputeMixer,
    queue: OpQueue,
}

impl DataCaching {
    /// One instance with a `pages`-page footprint.
    pub fn new(pages: u64, _rank: usize, mut rng: Rng) -> Self {
        // Layout: 1/16 hash table, 1/64 LRU metadata, rest slab values.
        let ht_pages = (pages / 16).max(2);
        let lru_pages = (pages / 64).max(1);
        let slab_pages = (pages - ht_pages - lru_pages).max(4);
        // Average item (header+value) ≈ 512 B → keys sized to fill slabs.
        let keys = (slab_pages * PAGE_SIZE / 512).max(16);
        let zipf = Zipf::new(keys, ZIPF_THETA);
        let rng2 = rng.fork();
        Self {
            hash_table: Region::new(0, ht_pages),
            slabs: Region::new(1, slab_pages),
            lru: Region::new(2, lru_pages),
            keys,
            zipf,
            rng: rng2,
            mixer: ComputeMixer::new(2),
            queue: OpQueue::new(),
        }
    }

    /// Where key `k`'s item lives in the slab region. Keys are scattered
    /// (hash placement), so popularity ranks do not correlate with address.
    fn item_addr(&self, key: u64) -> (VirtAddr, VirtAddr) {
        // SplitMix-style scatter of the rank to a slab slot.
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        let slot = z % (self.slabs.bytes() / 512);
        let header = self.slabs.at(slot * 512);
        let value = self.slabs.at(slot * 512 + 64);
        (header, value)
    }

    fn step(&mut self) {
        let key = self.zipf.sample(&mut self.rng);
        let is_set = self.rng.chance(SET_RATIO);
        // Hash probe: bucket indexed by key hash.
        let buckets = self.hash_table.capacity(8);
        let bucket = key.wrapping_mul(0x9E37_79B9) % buckets;
        self.queue
            .load(self.hash_table.elem(bucket, 8), site::HASH_PROBE);
        let (header, value) = self.item_addr(key);
        self.queue.load(header, site::ITEM_HEADER);
        if is_set {
            // Write the value (2 cache lines) and bump LRU metadata.
            self.queue.store(value, site::VALUE_WRITE);
            self.queue.store(VirtAddr(value.0 + 64), site::VALUE_WRITE);
        } else {
            self.queue.load(value, site::VALUE_READ);
        }
        let lru_slot = key % self.lru.capacity(8);
        self.queue
            .store(self.lru.elem(lru_slot, 8), site::LRU_UPDATE);
    }

    /// Number of keys in the simulated store.
    pub fn keys(&self) -> u64 {
        self.keys
    }
}

crate::common::impl_mixed_stream!(DataCaching);

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::keymap::KeyMap;

    fn slab_page_hits(gen: &mut DataCaching, n: usize) -> KeyMap<Vpn, u64> {
        let range = gen.slabs.vpn_range();
        let mut hits = KeyMap::default();
        let mut seen = 0;
        while seen < n {
            if let WorkOp::Mem { va, .. } = gen.next_op() {
                seen += 1;
                if range.contains(&va.vpn().0) {
                    *hits.entry(va.vpn()).or_insert(0) += 1;
                }
            }
        }
        hits
    }

    #[test]
    fn traffic_is_skewed_toward_hot_pages() {
        let mut dc = DataCaching::new(2048, 0, Rng::new(1));
        let hits = slab_page_hits(&mut dc, 40_000);
        let mut counts: Vec<u64> = hits.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top_decile: u64 = counts.iter().take(counts.len() / 10).sum();
        assert!(
            top_decile as f64 > total as f64 * 0.3,
            "top 10% of pages should absorb >30% of traffic ({top_decile}/{total})"
        );
    }

    #[test]
    fn sets_produce_stores_in_slabs() {
        let mut dc = DataCaching::new(1024, 0, Rng::new(2));
        let range = dc.slabs.vpn_range();
        let mut slab_stores = 0;
        for _ in 0..30_000 {
            if let WorkOp::Mem {
                va, store: true, ..
            } = dc.next_op()
            {
                if range.contains(&va.vpn().0) {
                    slab_stores += 1;
                }
            }
        }
        assert!(slab_stores > 100, "SET traffic missing");
    }

    #[test]
    fn every_get_touches_hash_table_first() {
        let mut dc = DataCaching::new(512, 0, Rng::new(3));
        // First memory op of each request is a hash probe.
        let ht = dc.hash_table.vpn_range();
        let mut first_mem = None;
        for _ in 0..64 {
            if let WorkOp::Mem { va, .. } = dc.next_op() {
                first_mem = Some(va);
                break;
            }
        }
        assert!(ht.contains(&first_mem.unwrap().vpn().0));
    }

    #[test]
    fn key_space_scales_with_footprint() {
        let small = DataCaching::new(256, 0, Rng::new(4));
        let large = DataCaching::new(4096, 0, Rng::new(4));
        assert!(large.keys() > small.keys() * 8);
    }
}
