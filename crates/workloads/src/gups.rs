//! GUPS (Giga-Updates Per Second), paper Table III: 4 GB table, 8 ranks.
//!
//! The HPCC RandomAccess kernel: read-modify-write updates to uniformly
//! random 8-byte elements of one huge table. There is no locality of any
//! kind — every update touches a random page — which makes GUPS the paper's
//! stress case for sampled profiling: IBS detects enormous numbers of
//! distinct pages (Table IV: 76k at the default rate, 468k at 8x) while the
//! hottest-page set is essentially flat.

use tmprof_sim::prelude::*;

use crate::common::{ComputeMixer, OpQueue, Region};

/// Synthetic instruction-pointer sites.
mod site {
    pub const UPDATE_LOAD: u32 = 0x1001;
    pub const UPDATE_STORE: u32 = 0x1002;
}

/// Generator state for one GUPS rank.
pub struct Gups {
    table: Region,
    rng: Rng,
    mixer: ComputeMixer,
    queue: OpQueue,
}

impl Gups {
    /// One rank over a `pages`-page table.
    pub fn new(pages: u64, _rank: usize, rng: Rng) -> Self {
        Self {
            table: Region::new(0, pages),
            rng,
            // GUPS is nearly pure memory traffic: one XOR per update.
            mixer: ComputeMixer::new(1),
            queue: OpQueue::new(),
        }
    }

    fn step(&mut self) {
        // One update: load the element, XOR, store it back.
        let elems = self.table.capacity(8);
        let idx = self.rng.below(elems);
        let va = self.table.elem(idx, 8);
        self.queue.load(va, site::UPDATE_LOAD);
        self.queue.store(va, site::UPDATE_STORE);
    }
}

crate::common::impl_mixed_stream!(Gups);

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::keymap::KeySet;

    fn mem_vas(gen: &mut Gups, n: usize) -> Vec<(VirtAddr, bool)> {
        let mut out = Vec::new();
        while out.len() < n {
            if let WorkOp::Mem { va, store, .. } = gen.next_op() {
                out.push((va, store));
            }
        }
        out
    }

    #[test]
    fn updates_are_load_store_pairs_to_same_address() {
        let mut g = Gups::new(1024, 0, Rng::new(1));
        let vas = mem_vas(&mut g, 100);
        for pair in vas.chunks(2) {
            assert_eq!(pair[0].0, pair[1].0, "RMW targets one element");
            assert!(!pair[0].1, "load first");
            assert!(pair[1].1, "store second");
        }
    }

    #[test]
    fn accesses_stay_in_table() {
        let mut g = Gups::new(256, 0, Rng::new(2));
        let range = g.table.vpn_range();
        for (va, _) in mem_vas(&mut g, 1000) {
            assert!(range.contains(&va.vpn().0));
        }
    }

    #[test]
    fn footprint_is_uniform_not_concentrated() {
        let mut g = Gups::new(512, 0, Rng::new(3));
        let mut pages = KeySet::default();
        for (va, _) in mem_vas(&mut g, 4000) {
            pages.insert(va.vpn());
        }
        // 2000 updates over 512 pages: expect to touch nearly all pages.
        assert!(pages.len() > 480, "touched only {} pages", pages.len());
    }

    #[test]
    fn emits_compute_ops_between_updates() {
        let mut g = Gups::new(128, 0, Rng::new(4));
        let computes = (0..300)
            .filter(|_| matches!(g.next_op(), WorkOp::Compute))
            .count();
        assert!(computes > 50, "mixer must interleave ALU work");
    }
}
