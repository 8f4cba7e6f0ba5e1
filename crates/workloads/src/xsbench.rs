//! XSBench, paper Table III: 120 GB cross-section grid, 8 ranks.
//!
//! The Monte-Carlo neutronics macro-kernel: each "lookup" binary-searches a
//! small, blazing-hot energy index and then gathers nuclide cross-sections
//! from random rows of a gigantic unionized grid. The paper's largest
//! footprint by far — the grid is touched nearly uniformly with almost no
//! reuse, while the index is re-read constantly. This split (tiny hot
//! structure + huge cold one) is why XSBench shows the paper's most extreme
//! IBS/A-bit asymmetry (Table IV: 200k–826k IBS pages vs ~5.3k A-bit).

use tmprof_sim::prelude::*;

use crate::common::{ComputeMixer, OpQueue, Region};

mod site {
    pub const INDEX_SEARCH: u32 = 0x2001;
    pub const GRID_GATHER: u32 = 0x2002;
    pub const RESULT_ACCUM: u32 = 0x2003;
}

/// Fraction of the footprint devoted to the hot energy index.
const INDEX_SHARE: u64 = 128; // 1/128th

/// Cross-section rows gathered per lookup (one per interacting nuclide).
const GATHERS_PER_LOOKUP: usize = 5;

/// Generator state for one XSBench rank.
pub struct XsBench {
    index: Region,
    grid: Region,
    results: Region,
    rng: Rng,
    mixer: ComputeMixer,
    queue: OpQueue,
    lookups: u64,
}

impl XsBench {
    /// One rank with a `pages`-page total footprint.
    pub fn new(pages: u64, _rank: usize, rng: Rng) -> Self {
        let index_pages = (pages / INDEX_SHARE).max(4);
        let grid_pages = (pages - index_pages).max(4);
        Self {
            index: Region::new(0, index_pages),
            grid: Region::new(1, grid_pages),
            results: Region::new(2, 4),
            rng,
            // Heavier ALU work per access than GUPS (interpolation math).
            mixer: ComputeMixer::new(3),
            queue: OpQueue::new(),
            lookups: 0,
        }
    }

    fn step(&mut self) {
        self.lookups += 1;
        // Binary search over the energy index: log2(n) probes converging on
        // a random key. Probes hit a shrinking bracket, so early probes are
        // always the same few central pages (extremely hot).
        let elems = self.index.capacity(8);
        let target = self.rng.below(elems);
        let mut lo = 0u64;
        let mut hi = elems;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            self.queue.load(self.index.elem(mid, 8), site::INDEX_SEARCH);
            if target < mid {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        // Gather cross-sections from random grid rows.
        let grid_elems = self.grid.capacity(64);
        for _ in 0..GATHERS_PER_LOOKUP {
            let row = self.rng.below(grid_elems);
            self.queue.load(self.grid.elem(row, 64), site::GRID_GATHER);
        }
        // Accumulate into a per-rank result tally (tiny, write-hot).
        let slot = self.lookups % self.results.capacity(8);
        self.queue
            .store(self.results.elem(slot, 8), site::RESULT_ACCUM);
    }
}

crate::common::impl_mixed_stream!(XsBench);

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::keymap::{KeyMap, KeySet};

    fn mem_pages(gen: &mut XsBench, n: usize) -> Vec<Vpn> {
        let mut out = Vec::new();
        while out.len() < n {
            if let WorkOp::Mem { va, .. } = gen.next_op() {
                out.push(va.vpn());
            }
        }
        out
    }

    #[test]
    fn index_is_hot_grid_is_cold() {
        let mut x = XsBench::new(8192, 0, Rng::new(1));
        let index_range = x.index.vpn_range();
        let grid_range = x.grid.vpn_range();
        let pages = mem_pages(&mut x, 20_000);
        let mut index_hits = KeyMap::default();
        let mut grid_hits = KeyMap::default();
        for p in pages {
            if index_range.contains(&p.0) {
                *index_hits.entry(p).or_insert(0u64) += 1;
            } else if grid_range.contains(&p.0) {
                *grid_hits.entry(p).or_insert(0u64) += 1;
            }
        }
        let max_index = index_hits.values().max().copied().unwrap_or(0);
        let max_grid = grid_hits.values().max().copied().unwrap_or(0);
        assert!(
            max_index > max_grid * 10,
            "index pages must be far hotter: {max_index} vs {max_grid}"
        );
    }

    #[test]
    fn grid_coverage_grows_with_lookups() {
        let mut x = XsBench::new(8192, 0, Rng::new(2));
        let grid_range = x.grid.vpn_range();
        let mut distinct = KeySet::default();
        for p in mem_pages(&mut x, 30_000) {
            if grid_range.contains(&p.0) {
                distinct.insert(p);
            }
        }
        // ~5 gathers/lookup over ~8k grid pages: thousands of distinct pages.
        assert!(distinct.len() > 2000, "only {} grid pages", distinct.len());
    }

    #[test]
    fn regions_sized_from_footprint() {
        let x = XsBench::new(65536, 0, Rng::new(3));
        assert_eq!(x.index.pages(), 512);
        assert_eq!(x.grid.pages(), 65024);
    }

    #[test]
    fn tiny_footprint_still_valid() {
        let mut x = XsBench::new(64, 0, Rng::new(4));
        for _ in 0..1000 {
            let _ = x.next_op();
        }
    }
}
