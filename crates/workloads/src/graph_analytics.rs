//! Graph-Analytics (CloudSuite, PageRank on Twitter), paper Table III:
//! 1.4 GB graph, 1 master + 16 workers.
//!
//! Iterative PageRank: per superstep, each worker streams its vertex range
//! sequentially (read old rank, write new rank) and gathers contributions
//! from in-neighbors chosen with power-law skew — most gathers land on the
//! celebrity hubs of the Twitter graph, so a modest set of rank pages is
//! extremely hot while the sequential sweeps keep the whole footprint warm.
//! The hub/tail split is what gives IBS three times more detected pages
//! than the A-bit path at 4x sampling (Table IV).

use tmprof_sim::prelude::*;

use crate::common::{ComputeMixer, OpQueue, Region};

mod site {
    pub const RANK_READ: u32 = 0x5001;
    pub const RANK_WRITE: u32 = 0x5002;
    pub const NEIGHBOR_GATHER: u32 = 0x5003;
    pub const DEGREE_READ: u32 = 0x5004;
}

/// Gathers per vertex per superstep (average in-degree sample).
const GATHERS_PER_VERTEX: usize = 6;

/// Twitter-like in-degree skew.
const HUB_THETA: f64 = 1.05;

/// Generator state for one PageRank worker.
pub struct GraphAnalytics {
    ranks_src: Region,
    ranks_dst: Region,
    degrees: Region,
    vertex_count: u64,
    hub_zipf: Zipf,
    rng: Rng,
    mixer: ComputeMixer,
    queue: OpQueue,
    cursor: u64,
    superstep: u64,
}

impl GraphAnalytics {
    /// One worker over a `pages`-page partition.
    pub fn new(pages: u64, _rank: usize, mut rng: Rng) -> Self {
        // Two rank arrays (double buffering) + degree array.
        let rank_pages = (pages * 2 / 5).max(2);
        let degree_pages = (pages - 2 * rank_pages).max(1);
        let vertex_count = rank_pages * PAGE_SIZE / 8;
        let hub_zipf = Zipf::new(vertex_count, HUB_THETA);
        let rng2 = rng.fork();
        Self {
            ranks_src: Region::new(0, rank_pages),
            ranks_dst: Region::new(1, rank_pages),
            degrees: Region::new(2, degree_pages),
            vertex_count,
            hub_zipf,
            rng: rng2,
            mixer: ComputeMixer::new(2),
            queue: OpQueue::new(),
            cursor: 0,
            superstep: 0,
        }
    }

    fn step(&mut self) {
        let v = self.cursor;
        self.cursor += 1;
        if self.cursor >= self.vertex_count {
            self.cursor = 0;
            self.superstep += 1;
            // Double buffering: swap rank arrays each superstep.
            std::mem::swap(&mut self.ranks_src, &mut self.ranks_dst);
        }
        // Sequential: old rank + out-degree of v.
        self.queue.load(self.ranks_src.elem(v, 8), site::RANK_READ);
        let deg_elems = self.degrees.capacity(4);
        self.queue
            .load(self.degrees.elem(v % deg_elems, 4), site::DEGREE_READ);
        // Gather from skewed in-neighbors.
        for _ in 0..GATHERS_PER_VERTEX {
            let n = self.hub_zipf.sample(&mut self.rng);
            self.queue
                .load(self.ranks_src.elem(n, 8), site::NEIGHBOR_GATHER);
        }
        // Write the new rank sequentially.
        self.queue
            .store(self.ranks_dst.elem(v, 8), site::RANK_WRITE);
    }
}

crate::common::impl_mixed_stream!(GraphAnalytics);

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::keymap::KeyMap;

    #[test]
    fn hubs_dominate_gather_traffic() {
        let mut ga = GraphAnalytics::new(4096, 0, Rng::new(1));
        let src = ga.ranks_src.vpn_range();
        let mut hits: KeyMap<u64, u64> = KeyMap::default();
        for _ in 0..60_000 {
            if let WorkOp::Mem {
                va, store: false, ..
            } = ga.next_op()
            {
                if src.contains(&va.vpn().0) {
                    *hits.entry(va.vpn().0).or_insert(0) += 1;
                }
            }
        }
        let mut counts: Vec<u64> = hits.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        // First page of the rank array holds the top hubs.
        assert!(
            counts[0] as f64 > total as f64 / counts.len() as f64 * 5.0,
            "hub page not hot enough"
        );
    }

    #[test]
    fn sweep_is_sequential_and_wraps_into_supersteps() {
        let mut ga = GraphAnalytics::new(256, 0, Rng::new(2));
        assert_eq!(ga.superstep, 0);
        // Run enough ops to complete a superstep.
        let vertices = ga.vertex_count;
        let mut ops = 0u64;
        while ga.superstep == 0 {
            let _ = ga.next_op();
            ops += 1;
            assert!(ops < vertices * 40, "superstep never completed");
        }
        assert_eq!(ga.superstep, 1);
    }

    #[test]
    fn writes_go_to_destination_buffer_only() {
        let mut ga = GraphAnalytics::new(512, 0, Rng::new(3));
        let src = ga.ranks_src.vpn_range();
        // During superstep 0, stores land outside the source buffer.
        for _ in 0..5_000 {
            if ga.superstep > 0 {
                break;
            }
            if let WorkOp::Mem {
                va, store: true, ..
            } = ga.next_op()
            {
                assert!(!src.contains(&va.vpn().0), "store into source buffer");
            }
        }
    }

    #[test]
    fn buffers_swap_each_superstep() {
        let mut ga = GraphAnalytics::new(256, 0, Rng::new(4));
        let before = ga.ranks_src.vpn_range();
        while ga.superstep == 0 {
            let _ = ga.next_op();
        }
        let after = ga.ranks_src.vpn_range();
        assert_ne!(before, after);
    }
}
