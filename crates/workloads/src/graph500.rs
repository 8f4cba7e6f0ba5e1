//! Graph500 (BFS), paper Table III: 1 GB graph, 8 ranks.
//!
//! Breadth-first search over a synthetic power-law (Kronecker-like) graph
//! in CSR form. Each BFS level sweeps the current frontier, streaming each
//! frontier vertex's adjacency run (sequential within a run) and issuing a
//! random-looking visited-check + parent write per neighbor. Frontier size
//! balloons in the middle levels and collapses at the ends, giving BFS its
//! characteristic phase-varying footprint — visible as pulsing bands in the
//! paper's heatmaps (Fig. 3).

use tmprof_sim::prelude::*;

use crate::common::{ComputeMixer, OpQueue, Region};

mod site {
    pub const ROW_PTR: u32 = 0x4001;
    pub const EDGE_SCAN: u32 = 0x4002;
    pub const VISITED_CHECK: u32 = 0x4003;
    pub const PARENT_WRITE: u32 = 0x4004;
}

/// Average out-degree (Graph500 edgefactor is 16).
const EDGEFACTOR: u64 = 16;

/// Generator state for one BFS rank.
pub struct Graph500 {
    /// CSR row pointers + vertex metadata.
    vertices: Region,
    /// CSR edge array (bulk of the footprint).
    edges: Region,
    /// visited bitmap / parent array.
    visited: Region,
    vertex_count: u64,
    /// Degree skew sampler: which vertices are hubs.
    hub_zipf: Zipf,
    rng: Rng,
    mixer: ComputeMixer,
    queue: OpQueue,
    /// BFS state: current level and position within it.
    level: u32,
    level_pos: u64,
    level_size: u64,
}

/// BFS level schedule: fraction of vertices in the frontier per level,
/// in 1/1024ths. Shaped like a Kronecker-graph BFS (tiny, explosive
/// middle, long tail).
const LEVEL_PROFILE: [u64; 8] = [1, 16, 256, 512, 192, 40, 6, 1];

impl Graph500 {
    /// One rank over a `pages`-page graph partition.
    pub fn new(pages: u64, _rank: usize, mut rng: Rng) -> Self {
        // CSR layout: ~1/8 vertices, ~3/4 edges, rest visited/parent.
        let vertex_pages = (pages / 8).max(2);
        let edge_pages = (pages * 3 / 4).max(4);
        let visited_pages = (pages - vertex_pages - edge_pages).max(2);
        let vertex_count = vertex_pages * PAGE_SIZE / 8;
        let hub_zipf = Zipf::new(vertex_count, 0.8);
        let rng2 = rng.fork();
        let mut g = Self {
            vertices: Region::new(0, vertex_pages),
            edges: Region::new(1, edge_pages),
            visited: Region::new(2, visited_pages),
            vertex_count,
            hub_zipf,
            rng: rng2,
            mixer: ComputeMixer::new(2),
            queue: OpQueue::new(),
            level: 0,
            level_pos: 0,
            level_size: 0,
        };
        g.level_size = g.frontier_size(0);
        g
    }

    fn frontier_size(&self, level: u32) -> u64 {
        let share = LEVEL_PROFILE[level as usize % LEVEL_PROFILE.len()];
        (self.vertex_count * share / 1024).max(1)
    }

    /// Process one frontier vertex: read its row pointer, stream its
    /// adjacency run, check/mark each neighbor.
    fn step(&mut self) {
        if self.level_pos >= self.level_size {
            self.level = (self.level + 1) % LEVEL_PROFILE.len() as u32;
            self.level_pos = 0;
            self.level_size = self.frontier_size(self.level);
        }
        self.level_pos += 1;

        // Frontier vertices are effectively random; hubs are overrepresented.
        let v = self.hub_zipf.sample(&mut self.rng);
        self.queue.load(self.vertices.elem(v, 8), site::ROW_PTR);

        // Degree: hubs (low rank) have big runs; tail vertices small ones.
        let degree = if v < self.vertex_count / 64 {
            EDGEFACTOR * 8
        } else {
            ((self.rng.below(EDGEFACTOR * 2)) + 1).min(EDGEFACTOR * 2)
        };
        // Adjacency run: contiguous in the edge array, starting at a
        // position derived from the vertex (CSR order).
        let edge_elems = self.edges.capacity(8);
        let run_start = (v.wrapping_mul(EDGEFACTOR)) % edge_elems;
        for e in 0..degree {
            let pos = (run_start + e) % edge_elems;
            self.queue.load(self.edges.elem(pos, 8), site::EDGE_SCAN);
            // Neighbor visited-check: random vertex, bitmap read.
            let n = self.rng.below(self.vertex_count);
            let byte = n / 8;
            self.queue.load(
                self.visited.at(byte % self.visited.bytes()),
                site::VISITED_CHECK,
            );
            // A fraction of neighbors are newly discovered: parent write.
            if self.rng.chance(0.25) {
                self.queue.store(
                    self.visited.at((n * 8) % self.visited.bytes()),
                    site::PARENT_WRITE,
                );
            }
        }
    }
}

crate::common::impl_mixed_stream!(Graph500);

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::keymap::KeySet;

    #[test]
    fn touches_all_three_regions() {
        let mut g = Graph500::new(2048, 0, Rng::new(1));
        let v = g.vertices.vpn_range();
        let e = g.edges.vpn_range();
        let s = g.visited.vpn_range();
        let (mut sv, mut se, mut ss) = (false, false, false);
        for _ in 0..10_000 {
            if let WorkOp::Mem { va, .. } = g.next_op() {
                let p = va.vpn().0;
                sv |= v.contains(&p);
                se |= e.contains(&p);
                ss |= s.contains(&p);
            }
        }
        assert!(sv && se && ss);
    }

    #[test]
    fn levels_advance_and_wrap() {
        let mut g = Graph500::new(128, 0, Rng::new(2));
        let mut seen = KeySet::default();
        for _ in 0..5_000_000 {
            let _ = g.next_op();
            seen.insert(g.level);
            if seen.len() == LEVEL_PROFILE.len() {
                break;
            }
        }
        assert_eq!(seen.len(), LEVEL_PROFILE.len(), "all BFS levels visited");
    }

    #[test]
    fn edge_scans_have_spatial_runs() {
        // Consecutive edge-array accesses within a vertex's run are
        // sequential: count adjacent-element pairs.
        let mut g = Graph500::new(2048, 0, Rng::new(3));
        let e = g.edges.vpn_range();
        let mut last: Option<u64> = None;
        let mut sequential = 0;
        let mut total = 0;
        for _ in 0..30_000 {
            if let WorkOp::Mem { va, .. } = g.next_op() {
                if e.contains(&va.vpn().0) {
                    total += 1;
                    if let Some(prev) = last {
                        if va.0 == prev + 8 {
                            sequential += 1;
                        }
                    }
                    last = Some(va.0);
                }
            }
        }
        assert!(
            sequential * 2 > total,
            "edge scans should be mostly sequential ({sequential}/{total})"
        );
    }

    #[test]
    fn frontier_profile_is_hump_shaped() {
        let g = Graph500::new(1024, 0, Rng::new(4));
        let sizes: Vec<u64> = (0..8).map(|l| g.frontier_size(l)).collect();
        let peak = sizes.iter().max().unwrap();
        assert_eq!(sizes.iter().position(|s| s == peak), Some(3));
        assert!(sizes[0] < sizes[3] && sizes[7] < sizes[3]);
    }
}
