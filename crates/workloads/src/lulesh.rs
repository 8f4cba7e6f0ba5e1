//! LULESH (Livermore hydrodynamics proxy), paper Table III: 21 GB mesh,
//! 8 ranks.
//!
//! Lagrangian shock hydrodynamics over a structured 3-D mesh: each time
//! step sweeps the element array in order, reading each element's state and
//! its six face neighbors (±1, ±N, ±N² strides) plus the nodal arrays, then
//! writing updated state. The access pattern is dominated by unit-stride
//! and fixed-stride reads — high spatial locality, prefetch-friendly, few
//! irregular accesses — the *opposite* pole from GUPS. In the paper this is
//! the workload where hot pages are simply "the whole mesh, in rotation",
//! so heatmaps show diagonal sweep fronts.

use tmprof_sim::prelude::*;

use crate::common::{ComputeMixer, OpQueue, Region};

mod site {
    pub const ELEM_READ: u32 = 0x6001;
    pub const NEIGHBOR_READ: u32 = 0x6002;
    pub const NODE_READ: u32 = 0x6003;
    pub const ELEM_WRITE: u32 = 0x6004;
}

/// Bytes of state per element (LULESH carries ~a dozen doubles).
const ELEM_SIZE: u64 = 96;

/// Generator state for one LULESH rank.
pub struct Lulesh {
    elems: Region,
    nodes: Region,
    /// Mesh edge length `n` for the n×n×n element cube.
    n: u64,
    elem_count: u64,
    mixer: ComputeMixer,
    queue: OpQueue,
    cursor: u64,
    timestep: u64,
}

impl Lulesh {
    /// One rank over a `pages`-page mesh partition.
    pub fn new(pages: u64, _rank: usize, _rng: Rng) -> Self {
        // 3/4 element arrays, 1/4 nodal arrays.
        let elem_pages = (pages * 3 / 4).max(4);
        let node_pages = (pages - elem_pages).max(2);
        let capacity = elem_pages * PAGE_SIZE / ELEM_SIZE;
        // Largest cube that fits.
        let n = (capacity as f64).cbrt().floor() as u64;
        let n = n.max(4);
        Self {
            elems: Region::new(0, elem_pages),
            nodes: Region::new(1, node_pages),
            n,
            elem_count: n * n * n,
            // Heavy floating-point work per element.
            mixer: ComputeMixer::new(4),
            queue: OpQueue::new(),
            cursor: 0,
            timestep: 0,
        }
    }

    fn step(&mut self) {
        let i = self.cursor;
        self.cursor += 1;
        if self.cursor >= self.elem_count {
            self.cursor = 0;
            self.timestep += 1;
        }
        let n = self.n;
        let n2 = n * n;
        // Element's own state.
        self.queue
            .load(self.elems.elem(i, ELEM_SIZE), site::ELEM_READ);
        // Six face neighbors, clamped at the boundary.
        let neighbors = [
            i.checked_sub(1),
            Some(i + 1),
            i.checked_sub(n),
            Some(i + n),
            i.checked_sub(n2),
            Some(i + n2),
        ];
        for nb in neighbors.into_iter().flatten() {
            if nb < self.elem_count {
                self.queue
                    .load(self.elems.elem(nb, ELEM_SIZE), site::NEIGHBOR_READ);
            }
        }
        // Nodal gather: the 8 corner nodes live in a proportional slot of
        // the node arrays (structured mesh → affine mapping, still strided).
        let node_elems = self.nodes.capacity(24);
        let base = (i * 8) % node_elems;
        self.queue.load(self.nodes.elem(base, 24), site::NODE_READ);
        self.queue.load(
            self.nodes.elem((base + 1) % node_elems, 24),
            site::NODE_READ,
        );
        // Write back updated element state.
        self.queue
            .store(self.elems.elem(i, ELEM_SIZE), site::ELEM_WRITE);
    }
}

crate::common::impl_mixed_stream!(Lulesh);

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::keymap::KeySet;

    #[test]
    fn mesh_edge_from_footprint() {
        let l = Lulesh::new(4096, 0, Rng::new(1));
        let cap = l.elems.pages() * PAGE_SIZE / ELEM_SIZE;
        assert!(l.n.pow(3) <= cap);
        assert!((l.n + 1).pow(3) > cap);
    }

    #[test]
    fn sweep_covers_footprint_each_timestep() {
        let mut l = Lulesh::new(512, 0, Rng::new(2));
        let range = l.elems.vpn_range();
        let mut pages = KeySet::default();
        while l.timestep == 0 {
            if let WorkOp::Mem { va, .. } = l.next_op() {
                if range.contains(&va.vpn().0) {
                    pages.insert(va.vpn().0);
                }
            }
        }
        // The sweep must touch essentially every element page.
        let elem_pages_used = (l.n.pow(3) * ELEM_SIZE).div_ceil(PAGE_SIZE);
        assert!(pages.len() as u64 >= elem_pages_used * 9 / 10);
    }

    #[test]
    fn accesses_are_spatially_local() {
        // Most consecutive element-region accesses should land within a
        // few pages of each other (unit/N strides), unlike GUPS.
        let mut l = Lulesh::new(2048, 0, Rng::new(3));
        let range = l.elems.vpn_range();
        let mut last: Option<u64> = None;
        let (mut near, mut total) = (0u64, 0u64);
        for _ in 0..30_000 {
            if let WorkOp::Mem { va, .. } = l.next_op() {
                let p = va.vpn().0;
                if range.contains(&p) {
                    if let Some(prev) = last {
                        total += 1;
                        // n² stride bounds the neighbor distance in pages.
                        let stride_pages = (l.n * l.n * ELEM_SIZE / PAGE_SIZE) + 2;
                        if p.abs_diff(prev) <= stride_pages {
                            near += 1;
                        }
                    }
                    last = Some(p);
                }
            }
        }
        assert!(near * 10 > total * 9, "{near}/{total} near accesses");
    }

    #[test]
    fn each_element_is_written_once_per_step() {
        let mut l = Lulesh::new(256, 0, Rng::new(4));
        let mut writes = 0u64;
        while l.timestep == 0 {
            if let WorkOp::Mem { store: true, .. } = l.next_op() {
                writes += 1;
            }
        }
        // The timestep counter flips while the final element's ops are
        // still queued, so its store may be observed one op late.
        let n3 = l.n.pow(3);
        assert!(writes == n3 || writes == n3 - 1, "writes {writes} vs {n3}");
    }
}
