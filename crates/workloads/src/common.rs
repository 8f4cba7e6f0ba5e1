//! Shared building blocks for workload generators.

use tmprof_sim::prelude::*;

/// A contiguous virtual region of a process's address space.
///
/// Generators carve their data structures (tables, heaps, meshes, CSR
/// arrays) out of regions; each region starts at a distinct GiB-aligned
/// base so heatmaps show them as separate bands.
#[derive(Clone, Copy, Debug)]
pub struct Region {
    base_vpn: u64,
    pages: u64,
}

/// Spacing between region bases: 1 GiB of VA (2^18 pages).
pub const REGION_STRIDE_VPNS: u64 = 1 << 18;

/// First region base: 256 MiB into the address space (clear of null-ish
/// addresses, like a real heap).
pub const FIRST_REGION_VPN: u64 = 0x10000;

impl Region {
    /// The `index`-th region of a process, sized `pages`.
    pub fn new(index: u64, pages: u64) -> Self {
        assert!(pages > 0, "empty region");
        assert!(
            pages <= REGION_STRIDE_VPNS,
            "region of {pages} pages exceeds the 1 GiB region stride"
        );
        Self {
            base_vpn: FIRST_REGION_VPN + index * REGION_STRIDE_VPNS,
            pages,
        }
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.pages * PAGE_SIZE
    }

    /// Virtual address of `offset` bytes into the region.
    #[inline]
    pub fn at(&self, offset: u64) -> VirtAddr {
        debug_assert!(offset < self.bytes(), "offset beyond region");
        VirtAddr((self.base_vpn << PAGE_SHIFT) + offset)
    }

    /// Address of the `i`-th element of an array of `elem_size`-byte
    /// elements laid out from the region base.
    #[inline]
    pub fn elem(&self, i: u64, elem_size: u64) -> VirtAddr {
        let off = i * elem_size;
        debug_assert!(off < self.bytes(), "element {i} beyond region");
        self.at(off)
    }

    /// How many `elem_size`-byte elements fit.
    pub fn capacity(&self, elem_size: u64) -> u64 {
        self.bytes() / elem_size
    }
}

/// Emits `gap` compute ops between successive memory ops, modelling the
/// ALU work between loads. A `gap` of 2 yields op streams like
/// `C C M C C M …`, i.e. one third of retired ops touch memory — a typical
/// memory-intensive mix.
pub struct ComputeMixer {
    gap: u32,
    until_mem: u32,
}

impl ComputeMixer {
    /// Mixer emitting `gap` compute ops per memory op.
    pub fn new(gap: u32) -> Self {
        Self {
            gap,
            until_mem: gap,
        }
    }

    /// Returns `None` when the next op should be a memory op; otherwise a
    /// compute op to emit first.
    #[inline]
    pub fn step(&mut self) -> Option<WorkOp> {
        if self.until_mem == 0 {
            self.until_mem = self.gap;
            None
        } else {
            self.until_mem -= 1;
            Some(WorkOp::Compute)
        }
    }
}

/// Implements `OpStream` for a generator built on the shared
/// mixer + queue + `step()` structure (all eight Table III generators).
///
/// Generates both `next_op` and a native `fill_batch`: the batch fill runs
/// the same mixer/queue state machine in a monomorphized loop, so filling a
/// scheduling quantum costs one virtual call instead of one per op. Both
/// paths advance the generator through identical states — `fill_batch` is
/// `next_op` unrolled, nothing more — which the determinism tests rely on.
macro_rules! impl_mixed_stream {
    ($ty:ty) => {
        impl tmprof_sim::runner::OpStream for $ty {
            fn next_op(&mut self) -> tmprof_sim::machine::WorkOp {
                if let Some(c) = self.mixer.step() {
                    return c;
                }
                loop {
                    if let Some(op) = self.queue.pop() {
                        return op;
                    }
                    self.step();
                }
            }

            fn fill_batch(&mut self, buf: &mut [tmprof_sim::machine::WorkOp]) {
                for slot in buf.iter_mut() {
                    *slot = if let Some(c) = self.mixer.step() {
                        c
                    } else {
                        loop {
                            if let Some(op) = self.queue.pop() {
                                break op;
                            }
                            self.step();
                        }
                    };
                }
            }
        }
    };
}

pub(crate) use impl_mixed_stream;

/// A small queue of memory ops a generator has decided to issue (one
/// logical workload "step" often produces several accesses).
#[derive(Default)]
pub struct OpQueue {
    ops: std::collections::VecDeque<WorkOp>,
}

impl OpQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a load.
    #[inline]
    pub fn load(&mut self, va: VirtAddr, site: u32) {
        self.ops.push_back(WorkOp::Mem {
            va,
            store: false,
            site,
        });
    }

    /// Queue a store.
    #[inline]
    pub fn store(&mut self, va: VirtAddr, site: u32) {
        self.ops.push_back(WorkOp::Mem {
            va,
            store: true,
            site,
        });
    }

    /// Pop the next queued op.
    #[inline]
    pub fn pop(&mut self) -> Option<WorkOp> {
        self.ops.pop_front()
    }

    /// Whether ops are pending.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Pending count.
    pub fn len(&self) -> usize {
        self.ops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Region {
        /// Number of pages in the region.
        pub(crate) fn pages(&self) -> u64 {
            self.pages
        }

        /// VPN range covered, for the workloads' layout tests.
        pub(crate) fn vpn_range(&self) -> std::ops::Range<u64> {
            self.base_vpn..self.base_vpn + self.pages
        }
    }

    #[test]
    fn regions_do_not_overlap() {
        let a = Region::new(0, REGION_STRIDE_VPNS);
        let b = Region::new(1, 1024);
        assert!(a.vpn_range().end <= b.vpn_range().start);
    }

    #[test]
    fn region_addresses_are_canonical() {
        let r = Region::new(7, 1024);
        assert!(r.at(0).is_canonical());
        assert!(r.at(r.bytes() - 1).is_canonical());
    }

    #[test]
    fn elem_layout() {
        let r = Region::new(0, 2);
        assert_eq!(r.elem(0, 8), r.at(0));
        assert_eq!(r.elem(512, 8).vpn(), Vpn(r.vpn_range().start + 1));
        assert_eq!(r.capacity(8), 1024);
    }

    #[test]
    fn mixer_emits_gap_computes_per_mem() {
        let mut mix = ComputeMixer::new(2);
        let mut pattern = Vec::new();
        for _ in 0..9 {
            match mix.step() {
                Some(WorkOp::Compute) => pattern.push('C'),
                Some(_) => unreachable!(),
                None => pattern.push('M'),
            }
        }
        assert_eq!(pattern.iter().collect::<String>(), "CCMCCMCCM");
    }

    #[test]
    fn mixer_zero_gap_is_all_mem() {
        let mut mix = ComputeMixer::new(0);
        for _ in 0..5 {
            assert!(mix.step().is_none());
        }
    }

    #[test]
    fn queue_is_fifo() {
        let mut q = OpQueue::new();
        q.load(VirtAddr(1), 0);
        q.store(VirtAddr(2), 1);
        assert_eq!(q.len(), 2);
        match q.pop().unwrap() {
            WorkOp::Mem { va, store, .. } => {
                assert_eq!(va, VirtAddr(1));
                assert!(!store);
            }
            _ => panic!(),
        }
        match q.pop().unwrap() {
            WorkOp::Mem { va, store, .. } => {
                assert_eq!(va, VirtAddr(2));
                assert!(store);
            }
            _ => panic!(),
        }
        assert!(q.pop().is_none());
    }
}
