//! Physical frame allocation across tiers.
//!
//! The allocator implements the paper's baseline placement — "a NUMA-like,
//! first-come-first-allocate tiered-memory policy" (§VI-C): allocations are
//! satisfied from tier 1 until it is exhausted, then spill down the tier
//! order (tier 2, then any deeper tiers of an N-tier topology). Frames
//! freed by migration return to their tier's free list so the page mover can
//! exchange hot and cold pages between tiers.
//!
//! Never-allocated frames are represented as one contiguous *fresh* range
//! per tier instead of an eagerly built free list, so constructing an
//! allocator over a terabyte-class tier is O(1) in time and memory; only
//! frames that have actually been freed occupy list storage. The observable
//! behavior (allocation order, huge-run placement, failure cases) is
//! identical to the historical dense free list, which kept frames
//! descending so `pop()` yielded ascending PFNs: recycled frames are reused
//! LIFO first, then fresh frames ascend from the bottom of the tier, and
//! huge runs come from the top.
struct _Docs;

use crate::addr::Pfn;
use crate::tier::{Tier, TieredMemory};

/// Frames per 2 MiB huge page.
pub const HUGE_FRAMES: u64 = 512;

/// One tier's free space: the fresh (never-allocated) range plus frames
/// returned by `free`/`free_huge` in push order.
///
/// The dense equivalent is the concatenation
/// `[fresh_hi-1, .., fresh_lo] ++ recycled`, with `pop()` taking from the
/// *end* — i.e. most-recently-freed first, then fresh frames ascending.
struct TierFree {
    fresh_lo: u64,
    fresh_hi: u64,
    recycled: Vec<Pfn>,
}

impl TierFree {
    fn len(&self) -> u64 {
        (self.fresh_hi - self.fresh_lo) + self.recycled.len() as u64
    }

    fn fresh_len(&self) -> u64 {
        self.fresh_hi - self.fresh_lo
    }

    /// Element `i` of the equivalent dense free list (front = highest
    /// fresh frame, then the recycled tail in push order).
    // tmprof-lint: allow(panic-reachability) — the recycled index is taken only on the i >= fresh_len branch, so i - fresh_len < recycled.len()
    fn virtual_entry(&self, i: u64) -> Pfn {
        if i < self.fresh_len() {
            Pfn(self.fresh_hi - 1 - i)
        } else {
            self.recycled[(i - self.fresh_len()) as usize]
        }
    }

    fn contains(&self, pfn: Pfn) -> bool {
        (self.fresh_lo..self.fresh_hi).contains(&pfn.0) || self.recycled.contains(&pfn)
    }
}

/// Free-list frame allocator over the N-tier physical space.
pub struct FrameAllocator {
    free: Vec<TierFree>,
    allocated: Vec<u64>,
}

/// Error returned when no frame is available.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// The tier that was requested (or `None` for an any-tier request).
    pub tier: Option<Tier>,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.tier {
            Some(t) => write!(f, "out of physical frames in {t:?}"),
            None => write!(f, "out of physical frames in all tiers"),
        }
    }
}

impl std::error::Error for OutOfMemory {}

impl FrameAllocator {
    /// Build an allocator with every frame of `layout` free. O(1) per tier
    /// regardless of capacity.
    ///
    /// Frames are handed out in ascending address order, which makes
    /// allocation deterministic and heatmaps (Figs. 3–4) readable.
    pub fn new(layout: &TieredMemory) -> Self {
        let free: Vec<TierFree> = layout
            .tiers()
            .map(|tier| {
                let first = layout.first_frame(tier).0;
                let count = layout.spec(tier).frames;
                TierFree {
                    fresh_lo: first,
                    fresh_hi: first + count,
                    recycled: Vec::new(),
                }
            })
            .collect();
        let allocated = vec![0; free.len()];
        Self { free, allocated }
    }

    /// Number of tiers this allocator partitions frames over.
    pub fn num_tiers(&self) -> usize {
        self.free.len()
    }

    /// Allocate from a specific tier.
    pub fn alloc_in(&mut self, tier: Tier) -> Result<Pfn, OutOfMemory> {
        let free = &mut self.free[tier.index()];
        let pfn = match free.recycled.pop() {
            Some(pfn) => pfn,
            None if free.fresh_lo < free.fresh_hi => {
                let pfn = Pfn(free.fresh_lo);
                free.fresh_lo += 1;
                pfn
            }
            None => return Err(OutOfMemory { tier: Some(tier) }),
        };
        self.allocated[tier.index()] += 1;
        Ok(pfn)
    }

    /// First-come-first-allocate: fill the fastest tier first, then spill
    /// down the waterfall tier by tier.
    pub fn alloc_first_touch(&mut self) -> Result<Pfn, OutOfMemory> {
        for i in 0..self.free.len() {
            if let Ok(pfn) = self.alloc_in(Tier::from_index(i)) {
                return Ok(pfn);
            }
        }
        Err(OutOfMemory { tier: None })
    }

    /// Allocate a contiguous 512-frame run for a 2 MiB huge page from a
    /// specific tier. Returns the base (lowest) frame. Contiguous runs are
    /// taken from the top of the tier's address range, where the free list
    /// stays unfragmented; fragmentation makes this fail gracefully
    /// (`None`), upon which callers fall back to 4 KiB pages — exactly the
    /// kernel's THP behavior.
    pub fn alloc_huge_in(&mut self, tier: Tier) -> Option<Pfn> {
        let free = &mut self.free[tier.index()];
        if free.len() < HUGE_FRAMES {
            return None;
        }
        let fresh_len = free.fresh_len();
        let base = if fresh_len >= HUGE_FRAMES {
            // Entirely fresh: the top of the fresh range is contiguous by
            // construction.
            free.fresh_hi -= HUGE_FRAMES;
            Pfn(free.fresh_hi)
        } else {
            // The run would straddle fresh and recycled frames: check that
            // the head of the equivalent dense list still descends without
            // a hole, exactly as the dense allocator checked its front run.
            let top = free.virtual_entry(0).0;
            for i in 0..HUGE_FRAMES {
                if top.checked_sub(i).map(Pfn) != Some(free.virtual_entry(i)) {
                    return None;
                }
            }
            free.fresh_hi = free.fresh_lo;
            free.recycled.drain(0..(HUGE_FRAMES - fresh_len) as usize);
            Pfn(top - (HUGE_FRAMES - 1))
        };
        self.allocated[tier.index()] += HUGE_FRAMES;
        Some(base)
    }

    /// Huge first-touch: fastest tier first, spilling down the waterfall.
    pub fn alloc_huge_first_touch(&mut self) -> Option<Pfn> {
        (0..self.free.len()).find_map(|i| self.alloc_huge_in(Tier::from_index(i)))
    }

    /// Return a huge page's 512 frames to their tier's free list.
    pub fn free_huge(&mut self, layout: &TieredMemory, base: Pfn) {
        let tier = layout.tier_of(base);
        self.allocated[tier.index()] -= HUGE_FRAMES;
        // Push descending so the head of the recycled run stays the highest
        // frames (preserving future huge allocability when possible) and a
        // subsequent `alloc_in` pops the base frame first.
        for i in (0..HUGE_FRAMES).rev() {
            self.free[tier.index()].recycled.push(Pfn(base.0 + i));
        }
    }

    /// Return a frame to its tier's free list.
    ///
    /// The caller passes the layout so the frame is filed under the right
    /// tier; a frame freed twice is a logic error and panics in debug builds.
    pub fn free(&mut self, layout: &TieredMemory, pfn: Pfn) {
        let tier = layout.tier_of(pfn);
        debug_assert!(
            !self.free[tier.index()].contains(pfn),
            "double free of {pfn:?}"
        );
        self.allocated[tier.index()] -= 1;
        self.free[tier.index()].recycled.push(pfn);
    }

    /// Whether `pfn` is on a free list: fresh or recycled (diagnostics;
    /// linear in the recycled frames).
    pub fn is_free(&self, pfn: Pfn) -> bool {
        self.free.iter().any(|f| f.contains(pfn))
    }

    /// Frames currently free in `tier`.
    pub fn free_in(&self, tier: Tier) -> u64 {
        self.free[tier.index()].len()
    }

    /// Frames currently allocated from `tier`.
    pub fn allocated_in(&self, tier: Tier) -> u64 {
        self.allocated[tier.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> TieredMemory {
        TieredMemory::with_frames(4, 8)
    }

    #[test]
    fn first_touch_fills_tier1_then_spills() {
        let l = layout();
        let mut fa = FrameAllocator::new(&l);
        let mut tiers = Vec::new();
        for _ in 0..12 {
            let pfn = fa.alloc_first_touch().unwrap();
            tiers.push(l.tier_of(pfn));
        }
        assert_eq!(&tiers[..4], &[Tier::Tier1; 4]);
        assert_eq!(&tiers[4..], &[Tier::Tier2; 8]);
        assert_eq!(fa.alloc_first_touch(), Err(OutOfMemory { tier: None }));
    }

    #[test]
    fn frames_handed_out_in_ascending_order() {
        let l = layout();
        let mut fa = FrameAllocator::new(&l);
        let a = fa.alloc_in(Tier::Tier2).unwrap();
        let b = fa.alloc_in(Tier::Tier2).unwrap();
        assert!(b.0 > a.0);
        assert_eq!(a, l.first_frame(Tier::Tier2));
    }

    #[test]
    fn free_returns_frame_to_correct_tier() {
        let l = layout();
        let mut fa = FrameAllocator::new(&l);
        let t1 = fa.alloc_in(Tier::Tier1).unwrap();
        for _ in 0..3 {
            fa.alloc_in(Tier::Tier1).unwrap();
        }
        assert_eq!(fa.free_in(Tier::Tier1), 0);
        fa.free(&l, t1);
        assert_eq!(fa.free_in(Tier::Tier1), 1);
        assert!(fa.is_free(t1));
        assert_eq!(fa.alloc_in(Tier::Tier1).unwrap(), t1);
        assert!(!fa.is_free(t1));
        assert!(
            fa.is_free(l.first_frame(Tier::Tier2)),
            "fresh frames are free"
        );
    }

    #[test]
    fn allocation_counters_track() {
        let l = layout();
        let mut fa = FrameAllocator::new(&l);
        assert_eq!(fa.allocated_in(Tier::Tier1), 0);
        let p = fa.alloc_in(Tier::Tier1).unwrap();
        assert_eq!(fa.allocated_in(Tier::Tier1), 1);
        fa.free(&l, p);
        assert_eq!(fa.allocated_in(Tier::Tier1), 0);
    }

    #[test]
    fn huge_allocation_takes_contiguous_run_from_the_top() {
        let l = TieredMemory::with_frames(4, 1200);
        let mut fa = FrameAllocator::new(&l);
        let base = fa.alloc_huge_in(Tier::Tier2).unwrap();
        // Top of tier 2 is frame 4+1200-1 = 1203; run base = 1203-511.
        assert_eq!(base, Pfn(1203 - 511));
        assert_eq!(fa.allocated_in(Tier::Tier2), 512);
        // 4 KiB allocations still come from the bottom.
        let small = fa.alloc_in(Tier::Tier2).unwrap();
        assert_eq!(small, Pfn(4));
        // Free the run; another huge allocation must succeed and be a
        // valid contiguous run within the tier.
        fa.free_huge(&l, base);
        assert_eq!(fa.allocated_in(Tier::Tier2), 1, "only the 4 KiB page");
        let base2 = fa.alloc_huge_in(Tier::Tier2).unwrap();
        assert!(base2.0 >= 4 && base2.0 + 511 <= 1203);
        assert_eq!(fa.allocated_in(Tier::Tier2), 513);
    }

    #[test]
    fn huge_allocation_fails_without_contiguity() {
        let l = TieredMemory::with_frames(600, 0);
        let mut fa = FrameAllocator::new(&l);
        // Punch a hole at the top: take the highest frame via a full drain
        // of everything (easier: allocate all, free all but one at top).
        let mut all = Vec::new();
        while let Ok(p) = fa.alloc_in(Tier::Tier1) {
            all.push(p);
        }
        // Free everything except the topmost frame.
        for &p in all.iter().filter(|p| p.0 != 599) {
            fa.free(&l, p);
        }
        assert_eq!(fa.alloc_huge_in(Tier::Tier1), None, "hole breaks the run");
    }

    #[test]
    fn huge_allocation_spans_fresh_and_recycled_frames() {
        // Mixed-run case: part of the 512-run is fresh, the rest was freed
        // back in descending order so the dense front run stays unbroken.
        let l = TieredMemory::with_frames(1024, 0);
        let mut fa = FrameAllocator::new(&l);
        for _ in 0..600 {
            fa.alloc_in(Tier::Tier1).unwrap();
        }
        // Recycle 599..=400 descending: the dense list head is then
        // [1023..600 fresh] ++ [599..400 recycled], one contiguous run.
        for p in (400..600u64).rev() {
            fa.free(&l, Pfn(p));
        }
        let base = fa.alloc_huge_in(Tier::Tier1).unwrap();
        assert_eq!(base, Pfn(1023 - 511));
        assert_eq!(fa.free_in(Tier::Tier1), 112);
        // The recycled remainder still pops LIFO.
        assert_eq!(fa.alloc_in(Tier::Tier1).unwrap(), Pfn(400));
        // A recycled head that does NOT continue the fresh run fails.
        let l2 = TieredMemory::with_frames(1024, 0);
        let mut fa2 = FrameAllocator::new(&l2);
        for _ in 0..256 {
            fa2.alloc_in(Tier::Tier1).unwrap();
        }
        let hb = fa2.alloc_huge_in(Tier::Tier1).unwrap(); // fresh top run
        fa2.free_huge(&l2, hb);
        // Dense head is now [511..256 fresh] ++ [1023..512 recycled]:
        // broken at the seam, so no huge run is available.
        assert_eq!(fa2.alloc_huge_in(Tier::Tier1), None);
    }

    #[test]
    fn terabyte_tier_construction_is_lazy() {
        // 2^30 frames per tier (4 TiB each of 4 KiB pages): building the
        // allocator must not materialize per-frame state.
        let l = TieredMemory::with_frames(1 << 30, 1 << 30);
        let mut fa = FrameAllocator::new(&l);
        assert_eq!(fa.free_in(Tier::Tier1), 1 << 30);
        let p = fa.alloc_in(Tier::Tier1).unwrap();
        assert_eq!(p, l.first_frame(Tier::Tier1));
        let huge = fa.alloc_huge_in(Tier::Tier2).unwrap();
        assert_eq!(huge.0 + 511, l.first_frame(Tier::Tier2).0 + (1 << 30) - 1);
    }

    #[test]
    fn first_touch_waterfalls_through_three_tiers() {
        use crate::tier::{MemTopology, TierSpec};
        let l =
            MemTopology::from_specs(vec![TierSpec::dram(2), TierSpec::cxl(3), TierSpec::nvm(4)]);
        let mut fa = FrameAllocator::new(&l);
        assert_eq!(fa.num_tiers(), 3);
        let mut tiers = Vec::new();
        for _ in 0..9 {
            tiers.push(l.tier_of(fa.alloc_first_touch().unwrap()));
        }
        assert_eq!(&tiers[..2], &[Tier::Tier1; 2]);
        assert_eq!(&tiers[2..5], &[Tier::Tier2; 3]);
        assert_eq!(&tiers[5..], &[Tier::Tier3; 4]);
        assert_eq!(fa.alloc_first_touch(), Err(OutOfMemory { tier: None }));
    }

    #[test]
    fn tier_exhaustion_is_reported_per_tier() {
        let l = layout();
        let mut fa = FrameAllocator::new(&l);
        for _ in 0..4 {
            fa.alloc_in(Tier::Tier1).unwrap();
        }
        assert_eq!(
            fa.alloc_in(Tier::Tier1),
            Err(OutOfMemory {
                tier: Some(Tier::Tier1)
            })
        );
        assert!(fa.alloc_in(Tier::Tier2).is_ok());
    }
}
