//! Page descriptors: the per-frame metadata the paper's kernel module adds.
//!
//! TMP "stores the data of a page by extending its page descriptor (PD)
//! structure" and uses `phys_to_page()` to find the PD from a physical
//! address (§III-B-1). We model the same thing, but where the kernel's
//! `mem_map` is a dense array, this table is *sparse*: descriptors live in
//! fixed-size frame chunks materialized on first touch (the
//! `SPARSEMEM`-section analogue, `FrameChunks`, which also holds the
//! ground-truth frame counters), so descriptor memory scales with the
//! resident/touched frame set rather than with configured capacity — the
//! property that lets terabyte-class footprints fit. Each descriptor
//! accumulates the A-bit observations and trace samples that the two
//! profiling drivers deliver, plus a backlink to the logical page
//! (`rmap`-style) so migration can move stats with the page.

use crate::addr::{Pfn, Vpn};
use crate::tlb::Pid;
use tmprof_obs::metrics::{self, Metric};

/// A stable identity for a logical page: (process, virtual page).
///
/// Physical frames change under migration; the logical page is what policies
/// reason about across epochs. Packs into a `u64` for use as a dense map key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    pub pid: Pid,
    pub vpn: Vpn,
}

/// Bits of a packed [`PageKey`] that hold the VPN (48-bit VA, 4 KiB pages).
const VPN_BITS: u32 = 36;

/// Every PID must be below this limit (2^28): a packed [`PageKey`] keeps
/// the PID in the 28 bits above the VPN. [`crate::machine::Machine::add_process`]
/// refuses a PID at or past it.
pub const PID_LIMIT: Pid = 1 << (64 - VPN_BITS);

impl PageKey {
    /// Pack into a single word: the PID above a 36-bit VPN.
    #[inline]
    pub fn pack(self) -> u64 {
        debug_assert!(self.vpn.0 < (1 << VPN_BITS));
        debug_assert!(self.pid < PID_LIMIT, "pid {} is past 2^28", self.pid);
        ((self.pid as u64) << VPN_BITS) | self.vpn.0
    }

    /// Reverse of [`PageKey::pack`].
    #[inline]
    pub fn unpack(raw: u64) -> Self {
        Self {
            pid: (raw >> VPN_BITS) as Pid,
            vpn: Vpn(raw & ((1 << VPN_BITS) - 1)),
        }
    }
}

/// Per-frame profiling state (the extended `struct page`).
#[derive(Clone, Copy, Debug, Default)]
pub struct PageDesc {
    /// Which logical page currently occupies this frame (reverse mapping).
    pub owner: Option<PageKey>,
    /// A-bit observations accumulated in the current epoch. Wide on
    /// purpose: the old `u32` + `saturating_add` pinned every page past
    /// ~4.3e9 observations at the same rank, freezing hotness ordering
    /// exactly on the longest-lived pages.
    pub abit_epoch: u64,
    /// Trace (IBS/PEBS) samples accumulated in the current epoch.
    pub trace_epoch: u64,
    /// Lifetime A-bit observations.
    pub abit_total: u64,
    /// Lifetime trace samples.
    pub trace_total: u64,
}

impl PageDesc {
    /// The paper's rank rule (§IV step 1 + Fig. 2): the two sample
    /// populations are the same order of magnitude, so hotness is their sum.
    #[inline]
    pub fn epoch_rank(&self) -> u64 {
        self.abit_epoch + self.trace_epoch
    }

    /// Zero the per-epoch counters (called at each epoch horizon).
    #[inline]
    pub fn reset_epoch(&mut self) {
        self.abit_epoch = 0;
        self.trace_epoch = 0;
    }
}

/// The descriptor of a never-touched frame (what a dense table would hold).
const FREE: PageDesc = PageDesc {
    owner: None,
    abit_epoch: 0,
    trace_epoch: 0,
    abit_total: 0,
    trace_total: 0,
};

/// Frame-indexed storage, chunked sparse: the `SPARSEMEM`-section scheme
/// shared by [`PageDescTable`] and the ground-truth frame counters
/// ([`crate::stats::GroundTruth`]).
///
/// Capacity is declared up front (so out-of-range PFNs still panic exactly
/// like a dense array), but backing storage is a vector of `Option<chunk>`
/// slots: a chunk of `chunk_frames` default-valued slots is allocated the
/// first time any frame in it is written. The last chunk holds only the
/// frames up to the capacity, so a machine smaller than one chunk
/// allocates one slot per frame. Reads never allocate. Iteration order
/// (chunk-ascending, then frame-ascending) is the dense array's PFN order.
pub(crate) struct FrameChunks<T> {
    chunks: Vec<Option<Box<[T]>>>,
    /// Frames per chunk; always a power of two.
    chunk_frames: usize,
    shift: u32,
    total_frames: u64,
    resident: u64,
    /// Gauge set to the resident chunk count when a chunk materializes.
    gauge: Option<Metric>,
}

impl<T: Copy + Default> FrameChunks<T> {
    /// Cover `total_frames` frames in `chunk_frames`-frame chunks (a power
    /// of two). Allocates one empty slot per chunk, nothing per frame.
    pub(crate) fn new(total_frames: u64, chunk_frames: usize, gauge: Option<Metric>) -> Self {
        assert!(chunk_frames.is_power_of_two());
        let n_chunks = (total_frames as usize).div_ceil(chunk_frames);
        let mut chunks = Vec::with_capacity(n_chunks);
        chunks.resize_with(n_chunks, || None);
        Self {
            chunks,
            chunk_frames,
            shift: chunk_frames.trailing_zeros(),
            total_frames,
            resident: 0,
            gauge,
        }
    }

    /// The slot of `pfn`, or `None` while its chunk was never written.
    #[inline]
    pub(crate) fn get(&self, pfn: Pfn) -> Option<&T> {
        assert!(pfn.0 < self.total_frames, "pfn {pfn:?} out of range");
        self.chunks[(pfn.0 >> self.shift) as usize]
            .as_deref()
            .map(|chunk| &chunk[pfn.0 as usize & (self.chunk_frames - 1)])
    }

    /// The mutable slot of `pfn`; materializes the covering chunk on first
    /// touch.
    #[inline]
    pub(crate) fn get_mut(&mut self, pfn: Pfn) -> &mut T {
        assert!(pfn.0 < self.total_frames, "pfn {pfn:?} out of range");
        let ci = (pfn.0 >> self.shift) as usize;
        let offset = pfn.0 as usize & (self.chunk_frames - 1);
        if self.chunks[ci].is_none() {
            self.materialize(ci);
        }
        match &mut self.chunks[ci] {
            Some(chunk) => &mut chunk[offset],
            // tmprof-lint: allow(panic-reachability) — the chunk was materialized by the branch just above; get_mut cannot miss
            None => unreachable!(),
        }
    }

    /// Allocate chunk `ci`, stopping at the last frame.
    #[cold]
    // tmprof-lint: allow(panic-reachability) — get_mut, the only caller, derives ci from a pfn it asserted below total_frames, and chunks has div_ceil(total_frames, chunk_frames) slots
    fn materialize(&mut self, ci: usize) {
        let base = (ci as u64) << self.shift;
        let len = (self.total_frames - base).min(self.chunk_frames as u64) as usize;
        self.chunks[ci] = Some(vec![T::default(); len].into_boxed_slice());
        self.resident += 1;
        if let Some(gauge) = self.gauge {
            metrics::set(gauge, self.resident);
        }
    }

    /// Materialized slots as (frame, slot), ascending by PFN: only
    /// resident chunks are visited.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Pfn, &T)> + '_ {
        let chunk_frames = self.chunk_frames;
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| c.as_deref().map(|c| (ci, c)))
            .flat_map(move |(ci, chunk)| {
                let base = (ci * chunk_frames) as u64;
                chunk
                    .iter()
                    .enumerate()
                    .map(move |(i, slot)| (Pfn(base + i as u64), slot))
            })
    }
}

/// The machine-wide descriptor table (`mem_map` analogue), chunked sparse
/// in `FrameChunks`: reads of untouched frames return a reference to the
/// shared all-zero descriptor without allocating.
pub struct PageDescTable {
    descs: FrameChunks<PageDesc>,
    /// Frames that gained per-epoch observations since the last horizon
    /// (the epoch-close "dirty list"). Maintained by [`Self::bump_abit`],
    /// [`Self::bump_trace`] and [`Self::migrate`] so that profile capture
    /// and the epoch reset touch only observed frames instead of walking
    /// every descriptor. May contain stale entries (a frame whose stats
    /// migrated away) and, after migration, duplicates; consumers filter
    /// on the counters and deduplicate. Invariant: every frame with a
    /// nonzero per-epoch counter is present. Code that writes the epoch
    /// counters directly through [`Self::get_mut`] (tests only) bypasses
    /// the list and must not rely on dirty-list-based capture/reset.
    dirty: Vec<Pfn>,
}

/// Default frames per chunk: 4096 frames = 16 MiB of simulated memory per
/// 224 KiB chunk of 56-byte descriptors (or 32 KiB of ground-truth
/// counters).
pub const DEFAULT_CHUNK: usize = 4096;

impl PageDescTable {
    /// Cover `total_frames` frames in [`DEFAULT_CHUNK`]-frame chunks. No
    /// descriptor storage is allocated until a frame is first written.
    pub fn new(total_frames: u64) -> Self {
        Self::with_chunk_frames(total_frames, DEFAULT_CHUNK)
    }

    /// As [`Self::new`] with an explicit chunk size (must be a power of
    /// two); used by tests and benches to pin the geometry.
    pub fn with_chunk_frames(total_frames: u64, chunk_frames: usize) -> Self {
        Self {
            descs: FrameChunks::new(
                total_frames,
                chunk_frames,
                Some(Metric::SimDescChunksResident),
            ),
            dirty: Vec::new(),
        }
    }

    /// Number of frames covered (declared capacity, not resident storage).
    pub fn len(&self) -> usize {
        self.descs.total_frames as usize
    }

    /// True if the table covers no frames.
    pub fn is_empty(&self) -> bool {
        self.descs.total_frames == 0
    }

    /// `phys_to_page()`: descriptor for a frame. Reading a frame in an
    /// untouched chunk returns the shared zero descriptor (no allocation).
    #[inline]
    pub fn get(&self, pfn: Pfn) -> &PageDesc {
        self.descs.get(pfn).unwrap_or(&FREE)
    }

    /// Mutable `phys_to_page()`; materializes the covering chunk on first
    /// touch. The last chunk stops at the last frame, so it may hold fewer
    /// descriptors than the others.
    #[inline]
    pub fn get_mut(&mut self, pfn: Pfn) -> &mut PageDesc {
        self.descs.get_mut(pfn)
    }

    /// Record that frame `pfn` now backs logical page `key`.
    pub fn set_owner(&mut self, pfn: Pfn, key: PageKey) {
        self.get_mut(pfn).owner = Some(key);
    }

    /// Record an A-bit observation against a frame.
    #[inline]
    pub fn bump_abit(&mut self, pfn: Pfn) {
        let d = self.get_mut(pfn);
        let first_this_epoch = d.abit_epoch == 0 && d.trace_epoch == 0;
        d.abit_epoch += 1;
        d.abit_total += 1;
        if first_this_epoch {
            self.dirty.push(pfn);
        }
    }

    /// Record a trace sample against a frame.
    #[inline]
    pub fn bump_trace(&mut self, pfn: Pfn) {
        let d = self.get_mut(pfn);
        let first_this_epoch = d.abit_epoch == 0 && d.trace_epoch == 0;
        d.trace_epoch += 1;
        d.trace_total += 1;
        if first_this_epoch {
            self.dirty.push(pfn);
        }
    }

    /// Move a page's descriptor state from `from` to `to` (page migration
    /// carries the accumulated statistics with the data).
    pub fn migrate(&mut self, from: Pfn, to: Pfn) {
        let src = std::mem::take(self.get_mut(from));
        let observed = src.abit_epoch > 0 || src.trace_epoch > 0;
        *self.get_mut(to) = src;
        // The stats moved with the page: the destination frame must be on
        // the dirty list. `from`'s entry goes stale (its counters are now
        // zero) and is filtered out at capture/reset time.
        if observed {
            self.dirty.push(to);
        }
    }

    /// Reset per-epoch counters (epoch horizon). Walks only the dirty
    /// list — O(touched pages), not O(total frames).
    pub fn reset_epoch(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for &pfn in &dirty {
            self.get_mut(pfn).reset_epoch();
        }
    }

    /// Frames with per-epoch observations, ascending and deduplicated
    /// (the dirty list with stale and duplicate entries filtered out).
    /// Iterating this is equivalent to a full-table scan for any consumer
    /// that only looks at frames with nonzero epoch counters.
    pub fn touched_frames(&self) -> Vec<Pfn> {
        let mut v: Vec<Pfn> = self
            .dirty
            .iter()
            .copied()
            .filter(|&pfn| {
                let d = self.get(pfn);
                d.abit_epoch > 0 || d.trace_epoch > 0
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Iterate over (frame, descriptor) pairs with a live owner, ascending
    /// by PFN — only resident chunks are visited, so this is
    /// O(touched frames), not O(declared capacity).
    pub fn iter_owned(&self) -> impl Iterator<Item = (Pfn, &PageDesc)> + '_ {
        self.descs.iter().filter(|(_, d)| d.owner.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        // The largest PID a machine accepts keeps all 28 of its bits.
        for pid in [12345, PID_LIMIT - 1] {
            let key = PageKey {
                pid,
                vpn: Vpn(0xF_FFFF_FFFF),
            };
            assert_eq!(PageKey::unpack(key.pack()), key);
        }
    }

    #[test]
    fn pack_distinct_for_distinct_pages() {
        let a = PageKey {
            pid: 1,
            vpn: Vpn(2),
        };
        let b = PageKey {
            pid: 2,
            vpn: Vpn(1),
        };
        assert_ne!(a.pack(), b.pack());
    }

    #[test]
    fn bump_accumulates_epoch_and_total() {
        let mut t = PageDescTable::new(4);
        t.bump_abit(Pfn(2));
        t.bump_abit(Pfn(2));
        t.bump_trace(Pfn(2));
        let d = t.get(Pfn(2));
        assert_eq!(d.abit_epoch, 2);
        assert_eq!(d.trace_epoch, 1);
        assert_eq!(d.epoch_rank(), 3);
        assert_eq!(d.abit_total, 2);
    }

    #[test]
    fn rank_keeps_moving_past_the_old_u32_saturation_horizon() {
        // Regression: the epoch counters used to be u32 with
        // `saturating_add`, so two pages that both crossed ~4.3e9
        // observations pinned at the same rank forever — the hottest pages
        // in the system became indistinguishable. Pre-load the counters at
        // the old ceiling (bumping 4e9 times in a test is not viable) and
        // check further bumps still separate them.
        let mut t = PageDescTable::new(2);
        t.get_mut(Pfn(0)).abit_epoch = u32::MAX as u64;
        t.get_mut(Pfn(1)).abit_epoch = u32::MAX as u64;
        assert_eq!(t.get(Pfn(0)).epoch_rank(), t.get(Pfn(1)).epoch_rank());
        t.bump_abit(Pfn(1));
        assert!(
            t.get(Pfn(1)).epoch_rank() > t.get(Pfn(0)).epoch_rank(),
            "a bump past the old ceiling must still change the ordering"
        );
        assert_eq!(t.get(Pfn(1)).epoch_rank(), u32::MAX as u64 + 1);
    }

    #[test]
    fn reset_epoch_keeps_totals() {
        let mut t = PageDescTable::new(2);
        t.bump_trace(Pfn(0));
        t.reset_epoch();
        let d = t.get(Pfn(0));
        assert_eq!(d.trace_epoch, 0);
        assert_eq!(d.trace_total, 1);
    }

    #[test]
    fn migrate_moves_stats_and_clears_source() {
        let mut t = PageDescTable::new(4);
        let key = PageKey {
            pid: 7,
            vpn: Vpn(9),
        };
        t.set_owner(Pfn(1), key);
        t.bump_abit(Pfn(1));
        t.migrate(Pfn(1), Pfn(3));
        assert_eq!(t.get(Pfn(3)).owner, Some(key));
        assert_eq!(t.get(Pfn(3)).abit_epoch, 1);
        assert_eq!(t.get(Pfn(1)).owner, None);
        assert_eq!(t.get(Pfn(1)).abit_epoch, 0);
    }

    #[test]
    fn iter_owned_skips_free_frames() {
        let mut t = PageDescTable::new(8);
        t.set_owner(
            Pfn(1),
            PageKey {
                pid: 1,
                vpn: Vpn(1),
            },
        );
        t.set_owner(
            Pfn(5),
            PageKey {
                pid: 1,
                vpn: Vpn(2),
            },
        );
        let frames: Vec<Pfn> = t.iter_owned().map(|(p, _)| p).collect();
        assert_eq!(frames, vec![Pfn(1), Pfn(5)]);
    }

    #[test]
    fn touched_frames_covers_exactly_the_observed_frames() {
        let mut t = PageDescTable::new(16);
        t.bump_abit(Pfn(3));
        t.bump_abit(Pfn(3)); // second bump must not duplicate
        t.bump_trace(Pfn(7));
        t.bump_trace(Pfn(1));
        assert_eq!(t.touched_frames(), vec![Pfn(1), Pfn(3), Pfn(7)]);
        t.reset_epoch();
        assert!(t.touched_frames().is_empty());
        // Counters actually cleared, and fresh bumps repopulate the list.
        assert_eq!(t.get(Pfn(3)).abit_epoch, 0);
        t.bump_trace(Pfn(3));
        assert_eq!(t.touched_frames(), vec![Pfn(3)]);
    }

    #[test]
    fn migrate_keeps_the_dirty_list_consistent() {
        let mut t = PageDescTable::new(8);
        let key = PageKey {
            pid: 1,
            vpn: Vpn(4),
        };
        t.set_owner(Pfn(2), key);
        t.bump_abit(Pfn(2));
        t.migrate(Pfn(2), Pfn(6));
        // The stats moved: the destination is touched, the source is stale.
        assert_eq!(t.touched_frames(), vec![Pfn(6)]);
        t.reset_epoch();
        assert_eq!(t.get(Pfn(6)).abit_epoch, 0);
        assert_eq!(t.get(Pfn(6)).abit_total, 1, "totals survive the horizon");
        assert!(t.touched_frames().is_empty());
    }

    #[test]
    fn reset_epoch_via_dirty_list_matches_full_reset() {
        let mut t = PageDescTable::new(64);
        for pfn in [0u64, 5, 9, 31, 63] {
            t.bump_abit(Pfn(pfn));
            t.bump_trace(Pfn(pfn));
        }
        t.reset_epoch();
        for pfn in 0..64u64 {
            let d = t.get(Pfn(pfn));
            assert_eq!(d.abit_epoch, 0);
            assert_eq!(d.trace_epoch, 0);
        }
    }

    #[test]
    fn chunks_materialize_only_on_write() {
        // Terabyte-class capacity (2^30 frames = 4 TiB of 4 KiB pages),
        // far beyond what a dense Vec<PageDesc> could hold in a test:
        // nothing is allocated until a frame is written, reads of cold
        // frames see the zero descriptor, and one write materializes
        // exactly one chunk.
        let mut t = PageDescTable::with_chunk_frames(1 << 30, 4096);
        assert_eq!(t.descs.resident, 0);
        assert_eq!(t.len(), 1 << 30);
        assert_eq!(t.get(Pfn((1 << 30) - 1)).epoch_rank(), 0);
        assert_eq!(t.descs.resident, 0, "reads must not allocate");
        t.bump_abit(Pfn(1 << 29));
        assert_eq!(t.descs.resident, 1);
        t.bump_abit(Pfn((1 << 29) + 1));
        assert_eq!(t.descs.resident, 1, "same chunk re-used");
        t.bump_trace(Pfn(0));
        assert_eq!(t.descs.resident, 2);
        assert_eq!(
            t.touched_frames(),
            vec![Pfn(0), Pfn(1 << 29), Pfn((1 << 29) + 1)]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pfn_still_panics() {
        // The dense array bounds-checked every access; the sparse table
        // must keep that contract rather than silently growing.
        let t = PageDescTable::with_chunk_frames(100, 64);
        let _ = t.get(Pfn(100));
    }

    #[test]
    fn capacity_not_a_chunk_multiple_covers_the_tail() {
        let mut t = PageDescTable::with_chunk_frames(100, 64);
        t.bump_abit(Pfn(99));
        assert_eq!(t.get(Pfn(99)).abit_epoch, 1);
        assert_eq!(t.descs.resident, 1);
        // The tail chunk stops at the last frame: 100 - 64 descriptors.
        assert!(t.descs.chunks[0].is_none());
        assert_eq!(
            t.descs.chunks[1].as_deref().map(<[PageDesc]>::len),
            Some(36)
        );
        // An untouched frame in it still reads the zero descriptor.
        let cold = t.get(Pfn(64));
        assert_eq!(
            (cold.owner, cold.epoch_rank(), cold.abit_total),
            (None, 0, 0)
        );
        // A frame past the capacity still panics, resident tail or not.
        let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.get(Pfn(100));
        }));
        assert!(past.is_err(), "Pfn(100) is out of range");
    }

    #[test]
    fn sparse_table_matches_dense_model_under_random_ops() {
        // Drive the sparse table and a plain Vec<PageDesc> model through
        // the same deterministic op stream and require identical state at
        // every observation point: per-frame descriptors, touched_frames,
        // and iter_owned order.
        const FRAMES: u64 = 1024;
        let mut t = PageDescTable::with_chunk_frames(FRAMES, 64);
        let mut model = vec![FREE; FRAMES as usize];
        let mut rng = crate::rng::Rng::new(0xDECAF);
        for round in 0..4u32 {
            for _ in 0..500 {
                let pfn = Pfn(rng.next_u64() % FRAMES);
                match rng.next_u64() % 4 {
                    0 => {
                        t.bump_abit(pfn);
                        let d = &mut model[pfn.0 as usize];
                        d.abit_epoch += 1;
                        d.abit_total += 1;
                    }
                    1 => {
                        t.bump_trace(pfn);
                        let d = &mut model[pfn.0 as usize];
                        d.trace_epoch += 1;
                        d.trace_total += 1;
                    }
                    2 => {
                        let key = PageKey {
                            pid: 1,
                            vpn: Vpn(pfn.0),
                        };
                        t.set_owner(pfn, key);
                        model[pfn.0 as usize].owner = Some(key);
                    }
                    _ => {
                        let to = Pfn(rng.next_u64() % FRAMES);
                        if to != pfn {
                            t.migrate(pfn, to);
                            model[to.0 as usize] = std::mem::take(&mut model[pfn.0 as usize]);
                        }
                    }
                }
            }
            let mut expect_touched: Vec<Pfn> = (0..FRAMES)
                .filter(|&p| {
                    let d = &model[p as usize];
                    d.abit_epoch > 0 || d.trace_epoch > 0
                })
                .map(Pfn)
                .collect();
            expect_touched.sort_unstable();
            assert_eq!(t.touched_frames(), expect_touched, "round {round}");
            let expect_owned: Vec<Pfn> = (0..FRAMES)
                .filter(|&p| model[p as usize].owner.is_some())
                .map(Pfn)
                .collect();
            let got_owned: Vec<Pfn> = t.iter_owned().map(|(p, _)| p).collect();
            assert_eq!(got_owned, expect_owned, "round {round}");
            for p in 0..FRAMES {
                let (got, want) = (t.get(Pfn(p)), &model[p as usize]);
                assert_eq!(got.abit_epoch, want.abit_epoch, "round {round} pfn {p}");
                assert_eq!(got.trace_epoch, want.trace_epoch);
                assert_eq!(got.abit_total, want.abit_total);
                assert_eq!(got.trace_total, want.trace_total);
                assert_eq!(got.owner, want.owner);
            }
            t.reset_epoch();
            for d in &mut model {
                d.reset_epoch();
            }
        }
    }
}
