//! Memory-tier descriptors.
//!
//! The paper's TMA maps every byte-addressable technology into one physical
//! address space and splits it into tiers: tier 1 (DRAM: low latency, high
//! bandwidth) and tier 2 (NVM: denser, slower). We model the same split as a
//! static partition of the physical frame space into N *ordered* tiers —
//! frames `[0, t1_frames)` belong to tier 1, the next range to tier 2, and
//! so on — so a frame number alone identifies its tier, exactly as the
//! paper's placement mechanism identifies tiers by physical address ranges
//! (NUMA-node-style).
//!
//! [`MemTopology`] generalizes the paper's two-tier layout to an arbitrary
//! ordered list of [`TierSpec`]s (DRAM / CXL / NVM, per the NeoMem and
//! HM-Keeper lines of work): tier 0-indexed [`Tier`] ids, per-tier frame
//! counts and latencies, contiguous PFN ranges fastest-first. The historic
//! two-tier constructors ([`MemTopology::new`], [`MemTopology::with_frames`])
//! are retained unchanged so every default-scale experiment reproduces
//! byte-for-byte.
//!
//! Zero-capacity tiers are well-defined: they own an empty PFN range, no
//! frame ever maps to them, and lookups simply skip them — a degenerate
//! single-tier topology is just `with_frames(n, 0)`.

use crate::addr::Pfn;

/// Environment knob selecting the machine's tier layout (comma-separated
/// tier names, fastest first). Registered as `tmprof_core::knobs::TOPOLOGY`;
/// read here because `tmprof-sim` sits below `tmprof-core`.
pub const TOPOLOGY_ENV: &str = "TMPROF_TOPOLOGY";

/// Most tiers the env knob accepts (the named `Tier` ids go to `Tier4`).
pub const MAX_ENV_TIERS: usize = 4;

/// Which tier a physical frame lives in. Tiers are identified by their
/// 0-based position in the topology's fastest-first order: `Tier::Tier1`
/// is index 0 (DRAM), `Tier::Tier2` index 1, and deeper tiers follow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tier(u8);

#[allow(non_upper_case_globals)]
impl Tier {
    /// Fast, small tier (DRAM) — topology index 0.
    pub const Tier1: Tier = Tier(0);
    /// Second tier (NVM in the paper's two-tier layout) — index 1.
    pub const Tier2: Tier = Tier(1);
    /// Third tier (e.g. NVM below a CXL middle tier) — index 2.
    pub const Tier3: Tier = Tier(2);
    /// Fourth tier — index 3.
    pub const Tier4: Tier = Tier(3);

    /// Index into per-tier arrays (0-based, fastest first).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Tier at a given 0-based topology index.
    #[inline]
    pub fn from_index(i: usize) -> Tier {
        Tier(i as u8)
    }

    /// Whether this is the fastest (capacity) tier.
    #[inline]
    pub fn is_fastest(self) -> bool {
        self.0 == 0
    }

    /// The next slower tier id (the waterfall-demotion destination).
    /// Purely arithmetic; whether that tier exists is the topology's call.
    #[inline]
    pub fn next_slower(self) -> Tier {
        Tier(self.0 + 1)
    }

    /// Lowercase label used in reports (`tier1`, `tier2`, …).
    pub fn label(self) -> String {
        format!("tier{}", self.0 as u32 + 1)
    }
}

impl std::fmt::Debug for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tier{}", self.0 as u32 + 1)
    }
}

/// Performance characteristics of one tier.
///
/// Latencies are in core cycles (the machine model charges them on an LLC
/// miss served from the tier). Defaults follow the common DRAM ≈ 80 ns,
/// Optane-like NVM ≈ 300 ns read / 100 ns buffered write picture at ~4 GHz —
/// the paper's premise that tier 2 is slower but *not* orders of magnitude
/// slower (§IV step 2, reason 2). The CXL preset sits between them
/// (≈ 170 ns load, a far-memory expander a hop away).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierSpec {
    /// Frames this tier provides.
    pub frames: u64,
    /// Cycles to serve a demand load.
    pub load_latency: u64,
    /// Cycles to absorb a store (write buffers hide part of it).
    pub store_latency: u64,
}

impl TierSpec {
    /// DRAM-like tier: ~80 ns @ 4 GHz both ways.
    pub fn dram(frames: u64) -> Self {
        Self {
            frames,
            load_latency: 320,
            store_latency: 320,
        }
    }

    /// CXL-attached far memory: ~170 ns load / ~120 ns store.
    pub fn cxl(frames: u64) -> Self {
        Self {
            frames,
            load_latency: 680,
            store_latency: 480,
        }
    }

    /// Optane-like NVM: ~300 ns load / ~100 ns buffered store.
    pub fn nvm(frames: u64) -> Self {
        Self {
            frames,
            load_latency: 1200,
            store_latency: 400,
        }
    }

    /// Spec for a named technology (`dram` | `cxl` | `nvm`), as used by the
    /// `TMPROF_TOPOLOGY` knob's comma-separated tier list.
    pub fn named(name: &str, frames: u64) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "dram" => Some(Self::dram(frames)),
            "cxl" => Some(Self::cxl(frames)),
            "nvm" => Some(Self::nvm(frames)),
            _ => None,
        }
    }
}

/// The machine's tiered physical memory layout: N ordered tiers, fastest
/// first, each owning a contiguous PFN range.
#[derive(Clone, Debug)]
pub struct MemTopology {
    specs: Vec<TierSpec>,
    /// `bounds[i]` = first PFN *past* tier i (cumulative frame counts).
    bounds: Vec<u64>,
}

/// Error returned by the checked tier lookup for a frame outside physical
/// memory (`pfn >= total_frames`, including the one-past-the-end PFN).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameOutOfRange {
    /// The offending frame.
    pub pfn: Pfn,
    /// Total frames in the topology.
    pub total_frames: u64,
}

impl std::fmt::Display for FrameOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame {:?} beyond physical memory ({} frames)",
            self.pfn, self.total_frames
        )
    }
}

impl std::error::Error for FrameOutOfRange {}

/// A `TMPROF_TOPOLOGY` value that names no tier layout: an unknown tier
/// name, or more than [`MAX_ENV_TIERS`] names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyError {
    /// The rejected value.
    pub value: String,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{TOPOLOGY_ENV}={:?} is not a tier layout: expected 1..={MAX_ENV_TIERS} \
             comma-separated tier names from {{dram, cxl, nvm}}, fastest first",
            self.value
        )
    }
}

impl std::error::Error for TopologyError {}

impl MemTopology {
    /// Build the paper's two-tier layout from per-tier specs. Either tier
    /// may be empty (a zero-capacity tier owns no frames).
    pub fn new(tier1: TierSpec, tier2: TierSpec) -> Self {
        Self::from_specs(vec![tier1, tier2])
    }

    /// Build a layout from an ordered (fastest-first) tier list.
    pub fn from_specs(specs: Vec<TierSpec>) -> Self {
        assert!(!specs.is_empty(), "topology needs at least one tier");
        let mut bounds = Vec::with_capacity(specs.len());
        let mut total: u64 = 0;
        for s in &specs {
            total += s.frames;
            bounds.push(total);
        }
        Self { specs, bounds }
    }

    /// A two-tier layout with the given frame counts and default DRAM/NVM
    /// latencies (the default every committed experiment runs under).
    pub fn with_frames(t1_frames: u64, t2_frames: u64) -> Self {
        Self::new(TierSpec::dram(t1_frames), TierSpec::nvm(t2_frames))
    }

    /// A layout from a `TMPROF_TOPOLOGY`-style comma-separated tier-name
    /// list (`"dram,cxl,nvm"`), one frame count per named tier. Returns
    /// `None` on an unknown name or a name/frame count mismatch.
    pub fn from_names(names: &str, frames: &[u64]) -> Option<Self> {
        let names: Vec<&str> = names.split(',').collect();
        if names.len() != frames.len() {
            return None;
        }
        let specs = names
            .iter()
            .zip(frames)
            .map(|(n, &f)| TierSpec::named(n, f))
            .collect::<Option<Vec<_>>>()?;
        Some(Self::from_specs(specs))
    }

    /// The scaled experiment layout, honoring the `TMPROF_TOPOLOGY` knob.
    ///
    /// Unset gives exactly [`MemTopology::with_frames`] — the default
    /// two-tier layout every committed experiment runs under. A set value
    /// is parsed by [`MemTopology::scaled_named`]; one that names no
    /// layout panics with its [`TopologyError`] rather than silently
    /// running the default machine.
    pub fn scaled_from_env(t1_frames: u64, t2_frames: u64) -> Self {
        // tmprof-lint: allow(knob-flow) — sim reads the topology directly to avoid a dependency cycle with core's registry; the name is pinned by the knob-registry sync test
        match std::env::var(TOPOLOGY_ENV) {
            Ok(names) => {
                Self::scaled_named(&names, t1_frames, t2_frames).unwrap_or_else(|e| panic!("{e}"))
            }
            Err(_) => Self::with_frames(t1_frames, t2_frames),
        }
    }

    /// The layout `scaled_from_env` builds for a given knob value. It keeps
    /// the default's total capacity and fast-tier size: the fastest named
    /// tier gets `t1_frames`, the slower tiers split `t2_frames` evenly
    /// (remainder to the slowest); a single-tier layout gets everything.
    /// Fails on an unknown name or more than [`MAX_ENV_TIERS`] tiers.
    pub fn scaled_named(
        names: &str,
        t1_frames: u64,
        t2_frames: u64,
    ) -> Result<Self, TopologyError> {
        let invalid = || TopologyError {
            value: names.to_string(),
        };
        let n = names.split(',').count();
        if n > MAX_ENV_TIERS {
            return Err(invalid());
        }
        let mut frames = Vec::with_capacity(n);
        if n == 1 {
            frames.push(t1_frames + t2_frames);
        } else {
            frames.push(t1_frames);
            let slow = n as u64 - 1;
            let share = t2_frames / slow;
            for i in 0..slow {
                frames.push(if i == slow - 1 {
                    t2_frames - share * (slow - 1)
                } else {
                    share
                });
            }
        }
        Self::from_names(names, &frames).ok_or_else(invalid)
    }

    /// Number of tiers (including zero-capacity ones).
    #[inline]
    pub fn num_tiers(&self) -> usize {
        self.specs.len()
    }

    /// All tier ids, fastest first.
    pub fn tiers(&self) -> impl Iterator<Item = Tier> {
        (0..self.specs.len()).map(Tier::from_index)
    }

    /// Spec of one tier.
    #[inline]
    pub fn spec(&self, tier: Tier) -> &TierSpec {
        &self.specs[tier.index()]
    }

    /// Total frames across all tiers.
    pub fn total_frames(&self) -> u64 {
        *self.bounds.last().unwrap_or(&0)
    }

    /// First frame of the given tier's contiguous range. For an empty tier
    /// this equals the first frame of the next non-empty tier (the range is
    /// empty).
    pub fn first_frame(&self, tier: Tier) -> Pfn {
        let i = tier.index();
        if i == 0 {
            Pfn(0)
        } else {
            Pfn(self.bounds[i - 1])
        }
    }

    /// Which tier a frame belongs to, or an error for a frame outside
    /// physical memory (including `pfn == total_frames`, the one-past-the-
    /// end boundary). Empty tiers own no frames and are never returned.
    #[inline]
    pub fn try_tier_of(&self, pfn: Pfn) -> Result<Tier, FrameOutOfRange> {
        if pfn.0 >= self.total_frames() {
            return Err(FrameOutOfRange {
                pfn,
                total_frames: self.total_frames(),
            });
        }
        // First tier whose upper bound exceeds the frame. `bounds` is
        // non-decreasing; an empty tier repeats its predecessor's bound and
        // partition_point lands past it, so empty tiers are skipped.
        let i = self.bounds.partition_point(|&b| b <= pfn.0);
        Ok(Tier::from_index(i))
    }

    /// Which tier a frame belongs to.
    ///
    /// # Panics
    /// If the frame is outside physical memory; use [`Self::try_tier_of`]
    /// at boundaries where out-of-range frames are expected.
    #[inline]
    pub fn tier_of(&self, pfn: Pfn) -> Tier {
        match self.try_tier_of(pfn) {
            Ok(t) => t,
            // tmprof-lint: allow(panic-reachability) — hot-path variant of try_tier_of; callers pass frames the allocator handed out, and the checked form exists for boundary code
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    impl MemTopology {
        /// Total capacity in bytes.
        fn total_bytes(&self) -> u64 {
            self.total_frames() * PAGE_SIZE
        }

        /// Load latency for an access served by the tier holding `pfn`.
        fn load_latency(&self, pfn: Pfn) -> u64 {
            self.spec(self.tier_of(pfn)).load_latency
        }
    }

    #[test]
    fn frame_partition_is_contiguous() {
        let tm = MemTopology::with_frames(100, 900);
        assert_eq!(tm.tier_of(Pfn(0)), Tier::Tier1);
        assert_eq!(tm.tier_of(Pfn(99)), Tier::Tier1);
        assert_eq!(tm.tier_of(Pfn(100)), Tier::Tier2);
        assert_eq!(tm.tier_of(Pfn(999)), Tier::Tier2);
        assert_eq!(tm.total_frames(), 1000);
    }

    #[test]
    #[should_panic(expected = "beyond physical memory")]
    fn out_of_range_frame_panics() {
        let tm = MemTopology::with_frames(10, 10);
        tm.tier_of(Pfn(20));
    }

    #[test]
    fn one_past_the_end_is_a_typed_error_not_a_panic() {
        // Regression (tier-boundary sweep): pfn == total_frames is the
        // classic off-by-one; the checked lookup reports it instead of
        // crashing.
        let tm = MemTopology::with_frames(10, 10);
        assert_eq!(tm.try_tier_of(Pfn(19)), Ok(Tier::Tier2));
        assert_eq!(
            tm.try_tier_of(Pfn(20)),
            Err(FrameOutOfRange {
                pfn: Pfn(20),
                total_frames: 20
            })
        );
        assert!(tm.try_tier_of(Pfn(21)).is_err());
        let msg = tm.try_tier_of(Pfn(20)).unwrap_err().to_string();
        assert!(msg.contains("beyond physical memory"), "{msg}");
    }

    #[test]
    fn empty_middle_tier_is_skipped() {
        // Regression (tier-boundary sweep): a zero-capacity middle tier
        // owns no frames; lookups at the seam resolve to its neighbors.
        let tm =
            MemTopology::from_specs(vec![TierSpec::dram(4), TierSpec::cxl(0), TierSpec::nvm(8)]);
        assert_eq!(tm.num_tiers(), 3);
        assert_eq!(tm.tier_of(Pfn(3)), Tier::Tier1);
        assert_eq!(tm.tier_of(Pfn(4)), Tier::Tier3, "empty CXL tier skipped");
        assert_eq!(tm.tier_of(Pfn(11)), Tier::Tier3);
        assert!(tm.try_tier_of(Pfn(12)).is_err());
        // The empty tier still has a well-defined (empty) range.
        assert_eq!(tm.first_frame(Tier::Tier2), Pfn(4));
        assert_eq!(tm.first_frame(Tier::Tier3), Pfn(4));
    }

    #[test]
    fn empty_fastest_tier_is_well_defined() {
        // Degenerate single-tier topology expressed as (0, n): every frame
        // resolves to tier 2 and nothing panics at construction.
        let tm = MemTopology::with_frames(0, 16);
        assert_eq!(tm.tier_of(Pfn(0)), Tier::Tier2);
        assert_eq!(tm.tier_of(Pfn(15)), Tier::Tier2);
        assert_eq!(tm.total_frames(), 16);
        assert_eq!(tm.first_frame(Tier::Tier1), Pfn(0));
        assert_eq!(tm.first_frame(Tier::Tier2), Pfn(0));
    }

    #[test]
    fn tier2_loads_slower_than_tier1() {
        let tm = MemTopology::with_frames(10, 10);
        assert!(tm.load_latency(Pfn(15)) > tm.load_latency(Pfn(5)));
    }

    #[test]
    fn nvm_is_slower_but_not_orders_of_magnitude() {
        // The paper's migration-cost argument depends on this ratio.
        let tm = MemTopology::with_frames(10, 10);
        let ratio = tm.load_latency(Pfn(15)) as f64 / tm.load_latency(Pfn(5)) as f64;
        assert!(ratio > 1.5 && ratio < 20.0, "ratio {ratio}");
    }

    #[test]
    fn first_frames() {
        let tm = MemTopology::with_frames(64, 128);
        assert_eq!(tm.first_frame(Tier::Tier1), Pfn(0));
        assert_eq!(tm.first_frame(Tier::Tier2), Pfn(64));
    }

    #[test]
    fn total_bytes() {
        let tm = MemTopology::with_frames(256, 0);
        assert_eq!(tm.total_bytes(), 1 << 20);
    }

    #[test]
    fn three_tier_ordering_is_monotone_in_latency_by_construction() {
        let tm =
            MemTopology::from_specs(vec![TierSpec::dram(4), TierSpec::cxl(4), TierSpec::nvm(4)]);
        assert_eq!(tm.tier_of(Pfn(5)), Tier::Tier2);
        assert_eq!(tm.tier_of(Pfn(9)), Tier::Tier3);
        assert!(tm.load_latency(Pfn(1)) < tm.load_latency(Pfn(5)));
        assert!(tm.load_latency(Pfn(5)) < tm.load_latency(Pfn(9)));
        let labels: Vec<String> = tm.tiers().map(|t| t.label()).collect();
        assert_eq!(labels, ["tier1", "tier2", "tier3"]);
        assert_eq!(tm.tiers().last(), Some(Tier::Tier3));
        assert_eq!(format!("{:?}", Tier::Tier3), "Tier3");
    }

    #[test]
    fn default_two_tier_layout_matches_the_named_presets() {
        // with_frames is the layout all 28 committed CSVs ran under; pin it
        // to the presets so a preset tweak cannot silently drift them.
        let tm = MemTopology::with_frames(7, 9);
        assert_eq!(*tm.spec(Tier::Tier1), TierSpec::dram(7));
        assert_eq!(*tm.spec(Tier::Tier2), TierSpec::nvm(9));
        assert_eq!(tm.spec(Tier::Tier1).load_latency, 320);
        assert_eq!(tm.spec(Tier::Tier2).load_latency, 1200);
        assert_eq!(tm.spec(Tier::Tier2).store_latency, 400);
    }

    #[test]
    fn named_topology_parsing() {
        let tm = MemTopology::from_names("dram,cxl,nvm", &[4, 8, 16]).unwrap();
        assert_eq!(tm.num_tiers(), 3);
        assert_eq!(tm.spec(Tier::Tier2).load_latency, 680);
        assert_eq!(tm.total_frames(), 28);
        assert!(MemTopology::from_names("dram,foo", &[1, 2]).is_none());
        assert!(MemTopology::from_names("dram,nvm", &[1]).is_none());
        assert!(TierSpec::named(" DRAM ", 3).is_some(), "trim + case-fold");
    }

    #[test]
    fn scaled_named_splits_slow_frames_and_keeps_totals() {
        // 3-tier: fast tier keeps its size, slow frames split evenly.
        let tm = MemTopology::scaled_named("dram,cxl,nvm", 64, 257).unwrap();
        assert_eq!(tm.num_tiers(), 3);
        assert_eq!(tm.spec(Tier::Tier1).frames, 64);
        assert_eq!(tm.spec(Tier::Tier2).frames, 128);
        assert_eq!(tm.spec(Tier::Tier3).frames, 129, "remainder to slowest");
        assert_eq!(tm.total_frames(), 64 + 257);
        // Single tier absorbs everything; the default stays the default.
        let one = MemTopology::scaled_named("dram", 64, 256).unwrap();
        assert_eq!(one.num_tiers(), 1);
        assert_eq!(one.total_frames(), 320);
        let two = MemTopology::scaled_named("dram,nvm", 10, 20).unwrap();
        assert_eq!(two.spec(Tier::Tier2).frames, 20);
        // Rejections (unknown names, too many tiers, empty) name the
        // knob, the value and the accepted names.
        for bad in ["dram,foo", "dram,cxl,cxl,nvm,nvm", ""] {
            let msg = MemTopology::scaled_named(bad, 8, 8)
                .expect_err(bad)
                .to_string();
            assert!(msg.contains(TOPOLOGY_ENV), "{msg}");
            assert!(msg.contains(&format!("{bad:?}")), "{msg}");
            assert!(msg.contains("{dram, cxl, nvm}"), "{msg}");
        }
    }

    #[test]
    fn tier_index_round_trip() {
        for i in 0..4 {
            assert_eq!(Tier::from_index(i).index(), i);
        }
        assert!(Tier::Tier1.is_fastest());
        assert!(!Tier::Tier2.is_fastest());
        assert_eq!(Tier::Tier1.next_slower(), Tier::Tier2);
        assert_eq!(Tier::Tier3.next_slower(), Tier::Tier4);
    }
}
