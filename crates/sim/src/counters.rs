//! PMU-style event counters.
//!
//! These are the free-running hardware counters the paper reads through
//! `perf`-like interfaces: retired ops, cache misses at each level, TLB
//! misses / page-table walks, A-bit set events, and cycle counts. They are
//! the raw material both for Fig. 2 (ratio of PTW events to cache-miss
//! events) and for TMP's HWPC gating (§III-B-4).

/// Events counted by one core's PMU (plus shared-LLC events attributed to
/// the requesting core, as modern uncore PMUs do).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Micro-ops retired.
    pub retired_ops: u64,
    /// Demand loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// LLC misses (accesses served from a memory tier).
    pub llc_misses: u64,
    /// LLC misses served by tier 1.
    pub tier1_accesses: u64,
    /// LLC misses served by tier 2.
    pub tier2_accesses: u64,
    /// Of the tier-2 accesses, how many were stores (NVM write-endurance
    /// and write-energy proxy).
    pub tier2_stores: u64,
    /// Dirty lines written back from the LLC into tier 2 (the dominant
    /// source of NVM writes on write-back hierarchies).
    pub tier2_writebacks: u64,
    /// First-level DTLB misses.
    pub dtlb_l1_misses: u64,
    /// Second-level TLB misses = hardware page-table walks.
    pub ptw_walks: u64,
    /// Walks that found the A bit clear and set it (the PTW events of
    /// Fig. 2 — each one is a potential A-bit profiler observation).
    pub ptw_abit_sets: u64,
    /// D-bit write-backs forced by stores through clean translations.
    pub dirty_writebacks: u64,
    /// Minor page faults (first touch) taken.
    pub page_faults: u64,
    /// Protection faults taken (BadgerTrap / emulation traps).
    pub protection_faults: u64,
    /// Core cycles, including memory stalls.
    pub cycles: u64,
    /// Extra cycles charged to profiling activity (interrupts, scans,
    /// shootdowns). Kept separate so overhead percentages can be reported
    /// the way the paper does (§VI-B).
    pub profiling_cycles: u64,
}

impl EventCounts {
    /// Accumulate another counter snapshot into this one.
    pub fn add(&mut self, other: &EventCounts) {
        self.retired_ops += other.retired_ops;
        self.loads += other.loads;
        self.stores += other.stores;
        self.l1d_misses += other.l1d_misses;
        self.l2_misses += other.l2_misses;
        self.llc_misses += other.llc_misses;
        self.tier1_accesses += other.tier1_accesses;
        self.tier2_accesses += other.tier2_accesses;
        self.tier2_stores += other.tier2_stores;
        self.tier2_writebacks += other.tier2_writebacks;
        self.dtlb_l1_misses += other.dtlb_l1_misses;
        self.ptw_walks += other.ptw_walks;
        self.ptw_abit_sets += other.ptw_abit_sets;
        self.dirty_writebacks += other.dirty_writebacks;
        self.page_faults += other.page_faults;
        self.protection_faults += other.protection_faults;
        self.cycles += other.cycles;
        self.profiling_cycles += other.profiling_cycles;
    }

    /// Difference (`self - earlier`), for interval readings.
    pub fn delta_since(&self, earlier: &EventCounts) -> EventCounts {
        EventCounts {
            retired_ops: self.retired_ops - earlier.retired_ops,
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            l1d_misses: self.l1d_misses - earlier.l1d_misses,
            l2_misses: self.l2_misses - earlier.l2_misses,
            llc_misses: self.llc_misses - earlier.llc_misses,
            tier1_accesses: self.tier1_accesses - earlier.tier1_accesses,
            tier2_accesses: self.tier2_accesses - earlier.tier2_accesses,
            tier2_stores: self.tier2_stores - earlier.tier2_stores,
            tier2_writebacks: self.tier2_writebacks - earlier.tier2_writebacks,
            dtlb_l1_misses: self.dtlb_l1_misses - earlier.dtlb_l1_misses,
            ptw_walks: self.ptw_walks - earlier.ptw_walks,
            ptw_abit_sets: self.ptw_abit_sets - earlier.ptw_abit_sets,
            dirty_writebacks: self.dirty_writebacks - earlier.dirty_writebacks,
            page_faults: self.page_faults - earlier.page_faults,
            protection_faults: self.protection_faults - earlier.protection_faults,
            cycles: self.cycles - earlier.cycles,
            profiling_cycles: self.profiling_cycles - earlier.profiling_cycles,
        }
    }

    /// Fig. 2's quantity: PTW A-bit-setting events relative to data-cache
    /// (LLC) miss events.
    pub fn ptw_to_cache_miss_ratio(&self) -> f64 {
        if self.llc_misses == 0 {
            return 0.0;
        }
        self.ptw_abit_sets as f64 / self.llc_misses as f64
    }

    /// Tier-1 hitrate among memory accesses (the key TMA metric of Fig. 6).
    pub fn tier1_hitrate(&self) -> f64 {
        let total = self.tier1_accesses + self.tier2_accesses;
        if total == 0 {
            0.0
        } else {
            self.tier1_accesses as f64 / total as f64
        }
    }

    /// Fraction of cycles spent on profiling work (§VI-B overhead metric).
    pub fn profiling_overhead(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.profiling_cycles as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EventCounts {
        EventCounts {
            retired_ops: 1000,
            loads: 400,
            stores: 100,
            l1d_misses: 50,
            l2_misses: 25,
            llc_misses: 10,
            tier1_accesses: 8,
            tier2_accesses: 2,
            tier2_stores: 1,
            tier2_writebacks: 1,
            dtlb_l1_misses: 20,
            ptw_walks: 5,
            ptw_abit_sets: 4,
            dirty_writebacks: 1,
            page_faults: 2,
            protection_faults: 0,
            cycles: 5000,
            profiling_cycles: 50,
        }
    }

    #[test]
    fn add_then_delta_roundtrip() {
        let a = sample();
        let mut b = a;
        b.add(&a);
        assert_eq!(b.delta_since(&a), a);
    }

    #[test]
    fn rates() {
        let c = sample();
        assert!((c.tier1_hitrate() - 0.8).abs() < 1e-12);
        assert!((c.profiling_overhead() - 0.01).abs() < 1e-12);
        assert!((c.ptw_to_cache_miss_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn rates_are_zero_safe() {
        let z = EventCounts::default();
        assert_eq!(z.tier1_hitrate(), 0.0);
        assert_eq!(z.profiling_overhead(), 0.0);
        assert_eq!(z.ptw_to_cache_miss_ratio(), 0.0);
    }
}
