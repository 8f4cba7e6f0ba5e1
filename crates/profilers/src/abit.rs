//! The PTE A-bit scanning driver (paper §III-B-2).
//!
//! Periodically performs an `mm_walk` over each tracked process's page
//! table, read-and-clearing the A bit of every present PTE it visits
//! (`TestClearPageReferenced`). Pages whose bit was set are credited one
//! observation in their page descriptor.
//!
//! Two design points from the paper are modelled explicitly:
//!
//! * **No TLB shootdown by default** (§III-B-4, optimization 3): clearing
//!   the bit without flushing means a page whose translation stays cached
//!   will not re-set its A bit until natural TLB eviction — cheap but
//!   slightly stale. A configuration switch restores shootdowns.
//! * **Bounded scans** (§III-B-4, optimization 2 / "restrictive mode"):
//!   an optional per-scan PTE budget caps overhead for huge footprints;
//!   the scan resumes from a per-process cursor, covering the address
//!   space round-robin across intervals. This is what keeps the paper's
//!   A-bit overhead under 1% even for 120 GB XSBench — and why Table IV's
//!   A-bit page counts plateau for the giant-footprint HPC workloads.

use tmprof_obs::metrics::Metric;
use tmprof_sim::addr::Vpn;
use tmprof_sim::keymap::{KeyMap, PageSet};
use tmprof_sim::machine::Machine;
use tmprof_sim::pagedesc::PageKey;
use tmprof_sim::tlb::Pid;

/// Scanner configuration.
#[derive(Clone, Copy, Debug)]
pub struct ABitConfig {
    /// Issue a TLB shootdown for every cleared PTE batch (off by default,
    /// per the kernel's `ptep_clear_flush_young` optimization).
    pub shootdown: bool,
    /// Max PTEs visited per scan per process (`None` = unbounded).
    pub scan_budget: Option<u64>,
    /// Restart every scan from the top of the address space instead of
    /// resuming from a cursor. Combined with a budget this reproduces the
    /// fixed-coverage "restrictive mode" plateau visible in the paper's
    /// Table IV: all four huge-footprint HPC workloads report nearly the
    /// same A-bit page count (~5.5k) because each scan inspects the same
    /// budget-limited window.
    pub restart_each_scan: bool,
    /// Keep the raw (epoch, pfn) stream for the Fig. 4 heatmap.
    pub record_samples: bool,
}

impl Default for ABitConfig {
    fn default() -> Self {
        Self {
            shootdown: false,
            scan_budget: Some(8192),
            restart_each_scan: false,
            record_samples: false,
        }
    }
}

impl ABitConfig {
    /// Unbounded, shootdown-free scan (the paper's measurement of raw A-bit
    /// visibility).
    pub fn unbounded() -> Self {
        Self {
            shootdown: false,
            scan_budget: None,
            restart_each_scan: false,
            record_samples: false,
        }
    }

    /// Fixed-window restrictive mode: budget + restart from the top each
    /// scan (stable overhead, plateaued coverage).
    pub fn restrictive(budget: u64) -> Self {
        Self {
            shootdown: false,
            scan_budget: Some(budget),
            restart_each_scan: true,
            record_samples: false,
        }
    }

    /// Enable heatmap recording.
    pub fn recording(mut self) -> Self {
        self.record_samples = true;
        self
    }
}

/// Running totals for the scanner.
#[derive(Clone, Copy, Debug, Default)]
pub struct ABitStats {
    /// Scans performed (per process counted separately).
    pub scans: u64,
    /// PTEs visited across all scans.
    pub ptes_visited: u64,
    /// Observations recorded (A bits found set).
    pub observations: u64,
    /// Shootdowns issued (page batches).
    pub shootdowns: u64,
    /// Total profiling cycles charged.
    pub overhead_cycles: u64,
}

/// A recorded heat point for the Fig. 4 heatmap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbitHeatPoint {
    pub epoch: u32,
    pub pfn: tmprof_sim::addr::Pfn,
}

/// The A-bit scanning driver.
pub struct ABitScanner {
    cfg: ABitConfig,
    /// Resume cursor per PID for budgeted scans.
    cursors: KeyMap<Pid, Vpn>,
    /// Raw (possibly duplicated) packed keys observed this epoch; sorted
    /// and deduplicated only when the epoch closes.
    epoch_pages: Vec<u64>,
    seen_pages: PageSet,
    heat: Vec<AbitHeatPoint>,
    stats: ABitStats,
    enabled: bool,
    /// Round-robin core to charge scan overhead to (the kernel thread).
    charge_core: usize,
}

impl ABitScanner {
    /// New scanner.
    pub fn new(cfg: ABitConfig) -> Self {
        Self {
            cfg,
            cursors: KeyMap::default(),
            epoch_pages: Vec::new(),
            seen_pages: PageSet::new(),
            heat: Vec::new(),
            stats: ABitStats::default(),
            enabled: true,
            charge_core: 0,
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &ABitConfig {
        &self.cfg
    }

    /// Gate scanning on/off (TMP's TLB-miss-counter control).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Scan one process: walk its PTEs (budgeted, resuming from the last
    /// cursor), clear A bits, credit observations, optionally shoot down.
    ///
    /// Uses the page table's scan
    /// ([`tmprof_sim::pagetable::PageTable::scan_accessed_bounded`]): cold
    /// subtrees are pruned via interior summary words and candidate pages
    /// come from the leaf `a_words & present_words` bitmaps 64 at a time,
    /// so mapped but idle regions cost a few word loads instead of a
    /// branch per PTE. Observable behavior — observations, cleared bits,
    /// cursor, footprint, simulated cost — is identical to
    /// [`ABitScanner::scan_process_scalar`] (the scan_props suite holds
    /// the two to bit-for-bit equivalence).
    pub fn scan_process(&mut self, machine: &mut Machine, pid: Pid) {
        self.scan_process_impl(machine, pid, true, None);
    }

    /// The per-PTE `test_and_clear_accessed` reference walk the scan is
    /// proven against. Same cursor, same stats, same cost model.
    // tmprof-lint: allow(dead-surface) — identity oracle of profilers/tests/scan_props.rs and abit::tests::scan_matches_scalar_scan_at_the_scanner_layer
    pub fn scan_process_scalar(&mut self, machine: &mut Machine, pid: Pid) {
        self.scan_process_impl(machine, pid, false, None);
    }

    /// Scan one process with an explicit per-unit PTE budget overriding
    /// the configured one — one scan unit of a fleet shard's epoch chain.
    /// Returns `true` when the walk stopped mid-table with budget spent
    /// (another unit is needed to keep covering the address space this
    /// interval); `false` once the walk reached the end and wrapped.
    pub fn scan_process_unit(&mut self, machine: &mut Machine, pid: Pid, budget: u64) -> bool {
        self.scan_process_impl(machine, pid, true, Some(budget))
    }

    fn scan_process_impl(
        &mut self,
        machine: &mut Machine,
        pid: Pid,
        packed: bool,
        unit_budget: Option<u64>,
    ) -> bool {
        if !self.enabled {
            return false;
        }
        let budget = unit_budget.or(self.cfg.scan_budget).unwrap_or(u64::MAX);
        let start = if self.cfg.restart_each_scan {
            Vpn(0)
        } else {
            self.cursors.get(&pid).copied().unwrap_or(Vpn(0))
        };
        let record = self.cfg.record_samples;
        let shootdown = self.cfg.shootdown;

        // Everything an observation feeds — packed key, optional heat
        // point, optional shootdown VPN — is produced in the walk closure's
        // single pass; no intermediate (vpn, pfn) staging Vec.
        let mut keys: Vec<u64> = Vec::new();
        let mut vpns: Vec<Vpn> = Vec::new();
        let epoch = machine.epoch();
        let Some((pt, descs)) = machine.scan_parts(pid) else {
            return false;
        };
        let heat = &mut self.heat;
        let mut observe = |vpn: Vpn, pte: &mut tmprof_sim::pte::Pte| {
            if pte.test_and_clear_accessed() {
                let pfn = pte.pfn();
                descs.bump_abit(pfn);
                keys.push(PageKey { pid, vpn }.pack());
                if record {
                    heat.push(AbitHeatPoint { epoch, pfn });
                }
                if shootdown {
                    vpns.push(vpn);
                }
            }
        };
        let (fp, resume) = if packed {
            pt.scan_accessed_bounded(start, budget, &mut observe)
        } else {
            pt.walk_present_bounded(start, budget, &mut observe)
        };
        // Wrap the cursor when the walk reaches the end of the table. If
        // the budget was larger than the resident set, the next scan starts
        // from the top anyway.
        let stopped_mid_table = resume.is_some();
        self.cursors.insert(pid, resume.unwrap_or(Vpn(0)));

        let observations = keys.len() as u64;
        self.epoch_pages.extend_from_slice(&keys);
        self.seen_pages.merge_unsorted(keys);

        // Cost model: proportional to PTEs traversed (Table I), charged to
        // the core the scanning kthread happens to run on.
        let cost = fp.ptes_visited * machine.config().latency.pte_visit;
        let core = self.charge_core % machine.num_cores();
        self.charge_core = self.charge_core.wrapping_add(1);
        machine.charge_profiling(core, cost);

        self.stats.scans += 1;
        self.stats.ptes_visited += fp.ptes_visited;
        self.stats.observations += observations;
        self.stats.overhead_cycles += cost;
        tmprof_obs::metrics::add(Metric::AbitPtesScanned, fp.ptes_visited);
        tmprof_obs::metrics::add(Metric::AbitObservations, observations);

        if !vpns.is_empty() {
            let charged = machine.shootdown(pid, &vpns, true);
            self.stats.shootdowns += 1;
            self.stats.overhead_cycles += charged;
        }
        stopped_mid_table
    }

    /// Scan a set of processes (the daemon's filtered PID list).
    pub fn scan(&mut self, machine: &mut Machine, pids: &[Pid]) {
        for &pid in pids {
            self.scan_process(machine, pid);
        }
    }

    /// Pages observed this epoch; clears the per-epoch set.
    pub fn take_epoch_pages(&mut self) -> PageSet {
        PageSet::from_unsorted(self.take_epoch_pages_raw())
    }

    /// The raw (unsorted, possibly duplicated) packed keys observed this
    /// epoch; clears the per-epoch buffer. For callers that time or batch
    /// the sort/dedup into a [`PageSet`] separately;
    /// [`Self::take_epoch_pages`] does both steps.
    pub fn take_epoch_pages_raw(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.epoch_pages)
    }

    /// Pages observed over the whole run (Table IV "A bit" column).
    pub fn seen_pages(&self) -> &PageSet {
        &self.seen_pages
    }

    /// Recorded heat points (empty unless configured).
    pub fn heat_points(&self) -> &[AbitHeatPoint] {
        &self.heat
    }

    /// Scanner totals.
    pub fn stats(&self) -> ABitStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::prelude::*;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::scaled(2, 512, 2048, 1 << 20));
        m.add_process(1);
        m
    }

    fn touch_pages(m: &mut Machine, n: u64) {
        for i in 0..n {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
    }

    #[test]
    fn scan_observes_touched_pages_and_clears_bits() {
        let mut m = machine();
        touch_pages(&mut m, 100);
        let mut sc = ABitScanner::new(ABitConfig::unbounded());
        sc.scan_process(&mut m, 1);
        assert_eq!(sc.stats().observations, 100);
        assert_eq!(sc.seen_pages().len(), 100);
        // All bits now clear: immediate rescan sees nothing.
        sc.scan_process(&mut m, 1);
        assert_eq!(sc.stats().observations, 100, "no new observations");
    }

    #[test]
    fn stale_bits_without_shootdown() {
        // After a clear, re-touching a page whose translation is cached
        // does NOT re-set the bit — the paper's staleness trade-off.
        let mut m = machine();
        touch_pages(&mut m, 4);
        let mut sc = ABitScanner::new(ABitConfig::unbounded());
        sc.scan_process(&mut m, 1);
        touch_pages(&mut m, 4); // TLB hits
        sc.scan_process(&mut m, 1);
        assert_eq!(sc.stats().observations, 4, "stale bits missed re-touches");
    }

    #[test]
    fn shootdown_mode_sees_retouches_but_costs_more() {
        let mut m = machine();
        touch_pages(&mut m, 4);
        let mut sc = ABitScanner::new(ABitConfig {
            shootdown: true,
            ..ABitConfig::unbounded()
        });
        sc.scan_process(&mut m, 1);
        touch_pages(&mut m, 4); // TLB was flushed: walks re-set the bits
        sc.scan_process(&mut m, 1);
        assert_eq!(sc.stats().observations, 8);
        assert_eq!(sc.stats().shootdowns, 2);
        // Shootdown cost dominates the per-PTE visit cost here.
        let ipi_total = m.config().latency.shootdown_ipi * 2 /* cores */ * 2 /* scans */;
        assert!(sc.stats().overhead_cycles >= ipi_total);
    }

    #[test]
    fn budget_caps_observations_per_scan_and_cursor_resumes() {
        let mut m = machine();
        touch_pages(&mut m, 300);
        let mut sc = ABitScanner::new(ABitConfig {
            scan_budget: Some(100),
            ..ABitConfig::default()
        });
        sc.scan_process(&mut m, 1);
        assert_eq!(sc.stats().ptes_visited, 100);
        assert_eq!(sc.seen_pages().len(), 100);
        // Next scans cover the rest of the footprint.
        sc.scan_process(&mut m, 1);
        sc.scan_process(&mut m, 1);
        assert_eq!(sc.seen_pages().len(), 300);
    }

    #[test]
    fn unit_scans_carve_one_budget_into_stealable_pieces() {
        // Same coverage as one 300-PTE scan, delivered as three 100-PTE
        // units resuming from the shared cursor; the return value says
        // whether the table still has unvisited PTEs this interval.
        let mut m = machine();
        touch_pages(&mut m, 250);
        let mut sc = ABitScanner::new(ABitConfig::default());
        assert!(sc.scan_process_unit(&mut m, 1, 100), "stopped mid-table");
        assert!(sc.scan_process_unit(&mut m, 1, 100), "stopped mid-table");
        assert!(!sc.scan_process_unit(&mut m, 1, 100), "reached the end");
        assert_eq!(sc.seen_pages().len(), 250);
        assert_eq!(sc.stats().ptes_visited, 250);
        assert_eq!(sc.stats().scans, 3, "each unit is a scan");
    }

    #[test]
    fn budget_wraps_to_start_after_full_coverage() {
        let mut m = machine();
        touch_pages(&mut m, 150);
        let mut sc = ABitScanner::new(ABitConfig {
            scan_budget: Some(100),
            ..ABitConfig::default()
        });
        sc.scan_process(&mut m, 1); // covers [0,100)
        sc.scan_process(&mut m, 1); // covers [100,150) and completes
                                    // Re-touch everything (TLB may hit for recent pages; force walks).
        m.shootdown(1, &(0..150).map(Vpn).collect::<Vec<_>>(), false);
        touch_pages(&mut m, 150);
        sc.scan_process(&mut m, 1); // wrapped: starts at 0 again
        assert!(sc.stats().observations > 150);
    }

    #[test]
    fn overhead_proportional_to_ptes_visited() {
        let mut m = machine();
        touch_pages(&mut m, 200);
        let mut sc = ABitScanner::new(ABitConfig::unbounded());
        sc.scan_process(&mut m, 1);
        let expected = 200 * m.config().latency.pte_visit;
        assert_eq!(sc.stats().overhead_cycles, expected);
        assert_eq!(m.aggregate_counts().profiling_cycles, expected);
    }

    #[test]
    fn disabled_scanner_is_a_no_op() {
        let mut m = machine();
        touch_pages(&mut m, 10);
        let mut sc = ABitScanner::new(ABitConfig::default());
        sc.set_enabled(false);
        sc.scan_process(&mut m, 1);
        assert_eq!(sc.stats().scans, 0);
        assert!(sc.seen_pages().is_empty());
    }

    #[test]
    fn unknown_pid_is_ignored() {
        let mut m = machine();
        let mut sc = ABitScanner::new(ABitConfig::default());
        sc.scan_process(&mut m, 99);
        assert_eq!(sc.stats().scans, 0);
    }

    #[test]
    fn scan_matches_scalar_scan_at_the_scanner_layer() {
        // Same machine state, same budgeted scan sequence — the scan must
        // produce observations, cursors, stats, and charged cycles
        // identical to the per-PTE reference walk.
        let big = || {
            let mut m = Machine::new(MachineConfig::scaled(2, 512, 8192, 1 << 20));
            m.add_process(1);
            m
        };
        let mut scalar_m = big();
        let mut scan_m = big();
        for m in [&mut scalar_m, &mut scan_m] {
            // Map 5000 pages, clear every A bit with a throwaway sweep,
            // then re-heat only the first 300: a small hot set in front of
            // a large cold mapped tail.
            touch_pages(m, 5000);
            ABitScanner::new(ABitConfig::unbounded()).scan_process(m, 1);
            m.shootdown(1, &(0..300).map(Vpn).collect::<Vec<_>>(), false);
            touch_pages(m, 300);
        }
        let mut scalar = ABitScanner::new(ABitConfig {
            scan_budget: Some(700),
            ..ABitConfig::default()
        });
        let mut scan = ABitScanner::new(ABitConfig {
            scan_budget: Some(700),
            ..ABitConfig::default()
        });
        for _ in 0..12 {
            scalar.scan_process_scalar(&mut scalar_m, 1);
            scan.scan_process(&mut scan_m, 1);
        }
        assert_eq!(scalar.stats().observations, scan.stats().observations);
        assert_eq!(scalar.stats().ptes_visited, scan.stats().ptes_visited);
        assert_eq!(scalar.stats().overhead_cycles, scan.stats().overhead_cycles);
        assert_eq!(
            scalar.seen_pages().iter().collect::<Vec<_>>(),
            scan.seen_pages().iter().collect::<Vec<_>>()
        );
        assert_eq!(
            scalar_m.aggregate_counts().profiling_cycles,
            scan_m.aggregate_counts().profiling_cycles
        );
    }

    #[test]
    fn epoch_pages_reset_on_take() {
        let mut m = machine();
        touch_pages(&mut m, 20);
        let mut sc = ABitScanner::new(ABitConfig::unbounded());
        sc.scan_process(&mut m, 1);
        assert_eq!(sc.take_epoch_pages().len(), 20);
        assert!(sc.take_epoch_pages().is_empty());
        assert_eq!(sc.seen_pages().len(), 20);
    }
}
