//! The page mover (paper §IV, step 3).
//!
//! Implements policy decisions by physically relocating pages between tiers
//! while processes run: promote the nominated hot pages into tier 1,
//! demoting current tier-1 residents that fell off the list to make room.
//! Virtual addresses never change; migrated translations are invalidated
//! with *one batched shootdown per process per epoch*, the cost structure
//! the paper's epoch-based policies are designed around.
//!
//! On an N-tier [`MemTopology`](tmprof_sim::tier::MemTopology) demotion is
//! a *waterfall*: to free a tier-k frame the coldest non-nominated tier-k
//! resident moves to tier k+1, first cascading a demotion out of k+1 if that
//! tier is itself full, and so on down to the slowest tier (HM-Keeper's
//! multi-tier eviction shape). Each page moves at most one tier per epoch —
//! the per-tier victim queues are snapshotted before the batch, so a page
//! demoted this epoch is not re-demoted deeper in the same batch. When the
//! cascade bottoms out (every slower tier full), the nomination is *skipped
//! and counted* in [`MoveReport::demote_failed`] and journaled as a
//! [`DemoteFailed`](tmprof_obs::journal::EventKind::DemoteFailed) event —
//! it used to be silently lost (and a full slow tier was a panic).

use std::collections::BTreeMap;

use tmprof_obs::journal::EventKind as ObsEvent;
use tmprof_obs::metrics::Metric as ObsMetric;
use tmprof_sim::addr::Vpn;
use tmprof_sim::keymap::{KeyMap, KeySet};
use tmprof_sim::machine::{Machine, MigrateError};
use tmprof_sim::pagedesc::PageKey;
use tmprof_sim::tier::Tier;
use tmprof_sim::tlb::Pid;

use crate::admission::AdmissionControl;
use crate::policies::Placement;

/// Cost model for migrations, in cycles.
#[derive(Clone, Copy, Debug)]
pub struct MoverConfig {
    /// Per-page copy cost (4 KiB copy + bookkeeping). The paper's
    /// emulation uses 50 µs per migration; at the simulator's nominal
    /// 4 GHz this is 200k cycles.
    pub per_page_cycles: u64,
}

impl Default for MoverConfig {
    fn default() -> Self {
        Self {
            per_page_cycles: 200_000,
        }
    }
}

/// What one epoch's move batch did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MoveReport {
    /// Pages promoted into tier 1.
    pub promoted: u64,
    /// Pages demoted one tier down the waterfall.
    pub demoted: u64,
    /// Nominations skipped because they were already resident in tier 1.
    pub already_placed: u64,
    /// Nominations or victims skipped because the page is no longer mapped
    /// (or is a huge mapping the 4 KiB mover cannot relocate).
    pub unmapped: u64,
    /// Nominations skipped because demotion could not free a frame: every
    /// tier below held no demotable victim or no free frame.
    pub demote_failed: u64,
    /// Migrations rejected by per-tenant admission control (promotions
    /// whose owner's bucket was empty, victims whose owner's demotion
    /// bucket was empty). Always 0 without an [`AdmissionControl`].
    pub admit_rejected: u64,
    /// Cycles charged for copies and shootdowns.
    pub cycles: u64,
}

/// Per-tenant share of a mover's lifetime work, for attributing fleet
/// thrash to the tenant that caused it. Promotions are attributed to the
/// nominated page's owner, demotions to the *victim's* owner — the tenant
/// whose page was displaced, not the one whose promotion forced it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PidMoveStats {
    /// Pages of this tenant promoted into tier 1.
    pub promoted: u64,
    /// Pages of this tenant demoted down the waterfall.
    pub demoted: u64,
    /// Migration cycles attributed to this tenant (copies only; batched
    /// shootdown costs are shared and stay in the global report).
    pub copy_cycles: u64,
}

/// Per-tier coldest-first victim queues, snapshotted at the start of a
/// batch. Queues for tiers below tier 1 are sorted lazily — on the default
/// two-tier layout they are consulted only when tier 2 fills up.
struct DemotionQueues {
    /// `(packed key, epoch rank)` residents per tier, excluding nominated
    /// pages. Once sorted hottest-first, `pop()` yields the coldest.
    tiers: Vec<Vec<(u64, u64)>>,
    sorted: Vec<bool>,
}

impl DemotionQueues {
    fn new(num_tiers: usize) -> Self {
        Self {
            tiers: vec![Vec::new(); num_tiers],
            sorted: vec![false; num_tiers],
        }
    }

    // tmprof-lint: allow(panic-reachability) — `tiers` and `sorted` are sized one slot per topology tier in `new`, and `tier.index()` comes from that same topology
    fn sort_now(&mut self, tier: Tier) {
        let i = tier.index();
        if !self.sorted[i] {
            self.tiers[i].sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
            self.sorted[i] = true;
        }
    }

    fn is_empty(&self, tier: Tier) -> bool {
        self.tiers[tier.index()].is_empty()
    }

    fn pop_coldest(&mut self, tier: Tier) -> Option<u64> {
        self.sort_now(tier);
        self.tiers[tier.index()].pop().map(|(k, _)| k)
    }
}

/// Why `free_frame_in` could not free a frame.
enum FreeFail {
    /// The tier holds no demotable (non-nominated, still-queued) victims.
    NoVictims,
    /// Demotion bottomed out: every slower tier is full.
    SlowTiersFull,
}

/// The epoch-batched page mover.
pub struct PageMover {
    cfg: MoverConfig,
    total: MoveReport,
    /// Lifetime per-tenant attribution (fleet multi-tenant accounting).
    per_pid: KeyMap<Pid, PidMoveStats>,
}

impl PageMover {
    /// New mover.
    pub fn new(cfg: MoverConfig) -> Self {
        Self {
            cfg,
            total: MoveReport::default(),
            per_pid: KeyMap::default(),
        }
    }

    /// Lifetime totals.
    pub fn totals(&self) -> MoveReport {
        self.total
    }

    /// Lifetime per-tenant attribution: `(pid, stats)` sorted by pid.
    pub fn pid_totals(&self) -> Vec<(Pid, PidMoveStats)> {
        let mut out: Vec<(Pid, PidMoveStats)> =
            self.per_pid.iter().map(|(&p, &s)| (p, s)).collect();
        out.sort_unstable_by_key(|&(p, _)| p);
        out
    }

    fn attribute_promotion(&mut self, pid: Pid) {
        let s = self.per_pid.entry(pid).or_default();
        s.promoted += 1;
        s.copy_cycles += self.cfg.per_page_cycles;
    }

    fn attribute_demotion(&mut self, pid: Pid) {
        let s = self.per_pid.entry(pid).or_default();
        s.demoted += 1;
        s.copy_cycles += self.cfg.per_page_cycles;
    }

    /// Apply a placement: make tier 1 hold (as nearly as capacity allows)
    /// exactly the nominated pages.
    ///
    /// Pages nominated but already in tier 1 stay put. Tier-1 residents not
    /// nominated are demoted lazily — only as needed to free frames for
    /// promotions — which keeps migration traffic proportional to the
    /// working-set *change*, not its size.
    pub fn apply(&mut self, machine: &mut Machine, placement: &Placement) -> MoveReport {
        self.apply_with_admission(machine, placement, None)
    }

    /// [`PageMover::apply`] under per-tenant admission control. `None`
    /// delegates to the exact unthrottled batch; with a controller, a
    /// nomination whose owner is out of promotion tokens is skipped (and
    /// counted in [`MoveReport::admit_rejected`]) and a victim whose owner
    /// is out of demotion tokens is passed over for the next-coldest.
    pub fn apply_with_admission(
        &mut self,
        machine: &mut Machine,
        placement: &Placement,
        mut admission: Option<&mut AdmissionControl>,
    ) -> MoveReport {
        let mut report = MoveReport::default();
        let nominated: KeySet<u64> = placement.tier1_pages.iter().copied().collect();

        // One pass over the owned descriptors: the tier-1 resident set (for
        // the already-placed check) plus per-tier victim queues, both from
        // the pre-batch state.
        let mut queues = DemotionQueues::new(machine.memory().num_tiers());
        let mut resident_set: KeySet<u64> = KeySet::default();
        for (pfn, d) in machine.descs().iter_owned() {
            let Some(owner) = d.owner else { continue };
            let key = owner.pack();
            let tier = machine.memory().tier_of(pfn);
            if tier == Tier::Tier1 {
                resident_set.insert(key);
            }
            if !nominated.contains(&key) {
                queues.tiers[tier.index()].push((key, d.epoch_rank()));
            }
        }
        // The tier-1 queue is always consulted; sort it up front (hottest
        // first, so `pop()` yields the coldest remaining resident).
        queues.sort_now(Tier::Tier1);

        // Pages to move in, hottest first (placement order). The shootdown
        // batches are keyed in a BTreeMap so the per-process flushes fire in
        // ascending PID order, run after run.
        let mut shootdowns: BTreeMap<Pid, Vec<Vpn>> = BTreeMap::new();
        for &key in &placement.tier1_pages {
            if resident_set.contains(&key) {
                report.already_placed += 1;
                continue;
            }
            let page = PageKey::unpack(key);
            // Admission: the nominated page's owner pays a promotion token
            // before any frame-freeing work happens on its behalf.
            if let Some(adm) = admission.as_deref_mut() {
                if !adm.admit_promotion(page.pid) {
                    report.admit_rejected += 1;
                    continue;
                }
            }
            // Ensure a free tier-1 frame: demote the coldest non-nominated
            // resident if the tier is full, cascading down the waterfall.
            if machine.frames().free_in(Tier::Tier1) == 0 {
                match self.free_frame_in(
                    machine,
                    Tier::Tier1,
                    &mut queues,
                    &mut report,
                    &mut shootdowns,
                    &mut admission,
                ) {
                    Ok(()) => {}
                    Err(FreeFail::NoVictims) => {
                        break; // tier 1 entirely occupied by nominated pages
                    }
                    Err(FreeFail::SlowTiersFull) => {
                        // Skip this nomination, but keep going: a later
                        // epoch (or a victim unmapping) may free room.
                        report.demote_failed += 1;
                        tmprof_obs::metrics::inc(ObsMetric::PolicyDemotionsFailed);
                        tmprof_obs::journal::record(
                            ObsEvent::DemoteFailed,
                            machine.clock(),
                            machine.epoch(),
                            key,
                            0,
                        );
                        continue;
                    }
                }
            }
            match machine.migrate_page(page.pid, page.vpn, Tier::Tier1) {
                Ok(_) => {
                    report.promoted += 1;
                    report.cycles += self.cfg.per_page_cycles;
                    self.attribute_promotion(page.pid);
                    shootdowns.entry(page.pid).or_default().push(page.vpn);
                }
                Err(MigrateError::NotMapped) | Err(MigrateError::HugePage) => {
                    report.unmapped += 1;
                }
                Err(MigrateError::AlreadyThere) => {
                    report.already_placed += 1;
                }
                Err(MigrateError::NoFrames(_)) => break,
            }
        }

        // One batched shootdown per process for everything that moved.
        for (pid, vpns) in shootdowns {
            report.cycles += machine.shootdown(pid, &vpns, false);
        }
        tmprof_obs::metrics::add(ObsMetric::PolicyMigrationCycles, report.cycles);
        if report.promoted + report.demoted > 0 {
            tmprof_obs::metrics::add(ObsMetric::PolicyPagesPromoted, report.promoted);
            tmprof_obs::metrics::add(ObsMetric::PolicyPagesDemoted, report.demoted);
            tmprof_obs::journal::record(
                ObsEvent::MigrationBatch,
                machine.clock(),
                machine.epoch(),
                report.promoted,
                report.demoted,
            );
        }
        self.total.promoted += report.promoted;
        self.total.demoted += report.demoted;
        self.total.already_placed += report.already_placed;
        self.total.unmapped += report.unmapped;
        self.total.demote_failed += report.demote_failed;
        self.total.admit_rejected += report.admit_rejected;
        self.total.cycles += report.cycles;
        report
    }

    /// Free one frame in `tier` by demoting its coldest queued victim one
    /// tier down, recursively freeing room below first when needed.
    ///
    /// Victims whose migration fails because the page went away or is a
    /// huge mapping are counted in `unmapped` and the *next* victim is
    /// tried — the historical code dropped the attempt on the floor, which
    /// silently lost every remaining nomination of the batch.
    fn free_frame_in(
        &mut self,
        machine: &mut Machine,
        tier: Tier,
        queues: &mut DemotionQueues,
        report: &mut MoveReport,
        shootdowns: &mut BTreeMap<Pid, Vec<Vpn>>,
        admission: &mut Option<&mut AdmissionControl>,
    ) -> Result<(), FreeFail> {
        if machine.frames().free_in(tier) > 0 {
            return Ok(());
        }
        if tier.index() + 1 >= machine.memory().num_tiers() {
            // The slowest tier has nowhere to demote to.
            return Err(FreeFail::SlowTiersFull);
        }
        let dest = tier.next_slower();
        loop {
            if queues.is_empty(tier) {
                return Err(FreeFail::NoVictims);
            }
            // Make room below before taking a victim, so a cascade failure
            // leaves the queue untouched.
            if self
                .free_frame_in(machine, dest, queues, report, shootdowns, admission)
                .is_err()
            {
                return Err(FreeFail::SlowTiersFull);
            }
            // tmprof-lint: allow(panic-reachability) — non-emptiness checked at the top of the loop and pops happen only here
            let victim = PageKey::unpack(queues.pop_coldest(tier).unwrap());
            // Admission: the victim's owner pays a demotion token; a tenant
            // out of tokens keeps this page and the next-coldest is tried.
            if let Some(adm) = admission.as_deref_mut() {
                if !adm.admit_demotion(victim.pid) {
                    report.admit_rejected += 1;
                    continue;
                }
            }
            match machine.migrate_page(victim.pid, victim.vpn, dest) {
                Ok(_) => {
                    report.demoted += 1;
                    report.cycles += self.cfg.per_page_cycles;
                    self.attribute_demotion(victim.pid);
                    shootdowns.entry(victim.pid).or_default().push(victim.vpn);
                    return Ok(());
                }
                Err(MigrateError::NotMapped) | Err(MigrateError::HugePage) => {
                    report.unmapped += 1; // stale victim: try the next one
                }
                Err(MigrateError::AlreadyThere) => {
                    // Queue snapshot went stale (page already demoted);
                    // try the next victim.
                }
                Err(MigrateError::NoFrames(_)) => {
                    // Defensive: room below was just ensured, but treat a
                    // raced exhaustion as a cascade failure, not a panic.
                    return Err(FreeFail::SlowTiersFull);
                }
            }
        }
    }

    /// Reference implementation of the historical flat two-tier batch,
    /// with the fixed skip/count demotion semantics. Retained as the
    /// decision-for-decision oracle for the N-tier waterfall (see the
    /// `two_tier_waterfall_matches_reference` proptest); panics on
    /// topologies with more than two tiers. Records no obs metrics.
    // tmprof-lint: allow(dead-surface) — decision oracle of policy/tests/props.rs's two_tier_waterfall_matches_reference
    pub fn apply_two_tier_reference(
        &mut self,
        machine: &mut Machine,
        placement: &Placement,
    ) -> MoveReport {
        assert_eq!(
            machine.memory().num_tiers(),
            2,
            "reference mover is two-tier only"
        );
        let mut report = MoveReport::default();
        let nominated: KeySet<u64> = placement.tier1_pages.iter().copied().collect();

        let mut residents: Vec<(u64, u64)> = machine
            .descs()
            .iter_owned()
            .filter(|(pfn, _)| machine.memory().tier_of(*pfn) == Tier::Tier1)
            .filter_map(|(_, d)| d.owner.map(|o| (o.pack(), d.epoch_rank())))
            .collect();
        residents.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
        let resident_set: KeySet<u64> = residents.iter().map(|&(k, _)| k).collect();
        let mut demotion_queue: Vec<u64> = residents
            .iter()
            .map(|&(k, _)| k)
            .filter(|k| !nominated.contains(k))
            .collect();

        let mut shootdowns: BTreeMap<Pid, Vec<Vpn>> = BTreeMap::new();
        'nominations: for &key in &placement.tier1_pages {
            if resident_set.contains(&key) {
                report.already_placed += 1;
                continue;
            }
            let page = PageKey::unpack(key);
            if machine.frames().free_in(Tier::Tier1) == 0 {
                loop {
                    if demotion_queue.is_empty() {
                        break 'nominations; // tier 1 all nominated
                    }
                    if machine.frames().free_in(Tier::Tier2) == 0 {
                        report.demote_failed += 1;
                        continue 'nominations; // skip, keep going
                    }
                    // tmprof-lint: allow(panic-reachability) — emptiness checked at the top of the loop
                    let victim = PageKey::unpack(demotion_queue.pop().unwrap());
                    match machine.migrate_page(victim.pid, victim.vpn, Tier::Tier2) {
                        Ok(_) => {
                            report.demoted += 1;
                            report.cycles += self.cfg.per_page_cycles;
                            self.attribute_demotion(victim.pid);
                            shootdowns.entry(victim.pid).or_default().push(victim.vpn);
                            break;
                        }
                        Err(MigrateError::NotMapped) | Err(MigrateError::HugePage) => {
                            report.unmapped += 1;
                        }
                        Err(MigrateError::AlreadyThere) => {}
                        Err(MigrateError::NoFrames(_)) => {
                            report.demote_failed += 1;
                            continue 'nominations;
                        }
                    }
                }
            }
            match machine.migrate_page(page.pid, page.vpn, Tier::Tier1) {
                Ok(_) => {
                    report.promoted += 1;
                    report.cycles += self.cfg.per_page_cycles;
                    self.attribute_promotion(page.pid);
                    shootdowns.entry(page.pid).or_default().push(page.vpn);
                }
                Err(MigrateError::NotMapped) | Err(MigrateError::HugePage) => {
                    report.unmapped += 1;
                }
                Err(MigrateError::AlreadyThere) => {
                    report.already_placed += 1;
                }
                Err(MigrateError::NoFrames(_)) => break,
            }
        }

        for (pid, vpns) in shootdowns {
            report.cycles += machine.shootdown(pid, &vpns, false);
        }
        self.total.promoted += report.promoted;
        self.total.demoted += report.demoted;
        self.total.already_placed += report.already_placed;
        self.total.unmapped += report.unmapped;
        self.total.demote_failed += report.demote_failed;
        self.total.cycles += report.cycles;
        report
    }
}

impl Default for PageMover {
    fn default() -> Self {
        Self::new(MoverConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::prelude::*;

    /// Current tier of a logical page.
    fn tier_of_page(m: &Machine, pid: Pid, vpn: Vpn) -> Option<Tier> {
        m.frame_of(pid, vpn).map(|p| m.memory().tier_of(p))
    }

    fn machine(t1: u64, t2: u64) -> Machine {
        let mut m = Machine::new(MachineConfig::scaled(1, t1, t2, 1 << 20));
        m.add_process(1);
        m
    }

    fn touch_n(m: &mut Machine, n: u64) {
        for i in 0..n {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
    }

    fn key(vpn: u64) -> u64 {
        PageKey {
            pid: 1,
            vpn: Vpn(vpn),
        }
        .pack()
    }

    #[test]
    fn promotes_nominated_tier2_pages() {
        let mut m = machine(4, 16);
        touch_n(&mut m, 8); // pages 0-3 tier1, 4-7 tier2
        let mut mover = PageMover::default();
        let report = mover.apply(
            &mut m,
            &Placement {
                tier1_pages: vec![key(5), key(6)],
            },
        );
        // Tier 1 was full (4 residents): two demotions make room.
        assert_eq!(report.promoted, 2);
        assert_eq!(report.demoted, 2);
        assert_eq!(tier_of_page(&m, 1, Vpn(5)), Some(Tier::Tier1));
        assert_eq!(tier_of_page(&m, 1, Vpn(6)), Some(Tier::Tier1));
    }

    #[test]
    fn nominated_residents_stay_put() {
        let mut m = machine(4, 16);
        touch_n(&mut m, 8);
        let mut mover = PageMover::default();
        let report = mover.apply(
            &mut m,
            &Placement {
                tier1_pages: vec![key(0), key(1)],
            },
        );
        assert_eq!(report.promoted, 0);
        assert_eq!(report.demoted, 0);
        assert_eq!(report.already_placed, 2);
    }

    #[test]
    fn demotes_coldest_resident_first() {
        let mut m = machine(2, 16);
        touch_n(&mut m, 4); // 0,1 in tier1
                            // Make page 1 hot, page 0 cold.
        let pfn1 = m.frame_of(1, Vpn(1)).unwrap();
        m.descs_mut().bump_trace(pfn1);
        m.descs_mut().bump_trace(pfn1);
        let mut mover = PageMover::default();
        mover.apply(
            &mut m,
            &Placement {
                tier1_pages: vec![key(3)],
            },
        );
        assert_eq!(
            tier_of_page(&m, 1, Vpn(0)),
            Some(Tier::Tier2),
            "cold page evicted"
        );
        assert_eq!(
            tier_of_page(&m, 1, Vpn(1)),
            Some(Tier::Tier1),
            "hot page kept"
        );
        assert_eq!(tier_of_page(&m, 1, Vpn(3)), Some(Tier::Tier1));
    }

    #[test]
    fn unmapped_nominations_are_counted_not_fatal() {
        let mut m = machine(4, 16);
        touch_n(&mut m, 2);
        let mut mover = PageMover::default();
        let report = mover.apply(
            &mut m,
            &Placement {
                tier1_pages: vec![key(99)],
            },
        );
        assert_eq!(report.unmapped, 1);
        assert_eq!(report.promoted, 0);
    }

    #[test]
    fn empty_placement_is_free() {
        let mut m = machine(4, 16);
        touch_n(&mut m, 8);
        let mut mover = PageMover::default();
        let report = mover.apply(&mut m, &Placement::default());
        assert_eq!(report, MoveReport::default());
    }

    #[test]
    fn migration_cost_accumulates_in_totals() {
        let mut m = machine(2, 16);
        touch_n(&mut m, 4);
        let mut mover = PageMover::new(MoverConfig {
            per_page_cycles: 1000,
        });
        mover.apply(
            &mut m,
            &Placement {
                tier1_pages: vec![key(2), key(3)],
            },
        );
        let t = mover.totals();
        assert_eq!(t.promoted, 2);
        assert_eq!(t.demoted, 2);
        // 4 copies + 1 batched shootdown (1 core).
        let ipi = m.config().latency.shootdown_ipi;
        assert_eq!(t.cycles, 4 * 1000 + ipi);
    }

    #[test]
    fn full_slow_tier_skips_nomination_instead_of_panicking() {
        // Regression: both tiers full. Freeing a tier-1 frame requires
        // demoting to a tier-2 with no room — the historical mover panicked
        // ("demotion failed: out of physical frames"). The fixed mover
        // skips the nomination, counts it, and leaves placement untouched.
        let mut m = machine(2, 2);
        touch_n(&mut m, 4); // 0,1 tier1; 2,3 tier2 — zero free frames
        let mut mover = PageMover::default();
        let report = mover.apply(
            &mut m,
            &Placement {
                tier1_pages: vec![key(2), key(3)],
            },
        );
        assert_eq!(report.demote_failed, 2, "both nominations skipped");
        assert_eq!(report.promoted, 0);
        assert_eq!(report.demoted, 0);
        assert_eq!(tier_of_page(&m, 1, Vpn(0)), Some(Tier::Tier1));
        assert_eq!(tier_of_page(&m, 1, Vpn(2)), Some(Tier::Tier2));
        assert_eq!(mover.totals().demote_failed, 2);
    }

    #[test]
    fn stale_victim_does_not_abort_the_batch() {
        // Regression: a victim whose migration fails (page gone) used to
        // fall through to a doomed promotion and silently lose every
        // remaining nomination. The fixed mover tries the next victim.
        let mut m = machine(2, 16);
        touch_n(&mut m, 4); // 0,1 tier1; 2,3 tier2
                            // Corrupt frame 0's owner to an unmapped page of an unknown pid:
                            // packs below every real key, so it is popped as the coldest
                            // victim, and its migration fails NotMapped.
        let pfn0 = m.frame_of(1, Vpn(0)).unwrap();
        m.descs_mut().set_owner(
            pfn0,
            PageKey {
                pid: 0,
                vpn: Vpn(0),
            },
        );
        let mut mover = PageMover::default();
        let report = mover.apply(
            &mut m,
            &Placement {
                tier1_pages: vec![key(2)],
            },
        );
        assert_eq!(report.unmapped, 1, "stale victim counted");
        assert_eq!(report.demoted, 1, "next-coldest victim demoted instead");
        assert_eq!(report.promoted, 1, "nomination still lands");
        assert_eq!(tier_of_page(&m, 1, Vpn(2)), Some(Tier::Tier1));
    }

    #[test]
    fn three_tier_demotion_waterfalls() {
        // tier1 and tier2 both full: promoting into tier 1 demotes a
        // tier-1 victim to tier 2, which first demotes a tier-2 victim to
        // tier 3 — one hop per page, per the waterfall.
        let mut m = Machine::new(MachineConfig::scaled_topology(
            1,
            MemTopology::from_specs(vec![TierSpec::dram(2), TierSpec::cxl(2), TierSpec::nvm(8)]),
            1 << 20,
        ));
        m.add_process(1);
        touch_n(&mut m, 5); // 0,1 tier1; 2,3 tier2; 4 tier3
        let mut mover = PageMover::default();
        let report = mover.apply(
            &mut m,
            &Placement {
                tier1_pages: vec![key(4)],
            },
        );
        assert_eq!(report.promoted, 1);
        assert_eq!(report.demoted, 2, "tier1→tier2 and tier2→tier3 hops");
        assert_eq!(tier_of_page(&m, 1, Vpn(4)), Some(Tier::Tier1));
        // Coldest tier-1 resident landed in tier 2; coldest tier-2
        // resident landed in tier 3.
        assert_eq!(tier_of_page(&m, 1, Vpn(0)), Some(Tier::Tier2));
        assert_eq!(tier_of_page(&m, 1, Vpn(2)), Some(Tier::Tier3));
    }

    fn key_of(pid: Pid, vpn: u64) -> u64 {
        PageKey { pid, vpn: Vpn(vpn) }.pack()
    }

    /// Two tenants: pid 1 owns tier 1, pid 2 sits in tier 2.
    fn two_tenant_machine() -> Machine {
        let mut m = machine(2, 16);
        m.add_process(2);
        touch_n(&mut m, 2); // pid 1: vpns 0,1 -> tier 1 (now full)
        for i in 0..2 {
            m.touch(0, 2, VirtAddr(i * PAGE_SIZE)); // pid 2: tier 2
        }
        m
    }

    #[test]
    fn per_pid_attribution_splits_multi_tenant_batches() {
        let mut m = two_tenant_machine();
        let mut mover = PageMover::default();
        let report = mover.apply(
            &mut m,
            &Placement {
                tier1_pages: vec![key_of(2, 0), key_of(2, 1)],
            },
        );
        assert_eq!(report.promoted, 2);
        assert_eq!(report.demoted, 2);
        // Promotions land on pid 2's account, the displaced victims on
        // pid 1's — the global totals split exactly.
        assert_eq!(
            mover.per_pid.get(&2).copied().unwrap_or_default().promoted,
            2
        );
        assert_eq!(
            mover.per_pid.get(&2).copied().unwrap_or_default().demoted,
            0
        );
        assert_eq!(
            mover.per_pid.get(&1).copied().unwrap_or_default().demoted,
            2
        );
        assert_eq!(
            mover.per_pid.get(&1).copied().unwrap_or_default().promoted,
            0
        );
        let per_pid: u64 = mover.pid_totals().iter().map(|(_, s)| s.promoted).sum();
        assert_eq!(per_pid, mover.totals().promoted);
        assert_eq!(mover.pid_totals().len(), 2, "sorted pid list");
        assert_eq!(
            mover.per_pid.get(&99).copied().unwrap_or_default(),
            PidMoveStats::default()
        );
    }

    #[test]
    fn admission_quota_caps_promotions_per_tenant() {
        let mut m = two_tenant_machine();
        let mut mover = PageMover::default();
        let mut adm = crate::admission::AdmissionControl::new(crate::admission::AdmissionConfig {
            promo_quota: Some(1),
            demo_quota: None,
            burst: 1,
        });
        let report = mover.apply_with_admission(
            &mut m,
            &Placement {
                tier1_pages: vec![key_of(2, 0), key_of(2, 1)],
            },
            Some(&mut adm),
        );
        assert_eq!(report.promoted, 1, "second promotion over quota");
        assert_eq!(report.admit_rejected, 1);
        assert_eq!(adm.take_rejections(), vec![(2, 1)]);
        assert_eq!(mover.totals().admit_rejected, 1);
        // The rejected nomination's page stayed where it was.
        assert_eq!(tier_of_page(&m, 2, Vpn(1)), Some(Tier::Tier2));
    }

    #[test]
    fn demotion_quota_protects_the_victim_tenant() {
        let mut m = two_tenant_machine();
        let mut mover = PageMover::default();
        let mut adm = crate::admission::AdmissionControl::new(crate::admission::AdmissionConfig {
            promo_quota: None,
            demo_quota: Some(1),
            burst: 1,
        });
        let report = mover.apply_with_admission(
            &mut m,
            &Placement {
                tier1_pages: vec![key_of(2, 0), key_of(2, 1)],
            },
            Some(&mut adm),
        );
        // First promotion demotes one pid-1 victim (its only token); the
        // second finds every remaining victim inadmissible and the batch
        // runs out of victims.
        assert_eq!(report.promoted, 1);
        assert_eq!(report.demoted, 1);
        assert_eq!(report.admit_rejected, 1);
        assert_eq!(adm.take_rejections(), vec![(1, 1)]);
        // Pid 1 keeps its remaining tier-1 page.
        let pid1_in_t1 = (0..2)
            .filter(|&v| tier_of_page(&m, 1, Vpn(v)) == Some(Tier::Tier1))
            .count();
        assert_eq!(pid1_in_t1, 1);
    }

    #[test]
    fn unlimited_admission_is_identical_to_no_admission() {
        let mut m1 = two_tenant_machine();
        let mut m2 = two_tenant_machine();
        let placement = Placement {
            tier1_pages: vec![key_of(2, 1), key_of(2, 0)],
        };
        let mut mover1 = PageMover::default();
        let mut mover2 = PageMover::default();
        let mut adm =
            crate::admission::AdmissionControl::new(crate::admission::AdmissionConfig::unlimited());
        let r1 = mover1.apply(&mut m1, &placement);
        let r2 = mover2.apply_with_admission(&mut m2, &placement, Some(&mut adm));
        assert_eq!(r1, r2);
        assert_eq!(adm.total_rejected(), 0);
        for v in 0..2 {
            assert_eq!(tier_of_page(&m1, 1, Vpn(v)), tier_of_page(&m2, 1, Vpn(v)));
            assert_eq!(tier_of_page(&m1, 2, Vpn(v)), tier_of_page(&m2, 2, Vpn(v)));
        }
    }

    #[test]
    fn capacity_saturation_stops_promotion_gracefully() {
        let mut m = machine(2, 16);
        touch_n(&mut m, 6);
        let mut mover = PageMover::default();
        // Nominate 4 pages for a 2-frame tier; only 2 can be resident.
        let report = mover.apply(
            &mut m,
            &Placement {
                tier1_pages: vec![key(2), key(3), key(4), key(5)],
            },
        );
        assert_eq!(report.promoted + report.already_placed, 2);
        assert_eq!(m.frames().free_in(Tier::Tier1), 0);
    }
}
