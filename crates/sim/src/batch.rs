//! Batched execution: quantum-granular op execution for [`Machine`].
//!
//! [`Machine::exec_batch`] executes a whole scheduling quantum for one
//! process on one core. It runs the same per-op code as
//! [`Machine::exec_op`] — there is one op-execution path — so a quantum is
//! bit-identical to the equivalent `exec_op` loop by construction (the
//! property tests in `tests/batch_props.rs` check it across scans,
//! shootdowns, migrations and epochs). What a quantum saves is per-quantum
//! work:
//!
//! 1. **Hoisted lookups.** The process-table index is resolved once per
//!    quantum instead of once per op.
//! 2. **Quantum-granular metrics.** `sim.batch_ops` and `sim.memo_hits`
//!    are added once per quantum; nothing touches the metrics registry
//!    per op.
//!
//! The per-core [`TranslateMemo`] lives here too. It is the first step of
//! every translation (`Machine::translate`), for `exec_op` and `exec_batch`
//! alike: a small direct-mapped table mapping (`pid`, `vpn`) to the L1 DTLB
//! slot that cached the translation on the last walk or L2 promotion. A
//! memo hit skips the full associative TLB probe and performs exactly the
//! state change of a reference L1 hit ([`crate::tlb::Tlb::fast_rehit`]).
//! Hints are *verified on use* against the live TLB slot — the memo can
//! never serve a stale translation, only waste a probe — and are also
//! dropped on every shootdown, migration, A-bit scan and epoch advance.
//! Anything `fast_rehit` cannot replay (huge-page regimes, a store through
//! a clean entry) takes the full TLB lookup instead.

use crate::addr::Vpn;
use crate::machine::{Machine, WorkOp};
use crate::tlb::Pid;
use tmprof_obs::metrics::Metric;

/// Memo capacity. Power of two; sized well past the whole TLB (L1 + L2)
/// so pages of a hot working set rarely alias the surrounding cold
/// stream. 2048 slots × 24 B = 48 KiB per core.
const MEMO_SLOTS: usize = 2048;

#[derive(Clone, Copy)]
struct MemoSlot {
    pid: Pid,
    /// Generation the hint was recorded in; stale generations are misses.
    gen: u32,
    vpn: Vpn,
    l1_slot: u32,
}

/// Per-core software translation memo: (`pid`, `vpn`) → L1 DTLB slot hint.
///
/// Purely a performance hint. Every probe result is re-verified against the
/// actual TLB slot before use, so a stale hint (or a generation-counter
/// wrap) costs one wasted comparison, never a wrong translation.
pub(crate) struct TranslateMemo {
    gen: u32,
    slots: Vec<MemoSlot>,
    /// Translations served through the memo since the machine was built
    /// (`exec_batch` folds its quantum's share into `sim.memo_hits`).
    pub(crate) hits: u64,
}

impl TranslateMemo {
    pub(crate) fn new() -> Self {
        Self {
            gen: 1,
            slots: vec![
                MemoSlot {
                    pid: 0,
                    gen: 0,
                    vpn: Vpn(0),
                    l1_slot: 0,
                };
                MEMO_SLOTS
            ],
            hits: 0,
        }
    }

    #[inline]
    fn index(pid: Pid, vpn: Vpn) -> usize {
        // Same PID mixing as the TLB's set function, for the same reason.
        ((vpn.0 ^ (pid as u64).wrapping_mul(0x9E37_79B9)) as usize) & (MEMO_SLOTS - 1)
    }

    /// L1 slot hint for (`pid`, `vpn`), if one was recorded this generation.
    #[inline]
    // tmprof-lint: allow(panic-reachability) — Self::index masks the slot with MEMO_SLOTS - 1
    pub(crate) fn probe(&self, pid: Pid, vpn: Vpn) -> Option<usize> {
        let s = &self.slots[Self::index(pid, vpn)];
        (s.gen == self.gen && s.pid == pid && s.vpn == vpn).then_some(s.l1_slot as usize)
    }

    /// Record that (`pid`, `vpn`) now lives in L1 slot `l1_slot`.
    #[inline]
    // tmprof-lint: allow(panic-reachability) — Self::index masks the slot with MEMO_SLOTS - 1
    pub(crate) fn remember(&mut self, pid: Pid, vpn: Vpn, l1_slot: usize) {
        self.slots[Self::index(pid, vpn)] = MemoSlot {
            pid,
            gen: self.gen,
            vpn,
            l1_slot: l1_slot as u32,
        };
    }

    /// Drop every hint in O(1) by advancing the generation.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.gen = self.gen.wrapping_add(1);
    }
}

impl Machine {
    /// Execute a quantum of `ops` for `pid` on `core`.
    ///
    /// Exactly `for &op in ops { machine.exec_op(core, pid, op) }`, with
    /// the process lookup hoisted out of the loop and the quantum's metrics
    /// added once. See the module docs.
    // tmprof-lint: allow(panic-reachability) — core ids come from the scheduler contract: core < cores.len()
    pub fn exec_batch(&mut self, core: usize, pid: Pid, ops: &[WorkOp]) {
        let proc_idx = self.proc_idx(pid);
        let hits_before = self.cores[core].memo.hits;
        for &op in ops {
            self.exec_at(core, proc_idx, pid, op);
        }
        let memo_hits = self.cores[core].memo.hits - hits_before;
        tmprof_obs::metrics::add(Metric::SimBatchOps, ops.len() as u64);
        tmprof_obs::metrics::add(Metric::SimMemoHits, memo_hits);
    }
}
