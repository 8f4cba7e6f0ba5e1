//! Clean twin of the word-scan fixture: the per-word loop is pure bit
//! arithmetic (no fallible ops to unwrap), and the one real invariant —
//! a resume bit is only computed for a non-empty remainder — carries an
//! annotated panic.
pub fn truncate_word(live: u64, budget: u64) -> (u64, u32) {
    let mut rest = live;
    for _ in 0..budget.min(u64::from(live.count_ones())) {
        rest &= rest.wrapping_sub(1);
    }
    if rest == 0 {
        // tmprof-lint: allow(panic-reachability) — callers only truncate when the word holds more candidates than budget, so the remainder is non-empty
        panic!("budget exhausted an empty word");
    }
    let resume = rest.trailing_zeros();
    (live & ((1u64 << resume) - 1), resume)
}

pub fn scan_accessed_bounded(live: u64) -> (u64, u32) {
    truncate_word(live, 1)
}
