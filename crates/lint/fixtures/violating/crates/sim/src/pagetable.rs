//! Fixture: `panic-reachability` in the packed word-scan loop — the
//! budget truncation unwraps mid-word and the resume lookup panics bare,
//! with no invariant annotation on either; both are reachable from the
//! `scan_accessed_bounded` hot entry below.
pub fn truncate_word(live: u64, budget: u64) -> (u64, u32) {
    let mut rest = live;
    for _ in 0..budget {
        rest = rest.checked_sub(1).map(|r| r & rest).unwrap();
    }
    if rest == 0 {
        panic!("budget exhausted an empty word");
    }
    (live & ((1u64 << rest.trailing_zeros()) - 1), rest.trailing_zeros())
}

pub fn scan_accessed_bounded(live: u64) -> (u64, u32) {
    truncate_word(live, 1)
}

#[cfg(test)]
mod tests {
    // unwrap in test code is fine: the rule skips #[cfg(test)] spans.
    #[test]
    fn test_unwrap_is_exempt() {
        assert_eq!(super::truncate_word(0b110, 1).0.checked_add(1).unwrap(), 3);
    }
}
