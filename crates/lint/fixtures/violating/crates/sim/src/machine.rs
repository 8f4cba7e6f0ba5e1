//! Fixture: `panic-reachability` — bare unwrap/panic reachable from the
//! `exec_batch` hot entry, with no invariant annotation.
pub fn translate(slot: Option<u64>) -> u64 {
    let pfn = slot.unwrap();
    if pfn == u64::MAX {
        panic!("translation did not converge");
    }
    pfn
}

/// Hot entry: reaches `translate` above.
pub fn exec_batch(slot: Option<u64>) -> u64 {
    translate(slot)
}

#[cfg(test)]
mod tests {
    // unwrap in test code is fine: the rule skips #[cfg(test)] spans.
    #[test]
    fn test_unwrap_is_exempt() {
        assert_eq!(Some(7u64).unwrap(), 7);
    }
}
