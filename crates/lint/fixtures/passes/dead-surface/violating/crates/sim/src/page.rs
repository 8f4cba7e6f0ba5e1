//! Violating: four library fns no production root reaches, and an allow
//! on a fn that production reaches anyway.
pub struct Page {
    pub vpn: u64,
}

impl Page {
    pub fn build(vpn: u64) -> Self {
        Page { vpn }
    }

    // tmprof-lint: allow(dead-surface) — the packed key the property tests compare
    pub fn key(&self) -> u64 {
        self.vpn
    }

    /// Reached only from this file's unit tests.
    pub fn doubled(&self) -> u64 {
        self.vpn * 2
    }
}

/// A trait method is a root: dispatch reaches it without naming it, and
/// it keeps `Page::build` live.
impl Default for Page {
    fn default() -> Self {
        Page::build(0)
    }
}

/// Reached only from `benches/`.
pub fn bench_only() -> u64 {
    1
}

/// Reached only from `tests/`.
pub fn integration_only() -> u64 {
    2
}

/// Reached from nothing at all.
pub fn never_called() -> u64 {
    3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles() {
        assert_eq!(Page::build(2).doubled(), 4);
    }
}
