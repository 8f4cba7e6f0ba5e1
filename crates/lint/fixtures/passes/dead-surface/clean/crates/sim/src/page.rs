//! Clean twin: the unit-test helper lives in the test module, the unused
//! fn is gone, and the fns a bench and an integration test need say so.
pub struct Page {
    pub vpn: u64,
}

impl Page {
    pub fn build(vpn: u64) -> Self {
        Page { vpn }
    }

    pub fn key(&self) -> u64 {
        self.vpn
    }
}

/// A trait method is a root: dispatch reaches it without naming it, and
/// it keeps `Page::build` live.
impl Default for Page {
    fn default() -> Self {
        Page::build(0)
    }
}

// tmprof-lint: allow(dead-surface) — the workload of the walk bench
pub fn bench_only() -> u64 {
    one()
}

/// Reached only through the annotated `bench_only`, so kept with it.
fn one() -> u64 {
    1
}

// tmprof-lint: allow(dead-surface) — the value tests/page.rs pins
pub fn integration_only() -> u64 {
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Page {
        fn doubled(&self) -> u64 {
            self.vpn * 2
        }
    }

    #[test]
    fn doubles() {
        assert_eq!(Page::build(2).doubled(), 4);
    }
}
