//! Page-Modification Logging (PML) hardware model.
//!
//! Intel PML automates D-bit collection: while active, "each write that sets
//! a D-bit also generates an entry in an in-memory log with the physical
//! address of the write (aligned to 4 KB). When the log is full, a
//! notification to the system software is generated" (§II-B). The paper
//! focuses on A-bit/trace profiling but lists PML as part of the monitoring
//! landscape; we model it so write-heavy policies (and the CLOCK-DWF-style
//! ablation) have a realistic dirty-page source.

use crate::addr::Pfn;

/// Architectural PML log size: 512 entries (one 4 KiB page of 8-byte GPAs).
pub const PML_LOG_ENTRIES: usize = 512;

/// Per-core PML state.
pub struct PmlEngine {
    enabled: bool,
    log: Vec<Pfn>,
    /// Number of full-log notifications raised (each costs a VM exit).
    notifications: u64,
    /// Entries lost because software had not drained a full log.
    lost: u64,
}

impl PmlEngine {
    /// New, disabled engine.
    pub fn new() -> Self {
        Self {
            enabled: false,
            log: Vec::new(),
            notifications: 0,
            lost: 0,
        }
    }

    /// Turn logging on/off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Hardware hook: a write just transitioned a PTE's D bit from 0 to 1.
    /// Returns true if this entry filled the log (notification raised).
    pub fn record_dirty(&mut self, pfn: Pfn) -> bool {
        if !self.enabled {
            return false;
        }
        if self.log.len() >= PML_LOG_ENTRIES {
            self.lost += 1;
            return false;
        }
        self.log.push(pfn);
        if self.log.len() == PML_LOG_ENTRIES {
            self.notifications += 1;
            true
        } else {
            false
        }
    }

    /// Software drain of the log.
    pub fn drain(&mut self) -> Vec<Pfn> {
        std::mem::take(&mut self.log)
    }

    /// Full-log notifications raised so far.
    pub fn notifications(&self) -> u64 {
        self.notifications
    }

    /// Entries dropped on an un-drained full log.
    pub fn lost(&self) -> u64 {
        self.lost
    }
}

impl Default for PmlEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut pml = PmlEngine::new();
        assert!(!pml.record_dirty(Pfn(1)));
        assert_eq!(pml.log.len(), 0);
    }

    #[test]
    fn records_until_full_then_notifies() {
        let mut pml = PmlEngine::new();
        pml.set_enabled(true);
        for i in 0..PML_LOG_ENTRIES - 1 {
            assert!(!pml.record_dirty(Pfn(i as u64)));
        }
        assert!(
            pml.record_dirty(Pfn(999)),
            "512th entry raises notification"
        );
        assert_eq!(pml.notifications(), 1);
        // Further writes are lost until drained.
        assert!(!pml.record_dirty(Pfn(1000)));
        assert_eq!(pml.lost(), 1);
        let drained = pml.drain();
        assert_eq!(drained.len(), PML_LOG_ENTRIES);
        assert_eq!(pml.log.len(), 0);
        assert!(!pml.record_dirty(Pfn(1)));
        assert_eq!(pml.log.len(), 1);
    }
}
