//! Page-table-entry representation.
//!
//! A [`Pte`] packs a physical frame number plus the architectural flag bits
//! the paper's profiling mechanisms manipulate:
//!
//! * **P** (present) — translation is valid;
//! * **W** (writable) — stores allowed; a store to a clean read-only page
//!   faults (used by the BadgerTrap/emulation write paths);
//! * **A** (accessed) — set by the hardware page-table walker when it loads
//!   the translation; read+cleared by the A-bit profiler;
//! * **D** (dirty) — set on the first store; source of PML events;
//! * **POISON** (reserved bit 51) — BadgerTrap's marker: a hardware walk
//!   that encounters a poisoned PTE raises a protection fault that the
//!   profiler intercepts;
//! * **PROT\_NONE** — the page is unmapped-for-access (AutoNUMA-style and the
//!   emulation framework's slow-page trap).
//!
//! The layout deliberately mirrors x86-64 (bit positions included) so the
//! code reads like the kernel code it substitutes for.

use crate::addr::Pfn;

/// Bit positions, matching x86-64 where a real position exists.
pub mod bits {
    /// Present.
    pub const P: u64 = 1 << 0;
    /// Writable.
    pub const W: u64 = 1 << 1;
    /// Accessed: set by the page-table walker on a translation fill.
    pub const A: u64 = 1 << 5;
    /// Dirty: set on the first store through the translation.
    pub const D: u64 = 1 << 6;
    /// BadgerTrap poison marker (a reserved bit; faults on hardware walk).
    pub const POISON: u64 = 1 << 51;
    /// Software "no access" marker used by fault-based tracking.
    pub const PROT_NONE: u64 = 1 << 62;
    /// Page-size bit: this (level-1) entry maps a 2 MiB huge page.
    pub const PS: u64 = 1 << 7;
}

/// Mask covering the PFN field (bits 12..=50, as on x86-64).
const PFN_MASK: u64 = 0x0007_FFFF_FFFF_F000;

/// A single page-table entry. `Copy` and 8 bytes, like the real thing.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Pte(pub u64);

impl Pte {
    /// An empty (not-present) entry.
    pub const NONE: Pte = Pte(0);

    /// Build a present entry mapping `pfn` with write permission `writable`.
    pub fn new(pfn: Pfn, writable: bool) -> Self {
        let mut raw = (pfn.0 << 12) & PFN_MASK | bits::P;
        if writable {
            raw |= bits::W;
        }
        Pte(raw)
    }

    /// The mapped frame. Meaningless when not present.
    #[inline]
    pub fn pfn(self) -> Pfn {
        Pfn((self.0 & PFN_MASK) >> 12)
    }

    /// Replace the mapped frame, preserving every flag bit (page migration
    /// keeps permissions and software bits intact).
    #[inline]
    pub fn with_pfn(self, pfn: Pfn) -> Self {
        Pte((self.0 & !PFN_MASK) | ((pfn.0 << 12) & PFN_MASK))
    }

    #[inline]
    pub fn present(self) -> bool {
        self.0 & bits::P != 0
    }

    #[inline]
    pub fn writable(self) -> bool {
        self.0 & bits::W != 0
    }

    #[inline]
    pub fn accessed(self) -> bool {
        self.0 & bits::A != 0
    }

    #[inline]
    pub fn dirty(self) -> bool {
        self.0 & bits::D != 0
    }

    #[inline]
    pub fn poisoned(self) -> bool {
        self.0 & bits::POISON != 0
    }

    #[inline]
    pub fn prot_none(self) -> bool {
        self.0 & bits::PROT_NONE != 0
    }

    /// Whether this entry maps a 2 MiB huge page (x86 PS bit).
    #[inline]
    pub fn huge(self) -> bool {
        self.0 & bits::PS != 0
    }

    #[inline]
    pub fn set(&mut self, mask: u64) {
        self.0 |= mask;
    }

    #[inline]
    pub fn clear(&mut self, mask: u64) {
        self.0 &= !mask;
    }

    /// Read-and-clear of the A bit: the `TestClearPageReferenced` primitive
    /// the paper's A-bit driver is built on. Returns the prior value.
    #[inline]
    pub fn test_and_clear_accessed(&mut self) -> bool {
        let was = self.accessed();
        self.clear(bits::A);
        was
    }
}

impl core::fmt::Debug for Pte {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if !self.present() {
            return write!(f, "Pte(none)");
        }
        write!(
            f,
            "Pte({:?}{}{}{}{}{})",
            self.pfn(),
            if self.writable() { " W" } else { "" },
            if self.accessed() { " A" } else { "" },
            if self.dirty() { " D" } else { "" },
            if self.poisoned() { " POISON" } else { "" },
            if self.prot_none() { " PROT_NONE" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Pte {
        /// Whether a hardware walk of this entry traps instead of translating.
        fn faults_on_walk(self) -> bool {
            !self.present() || self.poisoned() || self.prot_none()
        }
    }

    #[test]
    fn new_entry_is_present_clean_unaccessed() {
        let pte = Pte::new(Pfn(0x1234), true);
        assert!(pte.present());
        assert!(pte.writable());
        assert!(!pte.accessed());
        assert!(!pte.dirty());
        assert_eq!(pte.pfn(), Pfn(0x1234));
    }

    #[test]
    fn readonly_entry() {
        let pte = Pte::new(Pfn(1), false);
        assert!(!pte.writable());
    }

    #[test]
    fn pfn_field_isolated_from_flags() {
        let mut pte = Pte::new(Pfn(0x7_FFFF_FFFF), true);
        pte.set(bits::A | bits::D | bits::POISON);
        assert_eq!(pte.pfn(), Pfn(0x7_FFFF_FFFF));
        assert!(pte.accessed() && pte.dirty() && pte.poisoned());
    }

    #[test]
    fn with_pfn_preserves_flags() {
        let mut pte = Pte::new(Pfn(10), true);
        pte.set(bits::A | bits::D);
        let moved = pte.with_pfn(Pfn(99));
        assert_eq!(moved.pfn(), Pfn(99));
        assert!(moved.present() && moved.writable() && moved.accessed() && moved.dirty());
    }

    #[test]
    fn test_and_clear_accessed_reports_prior_state() {
        let mut pte = Pte::new(Pfn(1), true);
        assert!(!pte.test_and_clear_accessed());
        pte.set(bits::A);
        assert!(pte.test_and_clear_accessed());
        assert!(!pte.accessed());
    }

    #[test]
    fn faults_on_walk_conditions() {
        assert!(Pte::NONE.faults_on_walk());
        let mut pte = Pte::new(Pfn(1), true);
        assert!(!pte.faults_on_walk());
        pte.set(bits::POISON);
        assert!(pte.faults_on_walk());
        pte.clear(bits::POISON);
        pte.set(bits::PROT_NONE);
        assert!(pte.faults_on_walk());
    }

    #[test]
    fn ps_bit_marks_huge_mappings() {
        let mut pte = Pte::new(Pfn(512), true);
        assert!(!pte.huge());
        pte.set(bits::PS);
        assert!(pte.huge());
        assert!(pte.present() && pte.writable());
        assert_eq!(pte.pfn(), Pfn(512));
    }

    #[test]
    fn entry_is_eight_bytes() {
        assert_eq!(core::mem::size_of::<Pte>(), 8);
    }
}
