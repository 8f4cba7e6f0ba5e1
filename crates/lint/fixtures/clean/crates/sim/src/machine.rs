//! Clean twin of the `panic-reachability` fixture: the recoverable case
//! returns a typed error; the genuine invariant carries an annotation.
pub enum TranslateError {
    NotMapped,
}

pub fn translate(slot: Option<u64>) -> Result<u64, TranslateError> {
    let pfn = slot.ok_or(TranslateError::NotMapped)?;
    if pfn == u64::MAX {
        // tmprof-lint: allow(panic-reachability) — MAX is the poison pfn; reaching it means the walker corrupted state
        panic!("translation did not converge");
    }
    Ok(pfn)
}

/// Hot entry: the same reachability as the violating twin, but everything
/// below is typed or annotated.
pub fn exec_batch(slot: Option<u64>) -> u64 {
    match translate(slot) {
        Ok(pfn) => pfn,
        Err(_) => 0,
    }
}
