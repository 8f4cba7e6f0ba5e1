//! Integration tests are not production roots.
#[test]
fn integration() {
    assert_eq!(tmprof_sim::page::integration_only(), 2);
}
