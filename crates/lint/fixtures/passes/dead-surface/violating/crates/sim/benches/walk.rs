//! Bench code is not a production root.
fn main() {
    let _ = tmprof_sim::page::bench_only();
}
