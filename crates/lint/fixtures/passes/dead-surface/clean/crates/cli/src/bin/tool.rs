//! The only production root: a bin that calls its library through the
//! crate root, the way `tmpctl` calls `tmprof_cli::dispatch`.
fn main() {
    let _ = tmprof_cli::dispatch("profile");
}
