//! Commands are reached as fn values: a `(command, flag)` table and a
//! `.map(path::to::fn)` argument.
use tmprof_sim::page::Page;

pub fn dispatch(name: &str) -> u64 {
    let (run, _takes_flags): (fn() -> u64, bool) = match name {
        "profile" => (cmd_profile, true),
        _ => (cmd_help, false),
    };
    run()
}

pub fn cmd_profile() -> u64 {
    let pages = vec![Page::default()];
    pages.iter().map(Page::key).sum()
}

pub fn cmd_help() -> u64 {
    0
}
