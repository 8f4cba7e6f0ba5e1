//! Fleet scheduler decision-identity property: under random tenant churn,
//! any worker count must produce exactly the decisions of the serial
//! reference schedule — same migrations, same rankings, same gate flips,
//! same admission rejections.
//!
//! This is the contract that makes the worker pool safe to enable in
//! production: parallelism may only change *when* work units run, never
//! what the daemon decides.

use proptest::prelude::*;

use tmprof_policy::admission::AdmissionConfig;
use tmprof_policy::fleet::{FleetConfig, FleetRunner, FleetTenant};
use tmprof_workloads::fleet::FleetScenario;

/// Build the tenants of a churn scenario as fleet inputs.
fn tenants(n: usize, epochs: u32, seed: u64, ops: u64) -> Vec<FleetTenant> {
    FleetScenario::churn(n, epochs, seed)
        .tenants
        .iter()
        .map(|plan| FleetTenant {
            stream: plan.spawn_stream(),
            ops: plan.ops_plan(epochs, ops),
        })
        .collect()
}

fn admission_strategy() -> impl Strategy<Value = AdmissionConfig> {
    (
        prop::option::of(1u64..8),
        prop::option::of(1u64..8),
        1u64..4,
    )
        .prop_map(|(promo_quota, demo_quota, burst)| AdmissionConfig {
            promo_quota,
            demo_quota,
            burst,
        })
}

proptest! {
    // Each case runs 2 + |workers| whole fleet simulations; keep the case
    // count modest and the machines small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_worker_count_is_decision_identical_to_serial(
        n in 2usize..7,
        epochs in 1u32..4,
        seed in 0u64..1_000_000,
        workers in prop::collection::vec(2usize..9, 1..3),
        scan_budget in prop::option::of(16u64..128),
        admission in admission_strategy(),
    ) {
        let cfg = FleetConfig {
            epochs,
            scan_unit_pte_budget: scan_budget,
            admission,
            ..FleetConfig::default()
        };
        let serial = FleetRunner::new(cfg.with_workers(1), tenants(n, epochs, seed, 6_000)).run();
        for w in workers {
            let par = FleetRunner::new(cfg.with_workers(w), tenants(n, epochs, seed, 6_000)).run();
            prop_assert_eq!(
                serial.decisions(),
                par.decisions(),
                "decisions diverged from serial at {} workers (n={}, epochs={}, seed={})",
                w, n, epochs, seed
            );
            prop_assert_eq!(serial.units_executed(), par.units_executed());
            prop_assert_eq!(serial.total_cost(), par.total_cost());
        }
    }
}
