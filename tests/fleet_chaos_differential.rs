//! Differential proof obligation for the fault-injection subsystem: an
//! **empty** [`FaultPlan`] must be a byte-level no-op. The engine
//! normalizes an empty plan to `None` before materialization, so every
//! fault branch stays cold — same RNG draw sequence, same admission
//! order, same occupancy carve, same reduction stream. Any divergence
//! (an extra draw, a reordered job, a widened metric set) lands here as
//! a byte diff in the suite JSON/CSV/summary.
//!
//! The sweep-grid ride-along proves the same on static fleets: every
//! `fleet_sweep` cell run with an empty plan emits the bytes the grid
//! emits with no plan at all.

use std::collections::BTreeMap;
use std::sync::Arc;

use pictor::apps::AppId;
use pictor::core::fleet::{
    ArrivalConfig, AutoscaleConfig, BackpressureConfig, DataPlane, FaultPlan, FirstFit,
    FleetEngine, FleetReport, FleetSpec, FleetSuiteReport, GroupSpec, MigrationConfig, WorkloadMix,
};
use pictor::hw::GpuModel;
use pictor::render::SystemConfig;
use pictor_bench::figures::fleet;

/// A dynamic probe with every control-plane feature on — the hardest
/// configuration for an "empty plan changes nothing" claim.
fn dynamic_probe(seed: u64, faults: Option<FaultPlan>) -> FleetEngine {
    let base = SystemConfig::turbovnc_stock();
    let mix = WorkloadMix::uniform([AppId::Dota2, AppId::SuperTuxKart, AppId::ZeroAd]);
    let spec = FleetSpec::new(8, mix, Arc::new(FirstFit), seed).epochs(16);
    let mut eng = FleetEngine::from_spec(&spec);
    eng.groups = vec![
        GroupSpec::with_gpu(4, &base, GpuModel::Gtx1080Ti),
        GroupSpec::with_gpu(4, &base, GpuModel::TeslaT4),
    ];
    eng.arrivals = ArrivalConfig::saturating();
    eng.data_plane = DataPlane::Surrogate;
    eng.autoscale = Some(AutoscaleConfig {
        eval_every_epochs: 2,
        ..AutoscaleConfig::steady()
    });
    eng.migration = Some(MigrationConfig::contention_relief());
    eng.backpressure = Some(BackpressureConfig::lobby());
    eng.faults = faults;
    eng
}

fn flatten(report: &FleetReport) -> BTreeMap<String, f64> {
    let mut map: BTreeMap<String, f64> = report
        .metrics()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    if let Some(dynamics) = report.dynamics.as_ref() {
        for (k, v) in dynamics.metrics() {
            map.insert(format!("dynamics/{k}"), v);
        }
    }
    map
}

#[test]
fn empty_fault_plan_is_byte_identical_on_dynamic_cells() {
    for seed in [7u64, 2020, 40404] {
        let plain: Vec<FleetReport> = (0..2)
            .map(|i| dynamic_probe(seed + i, None).live().finish(4).0)
            .collect();
        let empty: Vec<FleetReport> = (0..2)
            .map(|i| {
                dynamic_probe(seed + i, Some(FaultPlan::default()))
                    .live()
                    .finish(4)
                    .0
            })
            .collect();
        for (a, b) in plain.iter().zip(&empty) {
            assert_eq!(flatten(a), flatten(b), "seed {seed}: metrics drifted");
        }
        let a = FleetSuiteReport::from_cells("chaos-diff", seed, plain);
        let b = FleetSuiteReport::from_cells("chaos-diff", seed, empty);
        assert_eq!(a.to_json(), b.to_json(), "seed {seed}: JSON bytes drifted");
        assert_eq!(a.to_csv(), b.to_csv(), "seed {seed}: CSV bytes drifted");
        assert_eq!(
            a.summary_table(),
            b.summary_table(),
            "seed {seed}: summary drifted"
        );
    }
}

#[test]
fn empty_fault_plan_is_byte_identical_on_the_sweep_grid() {
    let grid = fleet::sized_grid(&[8], 2, 2020);
    let plain = grid.run_with_threads(4);
    let cells: Vec<_> = grid
        .specs()
        .iter()
        .map(|spec| {
            let mut eng = FleetEngine::from_spec(spec);
            eng.faults = Some(FaultPlan::default());
            eng.live().finish(4).0
        })
        .collect();
    let empty = FleetSuiteReport::from_cells(grid.name(), grid.seed(), cells);
    assert_eq!(plain.to_json(), empty.to_json());
    assert_eq!(plain.to_csv(), empty.to_csv());
    assert_eq!(plain.summary_table(), empty.summary_table());
    assert!(empty.cells().iter().all(|c| c.admitted > 0));
}
