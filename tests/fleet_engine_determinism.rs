//! Determinism matrix for the fleet engine: one dynamic, heterogeneous
//! probe fleet must emit an identical report at every thread count, and
//! match a committed golden snapshot.
//!
//! Thread invariance holds because the control plane runs on one thread
//! and job results are reduced in (server, epoch) order regardless of
//! completion order. The golden pins the whole dynamic control plane —
//! autoscale growth, migration moves, parked arrivals — to exact values;
//! drift means a model change that must be blessed:
//! `PICTOR_BLESS=1 cargo test --test fleet_engine_determinism`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use pictor::apps::AppId;
use pictor::core::fleet::{
    ArrivalConfig, AutoscaleConfig, BackpressureConfig, DataPlane, FirstFit, FleetEngine,
    FleetReport, FleetSpec, GroupSpec, MigrationConfig, WorkloadMix,
};
use pictor::hw::GpuModel;
use pictor::render::SystemConfig;

/// The probe: two GPU groups, saturating churn, all three dynamic
/// policies on, surrogate data plane. Small enough to run six times in a
/// tier-1 test, busy enough that autoscaling grows, migration moves and
/// backpressure parks.
fn probe() -> FleetEngine {
    let base = SystemConfig::turbovnc_stock();
    let mix = WorkloadMix::uniform([AppId::Dota2, AppId::SuperTuxKart, AppId::ZeroAd]);
    let spec = FleetSpec::new(8, mix, Arc::new(FirstFit), 2020).epochs(16);
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
    eng
}

/// Flattens a report (core metrics + dynamics sections) for comparison.
fn flatten(report: &FleetReport) -> BTreeMap<String, f64> {
    let mut map: BTreeMap<String, f64> = report
        .metrics()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    for (k, v) in report.dynamics.as_ref().expect("dynamic probe").metrics() {
        map.insert(format!("dynamics/{k}"), v);
    }
    map
}

#[test]
fn report_is_identical_across_thread_matrix() {
    let baseline = probe().live().finish(1).0;
    let baseline_map = flatten(&baseline);
    for threads in [2usize, 8] {
        let run = probe().live().finish(threads).0;
        assert_eq!(
            flatten(&run),
            baseline_map,
            "report drifted at threads={threads}"
        );
    }
    // The probe exercises what it claims to pin.
    let dyn_ = baseline.dynamics.expect("dynamics");
    assert!(dyn_.autoscale.expect("autoscale").grow_events > 0);
    assert!(dyn_.backpressure.expect("backpressure").queued > 0);
    assert!(baseline.admitted > 0);
}

// -- golden snapshot (same harness shape as golden_figures.rs) -------------

const REL_TOL: f64 = 1e-6;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_engine.json")
}

fn to_json(map: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in map.iter().enumerate() {
        let comma = if i + 1 < map.len() { "," } else { "" };
        out.push_str(&format!("  \"{k}\": {v}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

fn parse_json(body: &str) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((key, value)) = rest.split_once("\": ") else {
            continue;
        };
        let value: f64 = value
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("bad golden number for {key:?}: {e}"));
        map.insert(key.to_string(), value);
    }
    map
}

#[test]
fn dynamic_engine_matches_golden() {
    let actual = flatten(&probe().live().finish(4).0);
    let path = golden_path();
    if std::env::var("PICTOR_BLESS").is_ok() {
        std::fs::write(&path, to_json(&actual)).expect("write golden");
        eprintln!("blessed {} metrics into {path:?}", actual.len());
        return;
    }
    let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {path:?} ({e}); run with PICTOR_BLESS=1 to create it")
    });
    let expected = parse_json(&body);
    assert_eq!(
        expected.keys().collect::<Vec<_>>(),
        actual.keys().collect::<Vec<_>>(),
        "metric set drifted; re-bless if intentional"
    );
    let mut drifts = Vec::new();
    for (key, &want) in &expected {
        let got = actual[key];
        if (got - want).abs() > REL_TOL * want.abs().max(1e-9) {
            drifts.push(format!("{key}: golden {want}, got {got}"));
        }
    }
    assert!(
        drifts.is_empty(),
        "fleet engine drift:\n  {}\n(PICTOR_BLESS=1 cargo test --test fleet_engine_determinism to accept)",
        drifts.join("\n  ")
    );
}
