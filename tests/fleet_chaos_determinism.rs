//! Determinism matrix for fault injection and recovery: a chaos probe —
//! scheduled crashes, stochastic crash/degrade/brownout hazards, full
//! dynamic control plane — must emit an identical report at every thread
//! count, and match a committed golden snapshot.
//!
//! Fault determinism holds by construction: the injection schedule is
//! materialized up front from named `SeedTree` streams (a pure function
//! of seed, plan and fleet shape), fault ops apply in the single-threaded
//! control loop in (epoch, sequence) order, recovery jitter is hashed
//! from (seed, session, attempt), and brownout RTT inflation is hashed
//! per (server, interval, sample) while the data plane is folded per
//! worker, merged exactly. The golden pins the fault ledger — injections by class,
//! downtime epochs, sessions recovered vs lost, fault-attributed SLO
//! damage — to exact values; drift means a model change that must be
//! blessed: `PICTOR_BLESS=1 cargo test --test fleet_chaos_determinism`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use pictor::apps::AppId;
use pictor::core::fleet::{
    ArrivalConfig, AutoscaleConfig, BackpressureConfig, DataPlane, FaultEvent, FaultKind,
    FaultPlan, FirstFit, FleetEngine, FleetReport, FleetSpec, GroupSpec, Hazard, MigrationConfig,
    RecoveryConfig, WorkloadMix,
};
use pictor::hw::GpuModel;
use pictor::render::SystemConfig;

/// The chaos probe: the dynamic-engine probe plus a fault plan that
/// exercises every injection class — a scheduled drain-crash and
/// degradation, plus crash/degrade/brownout hazards hot enough to fire
/// in 24 epochs.
fn probe() -> FleetEngine {
    let base = SystemConfig::turbovnc_stock();
    let mix = WorkloadMix::uniform([AppId::Dota2, AppId::SuperTuxKart, AppId::ZeroAd]);
    let spec = FleetSpec::new(8, mix, Arc::new(FirstFit), 2020).epochs(24);
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
    eng.faults = Some(chaos_plan());
    eng
}

fn chaos_plan() -> FaultPlan {
    FaultPlan {
        scheduled: vec![
            FaultEvent {
                at_epoch: 3,
                server: 0,
                kind: FaultKind::Crash {
                    drain_epochs: 1,
                    restart_after_epochs: Some(2),
                    warmup_epochs: 1,
                },
            },
            FaultEvent {
                at_epoch: 5,
                server: 4,
                kind: FaultKind::GpuDegrade {
                    severity: 0.7,
                    recover_after_epochs: Some(6),
                },
            },
        ],
        hazards: vec![
            Hazard {
                per_server_epoch: 0.02,
                kind: FaultKind::Crash {
                    drain_epochs: 0,
                    restart_after_epochs: Some(2),
                    warmup_epochs: 1,
                },
            },
            Hazard {
                per_server_epoch: 0.03,
                kind: FaultKind::GpuDegrade {
                    severity: 0.5,
                    recover_after_epochs: Some(4),
                },
            },
            Hazard {
                per_server_epoch: 0.04,
                kind: FaultKind::NetBrownout {
                    rtt_factor: 2.5,
                    jitter_ms: 30.0,
                    duration_epochs: 4,
                },
            },
        ],
        recovery: RecoveryConfig {
            base_retry_epochs: 1,
            max_backoff_epochs: 4,
            max_attempts: 4,
            queue_limit: 32,
        },
        ..FaultPlan::default()
    }
}

fn flatten(report: &FleetReport) -> BTreeMap<String, f64> {
    let mut map: BTreeMap<String, f64> = report
        .metrics()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    for (k, v) in report.dynamics.as_ref().expect("chaos probe").metrics() {
        map.insert(format!("dynamics/{k}"), v);
    }
    map
}

#[test]
fn chaos_report_is_identical_across_thread_matrix() {
    let baseline = probe().live().finish(1).0;
    let baseline_map = flatten(&baseline);
    for threads in [2usize, 8] {
        let run = probe().live().finish(threads).0;
        assert_eq!(
            flatten(&run),
            baseline_map,
            "chaos report drifted at threads={threads}"
        );
    }
    // The probe exercises what it claims to pin: every injection class
    // fires and recovery actually runs.
    let fl = baseline
        .dynamics
        .expect("dynamics")
        .faults
        .expect("fault ledger");
    assert!(fl.crashes > 0, "no crashes injected");
    assert!(fl.gpu_degrades > 0, "no degradations injected");
    assert!(fl.brownouts > 0, "no brownouts injected");
    assert!(fl.orphaned > 0, "crashes must orphan residents");
    assert!(fl.recovered > 0, "orphans must recover somewhere");
    assert!(fl.downtime_epochs > 0);
    assert_eq!(fl.orphaned + fl.evicted, fl.recovered + fl.lost);
}

// -- golden snapshot (same harness shape as fleet_engine_determinism) ------

const REL_TOL: f64 = 1e-6;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_chaos.json")
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
fn chaos_engine_matches_golden() {
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
        "fleet chaos drift:\n  {}\n(PICTOR_BLESS=1 cargo test --test fleet_chaos_determinism to accept)",
        drifts.join("\n  ")
    );
}
