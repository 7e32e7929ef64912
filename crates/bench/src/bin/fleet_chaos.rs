//! Fleet engine under fault injection: the same heterogeneous fleet as
//! `fleet_scale`, but with a chaos plan live — scheduled drain-crashes,
//! stochastic crash/degrade/brownout hazards, and the recovery queue
//! re-placing orphaned sessions. A fault-free twin of the identical
//! configuration runs alongside so the report can price the damage:
//! goodput retained under chaos, recovery latency, downtime, and the
//! share of RTT violations attributable to injected brownouts.
//!
//! Default sizing is a small smoke fleet scaled by `PICTOR_SECS` (the CI
//! chaos-smoke runs it at 1); `--full` runs the headline configuration —
//! 600 servers in four GPU groups over 900 epochs — that produces the
//! committed `BENCH_08.json`. `--out PATH` writes the machine-readable
//! result (schema `pictor-fleet-chaos/v1`) to PATH in addition to
//! `PICTOR_REPORT_DIR/fleet_chaos.json`.

use std::sync::Arc;
use std::time::Instant;

use pictor_apps::AppId;
use pictor_bench::{banner, master_seed, measured_secs};
use pictor_core::fleet::{
    ArrivalConfig, AutoscaleConfig, BackpressureConfig, DataPlane, FaultEvent, FaultKind,
    FaultPlan, FaultStats, FirstFit, FleetEngine, FleetReport, FleetSpec, GroupSpec, Hazard,
    MigrationConfig, RecoveryConfig, WorkloadMix,
};
use pictor_core::suite::default_threads;
use pictor_hw::GpuModel;
use pictor_render::SystemConfig;

/// The four GPU groups of the fleet, lowest to highest throughput.
const GPUS: [GpuModel; 4] = [
    GpuModel::Gtx1060,
    GpuModel::TeslaT4,
    GpuModel::Rtx2080Ti,
    GpuModel::Rtx3090,
];

/// The chaos plan, scale-free by construction: hazards are per-server
/// per-epoch probabilities, so the injection *rate* tracks fleet size and
/// horizon, and the two scheduled faults hit fixed early servers that
/// exist at every sizing.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        scheduled: vec![
            FaultEvent {
                at_epoch: 4,
                server: 0,
                kind: FaultKind::Crash {
                    drain_epochs: 1,
                    restart_after_epochs: Some(3),
                    warmup_epochs: 2,
                },
            },
            FaultEvent {
                at_epoch: 6,
                server: 1,
                kind: FaultKind::GpuDegrade {
                    severity: 0.6,
                    recover_after_epochs: Some(8),
                },
            },
        ],
        hazards: vec![
            Hazard {
                per_server_epoch: 0.002,
                kind: FaultKind::Crash {
                    drain_epochs: 0,
                    restart_after_epochs: Some(3),
                    warmup_epochs: 1,
                },
            },
            Hazard {
                per_server_epoch: 0.003,
                kind: FaultKind::GpuDegrade {
                    severity: 0.5,
                    recover_after_epochs: Some(6),
                },
            },
            Hazard {
                per_server_epoch: 0.004,
                kind: FaultKind::NetBrownout {
                    rtt_factor: 2.0,
                    jitter_ms: 25.0,
                    duration_epochs: 4,
                },
            },
        ],
        recovery: RecoveryConfig::default(),
        ..FaultPlan::default()
    }
}

fn engine(per_group: usize, epochs: u64, faults: Option<FaultPlan>) -> FleetEngine {
    let base = SystemConfig::turbovnc_stock();
    let mix = WorkloadMix::uniform([AppId::Dota2, AppId::SuperTuxKart, AppId::ZeroAd]);
    let servers = per_group * GPUS.len();
    // Slightly below fleet_scale's oversubscription: open demand wants
    // ~100% of the fleet, so faults bite into a loaded system but crash
    // orphans still have a fighting chance at re-placement.
    let arrivals = ArrivalConfig {
        label: "chaos".into(),
        open_rate_per_sec: 0.5,
        closed_clients: 1,
        mean_session_secs: 8.0,
        mean_think_secs: 6.0,
    };
    let spec = FleetSpec::new(servers, mix, Arc::new(FirstFit), master_seed()).epochs(epochs);
    let mut eng = FleetEngine::from_spec(&spec);
    eng.groups = GPUS
        .iter()
        .map(|&gpu| GroupSpec::with_gpu(per_group, &base, gpu))
        .collect();
    eng.arrivals = arrivals;
    eng.data_plane = DataPlane::Surrogate;
    eng.autoscale = Some(AutoscaleConfig {
        eval_every_epochs: 2,
        min_active_per_group: (per_group / 3).max(1),
        ..AutoscaleConfig::steady()
    });
    eng.migration = Some(MigrationConfig::contention_relief());
    // Wider lobby than fleet_scale: orphaned sessions re-enter placement
    // through this queue, and a queue pinned at its limit by ordinary
    // oversubscription would starve recovery into pure loss.
    eng.backpressure = Some(BackpressureConfig {
        queue_limit: (servers / 2).max(16),
        retry_after_epochs: 1,
    });
    eng.faults = faults;
    eng
}

fn to_json(
    chaos: &FleetReport,
    plain: &FleetReport,
    eng: &FleetEngine,
    full: bool,
    wall_ns: u128,
) -> String {
    let dynamics = chaos.dynamics.as_ref().expect("chaos engine is dynamic");
    let fl = dynamics.faults.as_ref().expect("fault ledger present");
    let goodput = chaos.session_epochs as f64 / plain.session_epochs.max(1) as f64;
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"pictor-fleet-chaos/v1\",\n");
    out.push_str(&format!("  \"quick\": {},\n", !full));
    out.push_str(&format!("  \"servers\": {},\n", chaos.servers));
    out.push_str(&format!("  \"groups\": {},\n", eng.groups.len()));
    out.push_str(&format!("  \"epochs\": {},\n", chaos.epochs));
    out.push_str(&format!("  \"seed\": {},\n", chaos.seed));
    out.push_str(&format!("  \"arrivals_offered\": {},\n", chaos.offered));
    out.push_str(&format!("  \"admitted\": {},\n", chaos.admitted));
    out.push_str(&format!("  \"rejected\": {},\n", chaos.rejected));
    out.push_str(&format!(
        "  \"session_epochs\": {},\n",
        chaos.session_epochs
    ));
    out.push_str(&format!(
        "  \"session_epochs_fault_free\": {},\n",
        plain.session_epochs
    ));
    out.push_str(&format!("  \"goodput_retained\": {goodput:.6},\n"));
    out.push_str(&format!("  \"utilization\": {},\n", chaos.utilization));
    out.push_str(&format!("  \"rtt_p99_ms\": {},\n", chaos.rtt.p99()));
    out.push_str(&format!(
        "  \"rtt_p99_ms_fault_free\": {},\n",
        plain.rtt.p99()
    ));
    out.push_str(&format!("  \"fps_p50\": {},\n", chaos.fps.p50()));
    for (key, value) in dynamics.metrics() {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str(&format!(
        "  \"recovery_mean_epochs\": {},\n",
        fl.mean_recovery_epochs()
    ));
    out.push_str(&format!("  \"wall_ns\": {wall_ns},\n"));
    out.push_str(&format!(
        "  \"session_epochs_per_wall_second\": {:.1}\n",
        chaos.session_epochs as f64 / (wall_ns as f64 / 1e9)
    ));
    out.push_str("}\n");
    out
}

fn print_ledger(fl: &FaultStats) {
    println!(
        "injections:   {} crashes, {} degradations, {} brownouts ({} skipped on non-serving)",
        fl.crashes, fl.gpu_degrades, fl.brownouts, fl.skipped
    );
    println!(
        "health:       {} down + {} warming + {} draining server-epochs",
        fl.downtime_epochs, fl.warming_epochs, fl.draining_epochs
    );
    println!(
        "recovery:     {} orphaned + {} evicted -> {} recovered + {} lost ({} retries, mean {:.1} epochs to re-place)",
        fl.orphaned,
        fl.evicted,
        fl.recovered,
        fl.lost,
        fl.recovery_retries,
        fl.mean_recovery_epochs()
    );
    println!(
        "slo damage:   {} RTT violations attributable to brownouts",
        fl.fault_rtt_violations
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a path").clone());
    // Full: the headline chaos fleet. Quick: a 40-server slice whose
    // horizon scales with PICTOR_SECS so the CI smoke stays fast.
    let (per_group, epochs) = if full {
        (150, 900)
    } else {
        (10, (60 * measured_secs()).clamp(40, 400))
    };
    banner("Fleet engine under chaos: fault injection, recovery, goodput");
    let chaos_eng = engine(per_group, epochs, Some(chaos_plan()));
    println!(
        "fleet: {} servers in {} GPU groups, {} epochs, {} threads; fault-free twin alongside",
        chaos_eng.total_servers(),
        chaos_eng.groups.len(),
        epochs,
        default_threads(),
    );
    let start = Instant::now();
    let chaos = chaos_eng.live().finish(default_threads()).0;
    let wall_ns = start.elapsed().as_nanos();
    let plain = engine(per_group, epochs, None)
        .live()
        .finish(default_threads())
        .0;

    assert!(chaos.non_finite_paths().is_empty(), "non-finite metrics");
    let dynamics = chaos.dynamics.as_ref().expect("dynamic engine");
    let fl = dynamics.faults.as_ref().expect("fault ledger");
    // The ledger identities the property suite pins, re-checked on the
    // benchmark configuration itself.
    assert_eq!(
        chaos.offered,
        chaos.admitted + chaos.rejected + dynamics.backpressure.as_ref().map_or(0, |b| b.queued)
    );
    assert_eq!(fl.orphaned + fl.evicted, fl.recovered + fl.lost);
    if full {
        assert!(chaos.servers >= 600, "full run must span >= 600 servers");
        assert!(fl.crashes > 0 && fl.gpu_degrades > 0 && fl.brownouts > 0);
        assert!(fl.recovered > 0, "full run must recover some orphans");
    }

    let json = to_json(&chaos, &plain, &chaos_eng, full, wall_ns);
    if let Ok(dir) = std::env::var("PICTOR_REPORT_DIR") {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir).expect("create PICTOR_REPORT_DIR");
        let path = dir.join("fleet_chaos.json");
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    }
    if let Some(path) = out_path {
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    }

    print_ledger(fl);
    println!(
        "goodput:      {} session-epochs under chaos vs {} fault-free ({:.1}% retained)",
        chaos.session_epochs,
        plain.session_epochs,
        100.0 * chaos.session_epochs as f64 / plain.session_epochs.max(1) as f64,
    );
    println!(
        "tails:        RTT p99 {:.1} ms (vs {:.1} fault-free), FPS p50 {:.1}, utilization {:.1}%",
        chaos.rtt.p99(),
        plain.rtt.p99(),
        chaos.fps.p50(),
        100.0 * chaos.utilization,
    );
    println!(
        "wall:         {:.2} s chaos run -> {:.0} session-epochs/s",
        wall_ns as f64 / 1e9,
        chaos.session_epochs as f64 / (wall_ns as f64 / 1e9),
    );
}
