//! Fleet engine at scale: a heterogeneous 1000+-server fleet absorbing a
//! million-plus session arrivals through the online engine, with
//! autoscaling, migration and backpressure all on and the surrogate data
//! plane turning placements into FPS/RTT tails.
//!
//! Default sizing is a small smoke fleet scaled by `PICTOR_SECS` (the CI
//! figure-smoke runs it at 1); `--full` runs the headline configuration —
//! 1200 servers in four GPU groups, 1800 epochs, ≥1M arrivals — that
//! produces the committed `BENCH_07.json`. `--out PATH` writes the
//! machine-readable result (schema `pictor-fleet-scale/v1`) to PATH in
//! addition to `PICTOR_REPORT_DIR/fleet_scale.json`.

use std::sync::Arc;
use std::time::Instant;

use pictor_apps::AppId;
use pictor_bench::{banner, master_seed, measured_secs};
use pictor_core::fleet::{
    ArrivalConfig, AutoscaleConfig, BackpressureConfig, DataPlane, FirstFit, FleetEngine,
    FleetReport, FleetSpec, GroupSpec, MigrationConfig, WorkloadMix,
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

fn engine(per_group: usize, epochs: u64) -> FleetEngine {
    let base = SystemConfig::turbovnc_stock();
    let mix = WorkloadMix::uniform([AppId::Dota2, AppId::SuperTuxKart, AppId::ZeroAd]);
    let servers = per_group * GPUS.len();
    // Oversubscribed on purpose: open demand alone wants ~110% of the
    // fleet's slot-seconds, so admission control, parking and autoscale
    // ramp all carry real load.
    let arrivals = ArrivalConfig {
        label: "scale".into(),
        open_rate_per_sec: 0.55,
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
    eng.backpressure = Some(BackpressureConfig {
        queue_limit: (servers / 8).max(8),
        retry_after_epochs: 1,
    });
    eng
}

fn to_json(report: &FleetReport, eng: &FleetEngine, full: bool, wall_ns: u128) -> String {
    let wall_s = wall_ns as f64 / 1e9;
    let dynamics = report.dynamics.as_ref().expect("dynamic engine");
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"pictor-fleet-scale/v1\",\n");
    out.push_str(&format!("  \"quick\": {},\n", !full));
    out.push_str(&format!("  \"servers\": {},\n", report.servers));
    out.push_str(&format!("  \"groups\": {},\n", eng.groups.len()));
    out.push_str(&format!(
        "  \"slots_per_server\": {},\n",
        report.slots_per_server
    ));
    out.push_str(&format!("  \"epochs\": {},\n", report.epochs));
    out.push_str(&format!("  \"seed\": {},\n", report.seed));
    out.push_str(&format!("  \"arrivals_offered\": {},\n", report.offered));
    out.push_str(&format!("  \"admitted\": {},\n", report.admitted));
    out.push_str(&format!("  \"rejected\": {},\n", report.rejected));
    out.push_str(&format!("  \"peak_sessions\": {},\n", report.peak_sessions));
    out.push_str(&format!(
        "  \"session_epochs\": {},\n",
        report.session_epochs
    ));
    out.push_str(&format!("  \"utilization\": {},\n", report.utilization));
    out.push_str(&format!("  \"rtt_p99_ms\": {},\n", report.rtt.p99()));
    out.push_str(&format!("  \"fps_p50\": {},\n", report.fps.p50()));
    for (key, value) in dynamics.metrics() {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str(&format!("  \"wall_ns\": {wall_ns},\n"));
    out.push_str(&format!(
        "  \"arrivals_per_wall_second\": {:.1},\n",
        report.offered as f64 / wall_s
    ));
    out.push_str(&format!(
        "  \"sessions_simulated_per_wall_second\": {:.1}\n",
        report.admitted as f64 / wall_s
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a path").clone());
    // Full: the headline fleet. Quick: a 120-server slice whose horizon
    // scales with PICTOR_SECS so the CI smoke stays fast.
    let (per_group, epochs) = if full {
        (300, 1800)
    } else {
        (30, (60 * measured_secs()).clamp(30, 600))
    };
    banner("Fleet engine at scale: online event loop, dynamic policies");
    let eng = engine(per_group, epochs);
    println!(
        "fleet: {} servers in {} GPU groups x {} slots, {} epochs, {} threads",
        eng.total_servers(),
        eng.groups.len(),
        eng.slots_per_server,
        epochs,
        default_threads(),
    );
    let start = Instant::now();
    let report = eng.live().finish(default_threads()).0;
    let wall_ns = start.elapsed().as_nanos();

    assert!(report.non_finite_paths().is_empty(), "non-finite metrics");
    if full {
        assert!(
            report.offered >= 1_000_000,
            "full run must offer >= 1M arrivals, got {}",
            report.offered
        );
        assert!(report.servers >= 1000, "full run must span >= 1000 servers");
    }

    let json = to_json(&report, &eng, full, wall_ns);
    if let Ok(dir) = std::env::var("PICTOR_REPORT_DIR") {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir).expect("create PICTOR_REPORT_DIR");
        let path = dir.join("fleet_scale.json");
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    }
    if let Some(path) = out_path {
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    }

    let wall_s = wall_ns as f64 / 1e9;
    let dynamics = report.dynamics.as_ref().expect("dynamic engine");
    println!(
        "arrivals: {} offered, {} admitted, {} rejected (rate {:.1}%), peak {} concurrent",
        report.offered,
        report.admitted,
        report.rejected,
        100.0 * report.rejected as f64 / report.offered.max(1) as f64,
        report.peak_sessions,
    );
    if let Some(a) = &dynamics.autoscale {
        println!(
            "autoscale: {} grows, {} shrinks, {}..{} active servers, {} active slot-epochs",
            a.grow_events,
            a.shrink_events,
            a.min_active_servers,
            a.max_active_servers,
            a.active_slot_epochs
        );
    }
    if let Some(m) = &dynamics.migration {
        println!(
            "migration: {} moves over {} evaluations",
            m.migrations, m.evaluations
        );
    }
    if let Some(b) = &dynamics.backpressure {
        println!(
            "backpressure: {} parked, {} retried, {} expired, {} dropped, peak queue {}",
            b.queued, b.retried, b.expired, b.dropped, b.peak_queue
        );
    }
    println!(
        "tails: FPS p50 {:.1}, RTT p95 {:.1} ms, RTT p99 {:.1} ms, utilization {:.1}%",
        report.fps.p50(),
        report.rtt.p95(),
        report.rtt.p99(),
        100.0 * report.utilization,
    );
    println!(
        "wall: {:.2} s -> {:.0} arrivals/s, {:.0} admitted sessions/s, {:.0} session-epochs/s",
        wall_s,
        report.offered as f64 / wall_s,
        report.admitted as f64 / wall_s,
        report.session_epochs as f64 / wall_s,
    );
}
