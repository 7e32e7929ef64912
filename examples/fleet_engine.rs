//! The fleet engine — dynamic operations over a heterogeneous fleet.
//!
//! Where `examples/fleet.rs` sweeps static fleets, this walks the engine's
//! dynamic control plane end to end: two GPU generations behind one
//! first-fit scheduler, utilization-driven autoscaling with warm-up lag,
//! migration off contended servers, and admission backpressure with a
//! bounded retry queue. It runs through `FleetEngine::live()` →
//! `LiveFleet::finish`, prints the operations view (growth, moves, parked
//! arrivals) next to the tenant view (tails, SLOs), then verifies the
//! run's conservation ledger from the audit trace.
//!
//! Run with: `cargo run --release --example fleet_engine`
//! (set `PICTOR_SECS` to change the fleet horizon).

use std::sync::Arc;

use pictor::apps::AppId;
use pictor::core::fleet::{
    ArrivalConfig, AutoscaleConfig, BackpressureConfig, DataPlane, FirstFit, FleetEngine,
    FleetSpec, GroupSpec, MigrationConfig, WorkloadMix,
};
use pictor::hw::GpuModel;
use pictor::render::SystemConfig;

fn main() {
    let secs = std::env::var("PICTOR_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30u64);
    let epochs = (secs * 4).max(8);

    // 1. A mixed-GPU fleet: one group of mid-range cards, one of
    //    flagships, under one scheduler and one arrival stream.
    let base = SystemConfig::turbovnc_stock();
    let mix = WorkloadMix::uniform([AppId::Dota2, AppId::SuperTuxKart, AppId::ZeroAd]);
    let spec = FleetSpec::new(24, mix, Arc::new(FirstFit), 42).epochs(epochs);
    let mut eng = FleetEngine::from_spec(&spec);
    eng.groups = vec![
        GroupSpec::with_gpu(12, &base, GpuModel::TeslaT4),
        GroupSpec::with_gpu(12, &base, GpuModel::Rtx3090),
    ];
    eng.arrivals = ArrivalConfig::saturating();
    eng.data_plane = DataPlane::Surrogate;

    // 2. The dynamic policies: autoscale, migration, backpressure.
    eng.autoscale = Some(AutoscaleConfig {
        eval_every_epochs: 2,
        ..AutoscaleConfig::steady()
    });
    eng.migration = Some(MigrationConfig::contention_relief());
    eng.backpressure = Some(BackpressureConfig::lobby());

    println!(
        "fleet engine: {} servers ({} + {}), {} epochs, saturating churn\n",
        eng.total_servers(),
        eng.groups[0].label,
        eng.groups[1].label,
        epochs
    );
    let (report, audit) = eng.live().finish(pictor::core::suite::default_threads());

    // 3. The operations view: what the dynamic control plane did.
    let dynamics = report.dynamics.as_ref().expect("dynamic run");
    if let Some(a) = &dynamics.autoscale {
        println!(
            "autoscale:    {} grows, {} shrinks, {}..{} servers active, {} active slot-epochs",
            a.grow_events,
            a.shrink_events,
            a.min_active_servers,
            a.max_active_servers,
            a.active_slot_epochs
        );
    }
    if let Some(m) = &dynamics.migration {
        println!(
            "migration:    {} moves over {} boundary evaluations",
            m.migrations, m.evaluations
        );
    }
    if let Some(b) = &dynamics.backpressure {
        println!(
            "backpressure: {} parked, {} retried, {} expired, {} dropped (peak queue {})",
            b.queued, b.retried, b.expired, b.dropped, b.peak_queue
        );
    }

    // 4. The tenant view: admission and tail quality.
    println!(
        "\nadmission:    {} offered -> {} admitted, {} rejected, peak {} concurrent",
        report.offered, report.admitted, report.rejected, report.peak_sessions
    );
    println!(
        "tails:        FPS p50 {:.1} / p95 {:.1}; RTT p95 {:.1} ms / p99 {:.1} ms",
        report.fps.p50(),
        report.fps.p95(),
        report.rtt.p95(),
        report.rtt.p99()
    );
    println!(
        "slo:          {:.2}% RTT violations, {:.2}% FPS violations, utilization {:.1}%",
        100.0 * report.rtt_violations as f64 / report.tracked_inputs.max(1) as f64,
        100.0 * report.fps_violations as f64 / report.session_epochs.max(1) as f64,
        100.0 * report.utilization
    );

    // 5. The ledger: every arrival is accounted for, from the audit trace
    //    the property suite checks exhaustively.
    assert_eq!(
        audit.offered,
        audit.admitted + audit.rejected + audit.queued
    );
    assert_eq!(audit.queued, audit.retried + audit.expired);
    println!(
        "\nledger:       {} offered = {} admitted + {} rejected + {} parked (parked = {} retried + {} expired)",
        audit.offered, audit.admitted, audit.rejected, audit.queued, audit.retried, audit.expired
    );
}
