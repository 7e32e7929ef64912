//! Fault injection and failure recovery in the fleet engine.
//!
//! Where `examples/fleet_engine.rs` shows the dynamic control plane on a
//! healthy fleet, this walks the same engine through deliberate damage: a
//! scheduled drain-and-crash of one server, a GPU that sheds 60% of its
//! memory mid-run, and background crash/degrade/brownout hazards drawn
//! from named seed streams. Crash orphans re-enter placement through the
//! backpressure queue with exponential backoff. The same engine then runs
//! again with its faults taken out, pricing the damage as goodput
//! retained, and the run ends with the two conservation ledgers —
//! admissions and faults — checked from the audit trace. Everything here
//! is deterministic: same seed, same faults, same report, at any thread
//! count.
//!
//! Run with: `cargo run --release --example fleet_chaos`
//! (set `PICTOR_SECS` to change the fleet horizon).

use std::sync::Arc;

use pictor::apps::AppId;
use pictor::core::fleet::{
    ArrivalConfig, AutoscaleConfig, BackpressureConfig, DataPlane, FaultEvent, FaultKind,
    FaultPlan, FirstFit, FleetEngine, FleetSpec, GroupSpec, Hazard, MigrationConfig,
    RecoveryConfig, WorkloadMix,
};
use pictor::hw::GpuModel;
use pictor::render::SystemConfig;

fn main() {
    let secs = std::env::var("PICTOR_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30u64);
    let epochs = (secs * 4).clamp(24, 600);

    // 1. The same mixed-GPU fleet as the fleet_engine example: two GPU
    //    generations, one scheduler, saturating session churn.
    let base = SystemConfig::turbovnc_stock();
    let mix = WorkloadMix::uniform([AppId::Dota2, AppId::SuperTuxKart, AppId::ZeroAd]);
    let spec = FleetSpec::new(24, mix, Arc::new(FirstFit), 42).epochs(epochs);
    let mut eng = FleetEngine::from_spec(&spec);
    eng.groups = vec![
        GroupSpec::with_gpu(12, &base, GpuModel::TeslaT4),
        GroupSpec::with_gpu(12, &base, GpuModel::Rtx3090),
    ];
    // Loaded to ~100% rather than saturated: a lobby pinned at its limit
    // by ordinary demand would turn every crash orphan into an instant
    // loss, and this example is about watching recovery work.
    eng.arrivals = ArrivalConfig {
        label: "churn".into(),
        open_rate_per_sec: 0.5,
        closed_clients: 1,
        mean_session_secs: 8.0,
        mean_think_secs: 6.0,
    };
    eng.data_plane = DataPlane::Surrogate;
    eng.autoscale = Some(AutoscaleConfig {
        eval_every_epochs: 2,
        ..AutoscaleConfig::steady()
    });
    eng.migration = Some(MigrationConfig::contention_relief());
    eng.backpressure = Some(BackpressureConfig::lobby());

    // 2. The fault plan: two scheduled injections pin the narrative, three
    //    hazards add deterministic background chaos. Server 0 drains for
    //    one epoch, crashes, restarts after two epochs and warms up for
    //    one more; server 12 loses 60% of its GPU memory for six epochs.
    eng.faults = Some(FaultPlan {
        scheduled: vec![
            FaultEvent {
                at_epoch: 4,
                server: 0,
                kind: FaultKind::Crash {
                    drain_epochs: 1,
                    restart_after_epochs: Some(2),
                    warmup_epochs: 1,
                },
            },
            FaultEvent {
                at_epoch: 6,
                server: 12,
                kind: FaultKind::GpuDegrade {
                    severity: 0.6,
                    recover_after_epochs: Some(6),
                },
            },
        ],
        hazards: vec![
            Hazard {
                per_server_epoch: 0.01,
                kind: FaultKind::Crash {
                    drain_epochs: 0,
                    restart_after_epochs: Some(2),
                    warmup_epochs: 1,
                },
            },
            Hazard {
                per_server_epoch: 0.015,
                kind: FaultKind::GpuDegrade {
                    severity: 0.5,
                    recover_after_epochs: Some(4),
                },
            },
            Hazard {
                per_server_epoch: 0.02,
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
            queue_limit: 48,
        },
        ..FaultPlan::default()
    });

    println!(
        "fleet chaos: {} servers ({} + {}), {} epochs, scheduled crash + degrade, 3 hazards\n",
        eng.total_servers(),
        eng.groups[0].label,
        eng.groups[1].label,
        epochs
    );
    let threads = pictor::core::suite::default_threads();
    let (report, audit) = eng.live().finish(threads);

    // 3. The damage report: what the fault plan did to the fleet.
    let dynamics = report.dynamics.as_ref().expect("dynamic run");
    let fl = dynamics.faults.as_ref().expect("fault plan is live");
    println!(
        "injections:   {} crashes, {} degradations, {} brownouts ({} skipped on non-serving servers)",
        fl.crashes, fl.gpu_degrades, fl.brownouts, fl.skipped
    );
    println!(
        "health:       {} down + {} warming + {} draining server-epochs",
        fl.downtime_epochs, fl.warming_epochs, fl.draining_epochs
    );
    println!(
        "recovery:     {} orphaned + {} evicted -> {} re-placed, {} lost ({} retries, mean {:.1} epochs off-air)",
        fl.orphaned,
        fl.evicted,
        fl.recovered,
        fl.lost,
        fl.recovery_retries,
        fl.mean_recovery_epochs()
    );
    println!(
        "slo damage:   {} of {} RTT violations attributable to brownout inflation",
        fl.fault_rtt_violations, report.rtt_violations
    );

    // 4. The tenant view: quality under chaos.
    println!(
        "\nadmission:    {} offered -> {} admitted, {} rejected, peak {} concurrent",
        report.offered, report.admitted, report.rejected, report.peak_sessions
    );
    println!(
        "tails:        FPS p50 {:.1} / p95 {:.1}; RTT p95 {:.1} ms / p99 {:.1} ms; utilization {:.1}%",
        report.fps.p50(),
        report.fps.p95(),
        report.rtt.p95(),
        report.rtt.p99(),
        100.0 * report.utilization
    );

    // 5. The price of the chaos: the same engine with its faults taken
    //    out, measured in session-epochs served.
    eng.faults = None;
    let fault_free = eng.live().finish(threads).0;
    assert!(
        fault_free.session_epochs > 0,
        "the fault-free twin served nothing"
    );
    let retained = report.session_epochs as f64 / fault_free.session_epochs as f64;
    assert!(
        0.0 < retained && retained < 1.5,
        "goodput retained {retained} outside (0, 1.5)"
    );
    println!(
        "goodput:      {} session-epochs under chaos vs {} fault-free ({:.1}% retained)",
        report.session_epochs,
        fault_free.session_epochs,
        100.0 * retained
    );

    // 6. Both conservation ledgers, from the audit trace the property
    //    suite checks exhaustively. Recovery re-offers live outside the
    //    admission ledger, so the original identities still hold exactly.
    assert_eq!(
        audit.offered,
        audit.admitted + audit.rejected + audit.queued
    );
    assert_eq!(audit.queued, audit.retried + audit.expired);
    assert_eq!(audit.orphaned + audit.evicted, audit.recovered + audit.lost);
    assert_eq!(audit.orphaned, fl.orphaned);
    assert_eq!(audit.recovered, fl.recovered);
    println!(
        "\nledgers:      {} offered = {} admitted + {} rejected + {} parked (parked = {} retried + {} expired)",
        audit.offered, audit.admitted, audit.rejected, audit.queued, audit.retried, audit.expired
    );
    println!(
        "              {} orphaned + {} evicted = {} recovered + {} lost",
        audit.orphaned, audit.evicted, audit.recovered, audit.lost
    );
}
