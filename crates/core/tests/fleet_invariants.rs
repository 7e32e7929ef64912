//! Property tests over the online fleet engine's audit trace.
//!
//! The goldens pin a few fixed fleets; these properties lock down the
//! engine's dynamic behaviours on randomized fleets: session conservation
//! through the admission ledger, per-server slot/memory capacity at every
//! epoch, the backpressure queue bound, and the autoscaler's no-drop
//! guarantee (every placed session epoch lies inside an active window of
//! its server). Every generated fleet's report also has to carry one
//! histogram sample per session-epoch and per tracked input, with tails
//! ordered inside their exact extremes.

use std::sync::Arc;

use proptest::prelude::*;

use pictor_apps::AppId;
use pictor_core::fleet::{
    ArrivalConfig, AutoscaleConfig, BackpressureConfig, DataPlane, FaultEvent, FaultKind,
    FaultPlan, FirstFit, FleetEngine, FleetReport, FleetSpec, GroupSpec, Hazard, LeastContended,
    MigrationConfig, PlacementPolicy, WorkloadMix,
};
use pictor_hw::GpuModel;
use pictor_render::SystemConfig;

fn mix() -> WorkloadMix {
    WorkloadMix::uniform([AppId::Dota2, AppId::SuperTuxKart, AppId::ZeroAd])
}

/// A small randomized heterogeneous engine: two GPU groups, surrogate data
/// plane (the properties are about the control plane, so the cheap plane
/// keeps 64 cases fast), saturating arrivals to actually exercise
/// rejection, parking and growth.
fn engine(
    servers_a: usize,
    servers_b: usize,
    epochs: u64,
    seed: u64,
    policy_pick: u8,
    hot: bool,
) -> FleetEngine {
    let base = SystemConfig::turbovnc_stock();
    let policy: Arc<dyn PlacementPolicy> = if policy_pick.is_multiple_of(2) {
        Arc::new(FirstFit)
    } else {
        Arc::new(LeastContended)
    };
    let spec = FleetSpec::new(servers_a + servers_b, mix(), policy, seed).epochs(epochs);
    let mut eng = FleetEngine::from_spec(&spec);
    eng.groups = vec![
        GroupSpec::with_gpu(servers_a, &base, GpuModel::Gtx1080Ti),
        GroupSpec::with_gpu(servers_b, &base, GpuModel::TeslaT4),
    ];
    eng.arrivals = if hot {
        ArrivalConfig::saturating()
    } else {
        ArrivalConfig::moderate()
    };
    eng.data_plane = DataPlane::Surrogate;
    eng
}

/// The report's tails hold one sample per session-epoch (FPS) and per
/// tracked input (RTT), and read `min <= p50 <= p95 <= p99 <= max`.
fn check_tails(report: &FleetReport) -> Result<(), TestCaseError> {
    prop_assert_eq!(report.fps.count(), report.session_epochs);
    prop_assert_eq!(report.rtt.count(), report.tracked_inputs);
    for (name, h) in [("fps", &report.fps), ("rtt", &report.rtt)] {
        let reads = [h.min(), h.p50(), h.p95(), h.p99(), h.max()];
        prop_assert!(
            reads.windows(2).all(|w| w[0] <= w[1]),
            "{} tail out of order (min, p50, p95, p99, max): {:?}",
            name,
            reads
        );
    }
    Ok(())
}

proptest! {
    /// Every placement attempt ends in exactly one of admit / reject /
    /// park, every parked attempt is either retried or expires, and the
    /// placement table carries exactly `admitted + migrations` segments
    /// over `admitted` distinct session ids.
    #[test]
    fn sessions_are_conserved(
        servers_a in 1usize..4,
        servers_b in 1usize..4,
        epochs in 4u64..12,
        seed in 0u64..500,
        policy_pick in 0u8..2,
        queue_limit in 1usize..6,
    ) {
        let mut eng = engine(servers_a, servers_b, epochs, seed, policy_pick, true);
        eng.backpressure = Some(BackpressureConfig { queue_limit, retry_after_epochs: 1 });
        eng.migration = Some(MigrationConfig::contention_relief());
        let (report, audit) = eng.live().finish(2);
        check_tails(&report)?;
        prop_assert_eq!(audit.offered, audit.admitted + audit.rejected + audit.queued);
        prop_assert_eq!(audit.queued, audit.retried + audit.expired);
        prop_assert_eq!(report.offered, audit.offered);
        prop_assert_eq!(report.admitted, audit.admitted);
        prop_assert_eq!(
            audit.placements.len() as u64,
            audit.admitted + audit.migrations
        );
        let mut ids: Vec<u64> = audit.placements.iter().map(|p| p.session).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, audit.admitted);
    }

    /// At every epoch of every server, resident sessions never exceed the
    /// slot count and their GPU memory never exceeds the server's
    /// capacity — under churn, migration and autoscaling alike.
    #[test]
    fn capacity_holds_at_every_epoch(
        servers_a in 1usize..4,
        servers_b in 1usize..4,
        epochs in 4u64..12,
        seed in 0u64..500,
        policy_pick in 0u8..2,
    ) {
        let mut eng = engine(servers_a, servers_b, epochs, seed, policy_pick, true);
        eng.autoscale = Some(AutoscaleConfig { eval_every_epochs: 2, ..AutoscaleConfig::steady() });
        eng.migration = Some(MigrationConfig { pressure_threshold: 1.0 });
        let (report, audit) = eng.live().finish(2);
        check_tails(&report)?;
        let servers = audit.gpu_capacity_mib.len();
        for server in 0..servers {
            for e in 0..epochs {
                let resident: Vec<_> = audit
                    .placements
                    .iter()
                    .filter(|p| p.server == server && p.start_epoch <= e && e < p.end_epoch)
                    .collect();
                prop_assert!(
                    resident.len() <= audit.slots_per_server,
                    "server {} epoch {}: {} residents over {} slots",
                    server, e, resident.len(), audit.slots_per_server
                );
                let mem: u64 = resident.iter().map(|p| p.gpu_mib).sum();
                prop_assert!(
                    mem <= audit.gpu_capacity_mib[server],
                    "server {} epoch {}: {} MiB over {} MiB",
                    server, e, mem, audit.gpu_capacity_mib[server]
                );
            }
        }
    }

    /// The pending queue never outgrows its configured bound, and with no
    /// backpressure configured nothing is ever parked.
    #[test]
    fn backpressure_queue_stays_bounded(
        servers_a in 1usize..3,
        servers_b in 1usize..3,
        epochs in 4u64..12,
        seed in 0u64..500,
        queue_limit in 1usize..8,
        retry_after in 1u64..4,
    ) {
        let mut eng = engine(servers_a, servers_b, epochs, seed, 0, true);
        eng.backpressure = Some(BackpressureConfig {
            queue_limit,
            retry_after_epochs: retry_after,
        });
        let (report, audit) = eng.live().finish(2);
        check_tails(&report)?;
        prop_assert!(
            audit.peak_queue <= queue_limit,
            "peak queue {} over limit {}", audit.peak_queue, queue_limit
        );

        let bare = engine(servers_a, servers_b, epochs, seed, 0, true);
        let (report, audit) = bare.live().finish(2);
        check_tails(&report)?;
        prop_assert_eq!(audit.queued, 0);
        prop_assert_eq!(audit.peak_queue, 0);
    }

    /// Autoscaling never strands a session: every placed epoch of every
    /// session falls inside one of its server's active windows, so a
    /// shrink can only ever retire empty servers.
    #[test]
    fn autoscale_never_drops_live_sessions(
        servers_a in 2usize..5,
        servers_b in 2usize..5,
        epochs in 6u64..14,
        seed in 0u64..500,
        eval_every in 1u64..4,
        warmup in 1u64..3,
    ) {
        let mut eng = engine(servers_a, servers_b, epochs, seed, 0, true);
        eng.autoscale = Some(AutoscaleConfig {
            eval_every_epochs: eval_every,
            warmup_epochs: warmup,
            ..AutoscaleConfig::steady()
        });
        let (report, audit) = eng.live().finish(2);
        check_tails(&report)?;
        for p in &audit.placements {
            prop_assert!(
                audit.activity[p.server]
                    .iter()
                    .any(|&(a, b)| a <= p.start_epoch && p.end_epoch <= b),
                "session {} on server {} [{}, {}) outside active windows {:?}",
                p.session, p.server, p.start_epoch, p.end_epoch, audit.activity[p.server]
            );
        }
        for windows in &audit.activity {
            for w in windows.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlapping active windows {:?}", windows);
            }
        }
    }

    /// Under randomized crash/degrade/brownout chaos, both ledgers stay
    /// conserved: the admission identities are untouched by faults, every
    /// orphaned or evicted session resolves to exactly one of recovered or
    /// lost, session ids survive recovery without duplication, and the
    /// shared retry queue keeps its bound. The report does not depend on
    /// the data plane's thread count.
    #[test]
    fn fault_ledger_balances_under_chaos(
        servers_a in 1usize..4,
        servers_b in 1usize..4,
        epochs in 6u64..14,
        seed in 0u64..500,
        policy_pick in 0u8..2,
        crash_p in 0.0f64..0.12,
        degrade_p in 0.0f64..0.12,
        queue_limit in 1usize..6,
    ) {
        let mut eng = engine(servers_a, servers_b, epochs, seed, policy_pick, true);
        eng.backpressure = Some(BackpressureConfig { queue_limit, retry_after_epochs: 1 });
        eng.faults = Some(FaultPlan {
            scheduled: vec![FaultEvent {
                at_epoch: 1,
                server: 0,
                kind: FaultKind::Crash {
                    drain_epochs: 1,
                    restart_after_epochs: Some(2),
                    warmup_epochs: 1,
                },
            }],
            hazards: vec![
                Hazard {
                    per_server_epoch: crash_p,
                    kind: FaultKind::Crash {
                        drain_epochs: 0,
                        restart_after_epochs: Some(1),
                        warmup_epochs: 1,
                    },
                },
                Hazard {
                    per_server_epoch: degrade_p,
                    kind: FaultKind::GpuDegrade {
                        severity: 0.6,
                        recover_after_epochs: Some(3),
                    },
                },
                Hazard {
                    per_server_epoch: degrade_p,
                    kind: FaultKind::NetBrownout {
                        rtt_factor: 2.0,
                        jitter_ms: 20.0,
                        duration_epochs: 3,
                    },
                },
            ],
            ..FaultPlan::default()
        });
        let (report, audit) = eng.live().finish(2);
        check_tails(&report)?;
        // The data plane folds per worker and merges exactly: one worker,
        // or five on 2–6 servers (so some fold little or nothing), give
        // the same report.
        for threads in [1, 5] {
            let other = eng.live().finish(threads).0;
            prop_assert_eq!(other.metrics(), report.metrics());
            prop_assert_eq!(&other.dynamics, &report.dynamics);
        }
        prop_assert_eq!(audit.offered, audit.admitted + audit.rejected + audit.queued);
        prop_assert_eq!(audit.queued, audit.retried + audit.expired);
        prop_assert_eq!(audit.orphaned + audit.evicted, audit.recovered + audit.lost);
        prop_assert!(audit.peak_queue <= queue_limit);
        let fl = report.dynamics.expect("fault dynamics").faults.expect("fault ledger");
        prop_assert_eq!(fl.orphaned, audit.orphaned);
        prop_assert_eq!(fl.evicted, audit.evicted);
        prop_assert_eq!(fl.recovered, audit.recovered);
        prop_assert_eq!(fl.lost, audit.lost);
        prop_assert!(fl.recovered <= fl.recovery_retries,
            "every recovery took at least one retry offer");
        let mut ids: Vec<u64> = audit.placements.iter().map(|p| p.session).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, audit.admitted);
    }

    /// GPU degradation steps the effective capacity down mid-run; at every
    /// epoch the resident footprint respects the *stepped* capacity, not
    /// just the pristine one, and recovery steps it back up.
    #[test]
    fn capacity_holds_under_degradation(
        servers_a in 1usize..4,
        servers_b in 1usize..4,
        epochs in 6u64..14,
        seed in 0u64..500,
        severity in 0.3f64..0.95,
        degrade_p in 0.02f64..0.25,
    ) {
        let mut eng = engine(servers_a, servers_b, epochs, seed, 0, true);
        eng.faults = Some(FaultPlan {
            hazards: vec![Hazard {
                per_server_epoch: degrade_p,
                kind: FaultKind::GpuDegrade {
                    severity,
                    recover_after_epochs: Some(4),
                },
            }],
            ..FaultPlan::default()
        });
        let (report, audit) = eng.live().finish(2);
        check_tails(&report)?;
        for (server, steps) in audit.capacity_steps.iter().enumerate() {
            prop_assert!(
                steps.windows(2).all(|w| w[0].0 <= w[1].0),
                "capacity steps out of order on server {}: {:?}", server, steps
            );
            for e in 0..epochs {
                let cap = steps
                    .iter()
                    .take_while(|&&(at, _)| at <= e)
                    .last()
                    .map(|&(_, c)| c)
                    .unwrap_or(audit.gpu_capacity_mib[server]);
                let resident: Vec<_> = audit
                    .placements
                    .iter()
                    .filter(|p| p.server == server && p.start_epoch <= e && e < p.end_epoch)
                    .collect();
                prop_assert!(
                    resident.len() <= audit.slots_per_server,
                    "server {} epoch {}: {} residents over {} slots",
                    server, e, resident.len(), audit.slots_per_server
                );
                let mem: u64 = resident.iter().map(|p| p.gpu_mib).sum();
                prop_assert!(
                    mem <= cap,
                    "server {} epoch {}: {} MiB resident over stepped cap {} (steps {:?})",
                    server, e, mem, cap, steps
                );
            }
        }
    }
}
