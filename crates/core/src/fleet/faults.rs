//! Deterministic fault injection for the online fleet engine.
//!
//! A [`FaultPlan`] describes what goes wrong during a fleet run — server
//! crashes with restart lag and slow warm-up, GPU-memory degradation that
//! shrinks a server mid-interval (via the
//! [`pictor_hw::degrade_mib`]/[`GpuModel::degraded_mib`](pictor_hw::GpuModel::degraded_mib)
//! hook), and network brownouts that inflate RTT and jitter — as a mix of
//! *scheduled* events ([`FaultEvent`]) and *stochastic* hazards
//! ([`Hazard`]) whose injection times are drawn from named
//! [`SeedTree`] streams before the run starts. Materialization is a pure
//! function of `(plan, seed, fleet shape)`, so a faulty run is exactly as
//! byte-deterministic across threads as a healthy one, and an
//! *empty* plan is differential-tested byte-identical to no plan at all
//! (`tests/fleet_chaos_differential.rs`).
//!
//! # The health state machine
//!
//! Every server carries a [`Health`] state next to its autoscale status:
//!
//! ```text
//!            GpuDegrade                 Crash {drain_epochs > 0}
//!   Healthy ───────────▶ Degraded    Healthy/Degraded ──▶ Draining
//!      ▲  ◀───────────      │                                │ drain_epochs
//!      │    recovery        │ Crash                          ▼
//!      │                    ▼                              Down
//!      │                  Down ◀──────────────────────────── │
//!      │                    │ restart_after_epochs           │
//!      │                    ▼                                │
//!      └───────────── WarmingUp ◀────────────────────────────┘
//!         warmup_epochs
//! ```
//!
//! `Healthy` and `Degraded` servers serve placements; `Draining` keeps its
//! sessions but takes no new ones; `Down` orphans everything it held;
//! `WarmingUp` is the post-restart lag before the server is placeable
//! again. Injections landing on a non-serving server are skipped (and
//! counted in the fault ledger).
//!
//! # Recovery
//!
//! Sessions orphaned by a crash (or evicted by degradation) re-enter
//! placement through the engine's pending queue with exponential backoff
//! plus deterministic jitter ([`RecoveryConfig`]); capacity lost to
//! degradation is reclaimed by evicting residents in [`VictimPolicy`]
//! order until the server fits again.

use std::sync::Arc;

use pictor_sim::rng::geometric;
use pictor_sim::SeedTree;

use super::policy::{LargestMemoryFirst, VictimPolicy};

/// Per-server health state. See the module docs for the transition
/// diagram; [`Health::serving`] is what placement checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Full capacity, taking placements.
    Healthy,
    /// Lost GPU memory but still serving (at reduced capacity).
    Degraded,
    /// Advance-notice crash: keeps residents, takes no new placements.
    Draining,
    /// Crashed: no residents, no placements, waiting on restart.
    Down,
    /// Restarted, not yet placeable (slow warm-up).
    WarmingUp,
}

impl Health {
    /// Whether a server in this state accepts new placements.
    pub fn serving(self) -> bool {
        matches!(self, Health::Healthy | Health::Degraded)
    }
}

/// One class of infrastructure failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The server goes down, orphaning its sessions.
    Crash {
        /// Advance-notice epochs spent `Draining` (0 = abrupt crash).
        drain_epochs: u64,
        /// Epochs down before the restart begins; `None` = never restarts
        /// this run.
        restart_after_epochs: Option<u64>,
        /// Post-restart `WarmingUp` epochs before the server is placeable.
        warmup_epochs: u64,
    },
    /// GPU memory banks retire: capacity shrinks by `severity` via
    /// [`pictor_hw::degrade_mib`], evicting residents that no longer fit.
    GpuDegrade {
        /// Fraction of device memory lost, in `(0, 1]`.
        severity: f64,
        /// Epochs until capacity (and `Healthy`) is restored; `None` =
        /// permanent for the run.
        recover_after_epochs: Option<u64>,
    },
    /// Network brownout: the server's RTT samples are multiplied by
    /// `rtt_factor` and jittered by up to `jitter_ms` while the window
    /// lasts. Sessions stay placed — only tail quality suffers.
    NetBrownout {
        /// Multiplier applied to every RTT sample, ≥ 1.
        rtt_factor: f64,
        /// Additional uniform jitter amplitude, ms.
        jitter_ms: f64,
        /// Window length in epochs, ≥ 1.
        duration_epochs: u64,
    },
}

impl FaultKind {
    /// Stable class label (ledger and debugging).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash { .. } => "crash",
            FaultKind::GpuDegrade { .. } => "gpu-degrade",
            FaultKind::NetBrownout { .. } => "net-brownout",
        }
    }

    /// Epochs a hazard stream must skip after injecting this fault so the
    /// next draw lands after the fault's own busy window; `None` means the
    /// server never returns (a crash with no restart) and the stream stops.
    fn busy_epochs(&self) -> Option<u64> {
        match self {
            FaultKind::Crash {
                drain_epochs,
                restart_after_epochs,
                warmup_epochs,
            } => restart_after_epochs.map(|r| {
                drain_epochs
                    .saturating_add(r)
                    .saturating_add(*warmup_epochs)
            }),
            FaultKind::GpuDegrade {
                recover_after_epochs,
                ..
            } => Some(recover_after_epochs.unwrap_or(0)),
            FaultKind::NetBrownout {
                duration_epochs, ..
            } => Some(*duration_epochs),
        }
    }

    fn validate(&self) {
        match self {
            FaultKind::Crash { .. } => {}
            FaultKind::GpuDegrade { severity, .. } => {
                assert!(
                    *severity > 0.0 && *severity <= 1.0,
                    "degradation severity must be in (0, 1]: {severity}"
                );
            }
            FaultKind::NetBrownout {
                rtt_factor,
                jitter_ms,
                duration_epochs,
            } => {
                assert!(
                    rtt_factor.is_finite() && *rtt_factor >= 1.0,
                    "brownout rtt_factor must be finite and ≥ 1: {rtt_factor}"
                );
                assert!(
                    jitter_ms.is_finite() && *jitter_ms >= 0.0,
                    "brownout jitter_ms must be finite and ≥ 0: {jitter_ms}"
                );
                assert!(
                    *duration_epochs >= 1,
                    "brownout duration must be at least one epoch"
                );
            }
        }
    }
}

/// A scheduled injection: `kind` hits `server` at epoch `at_epoch`.
/// Events targeting servers outside the fleet or epochs past the horizon
/// are dropped at materialization.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Injection epoch.
    pub at_epoch: u64,
    /// Target server index.
    pub server: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A stochastic injection source: every server independently draws
/// geometric inter-fault gaps at `per_server_epoch` probability from its
/// own named [`SeedTree`] stream (`faults/hazard-{h}/srv-{s}`), so the
/// injection schedule depends only on (seed, plan, fleet shape) — never on
/// threads or event order.
#[derive(Debug, Clone, PartialEq)]
pub struct Hazard {
    /// Per-server, per-epoch injection probability, in `[0, 1)`.
    pub per_server_epoch: f64,
    /// What each injection does.
    pub kind: FaultKind,
}

/// How crash-orphaned (and degradation-evicted) sessions retry placement:
/// exponential backoff `base · 2^attempt` capped at `max_backoff_epochs`,
/// plus a deterministic sub-epoch jitter hashed from (seed, session,
/// attempt), through the engine's bounded pending queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// First-retry delay in epochs.
    pub base_retry_epochs: u64,
    /// Backoff ceiling in epochs.
    pub max_backoff_epochs: u64,
    /// Placement attempts before a session is abandoned (counted lost).
    pub max_attempts: u32,
    /// Pending-queue bound for orphans when the engine runs without
    /// [`BackpressureConfig`](super::BackpressureConfig) (which otherwise
    /// supplies the shared bound).
    pub queue_limit: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            base_retry_epochs: 1,
            max_backoff_epochs: 8,
            max_attempts: 6,
            queue_limit: 64,
        }
    }
}

impl RecoveryConfig {
    fn validate(&self) {
        assert!(
            self.base_retry_epochs >= 1,
            "recovery base_retry_epochs must be at least 1"
        );
        assert!(
            self.max_backoff_epochs >= self.base_retry_epochs,
            "recovery max_backoff_epochs must be ≥ base_retry_epochs"
        );
        assert!(self.max_attempts >= 1, "recovery needs at least 1 attempt");
        assert!(self.queue_limit >= 1, "recovery queue_limit must be ≥ 1");
    }
}

/// The full fault schedule of a run: scheduled events, stochastic hazards,
/// recovery tuning and the eviction victim policy. `FaultPlan::default()`
/// is the *empty* plan — byte-identical to running with no plan at all.
#[derive(Clone)]
pub struct FaultPlan {
    /// Injections pinned to (epoch, server).
    pub scheduled: Vec<FaultEvent>,
    /// Seeded stochastic injection sources.
    pub hazards: Vec<Hazard>,
    /// Orphan re-placement behaviour.
    pub recovery: RecoveryConfig,
    /// Who gets evicted when degradation shrinks a server below its
    /// residents' footprint.
    pub victims: Arc<dyn VictimPolicy>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            scheduled: Vec::new(),
            hazards: Vec::new(),
            recovery: RecoveryConfig::default(),
            victims: Arc::new(LargestMemoryFirst),
        }
    }
}

impl FaultPlan {
    /// True when the plan injects nothing — the engine then takes exactly
    /// the fault-free code path.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty() && self.hazards.is_empty()
    }

    /// Validates every event, hazard and the recovery config.
    ///
    /// # Panics
    ///
    /// Panics on the first invalid field.
    pub fn validate(&self) {
        for ev in &self.scheduled {
            ev.kind.validate();
        }
        for h in &self.hazards {
            assert!(
                h.per_server_epoch.is_finite()
                    && h.per_server_epoch >= 0.0
                    && h.per_server_epoch < 1.0,
                "hazard probability must be in [0, 1): {}",
                h.per_server_epoch
            );
            h.kind.validate();
        }
        self.recovery.validate();
    }

    /// Expands the plan into the concrete injection list for a fleet of
    /// `servers` over `epochs`: scheduled events filtered to the fleet and
    /// horizon, plus one geometric draw walk per (hazard, server) from
    /// `tree.child("faults")`. The result is sorted by (epoch, server)
    /// with scheduled events stably ahead of hazard draws — a pure
    /// function of the inputs.
    pub fn materialize(&self, tree: &SeedTree, servers: usize, epochs: u64) -> Vec<FaultEvent> {
        let mut out: Vec<FaultEvent> = self
            .scheduled
            .iter()
            .filter(|ev| ev.server < servers && ev.at_epoch < epochs)
            .cloned()
            .collect();
        let ft = tree.child("faults");
        for (h, hazard) in self.hazards.iter().enumerate() {
            if hazard.per_server_epoch <= 0.0 {
                continue;
            }
            for s in 0..servers {
                let mut rng = ft
                    .child_indexed("hazard-", h as u64)
                    .stream_indexed("srv-", s as u64);
                let mut e = 0u64;
                loop {
                    e = e.saturating_add(geometric(&mut rng, hazard.per_server_epoch));
                    if e >= epochs {
                        break;
                    }
                    out.push(FaultEvent {
                        at_epoch: e,
                        server: s,
                        kind: hazard.kind.clone(),
                    });
                    // Skip the fault's own busy window so a stream cannot
                    // pile injections onto a server that is still failing.
                    match hazard.kind.busy_epochs() {
                        Some(busy) => e = e.saturating_add(busy),
                        None => break,
                    }
                }
            }
        }
        out.sort_by_key(|ev| (ev.at_epoch, ev.server));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash() -> FaultKind {
        FaultKind::Crash {
            drain_epochs: 0,
            restart_after_epochs: Some(2),
            warmup_epochs: 1,
        }
    }

    #[test]
    fn empty_plan_materializes_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        plan.validate();
        assert!(plan.materialize(&SeedTree::new(7), 16, 100).is_empty());
    }

    #[test]
    fn materialization_is_deterministic_and_sorted() {
        let plan = FaultPlan {
            scheduled: vec![
                FaultEvent {
                    at_epoch: 5,
                    server: 3,
                    kind: crash(),
                },
                // Dropped: outside the fleet / horizon.
                FaultEvent {
                    at_epoch: 5,
                    server: 99,
                    kind: crash(),
                },
                FaultEvent {
                    at_epoch: 400,
                    server: 0,
                    kind: crash(),
                },
            ],
            hazards: vec![Hazard {
                per_server_epoch: 0.05,
                kind: FaultKind::NetBrownout {
                    rtt_factor: 2.0,
                    jitter_ms: 10.0,
                    duration_epochs: 3,
                },
            }],
            ..FaultPlan::default()
        };
        plan.validate();
        let tree = SeedTree::new(42);
        let a = plan.materialize(&tree, 8, 200);
        let b = plan.materialize(&tree, 8, 200);
        assert_eq!(a, b);
        assert!(a.iter().any(|ev| ev.at_epoch == 5 && ev.server == 3));
        assert!(a.iter().all(|ev| ev.server < 8 && ev.at_epoch < 200));
        assert!(
            a.windows(2)
                .all(|w| (w[0].at_epoch, w[0].server) <= (w[1].at_epoch, w[1].server)),
            "materialized events must be sorted"
        );
        // The hazard actually fired somewhere at 5%/server/epoch × 8 × 200.
        assert!(a.len() > 1, "hazard produced no injections");
    }

    #[test]
    fn hazard_streams_respect_busy_windows() {
        let plan = FaultPlan {
            hazards: vec![Hazard {
                per_server_epoch: 0.5,
                kind: FaultKind::NetBrownout {
                    rtt_factor: 1.5,
                    jitter_ms: 0.0,
                    duration_epochs: 10,
                },
            }],
            ..FaultPlan::default()
        };
        let events = plan.materialize(&SeedTree::new(1), 1, 100);
        for w in events.windows(2) {
            assert!(
                w[1].at_epoch >= w[0].at_epoch + 10,
                "injections overlap the previous brownout: {w:?}"
            );
        }
    }

    #[test]
    fn unrecoverable_crash_hazard_stops_after_one_injection() {
        let plan = FaultPlan {
            hazards: vec![Hazard {
                per_server_epoch: 0.9,
                kind: FaultKind::Crash {
                    drain_epochs: 0,
                    restart_after_epochs: None,
                    warmup_epochs: 0,
                },
            }],
            ..FaultPlan::default()
        };
        let events = plan.materialize(&SeedTree::new(3), 2, 1000);
        assert_eq!(events.len(), 2, "one terminal crash per server");
    }

    #[test]
    #[should_panic(expected = "hazard probability")]
    fn hazard_probability_one_is_rejected() {
        FaultPlan {
            hazards: vec![Hazard {
                per_server_epoch: 1.0,
                kind: crash(),
            }],
            ..FaultPlan::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "severity")]
    fn zero_severity_degrade_is_rejected() {
        FaultPlan {
            scheduled: vec![FaultEvent {
                at_epoch: 0,
                server: 0,
                kind: FaultKind::GpuDegrade {
                    severity: 0.0,
                    recover_after_epochs: None,
                },
            }],
            ..FaultPlan::default()
        }
        .validate();
    }

    #[test]
    fn serving_states_are_exactly_healthy_and_degraded() {
        assert!(Health::Healthy.serving());
        assert!(Health::Degraded.serving());
        assert!(!Health::Draining.serving());
        assert!(!Health::Down.serving());
        assert!(!Health::WarmingUp.serving());
    }
}
