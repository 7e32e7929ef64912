//! Dynamic-policy configuration for the online fleet engine: autoscaling,
//! session migration, and admission backpressure.
//!
//! These are what make the engine an *operations* model rather than a
//! fixed server set that rejects on full. Leaving all three unconfigured
//! runs [`FleetEngine`](super::FleetEngine) as a static fleet, the shape
//! [`FleetSpec`](super::FleetSpec) declares.

/// Utilization-driven autoscaling of a server group.
///
/// Every `eval_every_epochs` the group compares its slot utilization
/// (residents over active slots) against a target band. Above the band it
/// activates the lowest-index inactive server, which only starts accepting
/// sessions `warmup_epochs` later — modelling boot/driver warm-up lag.
/// Below the band it deactivates the highest-index *empty* active server;
/// live sessions are never dropped by a shrink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Grow when utilization exceeds this fraction of active slots.
    pub high_watermark: f64,
    /// Shrink when utilization falls below this fraction.
    pub low_watermark: f64,
    /// Epochs between evaluations (per group).
    pub eval_every_epochs: u64,
    /// Epochs a newly activated server spends warming before it can take
    /// sessions.
    pub warmup_epochs: u64,
    /// Servers per group that can never be deactivated.
    pub min_active_per_group: usize,
}

impl AutoscaleConfig {
    /// A conservative band: grow past 80 % slot utilization, shrink under
    /// 30 %, evaluate every 4 epochs, 2-epoch warm-up, keep one server.
    pub fn steady() -> Self {
        AutoscaleConfig {
            high_watermark: 0.8,
            low_watermark: 0.3,
            eval_every_epochs: 4,
            warmup_epochs: 2,
            min_active_per_group: 1,
        }
    }

    pub(crate) fn validate(&self) {
        assert!(
            self.high_watermark > self.low_watermark,
            "autoscale watermarks must satisfy low < high"
        );
        assert!(
            (0.0..=1.0).contains(&self.low_watermark) && self.high_watermark <= 1.0,
            "autoscale watermarks must lie in [0, 1]"
        );
        assert!(self.eval_every_epochs > 0, "eval cadence must be positive");
        assert!(self.min_active_per_group > 0, "need one server per group");
    }
}

/// Session migration off contended servers.
///
/// At every epoch boundary the engine finds the active server with the
/// highest resident cache pressure; if it exceeds `pressure_threshold`,
/// the most contentious movable session (one that spans the boundary with
/// at least one epoch left) is re-placed onto the least-pressured active
/// server that fits its remainder. The move costs the session a one-epoch
/// service gap (state transfer), and is taken only when it strictly
/// reduces the pressure imbalance — the oscillation guard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Combined CPU+GPU resident pressure above which a server is
    /// considered contended.
    pub pressure_threshold: f64,
}

impl MigrationConfig {
    /// Migrate once a server's resident pressure passes 1.5 — roughly two
    /// heavy co-runners on paper-profile apps.
    pub fn contention_relief() -> Self {
        MigrationConfig {
            pressure_threshold: 1.5,
        }
    }

    pub(crate) fn validate(&self) {
        assert!(
            self.pressure_threshold.is_finite() && self.pressure_threshold > 0.0,
            "migration pressure threshold must be positive"
        );
    }
}

/// Admission backpressure: a bounded pending queue in front of placement.
///
/// When placement fails, the arrival is parked (up to `queue_limit`
/// pending) and re-offered `retry_after_epochs` later instead of being
/// rejected outright; only a full queue rejects. Parked closed-loop
/// clients do not burn extra RNG draws — their retry carries the original
/// request — so backpressure changes admission outcomes without touching
/// the arrival process itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackpressureConfig {
    /// Maximum pending arrivals parked fleet-wide.
    pub queue_limit: usize,
    /// Epochs a parked arrival waits before its retry.
    pub retry_after_epochs: u64,
}

impl BackpressureConfig {
    /// A small lobby: 32 pending, retry after one epoch.
    pub fn lobby() -> Self {
        BackpressureConfig {
            queue_limit: 32,
            retry_after_epochs: 1,
        }
    }

    pub(crate) fn validate(&self) {
        assert!(self.queue_limit > 0, "backpressure queue must hold >= 1");
        assert!(
            self.retry_after_epochs > 0,
            "retry-after must be at least one epoch"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        AutoscaleConfig::steady().validate();
        MigrationConfig::contention_relief().validate();
        BackpressureConfig::lobby().validate();
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn inverted_watermarks_panic() {
        AutoscaleConfig {
            high_watermark: 0.2,
            low_watermark: 0.8,
            ..AutoscaleConfig::steady()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "queue must hold")]
    fn zero_queue_panics() {
        BackpressureConfig {
            queue_limit: 0,
            retry_after_epochs: 1,
        }
        .validate();
    }
}
