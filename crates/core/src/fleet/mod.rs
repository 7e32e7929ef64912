//! Fleet-scale cloud simulation: many [`CloudSystem`](pictor_render::CloudSystem)
//! servers behind a placement/admission layer, with session churn and
//! tail-latency SLO accounting.
//!
//! The paper benchmarks co-located instances on a *single* server; the next
//! layer up is a deployment. A [`FleetSpec`] declares one fleet — servers,
//! arrivals, workload mix, placement policy, SLOs — and a [`FleetGrid`]
//! sweeps fleet size × arrival rate × policy over them.
//!
//! Every fleet runs on one runner, the event-driven [`FleetEngine`] (see
//! [`engine`]): [`FleetEngine::from_spec`] turns a spec into an engine and
//! [`FleetEngine::live`] → [`LiveFleet::finish`] runs it. Beyond what a
//! spec declares, the engine scales to 1000+ heterogeneous servers and
//! millions of arrivals, and supports autoscaling, migration and admission
//! backpressure (see [`autoscale`]), extending [`FleetReport`] with a
//! [`FleetDynamics`] section.
//!
//! The engine additionally takes a deterministic [`FaultPlan`] (see
//! [`faults`]): scheduled and hazard-driven server crashes, GPU-memory
//! degradation with capacity-aware eviction, and network brownouts, with
//! crash orphans re-placed through the backpressure queue under
//! exponential backoff. The fault ledger ([`FaultStats`]) conserves
//! `orphaned + evicted = recovered + lost`, and an empty plan is a proven
//! byte-level no-op (`tests/fleet_chaos_differential.rs`).
//!
//! # Execution model
//!
//! Fleet time is divided into fixed **epochs**. Every session request is
//! quantized to whole epochs and offered to the placement policy against
//! pure bookkeeping snapshots ([`ServerLoad`]) at its start epoch: it is
//! either admitted (occupying its server for its whole span) or rejected
//! (open-loop sessions are lost; closed-loop clients retry after a think
//! time). When the run is sealed, every server's occupancy timeline is
//! carved into maximal intervals with an unchanged session set, and each
//! interval is simulated as an independent `CloudSystem` (warm-up, then one
//! counter window per epoch, with RTTs tracked across the whole interval
//! so epoch boundaries don't censor slow inputs), **in parallel across OS
//! threads**. The samples are folded per worker and merged exactly.
//!
//! Determinism follows the suite runner's discipline: interval seeds derive
//! from *names* (`server-{s}/e{epoch}`), never from thread identity, and
//! every merged tally is an integer sum or an order-free histogram —
//! running a fleet with 1 thread or N threads emits byte-identical reports (`tests/fleet_determinism.rs` locks this
//! in; `tests/fleet_engine_determinism.rs` extends it to dynamic fleets).

pub mod autoscale;
pub mod engine;
pub mod faults;
pub mod policy;
pub mod report;

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;

use pictor_apps::App;
use pictor_render::SystemConfig;
use pictor_sim::rng::lognormal_mean_cv;
use pictor_sim::{SeedTree, SimDuration};

use crate::suite::default_threads;

pub use autoscale::{AutoscaleConfig, BackpressureConfig, MigrationConfig};
pub use engine::{
    Admission, DataPlane, FleetAudit, FleetEngine, FleetSnapshot, GroupSpec, LiveFleet, Placement,
    SessionTelemetry,
};
pub use faults::{FaultEvent, FaultKind, FaultPlan, Hazard, Health, RecoveryConfig};
pub use policy::{
    FirstFit, InterferenceAware, LargestMemoryFirst, LeastContended, PlacementPolicy, ServerLoad,
    ShortestRemainingFirst, VictimCandidate, VictimPolicy,
};
pub use report::{
    AutoscaleStats, BackpressureStats, FaultStats, FleetDynamics, FleetReport, FleetSuiteReport,
    MigrationStats,
};

// ---------------------------------------------------------------------------
// workload mix
// ---------------------------------------------------------------------------

/// A weighted mixture of applications that arriving sessions request.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    entries: Vec<(App, f64)>,
    total: f64,
}

impl WorkloadMix {
    /// A uniform mix over `apps`.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty.
    pub fn uniform(apps: impl IntoIterator<Item = impl Into<App>>) -> Self {
        Self::weighted(apps.into_iter().map(|a| (a, 1.0)))
    }

    /// A mix with explicit per-app weights.
    ///
    /// # Panics
    ///
    /// Panics if no entry has a positive finite weight.
    pub fn weighted(entries: impl IntoIterator<Item = (impl Into<App>, f64)>) -> Self {
        let entries: Vec<(App, f64)> = entries
            .into_iter()
            .map(|(app, w)| (app.into(), w))
            .collect();
        assert!(
            entries.iter().all(|(_, w)| w.is_finite() && *w >= 0.0),
            "mix weights must be finite and non-negative"
        );
        let total: f64 = entries.iter().map(|(_, w)| w).sum();
        assert!(total > 0.0, "workload mix needs positive total weight");
        WorkloadMix { entries, total }
    }

    /// The apps in the mix, in declaration order.
    pub fn apps(&self) -> impl Iterator<Item = &App> {
        self.entries.iter().map(|(app, _)| app)
    }

    /// Draws one app (one `f64` from the stream per call, so draw counts
    /// stay deterministic).
    pub(crate) fn sample(&self, rng: &mut SmallRng) -> App {
        let mut x = rng.gen::<f64>() * self.total;
        for (app, w) in &self.entries {
            x -= w;
            if x <= 0.0 {
                return app.clone();
            }
        }
        self.entries.last().expect("non-empty mix").0.clone()
    }
}

// ---------------------------------------------------------------------------
// arrivals
// ---------------------------------------------------------------------------

/// Session arrival/churn model, per server (a fleet of `N` servers sees
/// `N ×` these rates — load is declared as density so the same profile
/// stresses an 8-server and an 80-server fleet equally).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalConfig {
    /// Axis label (appears in cell names and reports).
    pub label: String,
    /// Open-loop Poisson arrival rate, sessions per second per server.
    /// Rejected open-loop sessions are lost.
    pub open_rate_per_sec: f64,
    /// Closed-loop client population per server. Each client joins, plays a
    /// session, thinks, and rejoins; a rejected client retries after a
    /// think time.
    pub closed_clients: usize,
    /// Mean session duration, seconds (lognormal, cv 0.5).
    pub mean_session_secs: f64,
    /// Mean think time between closed-loop sessions, seconds (exponential).
    pub mean_think_secs: f64,
}

impl ArrivalConfig {
    /// Moderate load: a half-occupied fleet with steady churn.
    pub fn moderate() -> Self {
        ArrivalConfig {
            label: "moderate".into(),
            open_rate_per_sec: 0.05,
            closed_clients: 2,
            mean_session_secs: 8.0,
            mean_think_secs: 4.0,
        }
    }

    /// Saturating load: more demand than slots, forcing rejections.
    pub fn saturating() -> Self {
        ArrivalConfig {
            label: "saturating".into(),
            open_rate_per_sec: 0.25,
            closed_clients: 6,
            mean_session_secs: 10.0,
            mean_think_secs: 2.0,
        }
    }

    /// Renames the profile (labels key grid cells, so they must be unique
    /// per grid axis).
    pub fn labelled(mut self, label: &str) -> Self {
        self.label = label.into();
        self
    }
}

/// The duration/think sampling shared by open- and closed-loop arrivals.
pub(crate) fn sample_session_secs(rng: &mut SmallRng, cfg: &ArrivalConfig) -> f64 {
    lognormal_mean_cv(rng, cfg.mean_session_secs.max(1e-3), 0.5)
}

// ---------------------------------------------------------------------------
// SLO
// ---------------------------------------------------------------------------

/// Service-level objectives checked per session-epoch sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Per-input RTT ceiling, ms (every tracked RTT above it is a
    /// violation).
    pub max_rtt_ms: f64,
    /// Per-session-epoch server-FPS floor.
    pub min_fps: f64,
}

impl SloSpec {
    /// Cloud-gaming interactivity targets: 120 ms RTT, 25 FPS.
    pub fn interactive() -> Self {
        SloSpec {
            max_rtt_ms: 120.0,
            min_fps: 25.0,
        }
    }
}

impl Default for SloSpec {
    fn default() -> Self {
        Self::interactive()
    }
}

// ---------------------------------------------------------------------------
// fleet spec
// ---------------------------------------------------------------------------

/// A fleet experiment: servers, arrivals, placement, SLOs, timing.
pub struct FleetSpec {
    /// Number of servers.
    pub servers: usize,
    /// Session slots per server (the paper co-locates up to four
    /// instances per machine).
    pub slots_per_server: usize,
    /// Per-server system configuration.
    pub server_config: SystemConfig,
    /// Arrival/churn model (rates are per server).
    pub arrivals: ArrivalConfig,
    /// What arriving sessions run.
    pub mix: WorkloadMix,
    /// Placement policy.
    pub policy: Arc<dyn PlacementPolicy>,
    /// Service-level objectives.
    pub slo: SloSpec,
    /// Epoch length (one measured window per epoch).
    pub epoch: SimDuration,
    /// Fleet horizon in epochs.
    pub epochs: u64,
    /// Warm-up simulated time at the start of every server interval.
    pub warmup: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl FleetSpec {
    /// A fleet with the experiment defaults: 4 slots/server, stock server
    /// configuration, 1 s epochs, 20 epochs, 1 s warm-up, interactive SLOs.
    pub fn new(
        servers: usize,
        mix: WorkloadMix,
        policy: Arc<dyn PlacementPolicy>,
        seed: u64,
    ) -> Self {
        FleetSpec {
            servers,
            slots_per_server: 4,
            server_config: SystemConfig::turbovnc_stock(),
            arrivals: ArrivalConfig::moderate(),
            mix,
            policy,
            slo: SloSpec::interactive(),
            epoch: SimDuration::from_secs(1),
            epochs: 20,
            warmup: SimDuration::from_secs(1),
            seed,
        }
    }

    /// Sets the arrival model.
    pub fn arrivals(mut self, arrivals: ArrivalConfig) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Sets the fleet horizon in epochs (one measured window each).
    pub fn epochs(mut self, epochs: u64) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the session slots per server.
    pub fn slots_per_server(mut self, slots: usize) -> Self {
        self.slots_per_server = slots;
        self
    }

    /// Sets the SLO targets.
    pub fn slo(mut self, slo: SloSpec) -> Self {
        self.slo = slo;
        self
    }
}

// ---------------------------------------------------------------------------
// fleet grid
// ---------------------------------------------------------------------------

/// A declarative fleet experiment matrix: fleet-size × arrival-rate ×
/// placement-policy, following the scenario-suite discipline (cell seeds
/// from cell names, reduction in grid order).
pub struct FleetGrid {
    name: String,
    seed: u64,
    sizes: Vec<usize>,
    rates: Vec<ArrivalConfig>,
    policies: Vec<Arc<dyn PlacementPolicy>>,
    mix: WorkloadMix,
    slots_per_server: usize,
    server_config: SystemConfig,
    slo: SloSpec,
    epoch: SimDuration,
    epochs: u64,
    warmup: SimDuration,
}

impl FleetGrid {
    /// Creates a grid over `mix` with no axes declared yet (axes left empty
    /// get a default: 8 servers, moderate arrivals, first-fit placement).
    pub fn new(name: &str, mix: WorkloadMix, seed: u64) -> Self {
        FleetGrid {
            name: name.into(),
            seed,
            sizes: Vec::new(),
            rates: Vec::new(),
            policies: Vec::new(),
            mix,
            slots_per_server: 4,
            server_config: SystemConfig::turbovnc_stock(),
            slo: SloSpec::interactive(),
            epoch: SimDuration::from_secs(1),
            epochs: 20,
            warmup: SimDuration::from_secs(1),
        }
    }

    /// Adds a fleet size (server count) to the size axis.
    pub fn size(mut self, servers: usize) -> Self {
        self.sizes.push(servers);
        self
    }

    /// Adds an arrival profile to the rate axis.
    pub fn rate(mut self, arrivals: ArrivalConfig) -> Self {
        self.rates.push(arrivals);
        self
    }

    /// Adds a placement policy to the policy axis.
    pub fn policy(mut self, policy: impl PlacementPolicy + 'static) -> Self {
        self.policies.push(Arc::new(policy));
        self
    }

    /// Sets the fleet horizon in epochs for every cell.
    pub fn epochs(mut self, epochs: u64) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the session slots per server for every cell.
    pub fn slots_per_server(mut self, slots: usize) -> Self {
        self.slots_per_server = slots;
        self
    }

    /// Sets the SLO targets for every cell.
    pub fn slo(mut self, slo: SloSpec) -> Self {
        self.slo = slo;
        self
    }

    /// The grid name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The grid's master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of cells the grid expands into.
    pub fn len(&self) -> usize {
        self.sizes.len().max(1) * self.rates.len().max(1) * self.policies.len().max(1)
    }

    /// Always false: a grid expands to at least one cell, since an empty
    /// axis takes its default.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Expands the grid into its cell specs, in grid order (sizes
    /// outermost, policies innermost) — the same specs [`FleetGrid::run`]
    /// executes. Public so callers can run a cell with an adjusted
    /// [`FleetEngine`] (built with [`FleetEngine::from_spec`]).
    pub fn specs(&self) -> Vec<FleetSpec> {
        let sizes = if self.sizes.is_empty() {
            vec![8]
        } else {
            self.sizes.clone()
        };
        let rates = if self.rates.is_empty() {
            vec![ArrivalConfig::moderate()]
        } else {
            self.rates.clone()
        };
        let policies: Vec<Arc<dyn PlacementPolicy>> = if self.policies.is_empty() {
            vec![Arc::new(FirstFit)]
        } else {
            self.policies.clone()
        };
        let tree = SeedTree::new(self.seed);
        let mut cells = Vec::with_capacity(self.len());
        for &servers in &sizes {
            for rate in &rates {
                for policy in &policies {
                    let name = cell_name(servers, &rate.label, policy.label());
                    cells.push(FleetSpec {
                        servers,
                        slots_per_server: self.slots_per_server,
                        server_config: self.server_config.clone(),
                        arrivals: rate.clone(),
                        mix: self.mix.clone(),
                        policy: Arc::clone(policy),
                        slo: self.slo,
                        epoch: self.epoch,
                        epochs: self.epochs,
                        warmup: self.warmup,
                        seed: tree.child(&name).master(),
                    });
                }
            }
        }
        cells
    }

    /// Runs every cell on `PICTOR_THREADS` OS threads.
    pub fn run(&self) -> FleetSuiteReport {
        self.run_with_threads(default_threads())
    }

    /// Runs every cell through [`FleetEngine::from_spec`], each fleet
    /// advancing its servers in parallel on `threads` OS threads.
    /// Byte-identical for any `threads >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or two cells share a name (duplicate
    /// axis labels).
    pub fn run_with_threads(&self, threads: usize) -> FleetSuiteReport {
        let cells = self.specs();
        {
            let mut seen = std::collections::HashSet::new();
            for spec in &cells {
                let name = cell_name(spec.servers, &spec.arrivals.label, spec.policy.label());
                assert!(
                    seen.insert(name.clone()),
                    "fleet grid {}: duplicate cell {name:?} (same axis labels declared twice)",
                    self.name
                );
            }
        }
        let reports = cells
            .iter()
            .map(|spec| FleetEngine::from_spec(spec).live().finish(threads).0)
            .collect();
        FleetSuiteReport::from_cells(&self.name, self.seed, reports)
    }
}

pub(crate) fn cell_name(servers: usize, rate: &str, policy: &str) -> String {
    format!("s{servers}/{rate}/{policy}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pictor_apps::AppId;

    pub(super) fn mix() -> WorkloadMix {
        WorkloadMix::uniform([AppId::Dota2, AppId::SuperTuxKart, AppId::ZeroAd])
    }

    pub(super) fn tiny_spec(policy: Arc<dyn PlacementPolicy>) -> FleetSpec {
        FleetSpec::new(4, mix(), policy, 2020)
            .epochs(3)
            .arrivals(ArrivalConfig::moderate())
    }

    #[test]
    fn mix_sampling_is_weighted_and_deterministic() {
        let mix = WorkloadMix::weighted([(AppId::Dota2, 3.0), (AppId::ZeroAd, 1.0)]);
        let draw = |seed: u64| {
            let mut rng = SeedTree::new(seed).stream("mix");
            (0..400)
                .map(|_| mix.sample(&mut rng).code().to_string())
                .collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        let d2 = a.iter().filter(|c| *c == "D2").count();
        assert!(d2 > 240 && d2 < 360, "weighted draw skew: {d2}/400");
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn empty_mix_panics() {
        let _ = WorkloadMix::weighted(Vec::<(App, f64)>::new());
    }

    #[test]
    fn tiny_fleet_run_produces_finite_nonzero_metrics() {
        let report = FleetEngine::from_spec(&tiny_spec(Arc::new(FirstFit)))
            .live()
            .finish(2)
            .0;
        assert!(report.admitted > 0, "no sessions admitted");
        assert!(report.session_epochs > 0);
        assert!(report.utilization > 0.0 && report.utilization <= 1.0);
        assert!(report.fps.p50() > 0.0, "fps p50 {}", report.fps.p50());
        assert!(report.fps.p99() >= report.fps.p50());
        assert!(report.tracked_inputs > 0, "no RTTs tracked");
        assert!(report.rtt.p99() >= report.rtt.p50());
        assert!(report.rtt.p50() > 0.0);
        assert!(report.non_finite_paths().is_empty());
    }

    #[test]
    fn fleet_runs_identically_on_any_thread_count() {
        let spec = tiny_spec(Arc::new(InterferenceAware));
        let one = FleetEngine::from_spec(&spec).live().finish(1).0;
        let four = FleetEngine::from_spec(&spec).live().finish(4).0;
        assert_eq!(one.metrics(), four.metrics());
    }

    #[test]
    fn grid_expands_and_reports() {
        let suite = FleetGrid::new("unit_fleet", mix(), 11)
            .size(2)
            .size(3)
            .rate(ArrivalConfig::moderate())
            .policy(FirstFit)
            .policy(LeastContended)
            .epochs(2)
            .run_with_threads(2);
        assert_eq!(suite.cells().len(), 4);
        suite.assert_finite();
        let cell = suite.cell(2, "moderate", "first-fit");
        assert!(cell.admitted > 0);
        let json = suite.to_json();
        assert!(json.contains("\"s2/moderate/first-fit\""));
        assert!(suite.to_csv().contains("s3/moderate/least-contended"));
        assert!(suite.summary_table().contains("FPS p50/p99"));
    }

    #[test]
    #[should_panic(expected = "duplicate cell")]
    fn duplicate_axis_labels_panic() {
        let _ = FleetGrid::new("dup", mix(), 1)
            .size(2)
            .policy(FirstFit)
            .policy(FirstFit)
            .epochs(1)
            .run_with_threads(1);
    }
}
