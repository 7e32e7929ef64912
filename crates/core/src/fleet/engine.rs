//! The event-driven fleet engine: the one way a fleet runs.
//!
//! [`FleetEngine::live`] opens a run and [`LiveFleet::finish`] seals it.
//! In between, arrival requests (an open Poisson stream, pre-drawn
//! closed-loop client joins, and dynamic rejoins, retries and recovery
//! re-offers) interleave with one pooled [`EventQueue`] of departures,
//! warm-ups and autoscale ticks, ordered by time and then insertion. That
//! structure is what lets the engine scale to 1000+ heterogeneous servers
//! and millions of session arrivals, and what admits the dynamic policies
//! — utilization-driven autoscaling with warm-up lag, migration of
//! sessions off contended servers, and admission backpressure with a
//! bounded retry queue (see [`autoscale`](super::autoscale)).
//!
//! # Execution model
//!
//! * Arrivals pop in (time, class, generation) order, each drawing its
//!   app and duration from a named `SeedTree` stream, and are quantized to
//!   whole epochs: a session occupies `[start_epoch, end_epoch)`.
//! * A request is placed at its *effective* time (`start_epoch × epoch`):
//!   every departure and tick at or before that boundary lands first, so
//!   placement sees exactly the sessions resident at the start epoch, and
//!   the critical-point span check ([`fits_span`](EngineState::fits_span))
//!   equals a per-epoch scan of the candidate's whole span.
//! * [`LiveFleet::finish`] carves every server's occupancy timeline into
//!   maximal intervals with an unchanged session set (cut at fault edges)
//!   and runs the data plane over them in parallel, its samples folded per
//!   worker and merged exactly, so the report is byte-identical for any
//!   thread count.
//!
//! `tests/golden/fleet_sweep.json` pins static [`FleetSpec`] cells on the
//! simulated data plane; `tests/fleet_engine_determinism.rs` pins a
//! dynamic heterogeneous probe across thread counts and against
//! `tests/golden/fleet_engine.json`.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pictor_apps::{App, AppProfile};
use pictor_hw::{GpuModel, ServerSpec};
use pictor_render::contention::contention_states;
use pictor_render::{CloudSystem, HumanDriver, SystemConfig};
use pictor_sim::rng::exponential;
use pictor_sim::{EventId, EventQueue, Histogram, SeedTree, SimDuration, SimTime};

use crate::tracker::InputTracker;

use super::faults::{FaultKind, FaultPlan, Health};
use super::policy::VictimCandidate;
use super::report::{
    AutoscaleStats, BackpressureStats, FaultStats, FleetDynamics, FleetReport, MigrationStats,
};
use super::{
    sample_session_secs, ArrivalConfig, AutoscaleConfig, BackpressureConfig, FleetSpec,
    MigrationConfig, PlacementPolicy, ServerLoad, SloSpec, WorkloadMix,
};

// ---------------------------------------------------------------------------
// engine configuration
// ---------------------------------------------------------------------------

/// A homogeneous slice of the fleet: `servers` machines sharing one
/// [`SystemConfig`]. Groups are the unit of heterogeneity (GPU model per
/// group) and autoscaling (watermarks evaluated per group).
#[derive(Clone)]
pub struct GroupSpec {
    /// Group label (reports and debugging).
    pub label: String,
    /// Servers in the group.
    pub servers: usize,
    /// The configuration every server in the group runs.
    pub config: SystemConfig,
}

impl GroupSpec {
    /// A group of `servers` machines running `config`.
    pub fn new(label: &str, servers: usize, config: SystemConfig) -> Self {
        GroupSpec {
            label: label.into(),
            servers,
            config,
        }
    }

    /// A group of paper-chassis servers fitted with `model` GPUs, labelled
    /// by the GPU (`ServerSpec::with_gpu`); everything else comes from
    /// `base`.
    pub fn with_gpu(servers: usize, base: &SystemConfig, model: GpuModel) -> Self {
        let mut config = base.clone();
        config.server = ServerSpec::with_gpu(model);
        GroupSpec {
            label: model.label().into(),
            servers,
            config,
        }
    }
}

/// How the engine turns placed sessions into FPS/RTT samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPlane {
    /// Full `CloudSystem` simulation per occupancy interval: warm-up, then
    /// one measured window per epoch, with RTTs tracked across the whole
    /// interval.
    Simulated,
    /// Closed-form analytic plane from the paper's contention model:
    /// per-interval [`contention_states`] feed FPS and pipeline-sum RTT
    /// with deterministic hash jitter. ~10⁴× cheaper per session-epoch;
    /// this is what makes million-session days tractable.
    Surrogate,
}

/// The outcome of offering one arrival to the control plane — what a
/// serving layer reports back to the requesting client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The session was placed.
    Admitted {
        /// Session id (stable across migration and fault recovery).
        session: u64,
        /// The server the session starts on.
        server: usize,
        /// First occupied epoch.
        start_epoch: u64,
        /// One past the last occupied epoch.
        end_epoch: u64,
    },
    /// No feasible server and no queue slot: the request is lost.
    Rejected,
    /// Parked in the bounded backpressure queue; the engine re-offers it
    /// later on its own (the caller must not re-offer).
    Parked,
    /// The arrival's start epoch lies at or past the horizon: dropped
    /// silently, with no offer and no RNG draws.
    PastHorizon,
}

/// Recorded occupancy of one server by one session segment (a migrated
/// session contributes one segment per server it visited).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Session id.
    pub session: u64,
    /// Server index.
    pub server: usize,
    /// First occupied epoch.
    pub start_epoch: u64,
    /// One past the last occupied epoch.
    pub end_epoch: u64,
    /// GPU memory the session holds while resident, MiB.
    pub gpu_mib: u64,
}

/// Ground-truth trace of an engine run for invariant checking: every
/// placement segment, per-server capacities and activity windows, and the
/// full admission ledger. The property suite
/// (`crates/core/tests/fleet_invariants.rs`) audits conservation, capacity
/// and no-drop guarantees from this, independently of the report.
#[derive(Debug, Clone, Default)]
pub struct FleetAudit {
    /// Placement attempts (initial offers + backpressure re-offers).
    pub offered: u64,
    /// Distinct sessions admitted.
    pub admitted: u64,
    /// Attempts finally rejected.
    pub rejected: u64,
    /// Attempts parked in the backpressure queue (every park counts).
    pub queued: u64,
    /// Parked attempts re-offered.
    pub retried: u64,
    /// Parked attempts whose retry fell past the horizon.
    pub expired: u64,
    /// Attempts refused because the queue was full.
    pub dropped: u64,
    /// Sessions migrated between servers.
    pub migrations: u64,
    /// Largest pending-queue length observed.
    pub peak_queue: usize,
    /// Session slots per server.
    pub slots_per_server: usize,
    /// Every occupancy segment of the run.
    pub placements: Vec<Placement>,
    /// Per-server *pristine* GPU capacity, MiB (degradation steps are in
    /// [`FleetAudit::capacity_steps`]).
    pub gpu_capacity_mib: Vec<u64>,
    /// Per-server active windows `[start, end)` in epochs (the whole
    /// horizon when autoscaling is off).
    pub activity: Vec<Vec<(u64, u64)>>,
    /// Per-server capacity changes from fault injection: `(epoch, new
    /// MiB)` in epoch order; empty without degradation. Effective capacity
    /// at epoch `e` is the last step at or before `e`, else the pristine
    /// value.
    pub capacity_steps: Vec<Vec<(u64, u64)>>,
    /// Sessions orphaned by crashes.
    pub orphaned: u64,
    /// Sessions evicted by capacity degradation.
    pub evicted: u64,
    /// Orphaned/evicted sessions successfully re-placed.
    pub recovered: u64,
    /// Orphaned/evicted sessions lost for good.
    pub lost: u64,
}

/// The fleet runner. See the module docs for the execution model;
/// [`FleetEngine::from_spec`] builds the configuration for a
/// [`FleetSpec`], and [`FleetEngine::live`] runs it.
///
/// Cloning is cheap-ish: configs and an `Arc`'d policy.
#[derive(Clone)]
pub struct FleetEngine {
    /// Server groups, concatenated in order to form the fleet's server
    /// index space.
    pub groups: Vec<GroupSpec>,
    /// Session slots per server.
    pub slots_per_server: usize,
    /// Arrival/churn model (rates are per server, fleet-wide total scales
    /// with the summed group sizes).
    pub arrivals: ArrivalConfig,
    /// What arriving sessions run.
    pub mix: WorkloadMix,
    /// Placement policy.
    pub policy: Arc<dyn PlacementPolicy>,
    /// Service-level objectives.
    pub slo: SloSpec,
    /// Epoch length.
    pub epoch: SimDuration,
    /// Fleet horizon in epochs.
    pub epochs: u64,
    /// Warm-up simulated time per data-plane interval.
    pub warmup: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// FPS/RTT sample source.
    pub data_plane: DataPlane,
    /// Utilization-driven per-group autoscaling.
    pub autoscale: Option<AutoscaleConfig>,
    /// Contention-relief session migration.
    pub migration: Option<MigrationConfig>,
    /// Bounded-queue admission backpressure.
    pub backpressure: Option<BackpressureConfig>,
    /// Deterministic fault injection ([`FaultPlan`]). `None` — or an
    /// *empty* plan — leaves every fault code path cold: the report is
    /// byte-identical to the fault-free engine.
    pub faults: Option<FaultPlan>,
}

impl FleetEngine {
    /// The engine configuration for `spec`: one group, simulated data
    /// plane, no dynamic policies.
    pub fn from_spec(spec: &FleetSpec) -> Self {
        FleetEngine {
            groups: vec![GroupSpec::new(
                "default",
                spec.servers,
                spec.server_config.clone(),
            )],
            slots_per_server: spec.slots_per_server,
            arrivals: spec.arrivals.clone(),
            mix: spec.mix.clone(),
            policy: Arc::clone(&spec.policy),
            slo: spec.slo,
            epoch: spec.epoch,
            epochs: spec.epochs,
            warmup: spec.warmup,
            seed: spec.seed,
            data_plane: DataPlane::Simulated,
            autoscale: None,
            migration: None,
            backpressure: None,
            faults: None,
        }
    }

    /// Total servers across all groups.
    pub fn total_servers(&self) -> usize {
        self.groups.iter().map(|g| g.servers).sum()
    }

    /// Opens a run. The caller may feed arrivals one at a time
    /// ([`LiveFleet::offer_arrival`]) and step the epoch clock
    /// ([`LiveFleet::step_to`]) — the interface a long-running serving
    /// daemon needs — and seals it with [`LiveFleet::finish`], which on its
    /// own runs the whole fleet to the horizon. Internal arrival streams
    /// (open Poisson, closed clients, parked retries, fault-recovery
    /// re-offers) always fire: they are drained up to each offered
    /// timestamp, internal-before-external at equal times, so a run that
    /// offers the same external arrivals at the same times is
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the group list, any group size, `slots_per_server`,
    /// `epochs` or the epoch length is zero, or a dynamic-policy config or
    /// the fault plan fails validation.
    pub fn live(&self) -> LiveFleet<'_> {
        assert!(!self.groups.is_empty(), "fleet needs at least one group");
        assert!(
            self.groups.iter().all(|g| g.servers > 0),
            "every group needs at least one server"
        );
        assert!(self.slots_per_server > 0, "need at least one slot");
        assert!(self.epochs > 0, "fleet horizon must be positive");
        assert!(!self.epoch.is_zero(), "epoch length must be positive");
        if let Some(a) = &self.autoscale {
            a.validate();
        }
        if let Some(m) = &self.migration {
            m.validate();
        }
        if let Some(b) = &self.backpressure {
            b.validate();
        }
        if let Some(f) = &self.faults {
            f.validate();
        }
        let mut st = EngineState::new(self);
        if st.faults.is_some() {
            // Faults at epoch 0 strike before any placement (advance_to(0)
            // is a no-op for the first arrivals).
            st.fault_step(0);
        }
        LiveFleet { st, last_ns: 0 }
    }
}

// ---------------------------------------------------------------------------
// incremental driving
// ---------------------------------------------------------------------------

/// Per-session telemetry estimate from the live control-plane state (the
/// surrogate closed-form — cheap enough to stream on every poll).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionTelemetry {
    /// Session id.
    pub session: u64,
    /// Estimated frames per second under the current co-residency.
    pub fps: f64,
    /// Estimated end-to-end RTT, milliseconds.
    pub rtt_ms: f64,
}

/// A point-in-time view of the live fleet for status streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// Last fully processed epoch boundary.
    pub epoch: u64,
    /// Placement attempts so far (admission ledger).
    pub offered: u64,
    /// Distinct sessions admitted so far.
    pub admitted: u64,
    /// Attempts finally rejected so far.
    pub rejected: u64,
    /// Requests currently parked in the backpressure queue.
    pub queued_now: usize,
    /// Servers currently able to take placements.
    pub serving_servers: usize,
    /// Sessions currently resident across the fleet.
    pub resident_sessions: usize,
}

/// An open, incrementally driven fleet run — see [`FleetEngine::live`].
///
/// The caller owns the clock: every [`offer_arrival`](Self::offer_arrival)
/// and [`step_to`](Self::step_to) carries a nanosecond timestamp that must
/// be nondecreasing, and [`finish`](Self::finish) runs the rest of the
/// horizon and the data plane and closes the books.
pub struct LiveFleet<'a> {
    st: EngineState<'a>,
    last_ns: u64,
}

impl<'a> LiveFleet<'a> {
    /// Processes internal arrivals (open stream, client joins, retries)
    /// with timestamps at or before `upto_ns`.
    fn drain_internal(&mut self, upto_ns: u64) {
        while let Some(t) = self.st.source.peek_time() {
            if t > upto_ns {
                break;
            }
            let (t, req) = self.st.source.next().expect("peeked arrival");
            self.st.process_request(t, req);
        }
    }

    /// Offers one external arrival at `at_ns`: `app` for `duration_ns` of
    /// service. Internal arrivals due at or before `at_ns` are processed
    /// first (internal-before-external at equal times), then this request
    /// runs the same admission step internal arrivals use.
    ///
    /// # Panics
    ///
    /// Panics if `at_ns` precedes an earlier offer or step.
    pub fn offer_arrival(&mut self, at_ns: u64, app: App, duration_ns: u64) -> Admission {
        assert!(
            at_ns >= self.last_ns,
            "arrivals must be offered in nondecreasing time order ({at_ns} < {})",
            self.last_ns
        );
        self.last_ns = at_ns;
        self.drain_internal(at_ns);
        self.st.process_request(
            at_ns,
            Request {
                app,
                duration_ns,
                client: None,
                parked: false,
                resume: None,
            },
        )
    }

    /// Advances the fleet to `at_ns` with no new arrival: internal
    /// arrivals due by then are processed and every epoch boundary at or
    /// before `at_ns` is ticked (departures, autoscale, migration,
    /// faults). Idle time in a serving daemon maps to this.
    ///
    /// # Panics
    ///
    /// Panics if `at_ns` precedes an earlier offer or step.
    pub fn step_to(&mut self, at_ns: u64) {
        assert!(
            at_ns >= self.last_ns,
            "steps must move forward in time ({at_ns} < {})",
            self.last_ns
        );
        self.last_ns = at_ns;
        self.drain_internal(at_ns);
        let boundary = (at_ns / self.st.eps).min(self.st.eng.epochs);
        self.st.advance_to(boundary);
    }

    /// The engine's epoch length in nanoseconds.
    pub fn epoch_ns(&self) -> u64 {
        self.st.eps
    }

    /// The run horizon in nanoseconds.
    pub fn horizon_ns(&self) -> u64 {
        self.st.horizon_ns
    }

    /// The last fully processed epoch boundary.
    pub fn current_epoch(&self) -> u64 {
        self.st.cur_epoch
    }

    /// A point-in-time control-plane snapshot.
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            epoch: self.st.cur_epoch,
            offered: self.st.offered,
            admitted: self.st.next_session,
            rejected: self.st.rejected,
            queued_now: self.st.queue_len,
            serving_servers: self.st.srv.iter().filter(|s| s.serving()).count(),
            resident_sessions: self.st.resident.iter().sum(),
        }
    }

    /// Telemetry estimates for every session resident on `server` at
    /// `epoch`, in session-id order — the surrogate closed-form evaluated
    /// against the server's committed occupancy, so it is a pure function
    /// of the control-plane state (journal replay reproduces it byte for
    /// byte).
    ///
    /// The resident set is every non-void segment on `server` that covers
    /// `epoch`, looked up among the segments still assigned there and
    /// those that left at boundary [`current_epoch`](Self::current_epoch).
    /// That is complete for any `epoch >= current_epoch() - 1`, which every
    /// poll meets: after [`step_to(at_ns)`](Self::step_to), `epoch = at_ns
    /// / epoch_ns()` satisfies `current_epoch() <= epoch + 1`, because an
    /// earlier offer at `t <= at_ns` advances the boundary at most to
    /// `ceil(t / epoch_ns())`.
    pub fn server_telemetry(&self, server: usize, epoch: u64) -> Vec<SessionTelemetry> {
        let Some(srv) = self.st.srv.get(server) else {
            return Vec::new();
        };
        let mut sessions: Vec<&Seg> = srv
            .live
            .iter()
            .chain(&self.st.left)
            .map(|&si| &self.st.segs[si as usize])
            .filter(|seg| seg.server == server && seg.covers(epoch))
            .collect();
        sessions.sort_unstable_by_key(|seg| seg.session);
        let profiles: Vec<&AppProfile> = sessions.iter().map(|seg| &seg.app.profile).collect();
        let config = &self.st.eng.groups[srv.group].config;
        let seed = self.st.eng.seed;
        sessions
            .iter()
            .zip(surrogate_rates(config, &profiles))
            .map(|(seg, (fps, base))| SessionTelemetry {
                session: seg.session,
                fps,
                rtt_ms: surrogate_rtt(seed, server, epoch, seg.session, 0, base),
            })
            .collect()
    }

    /// The telemetry estimate of `session` at `epoch`: `Some` exactly when
    /// a non-void segment of the session covers `epoch`, evaluated against
    /// every session resident on that segment's server then (the same
    /// closed form and resident set as
    /// [`server_telemetry`](Self::server_telemetry), under the same
    /// `current_epoch() <= epoch + 1` contract). `None` when the session
    /// was never admitted, has not started yet, has ended, or is between
    /// servers in a migration transfer. `session` may be any value: ids
    /// come off the wire.
    pub fn session_telemetry(&self, session: u64, epoch: u64) -> Option<SessionTelemetry> {
        let latest = *usize::try_from(session)
            .ok()
            .and_then(|i| self.st.session_seg.get(i))?;
        // Only the latest segment, or an earlier one cut at boundary
        // `cur_epoch` (by a migration, or by a fault whose orphan was
        // already re-placed), can cover `epoch`.
        let seg = std::iter::once(&latest)
            .chain(&self.st.left)
            .map(|&si| &self.st.segs[si as usize])
            .find(|seg| seg.session == session && seg.covers(epoch))?;
        self.server_telemetry(seg.server, epoch)
            .into_iter()
            .find(|t| t.session == session)
    }

    /// Seals the run: drains every remaining internal arrival, advances to
    /// the horizon, runs the data plane on `threads` OS threads (folded per
    /// worker, merged exactly) and builds the report and its audit trace.
    /// The result is byte-identical for any `threads >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn finish(mut self, threads: usize) -> (FleetReport, FleetAudit) {
        assert!(threads > 0, "need at least one thread");
        self.drain_internal(u64::MAX);
        let horizon = self.st.eng.epochs;
        self.st.advance_to(horizon);
        self.st.finish(threads)
    }
}

// ---------------------------------------------------------------------------
// control plane
// ---------------------------------------------------------------------------

/// Events flowing through the engine's queue, ordered by time and then
/// insertion.
#[derive(Debug, Clone, Copy)]
enum FleetEvent {
    /// A session segment leaves its server at `end_epoch × epoch`.
    Departure { server: usize, seg: u32 },
    /// Per-group autoscale evaluation (the epoch is the event time).
    GroupTick { group: usize },
    /// A warming server becomes placeable.
    Warm { server: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Active,
    Warming,
    Inactive,
}

struct Srv {
    group: usize,
    gpu_capacity_mib: u64,
    status: Status,
    /// Fault-injection health, orthogonal to the autoscale `status` (a
    /// crashed server stays `Active` in the autoscaler's books — the
    /// utilization denominator filters on `serving` instead).
    health: Health,
    /// Epoch the current non-`Healthy` health state began (downtime
    /// accounting).
    health_since: u64,
    /// Segment indices currently assigned here (admission order). Includes
    /// migration-created segments that start in a future epoch.
    live: Vec<u32>,
    /// Active windows `[start, end)`; `u64::MAX` end = still open.
    activity: Vec<(u64, u64)>,
}

impl Srv {
    /// Placeable: up per the autoscaler *and* healthy enough to serve.
    fn serving(&self) -> bool {
        self.status == Status::Active && self.health.serving()
    }
}

struct Seg {
    session: u64,
    app: App,
    server: usize,
    start: u64,
    end: u64,
    departure: EventId,
}

impl Seg {
    /// A crash/eviction can null a not-yet-started segment in place
    /// (`end == start`); such segments occupy nothing and emit no
    /// placement record.
    fn is_void(&self) -> bool {
        self.end <= self.start
    }

    /// Occupies epoch `e` (never true of a void segment).
    fn covers(&self, e: u64) -> bool {
        self.start <= e && e < self.end
    }
}

/// Recovery identity carried by a re-placement attempt for a session that
/// lost its server to a fault.
#[derive(Debug, Clone, Copy)]
struct Resume {
    /// The original session id (re-placement keeps it).
    session: u64,
    /// Placement attempts already failed.
    attempt: u32,
    /// Epoch the session lost its server.
    orphaned_at: u64,
}

/// One pending request in the online loop.
struct Request {
    app: App,
    duration_ns: u64,
    client: Option<usize>,
    /// True for backpressure retries: the attempt re-offers the original
    /// request without burning client RNG draws.
    parked: bool,
    /// Present for fault-recovery re-placements of orphaned sessions.
    resume: Option<Resume>,
}

/// A materialized fault operation, processed from the fault heap at its
/// epoch, after the boundary's queued events and before migration.
#[derive(Debug, Clone, Copy)]
enum FaultOp {
    /// Begin a notified crash: `Draining` now, down after `drain_epochs`.
    Drain {
        drain_epochs: u64,
        restart_after: Option<u64>,
        warmup: u64,
    },
    /// The server goes `Down`, orphaning residents.
    Crash {
        restart_after: Option<u64>,
        warmup: u64,
    },
    /// GPU memory shrinks by `severity`; evict until capacity holds.
    Degrade {
        severity: f64,
        recover_after: Option<u64>,
    },
    /// Degradation heals: capacity returns to pristine.
    DegradeRecover,
    /// `Down` → `WarmingUp`.
    Restart { warmup: u64 },
    /// `WarmingUp` → `Healthy`: the server is placeable again.
    WarmDone,
    /// RTT inflation window opens on this server.
    Brownout {
        rtt_factor: f64,
        jitter_ms: f64,
        duration: u64,
    },
}

/// The three-way arrival merge, ordered by time, then class, then
/// generation order: at equal times open arrivals precede client first
/// joins, which precede every dynamically pushed rejoin/retry.
struct ArrivalSource {
    open_rng: Option<rand::rngs::SmallRng>,
    open_mean_gap_ns: f64,
    open_t: u64,
    open_next: Option<(u64, App, u64)>,
    /// Pre-drawn client first joins, sorted by (time, client).
    joins: Vec<(u64, usize, App, u64)>,
    join_cursor: usize,
    /// Dynamic heap keyed by (time, push order) with pooled payloads, so a
    /// steady state of bounded outstanding requests allocates nothing.
    dyn_heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    dyn_slots: Vec<Option<Request>>,
    dyn_free: Vec<u32>,
    dyn_order: u64,
    horizon_ns: u64,
    mix: WorkloadMix,
    arrivals: ArrivalConfig,
}

impl ArrivalSource {
    fn new(eng: &FleetEngine, tree: &SeedTree, horizon_ns: u64) -> Self {
        let total = eng.total_servers();
        let rate = eng.arrivals.open_rate_per_sec * total as f64;
        let mut src = ArrivalSource {
            open_rng: (rate > 0.0).then(|| tree.stream("open-arrivals")),
            open_mean_gap_ns: if rate > 0.0 { 1e9 / rate } else { 0.0 },
            open_t: 0,
            open_next: None,
            joins: Vec::new(),
            join_cursor: 0,
            dyn_heap: BinaryHeap::new(),
            dyn_slots: Vec::new(),
            dyn_free: Vec::new(),
            dyn_order: 0,
            horizon_ns,
            mix: eng.mix.clone(),
            arrivals: eng.arrivals.clone(),
        };
        src.advance_open();
        src
    }

    /// Draws the next open arrival lazily — one (gap, app, secs) triple per
    /// call.
    fn advance_open(&mut self) {
        self.open_next = None;
        let Some(rng) = self.open_rng.as_mut() else {
            return;
        };
        self.open_t = self
            .open_t
            .saturating_add(exponential(rng, self.open_mean_gap_ns).round() as u64);
        if self.open_t >= self.horizon_ns {
            self.open_rng = None;
            return;
        }
        let app = self.mix.sample(rng);
        let secs = sample_session_secs(rng, &self.arrivals);
        self.open_next = Some((self.open_t, app, (secs * 1e9).round() as u64));
    }

    fn push_dynamic(&mut self, at: u64, req: Request) {
        let slot = match self.dyn_free.pop() {
            Some(s) => {
                self.dyn_slots[s as usize] = Some(req);
                s
            }
            None => {
                let s = self.dyn_slots.len() as u32;
                self.dyn_slots.push(Some(req));
                s
            }
        };
        let order = self.dyn_order;
        self.dyn_order += 1;
        self.dyn_heap.push(Reverse((at, order, slot)));
    }

    /// Earliest pending internal arrival time, without popping.
    fn peek_time(&self) -> Option<u64> {
        let open_t = self.open_next.as_ref().map(|(t, _, _)| *t);
        let join_t = self.joins.get(self.join_cursor).map(|j| j.0);
        let dyn_t = self.dyn_heap.peek().map(|Reverse((t, _, _))| *t);
        [open_t, join_t, dyn_t].into_iter().flatten().min()
    }

    fn next(&mut self) -> Option<(u64, Request)> {
        // Class keys: 0 = open arrival, 1 = client first join, 2 = dynamic.
        let open_t = self.open_next.as_ref().map(|(t, _, _)| *t);
        let join_t = self.joins.get(self.join_cursor).map(|j| j.0);
        let dyn_t = self.dyn_heap.peek().map(|Reverse((t, _, _))| *t);
        let best = [(open_t, 0u8), (join_t, 1), (dyn_t, 2)]
            .into_iter()
            .filter_map(|(t, class)| t.map(|t| (t, class)))
            .min()?;
        match best.1 {
            0 => {
                let (t, app, duration_ns) = self.open_next.take().expect("open candidate");
                self.advance_open();
                Some((
                    t,
                    Request {
                        app,
                        duration_ns,
                        client: None,
                        parked: false,
                        resume: None,
                    },
                ))
            }
            1 => {
                let (t, c, app, duration_ns) = self.joins[self.join_cursor].clone();
                self.join_cursor += 1;
                Some((
                    t,
                    Request {
                        app,
                        duration_ns,
                        client: Some(c),
                        parked: false,
                        resume: None,
                    },
                ))
            }
            _ => {
                let Reverse((t, _, slot)) = self.dyn_heap.pop().expect("dyn candidate");
                let req = self.dyn_slots[slot as usize].take().expect("live dyn slot");
                self.dyn_free.push(slot);
                Some((t, req))
            }
        }
    }
}

struct EngineState<'a> {
    eng: &'a FleetEngine,
    eps: u64,
    horizon_ns: u64,
    tree: SeedTree,
    srv: Vec<Srv>,
    group_range: Vec<(usize, usize)>,
    segs: Vec<Seg>,
    /// Session id → its latest segment, kept by `admit` and `migrate`.
    session_seg: Vec<u32>,
    /// Segments that left `srv.live` at boundary `cur_epoch` (departure,
    /// migration or `detach_seg`), cleared as each boundary begins: with
    /// `srv.live` they hold every segment resident at `cur_epoch - 1`.
    left: Vec<u32>,
    events: EventQueue<FleetEvent>,
    source: ArrivalSource,
    client_rngs: Vec<rand::rngs::SmallRng>,
    /// Active servers with a free slot at the current epoch — an exact
    /// superset filter for the first-fit fast path.
    free_now: BTreeSet<usize>,
    resident: Vec<usize>,
    /// Migration-created segments that start in a future epoch, keyed by
    /// (start_epoch, server, segment). The segment rides along so a pop
    /// can skip entries whose segment a crash voided in the meantime.
    future_starts: BinaryHeap<Reverse<(u64, usize, u32)>>,
    cur_epoch: u64,
    conc_delta: Vec<i64>,
    next_session: u64,
    fast_first_fit: bool,
    // counters
    offered: u64,
    rejected: u64,
    queued: u64,
    retried: u64,
    expired: u64,
    dropped: u64,
    queue_len: usize,
    peak_queue: usize,
    migrations: u64,
    migration_evals: u64,
    grow_events: u64,
    shrink_events: u64,
    min_active: usize,
    max_active: usize,
    /// The normalized fault plan: `None` when unset *or empty*, so every
    /// fault branch below is cold on a fault-free run.
    faults: Option<&'a FaultPlan>,
    /// Pending fault ops keyed by (epoch, sequence); payloads live in
    /// `fault_payload[seq]`. Sequence order — materialization order, then
    /// runtime push order — breaks same-epoch ties deterministically.
    fault_heap: BinaryHeap<Reverse<(u64, u64)>>,
    fault_payload: Vec<(usize, FaultOp)>,
    /// The fault ledger (reported as [`FaultStats`]).
    fl: FaultStats,
    /// Per-server brownout windows `(start, end, rtt_factor, jitter_ms)`.
    net_windows: Vec<Vec<(u64, u64, f64, f64)>>,
    /// Per-server capacity changes `(epoch, new MiB)` in epoch order.
    capacity_steps: Vec<Vec<(u64, u64)>>,
    /// Per-server extra carve boundaries (degradation steps and brownout
    /// edges), so every data-plane interval sees one constant fault state.
    fault_cuts: Vec<Vec<u64>>,
}

impl<'a> EngineState<'a> {
    fn new(eng: &'a FleetEngine) -> Self {
        let eps = eng.epoch.as_nanos();
        let horizon_ns = eps.saturating_mul(eng.epochs);
        let tree = SeedTree::new(eng.seed);
        let mut srv = Vec::with_capacity(eng.total_servers());
        let mut group_range = Vec::with_capacity(eng.groups.len());
        for (g, group) in eng.groups.iter().enumerate() {
            let base = srv.len();
            // With autoscaling, each group starts at its floor and grows on
            // demand; otherwise the whole fleet is up for the whole run.
            let initially_active = match &eng.autoscale {
                Some(a) => a.min_active_per_group.min(group.servers),
                None => group.servers,
            };
            for i in 0..group.servers {
                let active = i < initially_active;
                srv.push(Srv {
                    group: g,
                    gpu_capacity_mib: group.config.server.gpu_memory_mib,
                    status: if active {
                        Status::Active
                    } else {
                        Status::Inactive
                    },
                    health: Health::Healthy,
                    health_since: 0,
                    live: Vec::new(),
                    activity: if active {
                        vec![(0, u64::MAX)]
                    } else {
                        Vec::new()
                    },
                });
            }
            group_range.push((base, srv.len()));
        }
        let active_count = srv.iter().filter(|s| s.status == Status::Active).count();
        let free_now: BTreeSet<usize> = srv
            .iter()
            .enumerate()
            .filter(|(_, s)| s.status == Status::Active)
            .map(|(i, _)| i)
            .collect();
        let total = srv.len();
        let mut events = EventQueue::new();
        // Seed the per-group autoscale ticks.
        if let Some(a) = &eng.autoscale {
            if a.eval_every_epochs < eng.epochs {
                for group in 0..eng.groups.len() {
                    events.schedule(
                        SimTime::from_nanos(a.eval_every_epochs.saturating_mul(eps)),
                        FleetEvent::GroupTick { group },
                    );
                }
            }
        }
        // Pre-draw client first joins in client order, then sort stably by
        // time so equal-time joins keep it.
        let closed = eng.arrivals.closed_clients * total;
        let mut client_rngs: Vec<_> = (0..closed)
            .map(|c| tree.stream_indexed("client-", c as u64))
            .collect();
        let mut source = ArrivalSource::new(eng, &tree, horizon_ns);
        for (c, rng) in client_rngs.iter_mut().enumerate() {
            let at = (exponential(rng, eng.arrivals.mean_think_secs.max(1e-3) * 1e9 / 2.0)).round()
                as u64;
            if at >= horizon_ns {
                continue;
            }
            let app = eng.mix.sample(rng);
            let secs = sample_session_secs(rng, &eng.arrivals);
            source.joins.push((at, c, app, (secs * 1e9).round() as u64));
        }
        source.joins.sort_by_key(|j| j.0);
        // Normalize the fault plan (empty ⇒ None) and materialize its
        // injection schedule up front: the heap is a pure function of
        // (plan, seed, fleet shape), independent of threads.
        let faults = eng.faults.as_ref().filter(|p| !p.is_empty());
        let mut fault_heap = BinaryHeap::new();
        let mut fault_payload: Vec<(usize, FaultOp)> = Vec::new();
        if let Some(plan) = faults {
            for ev in plan.materialize(&tree, total, eng.epochs) {
                let op = match ev.kind {
                    FaultKind::Crash {
                        drain_epochs,
                        restart_after_epochs,
                        warmup_epochs,
                    } => {
                        if drain_epochs > 0 {
                            FaultOp::Drain {
                                drain_epochs,
                                restart_after: restart_after_epochs,
                                warmup: warmup_epochs,
                            }
                        } else {
                            FaultOp::Crash {
                                restart_after: restart_after_epochs,
                                warmup: warmup_epochs,
                            }
                        }
                    }
                    FaultKind::GpuDegrade {
                        severity,
                        recover_after_epochs,
                    } => FaultOp::Degrade {
                        severity,
                        recover_after: recover_after_epochs,
                    },
                    FaultKind::NetBrownout {
                        rtt_factor,
                        jitter_ms,
                        duration_epochs,
                    } => FaultOp::Brownout {
                        rtt_factor,
                        jitter_ms,
                        duration: duration_epochs,
                    },
                };
                let seq = fault_payload.len() as u64;
                fault_payload.push((ev.server, op));
                fault_heap.push(Reverse((ev.at_epoch, seq)));
            }
        }
        EngineState {
            eng,
            eps,
            horizon_ns,
            tree,
            srv,
            group_range,
            segs: Vec::new(),
            session_seg: Vec::new(),
            left: Vec::new(),
            events,
            source,
            client_rngs,
            free_now,
            resident: vec![0; total],
            future_starts: BinaryHeap::new(),
            cur_epoch: 0,
            conc_delta: vec![0; eng.epochs as usize + 2],
            next_session: 0,
            fast_first_fit: eng.policy.label() == "first-fit",
            offered: 0,
            rejected: 0,
            queued: 0,
            retried: 0,
            expired: 0,
            dropped: 0,
            queue_len: 0,
            peak_queue: 0,
            migrations: 0,
            migration_evals: 0,
            grow_events: 0,
            shrink_events: 0,
            min_active: active_count,
            max_active: active_count,
            faults,
            fault_heap,
            fault_payload,
            fl: FaultStats::default(),
            net_windows: vec![Vec::new(); total],
            capacity_steps: vec![Vec::new(); total],
            fault_cuts: vec![Vec::new(); total],
        }
    }

    // -- bookkeeping helpers ---------------------------------------------

    fn set_free(&mut self, i: usize) {
        if self.srv[i].serving() && self.resident[i] < self.eng.slots_per_server {
            self.free_now.insert(i);
        } else {
            self.free_now.remove(&i);
        }
    }

    /// Span feasibility at the candidate's critical points: its own start
    /// plus every live-segment start inside the span. Occupancy only
    /// *rises* at segment starts, so its span maximum is attained at one
    /// of them — this equals a per-epoch scan of the whole span.
    fn fits_span(&self, i: usize, start: u64, end: u64, need_mib: u64) -> bool {
        let srv = &self.srv[i];
        if !srv.serving() {
            return false;
        }
        let slots = self.eng.slots_per_server;
        let cap = srv.gpu_capacity_mib;
        let check = |p: u64| {
            let mut n = 0usize;
            let mut mem = need_mib;
            for &si in &srv.live {
                let seg = &self.segs[si as usize];
                if seg.covers(p) {
                    n += 1;
                    mem += seg.app.profile.gpu_memory_mib;
                }
            }
            n < slots && mem <= cap
        };
        if !check(start) {
            return false;
        }
        srv.live.iter().all(|&si| {
            let s = self.segs[si as usize].start;
            !(start < s && s < end) || check(s)
        })
    }

    /// Load snapshots for every server at the candidate's start epoch (the
    /// slow path for policies that inspect the whole fleet).
    fn loads(&self, app: &App, start: u64, end: u64) -> Vec<ServerLoad> {
        let need_mib = app.profile.gpu_memory_mib;
        (0..self.srv.len())
            .map(|i| {
                let srv = &self.srv[i];
                let apps: Vec<App> = srv
                    .live
                    .iter()
                    .filter(|&&si| self.segs[si as usize].start <= start)
                    .map(|&si| self.segs[si as usize].app.clone())
                    .collect();
                let used_mib: u64 = apps.iter().map(|a| a.profile.gpu_memory_mib).sum();
                ServerLoad {
                    index: i,
                    fits: self.fits_span(i, start, end, need_mib),
                    sessions: apps.len(),
                    slots: self.eng.slots_per_server,
                    gpu_free_mib: srv.gpu_capacity_mib.saturating_sub(used_mib),
                    cpu_pressure: apps.iter().map(|a| a.profile.cpu_pressure).sum(),
                    gpu_pressure: apps.iter().map(|a| a.profile.gpu_pressure).sum(),
                    apps,
                }
            })
            .collect()
    }

    /// Combined resident pressure on server `i` at epoch `e`.
    fn pressure_at(&self, i: usize, e: u64) -> f64 {
        self.srv[i]
            .live
            .iter()
            .map(|&si| &self.segs[si as usize])
            .filter(|seg| seg.covers(e))
            .map(|seg| seg.app.profile.cpu_pressure + seg.app.profile.gpu_pressure)
            .sum()
    }

    // -- event handling ---------------------------------------------------

    /// Advances the boundary clock to `target`, processing each epoch's
    /// queued events in (time, insertion) order, then its faults and its
    /// migration step, one epoch at a time — so every decision at epoch
    /// `e` sees exactly the departures and ticks at or before `e × epoch`,
    /// never future state.
    fn advance_to(&mut self, target: u64) {
        while self.cur_epoch < target {
            let e = self.cur_epoch + 1;
            self.left.clear();
            while let Some(&Reverse((fe, server, si))) = self.future_starts.peek() {
                if fe > e {
                    break;
                }
                self.future_starts.pop();
                // A crash may have voided the segment after it was
                // heap-pushed; a stale entry must not touch occupancy.
                if !self.segs[si as usize].is_void() {
                    self.resident[server] += 1;
                    self.set_free(server);
                }
            }
            let deadline = SimTime::from_nanos(e.saturating_mul(self.eps));
            // Handlers may schedule new events at the same boundary
            // (warm-up 0); they pop here too, after the earlier ones.
            while self.events.peek_time().is_some_and(|t| t <= deadline) {
                let (time, ev) = self.events.pop().expect("peeked event");
                self.handle_event(time, ev);
            }
            // Faults fire after the boundary's queued events and before
            // migration.
            if self.faults.is_some() {
                self.fault_step(e);
            }
            if self.eng.migration.is_some() && e >= 1 && e + 1 < self.eng.epochs {
                self.migrate(e);
            }
            self.cur_epoch = e;
        }
    }

    fn handle_event(&mut self, time: SimTime, ev: FleetEvent) {
        match ev {
            FleetEvent::Departure { server, seg } => {
                self.srv[server].live.retain(|&si| si != seg);
                self.left.push(seg);
                self.resident[server] -= 1;
                self.set_free(server);
            }
            FleetEvent::Warm { server } => {
                let e = time.as_nanos() / self.eps;
                self.srv[server].status = Status::Active;
                self.srv[server].activity.push((e, u64::MAX));
                self.set_free(server);
            }
            FleetEvent::GroupTick { group } => self.group_tick(group, time),
        }
    }

    fn group_tick(&mut self, group: usize, time: SimTime) {
        let cfg = self.eng.autoscale.expect("ticks only fire with autoscale");
        let e = time.as_nanos() / self.eps;
        let (lo, hi) = self.group_range[group];
        // Serving servers only: capacity lost to faults (`Down`,
        // `Draining`, `WarmingUp`) must not count in the utilization
        // denominator, so the group backfills crashed machines.
        let active: Vec<usize> = (lo..hi).filter(|&i| self.srv[i].serving()).collect();
        let residents: usize = (lo..hi)
            .map(|i| {
                self.srv[i]
                    .live
                    .iter()
                    .filter(|&&si| self.segs[si as usize].covers(e))
                    .count()
            })
            .sum();
        let active_slots = active.len() * self.eng.slots_per_server;
        let util = residents as f64 / active_slots.max(1) as f64;
        if util > cfg.high_watermark {
            // Grow: warm the lowest-index spare.
            let warm_epoch = e + cfg.warmup_epochs;
            if warm_epoch < self.eng.epochs {
                if let Some(spare) = (lo..hi).find(|&i| self.srv[i].status == Status::Inactive) {
                    self.srv[spare].status = Status::Warming;
                    self.events.schedule(
                        SimTime::from_nanos(warm_epoch.saturating_mul(self.eps)),
                        FleetEvent::Warm { server: spare },
                    );
                    self.grow_events += 1;
                }
            }
        } else if util < cfg.low_watermark && active.len() > cfg.min_active_per_group {
            // Shrink: retire the highest-index empty server. Occupied
            // servers are never retired — no live session is ever dropped.
            if let Some(&victim) = active.iter().rev().find(|&&i| self.srv[i].live.is_empty()) {
                self.srv[victim].status = Status::Inactive;
                if let Some(last) = self.srv[victim].activity.last_mut() {
                    last.1 = e;
                }
                self.free_now.remove(&victim);
                self.shrink_events += 1;
            }
        }
        let total_active = self.srv.iter().filter(|s| s.serving()).count();
        self.min_active = self.min_active.min(total_active);
        self.max_active = self.max_active.max(total_active);
        let next = e + cfg.eval_every_epochs;
        if next < self.eng.epochs {
            self.events.schedule(
                SimTime::from_nanos(next.saturating_mul(self.eps)),
                FleetEvent::GroupTick { group },
            );
        }
    }

    /// One migration evaluation at boundary `e`, after the boundary's
    /// events and faults.
    fn migrate(&mut self, e: u64) {
        let threshold = self
            .eng
            .migration
            .expect("checked by caller")
            .pressure_threshold;
        self.migration_evals += 1;
        let mut src: Option<(usize, f64)> = None;
        for i in 0..self.srv.len() {
            if self.srv[i].status != Status::Active {
                continue;
            }
            let p = self.pressure_at(i, e);
            if p > threshold && src.is_none_or(|(_, best)| p > best) {
                src = Some((i, p));
            }
        }
        let Some((src, src_p)) = src else { return };
        // Most contentious movable session: spans the boundary with at
        // least one epoch left after the transfer gap.
        let cand = self.srv[src]
            .live
            .iter()
            .map(|&si| (si, &self.segs[si as usize]))
            .filter(|(_, seg)| seg.start < e && seg.end > e + 1)
            .map(|(si, seg)| {
                let p = seg.app.profile.cpu_pressure + seg.app.profile.gpu_pressure;
                (si, p, seg.session, seg.end)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(b.2.cmp(&a.2)));
        let Some((cand_si, cand_p, _, cand_end)) = cand else {
            return;
        };
        let need = self.segs[cand_si as usize].app.profile.gpu_memory_mib;
        let tgt = (0..self.srv.len())
            .filter(|&i| i != src && self.fits_span(i, e + 1, cand_end, need))
            .map(|i| (i, self.pressure_at(i, e)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0)));
        let Some((tgt, tgt_p)) = tgt else { return };
        // Oscillation guard: only move when the hottest server stays the
        // hottest by a strict margin — the fleet imbalance must shrink.
        if tgt_p + cand_p >= src_p {
            return;
        }
        self.migrations += 1;
        let (session, app, old_end, old_departure) = {
            let seg = &mut self.segs[cand_si as usize];
            let old_end = seg.end;
            seg.end = e;
            (seg.session, seg.app.clone(), old_end, seg.departure)
        };
        self.events.cancel(old_departure);
        self.srv[src].live.retain(|&si| si != cand_si);
        self.left.push(cand_si);
        self.resident[src] -= 1;
        self.set_free(src);
        let new_si = self.segs.len() as u32;
        let departure = self.events.schedule(
            SimTime::from_nanos(old_end.saturating_mul(self.eps)),
            FleetEvent::Departure {
                server: tgt,
                seg: new_si,
            },
        );
        self.segs.push(Seg {
            session,
            app,
            server: tgt,
            start: e + 1,
            end: old_end,
            departure,
        });
        self.srv[tgt].live.push(new_si);
        self.session_seg[session as usize] = new_si;
        self.future_starts.push(Reverse((e + 1, tgt, new_si)));
        // The session is in transfer during epoch `e`: resident nowhere.
        self.conc_delta[e as usize] -= 1;
        self.conc_delta[e as usize + 1] += 1;
    }

    // -- fault injection and recovery -------------------------------------

    /// Queues a fault op for `server` at `epoch`; ops at or past the
    /// horizon are dropped (the finish pass accounts open states to the
    /// horizon instead).
    fn push_fault(&mut self, epoch: u64, server: usize, op: FaultOp) {
        if epoch >= self.eng.epochs {
            return;
        }
        let seq = self.fault_payload.len() as u64;
        self.fault_payload.push((server, op));
        self.fault_heap.push(Reverse((epoch, seq)));
    }

    /// Applies every fault op due at boundary `e`, in (epoch, sequence)
    /// order.
    fn fault_step(&mut self, e: u64) {
        while let Some(&Reverse((fe, seq))) = self.fault_heap.peek() {
            if fe > e {
                break;
            }
            self.fault_heap.pop();
            let (server, op) = self.fault_payload[seq as usize];
            self.apply_fault(e, server, op);
        }
    }

    fn apply_fault(&mut self, e: u64, server: usize, op: FaultOp) {
        match op {
            FaultOp::Drain {
                drain_epochs,
                restart_after,
                warmup,
            } => {
                if !self.srv[server].serving() {
                    self.fl.skipped += 1;
                    return;
                }
                self.fl.crashes += 1;
                self.srv[server].health = Health::Draining;
                self.srv[server].health_since = e;
                self.free_now.remove(&server);
                self.push_fault(
                    e.saturating_add(drain_epochs),
                    server,
                    FaultOp::Crash {
                        restart_after,
                        warmup,
                    },
                );
            }
            FaultOp::Crash {
                restart_after,
                warmup,
            } => {
                // Either an abrupt injection (server must be serving) or
                // the scheduled end of this server's drain window.
                if self.srv[server].health == Health::Draining {
                    self.fl.draining_epochs += e - self.srv[server].health_since;
                } else if self.srv[server].serving() {
                    self.fl.crashes += 1;
                } else {
                    self.fl.skipped += 1;
                    return;
                }
                self.go_down(e, server, restart_after, warmup);
            }
            FaultOp::Restart { warmup } => {
                // Only `Down` servers hold a pending restart.
                self.fl.downtime_epochs += e - self.srv[server].health_since;
                self.srv[server].health = Health::WarmingUp;
                self.srv[server].health_since = e;
                if warmup == 0 {
                    self.apply_fault(e, server, FaultOp::WarmDone);
                } else {
                    self.push_fault(e.saturating_add(warmup), server, FaultOp::WarmDone);
                }
            }
            FaultOp::WarmDone => {
                self.fl.warming_epochs += e - self.srv[server].health_since;
                // Bank retirement survives the reboot: a server that was
                // degraded when it crashed comes back degraded.
                let pristine = self.pristine_mib(server);
                self.srv[server].health = if self.srv[server].gpu_capacity_mib == pristine {
                    Health::Healthy
                } else {
                    Health::Degraded
                };
                self.srv[server].health_since = e;
                self.srv[server].activity.push((e, u64::MAX));
                self.set_free(server);
            }
            FaultOp::Degrade {
                severity,
                recover_after,
            } => {
                if !self.srv[server].serving() {
                    self.fl.skipped += 1;
                    return;
                }
                self.fl.gpu_degrades += 1;
                let new_cap = pictor_hw::degrade_mib(self.srv[server].gpu_capacity_mib, severity);
                self.srv[server].gpu_capacity_mib = new_cap;
                self.capacity_steps[server].push((e, new_cap));
                self.fault_cuts[server].push(e);
                if self.srv[server].health == Health::Healthy {
                    self.srv[server].health = Health::Degraded;
                    self.srv[server].health_since = e;
                }
                self.evict_to_capacity(e, server);
                self.set_free(server);
                if let Some(r) = recover_after {
                    self.push_fault(e.saturating_add(r), server, FaultOp::DegradeRecover);
                }
            }
            FaultOp::DegradeRecover => {
                let pristine = self.pristine_mib(server);
                if self.srv[server].gpu_capacity_mib == pristine {
                    return;
                }
                self.srv[server].gpu_capacity_mib = pristine;
                self.capacity_steps[server].push((e, pristine));
                self.fault_cuts[server].push(e);
                if self.srv[server].health == Health::Degraded {
                    self.srv[server].health = Health::Healthy;
                    self.srv[server].health_since = e;
                }
                self.set_free(server);
            }
            FaultOp::Brownout {
                rtt_factor,
                jitter_ms,
                duration,
            } => {
                // Brownouts degrade quality, not placement: they apply to
                // whatever the server hosts while the window lasts.
                self.fl.brownouts += 1;
                let end = e.saturating_add(duration).min(self.eng.epochs);
                self.net_windows[server].push((e, end, rtt_factor, jitter_ms));
                self.fault_cuts[server].push(e);
                if end < self.eng.epochs {
                    self.fault_cuts[server].push(end);
                }
            }
        }
    }

    /// The group-config capacity `server` started the run with.
    fn pristine_mib(&self, server: usize) -> u64 {
        self.eng.groups[self.srv[server].group]
            .config
            .server
            .gpu_memory_mib
    }

    /// Effective GPU capacity of `server` at epoch `e`: pristine until the
    /// last recorded degradation/restoration step at or before `e`.
    fn capacity_at(&self, server: usize, e: u64) -> u64 {
        let mut cap = self.pristine_mib(server);
        for &(at, c) in &self.capacity_steps[server] {
            if at <= e {
                cap = c;
            } else {
                break;
            }
        }
        cap
    }

    /// Crash landing: orphan every resident, close the activity window,
    /// mark the server `Down` and (optionally) queue its restart.
    fn go_down(&mut self, e: u64, server: usize, restart_after: Option<u64>, warmup: u64) {
        let live: Vec<u32> = self.srv[server].live.clone();
        let mut orphans: Vec<(u64, App, u64)> = Vec::with_capacity(live.len());
        for si in live {
            if let Some(orphan) = self.detach_seg(e, server, si) {
                orphans.push(orphan);
            }
        }
        self.fl.orphaned += orphans.len() as u64;
        self.srv[server].health = Health::Down;
        self.srv[server].health_since = e;
        if let Some(last) = self.srv[server].activity.last_mut() {
            if last.1 == u64::MAX {
                last.1 = e;
            }
        }
        self.free_now.remove(&server);
        for (session, app, remaining) in orphans {
            self.orphan_session(e, session, app, remaining);
        }
        if let Some(r) = restart_after {
            self.push_fault(e.saturating_add(r), server, FaultOp::Restart { warmup });
        }
    }

    /// Detaches segment `si` from `server` at epoch `e` (crash or
    /// eviction): cancels its departure, truncates it to `e` (or voids it
    /// entirely when it had not started), fixes occupancy, and returns the
    /// orphan payload `(session, app, remaining epochs)` when any service
    /// was actually lost.
    fn detach_seg(&mut self, e: u64, server: usize, si: u32) -> Option<(u64, App, u64)> {
        let (departure, start, old_end, session, app) = {
            let seg = &self.segs[si as usize];
            (
                seg.departure,
                seg.start,
                seg.end,
                seg.session,
                seg.app.clone(),
            )
        };
        self.events.cancel(departure);
        if start <= e {
            self.segs[si as usize].end = e;
            self.resident[server] -= 1;
            self.conc_delta[e as usize] -= 1;
            self.conc_delta[old_end as usize] += 1;
        } else {
            // A migration-created segment that never started: void it in
            // place (its stale `future_starts` entry checks `is_void`).
            self.segs[si as usize].end = start;
            self.conc_delta[start as usize] -= 1;
            self.conc_delta[old_end as usize] += 1;
        }
        self.srv[server].live.retain(|&x| x != si);
        self.left.push(si);
        self.set_free(server);
        let cut = e.max(start);
        (old_end > cut).then(|| (session, app, old_end - cut))
    }

    /// Evicts residents (in [`VictimPolicy`](super::VictimPolicy) order)
    /// until the server's occupancy fits its shrunken capacity at every
    /// remaining epoch.
    fn evict_to_capacity(&mut self, e: u64, server: usize) {
        let plan = self.faults.expect("eviction only happens with faults");
        loop {
            let cap = self.srv[server].gpu_capacity_mib;
            let viol = (e..self.eng.epochs).find(|&p| {
                let mem: u64 = self.srv[server]
                    .live
                    .iter()
                    .map(|&si| &self.segs[si as usize])
                    .filter(|seg| seg.covers(p))
                    .map(|seg| seg.app.profile.gpu_memory_mib)
                    .sum();
                mem > cap
            });
            let Some(p) = viol else { break };
            let cands: Vec<(u32, VictimCandidate)> = self.srv[server]
                .live
                .iter()
                .map(|&si| (si, &self.segs[si as usize]))
                .filter(|(_, seg)| seg.covers(p))
                .map(|(si, seg)| {
                    (
                        si,
                        VictimCandidate {
                            session: seg.session,
                            gpu_mib: seg.app.profile.gpu_memory_mib,
                            remaining_epochs: seg.end - seg.start.max(e),
                            pressure: seg.app.profile.cpu_pressure + seg.app.profile.gpu_pressure,
                        },
                    )
                })
                .collect();
            let Some(_) = cands.first() else { break };
            let snapshot: Vec<VictimCandidate> = cands.iter().map(|&(_, c)| c).collect();
            let pick = plan.victims.pick(&snapshot);
            assert!(
                pick < cands.len(),
                "victim policy {} returned out-of-range index {pick} over {} candidates",
                plan.victims.label(),
                cands.len()
            );
            let si = cands[pick].0;
            if let Some((session, app, remaining)) = self.detach_seg(e, server, si) {
                self.fl.evicted += 1;
                self.orphan_session(e, session, app, remaining);
            }
        }
    }

    /// Re-enters an orphaned/evicted session into placement through the
    /// shared pending queue, or counts it lost when the queue is full.
    fn orphan_session(&mut self, e: u64, session: u64, app: App, remaining_epochs: u64) {
        let plan = self.faults.expect("orphans only exist with faults");
        let limit = self
            .eng
            .backpressure
            .as_ref()
            .map(|b| b.queue_limit)
            .unwrap_or(plan.recovery.queue_limit);
        if self.queue_len >= limit {
            self.fl.lost += 1;
            return;
        }
        let now_ns = e.saturating_mul(self.eps);
        let retry_at = self.recovery_retry_at(now_ns, 0, session);
        self.park(
            retry_at,
            Request {
                app,
                duration_ns: remaining_epochs.saturating_mul(self.eps),
                client: None,
                parked: false,
                resume: Some(Resume {
                    session,
                    attempt: 0,
                    orphaned_at: e,
                }),
            },
        );
    }

    /// Recovery retry time: exponential backoff capped at the configured
    /// ceiling, plus a deterministic sub-epoch jitter hashed from (seed,
    /// session, attempt) — so backed-off orphans never stampede one
    /// boundary, and reruns reproduce the schedule exactly.
    fn recovery_retry_at(&self, now_ns: u64, attempt: u32, session: u64) -> u64 {
        let rec = &self.faults.expect("recovery needs a plan").recovery;
        let backoff = rec
            .base_retry_epochs
            .saturating_mul(1u64 << attempt.min(62))
            .min(rec.max_backoff_epochs);
        let jitter =
            mix64(self.eng.seed ^ session.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(attempt))
                % self.eps.max(1);
        now_ns
            .saturating_add(backoff.saturating_mul(self.eps))
            .saturating_add(jitter)
    }

    // -- the online loop --------------------------------------------------

    /// Offers one request to the control plane at time `t`: advances the
    /// boundary clock, runs placement, and admits, parks or rejects. This
    /// is the whole per-arrival step: [`LiveFleet`] runs it for internal
    /// arrivals from the [`ArrivalSource`] and for external ones alike.
    fn process_request(&mut self, t: u64, req: Request) -> Admission {
        let start = t.div_ceil(self.eps);
        if start >= self.eng.epochs {
            if req.parked {
                self.queue_len -= 1;
                match req.resume {
                    Some(_) => self.fl.lost += 1,
                    None => self.expired += 1,
                }
            }
            // Past-horizon requests vanish silently — no offer, no draws.
            return Admission::PastHorizon;
        }
        self.advance_to(start);
        let span = (req.duration_ns as f64 / self.eps as f64).round().max(1.0) as u64;
        let end = (start + span).min(self.eng.epochs);
        // Recovery re-placements live in the fault ledger, not the
        // admission ledger — `offered == admitted + rejected + queued`
        // holds with or without a fault plan.
        match req.resume {
            Some(_) => self.fl.recovery_retries += 1,
            None => {
                self.offered += 1;
                if req.parked {
                    self.retried += 1;
                }
            }
        }
        if req.parked {
            self.queue_len -= 1;
        }
        let need_mib = req.app.profile.gpu_memory_mib;
        let choice = if self.fast_first_fit {
            // Exact first-fit without building load snapshots:
            // `free_now` only ever omits servers whose slot count
            // already fails at the start epoch.
            self.free_now
                .iter()
                .copied()
                .find(|&i| self.fits_span(i, start, end, need_mib))
        } else {
            let loads = self.loads(&req.app, start, end);
            self.eng
                .policy
                .place(&req.app, &loads)
                .filter(|&s| s < self.srv.len() && loads[s].fits)
        };
        match choice {
            Some(server) => {
                let session = self.admit(server, start, end, req);
                Admission::Admitted {
                    session,
                    server,
                    start_epoch: start,
                    end_epoch: end,
                }
            }
            None => self.refuse(t, req),
        }
    }

    fn admit(&mut self, server: usize, start: u64, end: u64, req: Request) -> u64 {
        let si = self.segs.len() as u32;
        let id = match req.resume {
            Some(r) => {
                // A recovered session keeps its identity; its new segment
                // covers only the service it still had left.
                self.fl.recovered += 1;
                self.fl.recovery_latency_epochs += start.saturating_sub(r.orphaned_at);
                self.session_seg[r.session as usize] = si;
                r.session
            }
            None => {
                let id = self.next_session;
                self.next_session += 1;
                self.session_seg.push(si);
                id
            }
        };
        let departure = self.events.schedule(
            SimTime::from_nanos(end.saturating_mul(self.eps)),
            FleetEvent::Departure { server, seg: si },
        );
        self.segs.push(Seg {
            session: id,
            app: req.app,
            server,
            start,
            end,
            departure,
        });
        self.srv[server].live.push(si);
        self.resident[server] += 1;
        self.set_free(server);
        self.conc_delta[start as usize] += 1;
        self.conc_delta[end as usize] -= 1;
        if let Some(c) = req.client {
            let rng = &mut self.client_rngs[c];
            let think =
                exponential(rng, self.eng.arrivals.mean_think_secs.max(1e-3) * 1e9).round() as u64;
            let rejoin = end.saturating_mul(self.eps).saturating_add(think);
            if rejoin < self.horizon_ns {
                let app = self.eng.mix.sample(rng);
                let secs = sample_session_secs(rng, &self.eng.arrivals);
                self.source.push_dynamic(
                    rejoin,
                    Request {
                        app,
                        duration_ns: (secs * 1e9).round() as u64,
                        client: Some(c),
                        parked: false,
                        resume: None,
                    },
                );
            }
        }
        id
    }

    fn refuse(&mut self, t: u64, req: Request) -> Admission {
        if let Some(r) = req.resume {
            // Fault recovery: back off and retry until attempts run out or
            // the shared queue fills.
            let plan = self.faults.expect("resume requests imply a fault plan");
            let limit = self
                .eng
                .backpressure
                .as_ref()
                .map(|b| b.queue_limit)
                .unwrap_or(plan.recovery.queue_limit);
            if r.attempt + 1 < plan.recovery.max_attempts && self.queue_len < limit {
                let retry_at = self.recovery_retry_at(t, r.attempt + 1, r.session);
                self.park(
                    retry_at,
                    Request {
                        resume: Some(Resume {
                            attempt: r.attempt + 1,
                            ..r
                        }),
                        ..req
                    },
                );
                return Admission::Parked;
            }
            self.fl.lost += 1;
            return Admission::Rejected;
        }
        if let Some(bp) = &self.eng.backpressure {
            if self.queue_len < bp.queue_limit {
                // Park: same request, retried later, no RNG draws. The
                // epoch-to-nanosecond product saturates (`checked_mul`) so
                // an enormous retry-after cannot wrap around the horizon
                // comparison inside `park`.
                let retry_at = t.saturating_add(bp.retry_after_epochs.saturating_mul(self.eps));
                self.park(retry_at, req);
                return Admission::Parked;
            }
            self.dropped += 1;
        }
        self.rejected += 1;
        if let Some(c) = req.client {
            let rng = &mut self.client_rngs[c];
            let think =
                exponential(rng, self.eng.arrivals.mean_think_secs.max(1e-3) * 1e9).round() as u64;
            let retry = t.saturating_add(think);
            if retry < self.horizon_ns {
                let app = self.eng.mix.sample(rng);
                let secs = sample_session_secs(rng, &self.eng.arrivals);
                self.source.push_dynamic(
                    retry,
                    Request {
                        app,
                        duration_ns: (secs * 1e9).round() as u64,
                        client: Some(c),
                        parked: false,
                        resume: None,
                    },
                );
            }
        }
        Admission::Rejected
    }

    /// Parks a request for a later retry, sharing the bounded queue between
    /// admission backpressure and fault recovery. The horizon rule is the
    /// same strict `< horizon_ns` that think-time rejoins use: a retry at or
    /// past the horizon can never be offered again, so it expires at park
    /// time and never occupies a queue slot. Backpressure parks count in
    /// the admission ledger (`queued`/`expired`); recovery parks count in
    /// the fault ledger (`lost`).
    fn park(&mut self, retry_at: u64, req: Request) {
        let recovery = req.resume.is_some();
        if !recovery {
            self.queued += 1;
        }
        if retry_at >= self.horizon_ns {
            if recovery {
                self.fl.lost += 1;
            } else {
                self.expired += 1;
            }
            return;
        }
        self.queue_len += 1;
        self.peak_queue = self.peak_queue.max(self.queue_len);
        self.source.push_dynamic(
            retry_at,
            Request {
                parked: true,
                ..req
            },
        );
    }

    // -- data plane + reduction ------------------------------------------

    /// Every non-void segment's index, grouped by server and sorted by
    /// start epoch.
    fn segments_by_server(&self) -> Vec<Vec<u32>> {
        let mut by_server: Vec<Vec<u32>> = vec![Vec::new(); self.srv.len()];
        for (si, seg) in self.segs.iter().enumerate() {
            if !seg.is_void() {
                by_server[seg.server].push(si as u32);
            }
        }
        for here in &mut by_server {
            here.sort_by_key(|&si| self.segs[si as usize].start);
        }
        by_server
    }

    /// Sweeps `server`'s timeline into maximal intervals with one session
    /// set and one fault state. The boundaries are the start and end of
    /// every segment in `here` (the server's non-void segments, sorted by
    /// start) plus the server's fault cuts (degradation steps and brownout
    /// edges). `f` sees each occupied interval `[start, end)` in time
    /// order, with its segments in session-id order.
    fn carve(&self, server: usize, here: &[u32], mut f: impl FnMut(u64, u64, &[u32])) {
        let segs = &self.segs;
        let mut bounds: Vec<u64> = here
            .iter()
            .flat_map(|&si| [segs[si as usize].start, segs[si as usize].end])
            .chain(self.fault_cuts[server].iter().copied())
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut active: Vec<u32> = Vec::new();
        let mut next = here.iter().copied().peekable();
        for w in bounds.windows(2) {
            let (start, end) = (w[0], w[1]);
            active.retain(|&si| segs[si as usize].end > start);
            while let Some(si) = next.next_if(|&si| segs[si as usize].start == start) {
                let session = segs[si as usize].session;
                let at = active.partition_point(|&a| segs[a as usize].session < session);
                active.insert(at, si);
            }
            if !active.is_empty() {
                f(start, end, &active);
            }
        }
    }

    /// Runs the data plane over every interval of `server` and folds its
    /// samples into `tally`.
    fn fold_server(&self, server: usize, here: &[u32], tally: &mut Tally) {
        let eng = self.eng;
        let config = &eng.groups[self.srv[server].group].config;
        self.carve(server, here, |start, end, active| {
            let mut brownout = Brownout::at(&self.net_windows[server], eng.seed, server, start);
            match eng.data_plane {
                DataPlane::Simulated => {
                    let cap = self.capacity_at(server, start);
                    let degraded = (cap != self.pristine_mib(server)).then(|| {
                        let mut c = config.clone();
                        c.server.gpu_memory_mib = cap;
                        c
                    });
                    let sessions: Vec<(u64, &App)> = active
                        .iter()
                        .map(|&si| (self.segs[si as usize].session, &self.segs[si as usize].app))
                        .collect();
                    simulate_interval(
                        degraded.as_ref().unwrap_or(config),
                        &self.tree,
                        server,
                        start,
                        end,
                        &sessions,
                        eng.warmup,
                        eng.epoch,
                        brownout,
                        tally,
                    );
                }
                DataPlane::Surrogate => {
                    let profiles: Vec<&AppProfile> = active
                        .iter()
                        .map(|&si| &self.segs[si as usize].app.profile)
                        .collect();
                    let rates = surrogate_rates(config, &profiles);
                    for &(fps, _) in &rates {
                        tally.fps(fps, end - start);
                    }
                    for (&si, &(_, base)) in active.iter().zip(&rates) {
                        let session = self.segs[si as usize].session;
                        for e in start..end {
                            for k in 0..2 {
                                let ms = surrogate_rtt(eng.seed, server, e, session, k, base);
                                tally.rtt(ms, brownout.as_mut());
                            }
                        }
                    }
                }
            }
        });
    }

    fn finish(mut self, threads: usize) -> (FleetReport, FleetAudit) {
        let eng = self.eng;
        let epochs = eng.epochs;
        // Close the books: open activity windows end at the horizon.
        for s in &mut self.srv {
            if let Some(last) = s.activity.last_mut() {
                if last.1 == u64::MAX {
                    last.1 = epochs;
                }
            }
        }
        if self.faults.is_some() {
            // Unresolved health states account their spans to the horizon.
            for s in &self.srv {
                let span = epochs - s.health_since;
                match s.health {
                    Health::Down => self.fl.downtime_epochs += span,
                    Health::WarmingUp => self.fl.warming_epochs += span,
                    Health::Draining => self.fl.draining_epochs += span,
                    Health::Healthy | Health::Degraded => {}
                }
            }
        }

        // The data plane, folded per worker and merged exactly: each worker
        // takes whole servers off a shared counter and folds their
        // intervals into its own tally. Every tally field is an integer
        // sum or an order-free histogram, so which worker folds which
        // server cannot change a byte of the report.
        let total = self.srv.len();
        let by_server = self.segments_by_server();
        let next = AtomicUsize::new(0);
        let work = || {
            let mut tally = Tally::new(eng.slo);
            loop {
                // The counter only hands out server indices; it publishes
                // no data, so `Relaxed` is enough.
                let server = next.fetch_add(1, Ordering::Relaxed);
                if server >= total {
                    return tally;
                }
                self.fold_server(server, &by_server[server], &mut tally);
            }
        };
        let mut tally = Tally::new(eng.slo);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads.min(total)).map(|_| scope.spawn(work)).collect();
            for worker in workers {
                let part = worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                tally.merge(&part);
            }
        });
        self.fl.fault_rtt_violations = tally.fault_rtt_violations;

        let occupied: u64 = self.segs.iter().map(|s| s.end - s.start).sum();
        let active_slot_epochs: u64 = self
            .srv
            .iter()
            .flat_map(|s| s.activity.iter())
            .map(|&(a, b)| (b - a) * eng.slots_per_server as u64)
            .sum();
        // With autoscale or faults, only epochs a server was actually
        // serving count as offered capacity (downtime and warm-up are
        // excluded — faults must not deflate utilization for capacity the
        // fleet never had).
        let slot_epochs = if eng.autoscale.is_some() || self.faults.is_some() {
            active_slot_epochs
        } else {
            (total * eng.slots_per_server) as u64 * epochs
        };
        let mut peak = 0i64;
        let mut running = 0i64;
        for e in 0..epochs as usize {
            running += self.conc_delta[e];
            peak = peak.max(running);
        }
        let dynamics = if eng.autoscale.is_some()
            || eng.migration.is_some()
            || eng.backpressure.is_some()
            || self.faults.is_some()
        {
            Some(FleetDynamics {
                autoscale: eng.autoscale.map(|_| AutoscaleStats {
                    grow_events: self.grow_events,
                    shrink_events: self.shrink_events,
                    min_active_servers: self.min_active,
                    max_active_servers: self.max_active,
                    active_slot_epochs,
                }),
                migration: eng.migration.map(|_| MigrationStats {
                    evaluations: self.migration_evals,
                    migrations: self.migrations,
                }),
                backpressure: eng.backpressure.map(|_| BackpressureStats {
                    queued: self.queued,
                    retried: self.retried,
                    expired: self.expired,
                    dropped: self.dropped,
                    peak_queue: self.peak_queue,
                }),
                faults: self.faults.map(|_| self.fl),
            })
        } else {
            None
        };
        let report = FleetReport {
            servers: total,
            slots_per_server: eng.slots_per_server,
            epochs,
            epoch: eng.epoch,
            policy: eng.policy.label().to_string(),
            arrivals: eng.arrivals.label.clone(),
            seed: eng.seed,
            offered: self.offered,
            admitted: self.next_session,
            rejected: self.rejected,
            peak_sessions: peak as usize,
            utilization: occupied as f64 / slot_epochs as f64,
            session_epochs: tally.session_epochs,
            tracked_inputs: tally.tracked_inputs,
            fps: tally.fps,
            rtt: tally.rtt,
            slo: eng.slo,
            fps_violations: tally.fps_violations,
            rtt_violations: tally.rtt_violations,
            dynamics,
        };
        let audit = FleetAudit {
            offered: self.offered,
            admitted: self.next_session,
            rejected: self.rejected,
            queued: self.queued,
            retried: self.retried,
            expired: self.expired,
            dropped: self.dropped,
            migrations: self.migrations,
            peak_queue: self.peak_queue,
            slots_per_server: eng.slots_per_server,
            placements: self
                .segs
                .iter()
                .filter(|s| !s.is_void())
                .map(|s| Placement {
                    session: s.session,
                    server: s.server,
                    start_epoch: s.start,
                    end_epoch: s.end,
                    gpu_mib: s.app.profile.gpu_memory_mib,
                })
                .collect(),
            gpu_capacity_mib: (0..self.srv.len()).map(|i| self.pristine_mib(i)).collect(),
            capacity_steps: self.capacity_steps.clone(),
            activity: self.srv.iter().map(|s| s.activity.clone()).collect(),
            orphaned: self.fl.orphaned,
            evicted: self.fl.evicted,
            recovered: self.fl.recovered,
            lost: self.fl.lost,
        };
        (report, audit)
    }
}

// ---------------------------------------------------------------------------
// data planes
// ---------------------------------------------------------------------------

/// One worker's share of the data plane: the report's FPS and RTT
/// histograms and its five sample counters. Histogram merge is exact and
/// every counter is an integer sum, so the tallies of any split of the
/// servers, merged in any order, are equal.
struct Tally {
    slo: SloSpec,
    fps: Histogram,
    rtt: Histogram,
    session_epochs: u64,
    tracked_inputs: u64,
    fps_violations: u64,
    rtt_violations: u64,
    /// RTT violations that met the SLO before brownout inflation.
    fault_rtt_violations: u64,
}

impl Tally {
    fn new(slo: SloSpec) -> Self {
        Tally {
            slo,
            fps: Histogram::new(),
            rtt: Histogram::new(),
            session_epochs: 0,
            tracked_inputs: 0,
            fps_violations: 0,
            rtt_violations: 0,
            fault_rtt_violations: 0,
        }
    }

    /// Folds `epochs` session-epochs of one session at a constant `fps`.
    fn fps(&mut self, fps: f64, epochs: u64) {
        self.fps.record_n(fps, epochs);
        self.session_epochs += epochs;
        if fps < self.slo.min_fps {
            self.fps_violations += epochs;
        }
    }

    /// Folds one tracked input's RTT, inflated first by the interval's
    /// brownout when one is in force.
    fn rtt(&mut self, ms: f64, brownout: Option<&mut Brownout>) {
        self.tracked_inputs += 1;
        let max = self.slo.max_rtt_ms;
        let Some(b) = brownout else {
            self.rtt.record(ms);
            if ms > max {
                self.rtt_violations += 1;
            }
            return;
        };
        let inflated = b.inflate(ms);
        self.rtt.record(inflated);
        if inflated > max {
            self.rtt_violations += 1;
            if ms <= max {
                // Would have met the SLO on a healthy path.
                self.fault_rtt_violations += 1;
            }
        }
    }

    fn merge(&mut self, other: &Tally) {
        self.fps.merge(&other.fps);
        self.rtt.merge(&other.rtt);
        self.session_epochs += other.session_epochs;
        self.tracked_inputs += other.tracked_inputs;
        self.fps_violations += other.fps_violations;
        self.rtt_violations += other.rtt_violations;
        self.fault_rtt_violations += other.fault_rtt_violations;
    }
}

/// The network impairment over one interval. It is constant across the
/// interval because the carve cuts at brownout window edges; overlapping
/// windows take the worst factor and jitter.
struct Brownout {
    factor: f64,
    jitter_ms: f64,
    /// Jitter hash key of the interval, `(seed, server, start)`.
    key: u64,
    /// Samples inflated so far: the interval's sessions in session-id
    /// order, each session's samples in time order.
    k: u64,
}

impl Brownout {
    /// The brownout in force on `server` from epoch `start`, if any.
    fn at(windows: &[(u64, u64, f64, f64)], seed: u64, server: usize, start: u64) -> Option<Self> {
        let mut factor = 1.0f64;
        let mut jitter_ms = 0.0f64;
        for &(s, t, f, j) in windows {
            if s <= start && start < t {
                factor = factor.max(f);
                jitter_ms = jitter_ms.max(j);
            }
        }
        (factor > 1.0 || jitter_ms > 0.0).then_some(Brownout {
            factor,
            jitter_ms,
            key: seed ^ (server as u64) << 40 ^ start << 20 ^ 0xb10c,
            k: 0,
        })
    }

    /// Inflates the interval's next RTT sample.
    fn inflate(&mut self, ms: f64) -> f64 {
        let u = mix64(self.key ^ self.k) as f64 / u64::MAX as f64;
        self.k += 1;
        ms * self.factor + self.jitter_ms * u
    }
}

/// Simulates one server interval and folds it into `tally`: warm-up, then
/// one counter window per epoch through `reset_accounting`/`drain_records`,
/// each session's FPS recorded once per epoch. Records accumulate across
/// the interval and the input tracker runs once at its end, so an input
/// sent late in one epoch and answered early in the next still contributes
/// its RTT — tail latencies are censored only where the session set
/// actually changes, not at every epoch boundary.
///
/// `sessions` come in session-id order, which is the instance order. Seeds
/// derive from names (`server-{s}/e{start_epoch}`, sessions by id), never
/// from execution order, so the samples depend only on (config, tree,
/// server, interval, session set), never on thread count or job order.
#[allow(clippy::too_many_arguments)]
fn simulate_interval(
    config: &SystemConfig,
    tree: &SeedTree,
    server: usize,
    start_epoch: u64,
    end_epoch: u64,
    sessions: &[(u64, &App)],
    warmup: SimDuration,
    epoch: SimDuration,
    mut brownout: Option<Brownout>,
    tally: &mut Tally,
) {
    let interval_seeds = tree.child_indexed2("server-", server as u64, "/e", start_epoch);
    let mut sys = CloudSystem::new(config.clone(), interval_seeds);
    for &(id, app) in sessions {
        let seeds = interval_seeds.child_indexed("session-", id);
        sys.add_instance(app, Box::new(HumanDriver::from_seeds(app, &seeds)));
    }
    sys.start();
    sys.run_for(warmup);
    sys.reset_accounting();
    let mut records = Vec::new();
    for _ in start_epoch..end_epoch {
        sys.run_for(epoch);
        sys.drain_records_into(&mut records);
        for report in sys.reports() {
            tally.fps(report.server_fps, 1);
        }
        sys.reset_accounting();
    }
    let tracks = InputTracker::new().analyze(&records);
    for i in 0..sessions.len() {
        if let Some(track) = tracks.get(&(i as u32)) {
            for &ms in track.rtt_ms.samples() {
                tally.rtt(ms, brownout.as_mut());
            }
        }
    }
}

/// SplitMix64 — the deterministic jitter source for surrogate RTT samples.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Closed-form data plane, part one: the paper's contention model
/// evaluated once for the co-resident `profiles` (session-id order).
/// Returns each session's `(fps, base RTT ms)`: FPS from the slower of the
/// contended CPU and GPU stages, RTT as the pipeline sum with
/// instance-count IPC inflation. Both hold for the whole interval.
fn surrogate_rates(config: &SystemConfig, profiles: &[&AppProfile]) -> Vec<(f64, f64)> {
    let n = profiles.len();
    let tuning = &config.tuning;
    let states = contention_states(profiles, tuning, &vec![1.0; n]);
    let ipc = 1.0 + tuning.ipc_slope * (n as f64 - 1.0);
    let gpu = config.server.gpu_throughput;
    states
        .iter()
        .zip(profiles)
        .map(|(st, p)| {
            let al_eff = p.al_base_ms / st.app_speed;
            let rd_eff = p.rd_base_ms * st.rd_cost_mult / gpu;
            let rtt = tuning.sp_ms
                + tuning.ps_base_ms * ipc
                + al_eff
                + rd_eff
                + tuning.as_base_ms * ipc
                + tuning.decode_ms;
            (1000.0 / al_eff.max(rd_eff), rtt)
        })
        .collect()
}

/// Closed-form data plane, part two: RTT sample `k` (two per
/// session-epoch) of `session` on `server` in `epoch`, hash-jittered
/// within ±15% of `base`. Pure in its arguments, so thread-invariant by
/// construction.
fn surrogate_rtt(seed: u64, server: usize, epoch: u64, session: u64, k: u64, base: f64) -> f64 {
    let h = mix64(seed ^ (server as u64) << 40 ^ epoch << 20 ^ session.wrapping_mul(0x1_0001) ^ k);
    base * (0.85 + 0.3 * (h as f64 / u64::MAX as f64))
}

#[cfg(test)]
mod tests {
    use super::super::tests::mix;
    use super::*;
    use super::{DataPlane, FleetEngine, GroupSpec};

    fn surrogate_engine(policy: Arc<dyn PlacementPolicy>) -> FleetEngine {
        let base = SystemConfig::turbovnc_stock();
        let spec = FleetSpec::new(6, mix(), policy, 77).epochs(12);
        let mut eng = FleetEngine::from_spec(&spec);
        eng.groups = vec![
            GroupSpec::with_gpu(3, &base, GpuModel::Gtx1080Ti),
            GroupSpec::with_gpu(3, &base, GpuModel::TeslaT4),
        ];
        eng.data_plane = DataPlane::Surrogate;
        eng.arrivals = ArrivalConfig::saturating();
        eng
    }

    #[test]
    fn surrogate_plane_is_deterministic_and_finite() {
        let a = surrogate_engine(Arc::new(super::super::FirstFit))
            .live()
            .finish(2)
            .0;
        let b = surrogate_engine(Arc::new(super::super::FirstFit))
            .live()
            .finish(4)
            .0;
        assert_eq!(a.metrics(), b.metrics());
        assert!(a.admitted > 0);
        assert!(a.non_finite_paths().is_empty());
        assert!(a.rtt.p99() >= a.rtt.p50());
    }

    /// First-fit under another label: the engine keys its first-fit fast
    /// path on the label, so this policy always goes through `place()`.
    struct FirstFitViaPlace;

    impl PlacementPolicy for FirstFitViaPlace {
        fn label(&self) -> &str {
            "first-fit-via-place"
        }

        fn place(&self, app: &App, servers: &[ServerLoad]) -> Option<usize> {
            super::super::FirstFit.place(app, servers)
        }
    }

    #[test]
    fn first_fit_fast_path_matches_place() {
        let dynamic = |policy: Arc<dyn PlacementPolicy>| {
            let mut eng = surrogate_engine(policy);
            eng.epochs = 24;
            eng.autoscale = Some(AutoscaleConfig {
                eval_every_epochs: 2,
                ..AutoscaleConfig::steady()
            });
            eng.migration = Some(MigrationConfig {
                pressure_threshold: 0.5,
            });
            eng.backpressure = Some(BackpressureConfig::lobby());
            eng
        };
        for build in [surrogate_engine, dynamic] {
            let (fast, fast_audit) = build(Arc::new(super::super::FirstFit)).live().finish(2);
            let (slow, slow_audit) = build(Arc::new(FirstFitViaPlace)).live().finish(2);
            assert_eq!(fast_audit.placements, slow_audit.placements);
            assert_eq!(fast.metrics(), slow.metrics());
            assert_eq!(fast.dynamics, slow.dynamics);
            assert!(fast.admitted > 0);
            assert!(fast.offered > fast.admitted, "saturating load must refuse");
        }
    }

    #[test]
    fn backpressure_parks_and_conserves_attempts() {
        let mut eng = surrogate_engine(Arc::new(super::super::FirstFit));
        eng.backpressure = Some(BackpressureConfig {
            queue_limit: 4,
            retry_after_epochs: 1,
        });
        let (report, audit) = eng.live().finish(2);
        assert_eq!(
            audit.offered,
            audit.admitted + audit.rejected + audit.queued
        );
        assert_eq!(audit.queued, audit.retried + audit.expired);
        assert!(audit.peak_queue <= 4);
        let bp = report.dynamics.expect("dynamics present").backpressure;
        assert_eq!(bp.expect("bp stats").queued, audit.queued);
        assert!(audit.queued > 0, "saturating load should park something");
    }

    #[test]
    fn autoscale_covers_every_placement_with_an_active_window() {
        let mut eng = surrogate_engine(Arc::new(super::super::FirstFit));
        eng.epochs = 24;
        eng.autoscale = Some(AutoscaleConfig {
            eval_every_epochs: 2,
            warmup_epochs: 1,
            ..AutoscaleConfig::steady()
        });
        let (report, audit) = eng.live().finish(2);
        let stats = report
            .dynamics
            .expect("dynamics present")
            .autoscale
            .expect("autoscale stats");
        assert!(stats.grow_events > 0, "saturating load must trigger growth");
        assert!(stats.active_slot_epochs > 0);
        for p in &audit.placements {
            assert!(
                audit.activity[p.server]
                    .iter()
                    .any(|&(a, b)| a <= p.start_epoch && p.end_epoch <= b),
                "session {} on server {} [{}, {}) outside active windows {:?}",
                p.session,
                p.server,
                p.start_epoch,
                p.end_epoch,
                audit.activity[p.server]
            );
        }
    }

    #[test]
    fn migration_relieves_contended_servers() {
        let mut eng = surrogate_engine(Arc::new(super::super::FirstFit));
        eng.epochs = 24;
        eng.migration = Some(MigrationConfig {
            pressure_threshold: 0.5,
        });
        let (report, audit) = eng.live().finish(2);
        let stats = report
            .dynamics
            .expect("dynamics present")
            .migration
            .expect("migration stats");
        assert_eq!(stats.migrations, audit.migrations);
        assert!(stats.evaluations > 0);
        // Every migrated session keeps disjoint segments with a transfer
        // gap, and capacity still holds everywhere (checked broadly by the
        // property suite; spot-check the audit here).
        let mut by_session: std::collections::HashMap<u64, Vec<&Placement>> =
            std::collections::HashMap::new();
        for p in &audit.placements {
            by_session.entry(p.session).or_default().push(p);
        }
        for (session, mut segs) in by_session {
            segs.sort_by_key(|p| p.start_epoch);
            for w in segs.windows(2) {
                assert!(
                    w[0].end_epoch < w[1].start_epoch,
                    "session {session} segments overlap or lack a gap"
                );
            }
        }
        assert!(audit.migrations > 0, "low threshold must trigger moves");
    }

    // -- fault injection --------------------------------------------------

    use super::super::faults::{FaultEvent, FaultPlan, Hazard, RecoveryConfig};
    use super::super::FaultKind;

    #[test]
    fn empty_fault_plan_is_inert() {
        let mut plain = surrogate_engine(Arc::new(super::super::FirstFit));
        plain.backpressure = Some(BackpressureConfig::lobby());
        let mut empty = surrogate_engine(Arc::new(super::super::FirstFit));
        empty.backpressure = Some(BackpressureConfig::lobby());
        empty.faults = Some(FaultPlan::default());
        let a = plain.live().finish(2).0;
        let b = empty.live().finish(2).0;
        assert_eq!(a.metrics(), b.metrics());
        // The empty plan normalizes away entirely — no ledger appears.
        assert!(b.dynamics.expect("bp dynamics").faults.is_none());
    }

    #[test]
    fn crashes_orphan_and_the_fault_ledger_balances() {
        let mut eng = surrogate_engine(Arc::new(super::super::FirstFit));
        eng.epochs = 24;
        eng.faults = Some(FaultPlan {
            scheduled: vec![
                FaultEvent {
                    at_epoch: 4,
                    server: 0,
                    kind: FaultKind::Crash {
                        drain_epochs: 0,
                        restart_after_epochs: Some(2),
                        warmup_epochs: 1,
                    },
                },
                FaultEvent {
                    at_epoch: 6,
                    server: 3,
                    kind: FaultKind::Crash {
                        drain_epochs: 2,
                        restart_after_epochs: None,
                        warmup_epochs: 0,
                    },
                },
            ],
            ..FaultPlan::default()
        });
        let (report, audit) = eng.live().finish(2);
        let fl = report
            .dynamics
            .expect("fault dynamics")
            .faults
            .expect("fault ledger");
        assert_eq!(fl.crashes, 2);
        assert!(fl.orphaned > 0, "a saturated server must orphan residents");
        assert!(fl.downtime_epochs > 0);
        assert!(
            fl.draining_epochs >= 2,
            "the drained crash waits two epochs"
        );
        // Every orphan resolves exactly once.
        assert_eq!(fl.orphaned + fl.evicted, fl.recovered + fl.lost);
        // Recovery never perturbs the admission ledger.
        assert_eq!(
            audit.offered,
            audit.admitted + audit.rejected + audit.queued
        );
        assert_eq!(audit.orphaned, fl.orphaned);
        assert_eq!(audit.recovered + audit.lost, fl.orphaned + fl.evicted);
        // Recovered sessions keep their identity: still no more distinct
        // session ids than admissions.
        let distinct: std::collections::HashSet<u64> =
            audit.placements.iter().map(|p| p.session).collect();
        assert_eq!(distinct.len() as u64, audit.admitted);
        // No placement ever lands on the downed server while it is down.
        for p in audit.placements.iter().filter(|p| p.server == 0) {
            assert!(
                p.end_epoch <= 4 || p.start_epoch >= 7,
                "placement [{}, {}) overlaps server 0 downtime",
                p.start_epoch,
                p.end_epoch
            );
        }
    }

    #[test]
    fn degradation_evicts_down_to_the_shrunken_capacity() {
        let mut eng = surrogate_engine(Arc::new(super::super::FirstFit));
        eng.epochs = 24;
        eng.faults = Some(FaultPlan {
            scheduled: vec![FaultEvent {
                at_epoch: 5,
                server: 0,
                kind: FaultKind::GpuDegrade {
                    severity: 0.9,
                    recover_after_epochs: Some(10),
                },
            }],
            ..FaultPlan::default()
        });
        let (report, audit) = eng.live().finish(2);
        let fl = report
            .dynamics
            .expect("fault dynamics")
            .faults
            .expect("fault ledger");
        assert_eq!(fl.gpu_degrades, 1);
        assert!(fl.evicted > 0, "a 90% cut must evict residents");
        assert_eq!(audit.capacity_steps[0].len(), 2, "degrade + recovery steps");
        assert!(audit.capacity_steps[0][0].1 < audit.capacity_steps[0][1].1);
        // Occupancy respects the stepped capacity at every epoch.
        for e in 0..eng.epochs {
            let cap = audit.capacity_steps[0]
                .iter()
                .take_while(|&&(at, _)| at <= e)
                .last()
                .map(|&(_, c)| c)
                .unwrap_or(audit.gpu_capacity_mib[0]);
            let used: u64 = audit
                .placements
                .iter()
                .filter(|p| p.server == 0 && p.start_epoch <= e && e < p.end_epoch)
                .map(|p| p.gpu_mib)
                .sum();
            assert!(
                used <= cap,
                "epoch {e}: {used} MiB resident on server 0 over cap {cap}"
            );
        }
    }

    #[test]
    fn brownouts_inflate_rtt_and_attribute_slo_damage() {
        let healthy = surrogate_engine(Arc::new(super::super::FirstFit));
        let mut stormy = surrogate_engine(Arc::new(super::super::FirstFit));
        stormy.faults = Some(FaultPlan {
            scheduled: (0..6)
                .map(|server| FaultEvent {
                    at_epoch: 1,
                    server,
                    kind: FaultKind::NetBrownout {
                        rtt_factor: 4.0,
                        jitter_ms: 60.0,
                        duration_epochs: 8,
                    },
                })
                .collect(),
            ..FaultPlan::default()
        });
        let a = healthy.live().finish(2).0;
        let b = stormy.live().finish(2).0;
        let fl = b
            .dynamics
            .as_ref()
            .expect("fault dynamics")
            .faults
            .expect("fault ledger");
        assert_eq!(fl.brownouts, 6);
        assert!(
            b.rtt.p99() > a.rtt.p99(),
            "a 4x brownout must move the tail"
        );
        assert!(b.rtt_violations > a.rtt_violations);
        assert!(fl.fault_rtt_violations > 0);
        assert!(fl.fault_rtt_violations <= b.rtt_violations);
        // FPS is untouched: brownouts are a network fault.
        assert_eq!(a.fps.p50(), b.fps.p50());
    }

    /// The per-epoch carve the sweep replaced, kept as its reference: one
    /// occupancy list per epoch, cut wherever the list changes or a fault
    /// cut falls. Returns `(start, end, sessions)` per occupied interval,
    /// sessions in id order.
    fn occ_carve(st: &EngineState, server: usize) -> Vec<(u64, u64, Vec<u64>)> {
        let epochs = st.eng.epochs as usize;
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); epochs];
        for (si, seg) in st.segs.iter().enumerate() {
            if seg.server == server {
                for e in seg.start..seg.end {
                    occ[e as usize].push(si as u32);
                }
            }
        }
        let mut cuts = st.fault_cuts[server].clone();
        cuts.sort_unstable();
        let mut out = Vec::new();
        let mut e = 0;
        while e < epochs {
            if occ[e].is_empty() {
                e += 1;
                continue;
            }
            let mut end = e + 1;
            while end < epochs && occ[end] == occ[e] && cuts.binary_search(&(end as u64)).is_err() {
                end += 1;
            }
            let mut sessions: Vec<u64> = occ[e]
                .iter()
                .map(|&si| st.segs[si as usize].session)
                .collect();
            sessions.sort_unstable();
            out.push((e as u64, end as u64, sessions));
            e = end;
        }
        out
    }

    #[test]
    fn sweep_carve_matches_the_per_epoch_reference() {
        let mut eng = surrogate_engine(Arc::new(super::super::FirstFit));
        eng.epochs = 48;
        eng.migration = Some(MigrationConfig {
            pressure_threshold: 0.5,
        });
        eng.backpressure = Some(BackpressureConfig::lobby());
        eng.faults = Some(FaultPlan {
            hazards: vec![
                Hazard {
                    per_server_epoch: 0.05,
                    kind: FaultKind::Crash {
                        drain_epochs: 0,
                        restart_after_epochs: Some(1),
                        warmup_epochs: 0,
                    },
                },
                Hazard {
                    per_server_epoch: 0.05,
                    kind: FaultKind::GpuDegrade {
                        severity: 0.5,
                        recover_after_epochs: Some(3),
                    },
                },
                Hazard {
                    per_server_epoch: 0.08,
                    kind: FaultKind::NetBrownout {
                        rtt_factor: 2.0,
                        jitter_ms: 20.0,
                        duration_epochs: 3,
                    },
                },
            ],
            ..FaultPlan::default()
        });
        let mut live = eng.live();
        live.drain_internal(u64::MAX);
        live.st.advance_to(eng.epochs);
        let st = &live.st;
        // The fleet exercises everything the sweep must get right:
        // future-start segments from migrations, segments a crash voided,
        // and cuts from degradation steps and brownout edges.
        assert!(st.migrations > 0, "no migration");
        assert!(st.segs.iter().any(Seg::is_void), "no voided segment");
        assert!(
            st.capacity_steps.iter().any(|c| !c.is_empty()),
            "no degrade"
        );
        assert!(st.net_windows.iter().any(|w| !w.is_empty()), "no brownout");
        let mut cut_only = 0;
        for (server, here) in st.segments_by_server().iter().enumerate() {
            let mut swept = Vec::new();
            st.carve(server, here, |start, end, active| {
                let sessions: Vec<u64> = active
                    .iter()
                    .map(|&si| st.segs[si as usize].session)
                    .collect();
                swept.push((start, end, sessions));
            });
            let reference = occ_carve(st, server);
            assert_eq!(swept, reference, "server {server}");
            cut_only += reference
                .windows(2)
                .filter(|w| w[0].1 == w[1].0 && w[0].2 == w[1].2)
                .count();
        }
        assert!(cut_only > 0, "no interval ends at a fault cut alone");
    }

    /// The telemetry every session resident at `epoch` should read, keyed
    /// by session: the surrogate closed form over every non-void segment
    /// that covers `epoch`, grouped by server, in session-id order.
    fn resident_reference(st: &EngineState, epoch: u64) -> Vec<Vec<SessionTelemetry>> {
        let mut by_server: Vec<Vec<&Seg>> = vec![Vec::new(); st.srv.len()];
        for seg in &st.segs {
            if !seg.is_void() && seg.start <= epoch && epoch < seg.end {
                by_server[seg.server].push(seg);
            }
        }
        by_server
            .into_iter()
            .enumerate()
            .map(|(server, mut here)| {
                here.sort_unstable_by_key(|seg| seg.session);
                let profiles: Vec<&AppProfile> = here.iter().map(|seg| &seg.app.profile).collect();
                let config = &st.eng.groups[st.srv[server].group].config;
                here.iter()
                    .zip(surrogate_rates(config, &profiles))
                    .map(|(seg, (fps, base))| SessionTelemetry {
                        session: seg.session,
                        fps,
                        rtt_ms: surrogate_rtt(st.eng.seed, server, epoch, seg.session, 0, base),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn polls_read_every_segment_resident_at_the_polled_epoch() {
        use rand::Rng;
        let mut eng = surrogate_engine(Arc::new(super::super::FirstFit));
        eng.epochs = 48;
        eng.migration = Some(MigrationConfig {
            pressure_threshold: 0.5,
        });
        eng.backpressure = Some(BackpressureConfig::lobby());
        eng.faults = Some(FaultPlan {
            hazards: vec![
                Hazard {
                    per_server_epoch: 0.05,
                    kind: FaultKind::Crash {
                        drain_epochs: 0,
                        restart_after_epochs: Some(1),
                        warmup_epochs: 0,
                    },
                },
                Hazard {
                    per_server_epoch: 0.05,
                    kind: FaultKind::GpuDegrade {
                        severity: 0.5,
                        recover_after_epochs: Some(3),
                    },
                },
            ],
            ..FaultPlan::default()
        });
        let mut live = eng.live();
        let eps = live.epoch_ns();
        let mut rng = SeedTree::new(19).stream("offers-and-polls");
        let (mut t, mut polls, mut ahead, mut answered, mut from_cut) = (0u64, 0, 0, 0, 0);
        // Past the horizon too: the last polls clamp to the final epoch.
        while t < live.horizon_ns() + 2 * eps {
            t += rng.gen_range(1..eps / 4);
            if rng.gen_bool(0.5) {
                let app = eng.mix.sample(&mut rng);
                live.offer_arrival(t, app, rng.gen_range(eps..6 * eps));
                continue;
            }
            live.step_to(t);
            let epoch = (t / eps).min(eng.epochs - 1);
            assert!(live.current_epoch() <= epoch + 1, "poll contract broken");
            polls += 1;
            ahead += usize::from(live.current_epoch() == epoch + 1);
            let reference = resident_reference(&live.st, epoch);
            for (server, want) in reference.iter().enumerate() {
                assert_eq!(
                    live.server_telemetry(server, epoch),
                    *want,
                    "server {server} at epoch {epoch}"
                );
            }
            for session in 0..live.st.next_session {
                let want = reference.iter().flatten().find(|r| r.session == session);
                assert_eq!(
                    live.session_telemetry(session, epoch).as_ref(),
                    want,
                    "session {session} at epoch {epoch}"
                );
                if want.is_some() {
                    answered += 1;
                    let latest = &live.st.segs[live.st.session_seg[session as usize] as usize];
                    from_cut += usize::from(!latest.covers(epoch));
                }
            }
            for bogus in [live.st.next_session, 1 << 40, u64::MAX] {
                assert_eq!(live.session_telemetry(bogus, epoch), None);
            }
        }
        let st = &live.st;
        assert!(
            polls > 100 && answered > polls,
            "{polls} polls, {answered} answered"
        );
        assert!(
            ahead > polls / 4,
            "only {ahead} of {polls} polls saw the engine ahead"
        );
        assert!(from_cut > 0, "no poll read a segment cut at the boundary");
        assert!(st.migrations > 0, "no migration");
        assert!(st.segs.iter().any(Seg::is_void), "no voided segment");
        assert!(
            st.fl.orphaned + st.fl.evicted > 0,
            "no fault detached a session"
        );
        assert_eq!(live.server_telemetry(st.srv.len(), 0), Vec::new());
    }

    #[test]
    fn recovery_exhausts_attempts_against_a_full_fleet() {
        // One server, crashed for good: orphans retry with backoff until
        // attempts run out, then count as lost — never panic, never leak.
        let base = SystemConfig::turbovnc_stock();
        let spec = FleetSpec::new(1, mix(), Arc::new(super::super::FirstFit), 11).epochs(16);
        let mut eng = FleetEngine::from_spec(&spec);
        eng.data_plane = DataPlane::Surrogate;
        eng.arrivals = ArrivalConfig::saturating();
        eng.groups = vec![GroupSpec::with_gpu(1, &base, GpuModel::Gtx1080Ti)];
        eng.faults = Some(FaultPlan {
            scheduled: vec![FaultEvent {
                at_epoch: 2,
                server: 0,
                kind: FaultKind::Crash {
                    drain_epochs: 0,
                    restart_after_epochs: None,
                    warmup_epochs: 0,
                },
            }],
            recovery: RecoveryConfig {
                base_retry_epochs: 1,
                max_backoff_epochs: 2,
                max_attempts: 3,
                queue_limit: 8,
            },
            ..FaultPlan::default()
        });
        let (report, _) = eng.live().finish(1);
        let fl = report
            .dynamics
            .expect("fault dynamics")
            .faults
            .expect("fault ledger");
        assert!(fl.orphaned > 0);
        assert_eq!(fl.recovered, 0, "nowhere to recover to");
        assert_eq!(fl.orphaned, fl.lost);
        assert!(fl.recovery_retries > 0, "orphans must at least try");
    }

    #[test]
    fn parks_at_the_retry_horizon_expire_without_occupying_the_queue() {
        // Satellite regression: a park whose retry lands at or past the
        // horizon expires immediately under the same strict `< horizon`
        // rule think-time rejoins use — it must never hold a queue slot.
        let mut eng = surrogate_engine(Arc::new(super::super::FirstFit));
        eng.backpressure = Some(BackpressureConfig {
            queue_limit: 4,
            retry_after_epochs: eng.epochs,
        });
        let (_, audit) = eng.live().finish(1);
        assert!(audit.queued > 0, "saturating load must refuse something");
        assert_eq!(audit.expired, audit.queued);
        assert_eq!(audit.retried, 0);
        assert_eq!(audit.peak_queue, 0);
    }

    #[test]
    fn near_max_horizons_do_not_overflow_retry_arithmetic() {
        // Satellite regression: epoch-to-nanosecond products saturate, so
        // a pathological retry-after cannot wrap around the horizon check.
        let base = SystemConfig::turbovnc_stock();
        let spec = FleetSpec::new(2, mix(), Arc::new(super::super::FirstFit), 13).epochs(4);
        let mut eng = FleetEngine::from_spec(&spec);
        eng.data_plane = DataPlane::Surrogate;
        eng.groups = vec![GroupSpec::with_gpu(2, &base, GpuModel::Gtx1080Ti)];
        // Closed clients only: an open Poisson stream across a 253-year
        // horizon would draw forever.
        eng.arrivals = ArrivalConfig::saturating();
        eng.arrivals.open_rate_per_sec = 0.0;
        eng.arrivals.closed_clients = 16;
        eng.epoch = SimDuration::from_secs(2_000_000_000);
        eng.backpressure = Some(BackpressureConfig {
            queue_limit: 8,
            retry_after_epochs: u64::MAX / 2,
        });
        let (_, audit) = eng.live().finish(1);
        assert_eq!(audit.queued, audit.retried + audit.expired);
        assert_eq!(audit.retried, 0, "a saturated product can never retry");
    }
}
