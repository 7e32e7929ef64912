//! The two fleet workloads, both driven through `FleetEngine::live()`:
//!
//! * `fleet_control` — `fleet_scale --full`'s heterogeneous fleet with
//!   autoscale, migration, backpressure and `fleet_chaos`'s fault plan on
//!   the surrogate data plane. One operation is one control epoch
//!   (`LiveFleet::step_to` to the next boundary); the headline rate is
//!   arrivals offered per host second.
//! * `fleet_sim` — a small static fleet on the simulated data plane
//!   (`CloudSystem` per occupancy interval, human drivers). One operation
//!   is one whole fleet run (per-epoch `step_to`, then `finish`); the
//!   headline rate is simulated session-seconds per host second.

use std::sync::Arc;
use std::time::Instant;

use pictor_apps::AppId;
use pictor_core::fleet::{
    ArrivalConfig, AutoscaleConfig, BackpressureConfig, DataPlane, FaultEvent, FaultKind,
    FaultPlan, FirstFit, FleetAudit, FleetEngine, FleetReport, FleetSpec, FleetSuiteReport,
    GroupSpec, Hazard, MigrationConfig, RecoveryConfig, WorkloadMix,
};
use pictor_hw::GpuModel;
use pictor_render::SystemConfig;
use pictor_sim::SeedTree;

use crate::calib::{HostClock, LONG_UNITS};
use crate::stats::Samples;
use crate::trace;
use crate::{digest, secs, Checks, E2e, Metric};

/// `fleet_scale --full`'s four GPU groups, lowest to highest throughput.
const GPUS: [GpuModel; 4] = [
    GpuModel::Gtx1060,
    GpuModel::TeslaT4,
    GpuModel::Rtx2080Ti,
    GpuModel::Rtx3090,
];
const CONTROL_SERVERS_PER_GROUP: usize = 300;
const CONTROL_EPOCHS: u64 = 1800;
/// Measured seconds per `fleet_control` run on a 2-core host. The work is
/// sized from `--seconds` with it, never from the host's speed, so every
/// run of a seed does the same work.
const CONTROL_RUN_S: f64 = 5.0;
/// Long enough for the fleet to fill up (sessions last ~8 epochs), short
/// enough that a measured window holds a few dozen runs.
const SIM_SERVERS: usize = 16;
const SIM_EPOCHS: u64 = 20;
/// `fleet_sim` fleets per measured second on a 2-core host. Each is a
/// different fleet drawn from the seed, so a run's figures do not rest
/// on one fleet's size.
const SIM_RUNS_PER_S: f64 = 2.0;
/// Set-ups timed per run for the (millisecond-scale) fleet set-up.
const SETUPS: usize = 50;
/// `step_to` calls between host calibrations: ~10 ms of control steps.
const LAP_EPOCHS: u64 = 25;

/// `fleet_chaos`'s fault plan: two scheduled faults on early servers plus
/// crash, degrade and brownout hazards per server-epoch.
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

/// The `fleet_control` engine: 1200 servers in four GPU groups, 1800
/// epochs, open demand at ~110% of the fleet.
pub fn control_engine(seed: u64) -> FleetEngine {
    let per_group = CONTROL_SERVERS_PER_GROUP;
    let servers = per_group * GPUS.len();
    let mix = WorkloadMix::uniform([AppId::Dota2, AppId::SuperTuxKart, AppId::ZeroAd]);
    let spec = FleetSpec::new(servers, mix, Arc::new(FirstFit), seed).epochs(CONTROL_EPOCHS);
    let mut eng = FleetEngine::from_spec(&spec);
    let base = SystemConfig::turbovnc_stock();
    eng.groups = GPUS
        .iter()
        .map(|&gpu| GroupSpec::with_gpu(per_group, &base, gpu))
        .collect();
    eng.arrivals = ArrivalConfig {
        label: "scale".into(),
        open_rate_per_sec: 0.55,
        closed_clients: 1,
        mean_session_secs: 8.0,
        mean_think_secs: 6.0,
    };
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
    eng.faults = Some(chaos_plan());
    eng
}

/// The `fleet_sim` engine: 16 servers x 4 slots, moderate arrivals, the
/// uniform six-app mix, first-fit, simulated data plane.
pub fn sim_engine(seed: u64) -> FleetEngine {
    let spec = FleetSpec::new(
        SIM_SERVERS,
        WorkloadMix::uniform(AppId::ALL),
        Arc::new(FirstFit),
        seed,
    )
    .epochs(SIM_EPOCHS)
    .slots_per_server(4)
    .arrivals(ArrivalConfig::moderate());
    FleetEngine::from_spec(&spec)
}

/// The seed of the `k`-th fleet a `fleet_sim` run serves.
fn sim_fleet_seed(seed: u64, k: usize) -> u64 {
    SeedTree::new(seed).seed_for_indexed("fleet-sim-", k as u64)
}

/// The report's canonical JSON: what digests and equality checks compare.
fn report_json(report: &FleetReport) -> String {
    FleetSuiteReport::from_cells("perfbench", report.seed, vec![report.clone()]).to_json()
}

/// Output checks on one sealed fleet run; returns the report digest.
fn check_report(report: &FleetReport, audit: &FleetAudit, checks: &mut Checks, ops: u64) -> u64 {
    let bad = report.non_finite_paths();
    if !bad.is_empty() {
        checks.fail(ops, format!("non-finite fleet metrics: {}", bad.join(", ")));
    }
    let dynamics = report.dynamics.unwrap_or_default();
    let queued = dynamics.backpressure.map_or(0, |b| b.queued);
    if report.offered != report.admitted + report.rejected + queued {
        checks.fail(
            ops,
            format!(
                "admission ledger: offered {} != admitted {} + rejected {} + queued {queued}",
                report.offered, report.admitted, report.rejected
            ),
        );
    }
    if (audit.offered, audit.admitted, audit.rejected)
        != (report.offered, report.admitted, report.rejected)
    {
        checks.fail(ops, "audit ledger disagrees with the report".into());
    }
    if let Some(f) = dynamics.faults {
        if f.orphaned + f.evicted != f.recovered + f.lost {
            checks.fail(
                ops,
                "fault ledger: orphaned + evicted != recovered + lost".into(),
            );
        }
    }
    digest(&report_json(report))
}

struct Driven {
    report: FleetReport,
    audit: FleetAudit,
    /// Each `step_to`, s, rescaled to the nominal host when calibrated.
    steps_s: Vec<f64>,
    /// The whole run (steps + finish), s, rescaled likewise.
    total_s: f64,
    /// The whole run as the wall clock read it, s.
    wall_s: f64,
    /// The `finish` alone, rescaled, and the slowness it was rescaled by.
    finish_s: f64,
    finish_slowness: f64,
}

/// Drives an opened fleet one epoch at a time, then seals it. With a
/// clock, every `LAP_EPOCHS` steps and the `finish` are calibrated and
/// rescaled; spans are recorded when tracing is enabled on this thread.
fn drive_per_epoch(eng: &FleetEngine, threads: usize, mut clock: Option<&mut HostClock>) -> Driven {
    let mut live = eng.live();
    let eps = live.epoch_ns();
    if let Some(c) = clock.as_deref_mut() {
        c.restart();
    }
    let run = trace::span("fleet.run", None);
    let mut steps_s = Vec::with_capacity(eng.epochs as usize);
    let mut pending = Vec::new();
    let (mut total_s, mut wall_s) = (0.0, 0.0);
    for e in 1..=eng.epochs {
        {
            let _g = trace::span("engine.step", None);
            let t = Instant::now();
            live.step_to(e * eps);
            pending.push(secs(t));
        }
        if e % LAP_EPOCHS == 0 || e == eng.epochs {
            let slowness = lap(&mut clock);
            for raw in pending.drain(..) {
                steps_s.push(raw / slowness);
                total_s += raw / slowness;
                wall_s += raw;
            }
        }
    }
    if let Some(c) = clock.as_deref_mut() {
        c.restart_with(LONG_UNITS);
    }
    let t = Instant::now();
    let (report, audit) = {
        let _g = trace::span("engine.finish", None);
        live.finish(threads)
    };
    let raw = secs(t);
    drop(run);
    let finish_slowness = clock.map_or(1.0, |c| c.lap_with(LONG_UNITS));
    total_s += raw / finish_slowness;
    wall_s += raw;
    Driven {
        report,
        audit,
        steps_s,
        total_s,
        wall_s,
        finish_s: raw / finish_slowness,
        finish_slowness,
    }
}

/// The host's slowness since the last lap, or 1 without a clock.
fn lap(clock: &mut Option<&mut HostClock>) -> f64 {
    clock.as_deref_mut().map_or(1.0, HostClock::lap)
}

/// Times `SETUPS` engine builds (configuration plus `live()`), each
/// rescaled to the nominal host.
fn time_setups(build: fn(u64) -> FleetEngine, seed: u64, clock: &mut HostClock) -> Samples {
    let mut setup = Samples::new();
    clock.restart();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let eng = build(seed);
        let live = eng.live();
        let raw = secs(t);
        drop(live);
        setup.push(raw / clock.lap());
    }
    setup
}

pub fn fleet_control(seed: u64, seconds: f64, checks: &mut Checks) -> E2e {
    let mut clock = HostClock::new();
    let setup = time_setups(control_engine, seed, &mut clock);
    let eng = control_engine(seed);
    let mut ticks_us = Samples::new();
    let mut offered = 0u64;
    let (mut busy_s, mut wall_s) = (0.0, 0.0);
    let mut digests = Vec::new();
    for _ in 0..runs_for(seconds, 1.0 / CONTROL_RUN_S) {
        let run = drive_per_epoch(&eng, 1, Some(&mut clock));
        println!(
            "fleet_control run: steps {:.3} s, finish {:.3} s (slowness {:.3}), wall {:.3} s",
            run.total_s - run.finish_s,
            run.finish_s,
            run.finish_slowness,
            run.wall_s
        );
        let ops = run.steps_s.len() as u64;
        checks.attempted += ops;
        digests.push(check_report(&run.report, &run.audit, checks, ops));
        for &s in &run.steps_s {
            ticks_us.push(s * 1e6);
        }
        offered += run.report.offered;
        busy_s += run.total_s;
        wall_s += run.wall_s;
    }
    if digests.iter().any(|&d| d != digests[0]) {
        checks.fail(
            0,
            format!("fleet_control runs of one seed differ: {digests:x?}"),
        );
    }
    println!(
        "fleet_control: {} runs of {} servers x {} epochs, {} arrivals each, report digest {:016x}",
        digests.len(),
        eng.total_servers(),
        eng.epochs,
        offered / digests.len() as u64,
        digests[0]
    );
    E2e::new(setup, offered as f64 / busy_s, ticks_us, clock)
        .with_wall_rate(offered as f64 / wall_s)
}

pub fn fleet_sim(seed: u64, seconds: f64, checks: &mut Checks) -> E2e {
    let mut clock = HostClock::new();
    let setup = time_setups(sim_engine, seed, &mut clock);
    let mut per_session_s_us = Samples::new();
    let mut session_s = 0.0;
    let (mut busy_s, mut wall_s) = (0.0, 0.0);
    let mut digests = String::new();
    let runs = runs_for(seconds, SIM_RUNS_PER_S);
    for k in 0..runs {
        let eng = sim_engine(sim_fleet_seed(seed, k));
        let run = drive_per_epoch(&eng, 1, Some(&mut clock));
        checks.attempted += 1;
        let d = check_report(&run.report, &run.audit, checks, 1);
        digests.push_str(&format!("{d:016x}"));
        let simulated = run.report.session_epochs as f64 * eng.epoch.as_secs_f64();
        per_session_s_us.push(run.total_s / simulated * 1e6);
        session_s += simulated;
        busy_s += run.total_s;
        wall_s += run.wall_s;
    }
    println!(
        "fleet_sim: {runs} fleets of {SIM_SERVERS} servers x {SIM_EPOCHS} epochs, \
         {session_s:.0} simulated session-s, digest of their reports {:016x}",
        digest(&digests)
    );
    E2e::new(setup, session_s / busy_s, per_session_s_us, clock)
        .with_wall_rate(session_s / wall_s)
}

/// Whole runs for a window of `seconds` at `per_s` runs per second.
fn runs_for(seconds: f64, per_s: f64) -> usize {
    ((seconds * per_s).round() as usize).max(1)
}

/// The traced pass over one fleet workload, `pairs` times: an untraced
/// one-shot run (`live().finish()`), then the same fleet driven per epoch
/// with spans. Every per-epoch report must be byte-identical to the
/// one-shot one. Returns the last traced run's report and spans, and the
/// tracing overhead over all pairs.
fn traced(
    label: &str,
    eng: &FleetEngine,
    threads: usize,
    pairs: usize,
    checks: &mut Checks,
) -> (FleetReport, Vec<trace::Span>, f64) {
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut last = None;
    for _ in 0..pairs {
        let t = Instant::now();
        let (one_shot, _) = eng.live().finish(threads);
        untraced_s += secs(t);
        trace::enable(Instant::now());
        let t = Instant::now();
        let run = drive_per_epoch(eng, threads, None);
        traced_s += secs(t);
        let spans = trace::take();
        checks.attempted += 1;
        check_report(&run.report, &run.audit, checks, 1);
        if report_json(&run.report) != report_json(&one_shot) {
            checks.fail(
                1,
                format!("{label}: per-epoch report differs from the one-shot report"),
            );
        }
        last = Some((run.report, spans));
    }
    let (report, spans) = last.expect("at least one pair");
    (report, spans, traced_s / untraced_s - 1.0)
}

fn span_total_s(spans: &[trace::Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

pub fn traced_fleet_control(
    seed: u64,
    threads: usize,
    checks: &mut Checks,
    out: &mut Vec<Metric>,
) -> Vec<trace::Span> {
    let eng = control_engine(seed);
    let (report, spans, overhead) = traced("fleet_control", &eng, threads, 1, checks);
    let step_s = span_total_s(&spans, "engine.step");
    let d = report.dynamics.unwrap_or_default();
    let bp = d.backpressure.unwrap_or_default();
    let faults = d.faults.unwrap_or_default();
    let epochs = eng.epochs as usize;
    out.extend([
        Metric::new("engine.step_s", step_s, "s", epochs),
        Metric::new(
            "engine.step_ns_per_arrival",
            step_s * 1e9 / report.offered as f64,
            "ns",
            epochs,
        ),
        Metric::new(
            "engine.finish_s",
            span_total_s(&spans, "engine.finish"),
            "s",
            1,
        ),
        Metric::count("fleet.offered", report.offered),
        Metric::count("fleet.admitted", report.admitted),
        Metric::count("fleet.rejected", report.rejected),
        Metric::count("fleet.retried", bp.retried),
        Metric::count(
            "fleet.migrations",
            d.migration.unwrap_or_default().migrations,
        ),
        Metric::count(
            "fleet.faults",
            faults.crashes + faults.gpu_degrades + faults.brownouts,
        ),
        Metric::count("fleet.session_epochs", report.session_epochs),
        Metric::new(
            "fleet.admit_ratio",
            report.admitted as f64 / report.offered as f64,
            "ratio",
            report.offered as usize,
        ),
        Metric::new("trace.overhead.fleet_control", overhead, "ratio", 1),
    ]);
    spans
}

pub fn traced_fleet_sim(
    seed: u64,
    threads: usize,
    checks: &mut Checks,
    out: &mut Vec<Metric>,
) -> Vec<trace::Span> {
    let eng = sim_engine(sim_fleet_seed(seed, 0));
    let (report, spans, overhead) = traced("fleet_sim", &eng, threads, 3, checks);
    out.extend([
        Metric::new(
            "fleet_sim.engine.step_s",
            span_total_s(&spans, "engine.step"),
            "s",
            eng.epochs as usize,
        ),
        Metric::new(
            "fleet_sim.engine.finish_s",
            span_total_s(&spans, "engine.finish"),
            "s",
            1,
        ),
        Metric::count("fleet_sim.session_epochs", report.session_epochs),
        Metric::new("trace.overhead.fleet_sim", overhead, "ratio", 1),
    ]);
    spans
}
