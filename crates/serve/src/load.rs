//! The `pictor-load` client swarm: tens of thousands of synthetic
//! clients multiplexed onto one or more driver threads.
//!
//! Clients are *state machines in a virtual-time heap*, not OS threads —
//! the same discipline the fleet engine uses for its internal arrival
//! streams. Each driver pops the next due client event, paces itself with
//! a [`SimClock`] (wall mode sleeps, virtual mode jumps), performs the
//! synchronous protocol round-trip, and schedules the client's next
//! event from the outcome:
//!
//! * **Closed-loop population** (`clients`): join → play for the granted
//!   duration → think → rejoin; a rejected client retries after a think
//!   time; a parked client comes back after its would-be session (the
//!   *daemon* owns the actual retry — re-offering would double-count).
//! * **Open-loop stream** (`open_rate_per_sec`, optionally ramping to
//!   `open_rate_end_per_sec` across the horizon): Poisson arrivals that
//!   never return.
//! * **Flash crowd** (`flash_burst` at `flash_at_secs`): one-shot
//!   clients that all join at the same instant.
//!
//! # Multi-driver swarms
//!
//! With `drivers = N`, the population is partitioned `client % N` across
//! N OS threads, each with its own connection, its own decorrelated seed
//! stream and its own admit-latency [`Histogram`]; driver 0 additionally
//! owns the open-loop stream, the snapshot cadence, and the end-of-run
//! drain/seal. At report time the per-driver histograms merge exactly, in
//! driver index order, so the swarm's admit tails are those of one
//! histogram over every driver's samples. `drivers = 1` reproduces the
//! single-threaded swarm byte for byte — including its RNG stream — which
//! is what keeps the recorded-journal golden valid.
//!
//! Two measurement planes, deliberately separated: everything *wall* —
//! admit-latency tails, achieved request throughput — lands in
//! [`LoadReport`]; everything *virtual* is the daemon's business and
//! stays deterministic. Under a virtual clock, one driver and a pinned
//! seed the swarm's request stream is fully deterministic, which is what
//! makes the recorded-journal golden possible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::io;
use std::sync::mpsc::channel;
use std::thread;
use std::time::Instant;

use pictor_apps::AppId;
use pictor_core::fleet::FleetEngine;
use pictor_core::report::{csv_field, json_num};
use pictor_sim::rng::{exponential, lognormal_mean_cv};
use pictor_sim::{Histogram, SeedTree, SimClock, SimTime};
use rand::Rng;

use crate::daemon::{run_daemon, ServeOptions, ServeOutcome};
use crate::protocol::{ErrCode, Msg, Outcome, WireError};
use crate::transport::{ChannelConn, Conn};

/// Schema identifier of the load-side JSON document.
pub const LOAD_SCHEMA: &str = "pictor-serve-load/v2";

/// Swarm shape: populations, rates, cadences, seed.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Closed-loop client population.
    pub clients: usize,
    /// Open-loop arrival rate at t = 0, requests/second (whole swarm).
    pub open_rate_per_sec: f64,
    /// Open-loop rate at the horizon (linear ramp); `None` holds the
    /// base rate flat.
    pub open_rate_end_per_sec: Option<f64>,
    /// Flash-crowd instant, seconds (ignored when `flash_burst` is 0).
    pub flash_at_secs: u64,
    /// One-shot clients joining together at the flash instant.
    pub flash_burst: usize,
    /// Driven horizon, seconds (the swarm seals at this instant).
    pub secs: u64,
    /// Mean requested session duration, seconds (lognormal, cv 0.5).
    pub mean_session_secs: f64,
    /// Mean think time between closed-loop sessions, seconds
    /// (exponential).
    pub mean_think_secs: f64,
    /// Poll telemetry on every Nth admission (0 = never).
    pub poll_every: u64,
    /// Request a fleet snapshot every this many seconds (0 = never).
    pub snapshot_every_secs: u64,
    /// Apps requested (uniform pick per request).
    pub apps: Vec<AppId>,
    /// Swarm master seed.
    pub seed: u64,
    /// Driver threads the population is partitioned across. 1 keeps the
    /// classic single-threaded swarm (and its exact RNG stream).
    pub drivers: usize,
    /// Auth token presented in every driver's `Hello` (empty = none).
    pub token: String,
}

impl LoadSpec {
    /// A swarm of `clients` closed-loop clients driven for `secs`
    /// seconds: no open-loop stream, no flash, telemetry poll every 16th
    /// admission, snapshot every 5 s, the full six-app mix, one driver.
    pub fn closed(clients: usize, secs: u64, seed: u64) -> Self {
        LoadSpec {
            clients,
            open_rate_per_sec: 0.0,
            open_rate_end_per_sec: None,
            flash_at_secs: 0,
            flash_burst: 0,
            secs,
            mean_session_secs: 8.0,
            mean_think_secs: 4.0,
            poll_every: 16,
            snapshot_every_secs: 5,
            apps: AppId::ALL.to_vec(),
            seed,
            drivers: 1,
            token: String::new(),
        }
    }

    /// Panics on nonsensical shapes (the binaries call this on parsed
    /// flags).
    pub fn validate(&self) {
        assert!(self.secs > 0, "swarm horizon must be positive");
        assert!(
            self.mean_session_secs > 0.0,
            "session mean must be positive"
        );
        assert!(self.mean_think_secs > 0.0, "think mean must be positive");
        assert!(!self.apps.is_empty(), "need at least one app");
        assert!(self.drivers > 0, "need at least one driver thread");
        assert!(
            self.open_rate_per_sec >= 0.0 && self.open_rate_end_per_sec.is_none_or(|r| r >= 0.0),
            "rates must be nonnegative"
        );
        if self.flash_burst > 0 {
            assert!(
                self.flash_at_secs < self.secs,
                "flash must land inside the horizon"
            );
        }
    }
}

/// Client-side measured results: wall-clock truths the deterministic
/// daemon report cannot carry.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Transport label (`"in-process"` or `"tcp"`).
    pub mode: String,
    /// Pacing label (`"virtual"` or `"wall"`).
    pub pace: String,
    /// Closed-loop population.
    pub clients: usize,
    /// Flash-crowd size.
    pub flash_burst: usize,
    /// Driven horizon, seconds.
    pub secs: u64,
    /// Swarm seed.
    pub seed: u64,
    /// Driver threads.
    pub drivers: usize,
    /// Session requests sent.
    pub requests: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Requests parked (daemon retries internally).
    pub parked: u64,
    /// Requests past the serving horizon.
    pub past_horizon: u64,
    /// Requests refused for an unknown app code.
    pub bad_app: u64,
    /// Telemetry polls completed.
    pub polls: u64,
    /// Polls answered with `ErrCode::UnknownSession`: no segment of the
    /// session covered the polled epoch (a wall-paced poll, or one from a
    /// swarm with several connections, stamped outside its session's
    /// grant, typically after it ended). A typed error since protocol v2,
    /// not a fabricated zero sample. A virtual-paced swarm on one
    /// connection polls mid-grant, so it never sees one.
    pub stale_polls: u64,
    /// Fleet snapshots completed.
    pub snapshots: u64,
    /// Peak resident sessions observed across snapshots: the engine's
    /// resident sessions, which placement bounds by the fleet's slots.
    /// The soak mode's boundedness probe.
    pub peak_resident: u64,
    /// Wall time driving the swarm, milliseconds.
    pub wall_ms: f64,
    /// Achieved round-trips per wall-second (requests + polls +
    /// snapshots over the drive time).
    pub achieved_rps: f64,
    /// Admit-latency tail (open → decision round-trip), microseconds.
    pub admit_p50_us: f64,
    /// p95 admit latency, microseconds.
    pub admit_p95_us: f64,
    /// p99 admit latency, microseconds.
    pub admit_p99_us: f64,
    /// Worst admit latency, microseconds.
    pub admit_max_us: f64,
    /// Mean polled FPS across telemetry replies (0 when never polled).
    pub poll_fps_mean: f64,
    /// Mean polled RTT across telemetry replies, ms.
    pub poll_rtt_mean_ms: f64,
    /// The daemon's `pictor-serve/v1` report, verbatim.
    pub serve_json: String,
}

impl LoadReport {
    /// Serializes as `pictor-serve-load/v2` JSON, embedding the daemon
    /// report under `"serve"`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{LOAD_SCHEMA}\",");
        let _ = writeln!(out, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(out, "  \"pace\": \"{}\",", self.pace);
        let _ = writeln!(out, "  \"clients\": {},", self.clients);
        let _ = writeln!(out, "  \"flash_burst\": {},", self.flash_burst);
        let _ = writeln!(out, "  \"secs\": {},", self.secs);
        let _ = writeln!(out, "  \"seed\": \"{}\",", self.seed);
        let _ = writeln!(out, "  \"drivers\": {},", self.drivers);
        let _ = writeln!(out, "  \"requests\": {},", self.requests);
        let _ = writeln!(out, "  \"admitted\": {},", self.admitted);
        let _ = writeln!(out, "  \"rejected\": {},", self.rejected);
        let _ = writeln!(out, "  \"parked\": {},", self.parked);
        let _ = writeln!(out, "  \"past_horizon\": {},", self.past_horizon);
        let _ = writeln!(out, "  \"bad_app\": {},", self.bad_app);
        let _ = writeln!(out, "  \"polls\": {},", self.polls);
        let _ = writeln!(out, "  \"stale_polls\": {},", self.stale_polls);
        let _ = writeln!(out, "  \"snapshots\": {},", self.snapshots);
        let _ = writeln!(out, "  \"peak_resident\": {},", self.peak_resident);
        let _ = writeln!(out, "  \"wall_ms\": {},", json_num(self.wall_ms));
        let _ = writeln!(out, "  \"achieved_rps\": {},", json_num(self.achieved_rps));
        let _ = writeln!(out, "  \"admit_p50_us\": {},", json_num(self.admit_p50_us));
        let _ = writeln!(out, "  \"admit_p95_us\": {},", json_num(self.admit_p95_us));
        let _ = writeln!(out, "  \"admit_p99_us\": {},", json_num(self.admit_p99_us));
        let _ = writeln!(out, "  \"admit_max_us\": {},", json_num(self.admit_max_us));
        let _ = writeln!(
            out,
            "  \"poll_fps_mean\": {},",
            json_num(self.poll_fps_mean)
        );
        let _ = writeln!(
            out,
            "  \"poll_rtt_mean_ms\": {},",
            json_num(self.poll_rtt_mean_ms)
        );
        out.push_str("  \"serve\": ");
        // The daemon report is already a JSON object; embed it verbatim.
        out.push_str(self.serve_json.trim_end());
        out.push_str("\n}\n");
        out
    }

    /// One-row CSV of the measured fields (the embedded daemon report is
    /// JSON-only).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "schema,mode,pace,clients,flash_burst,secs,seed,drivers,requests,admitted,rejected,\
             parked,past_horizon,bad_app,polls,stale_polls,snapshots,peak_resident,\
             wall_ms,achieved_rps,\
             admit_p50_us,admit_p95_us,admit_p99_us,admit_max_us,poll_fps_mean,poll_rtt_mean_ms\n",
        );
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            csv_field(LOAD_SCHEMA),
            csv_field(&self.mode),
            csv_field(&self.pace),
            self.clients,
            self.flash_burst,
            self.secs,
            self.seed,
            self.drivers,
            self.requests,
            self.admitted,
            self.rejected,
            self.parked,
            self.past_horizon,
            self.bad_app,
            self.polls,
            self.stale_polls,
            self.snapshots,
            self.peak_resident,
            json_num(self.wall_ms),
            json_num(self.achieved_rps),
            json_num(self.admit_p50_us),
            json_num(self.admit_p95_us),
            json_num(self.admit_p99_us),
            json_num(self.admit_max_us),
            json_num(self.poll_fps_mean),
            json_num(self.poll_rtt_mean_ms)
        );
        out
    }
}

/// Due-event payloads in the swarm's virtual-time heap. Ordering only
/// breaks exact `(time, seq)` ties, which the monotone sequence number
/// prevents — derived `Ord` is just heap plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Closed-loop client `id` (or one-shot flash client when
    /// `id >= clients`) sends an `Open`.
    Join(u32),
    /// The open-loop Poisson stream fires once and reschedules itself.
    OpenLoop,
    /// Periodic fleet snapshot.
    Snap,
    /// Mid-session telemetry poll for an admitted session.
    Poll(u64),
}

/// One driver's measured slice of the swarm, merged into the
/// [`LoadReport`] in driver index order.
#[derive(Debug, Default)]
struct DriverStats {
    requests: u64,
    admitted: u64,
    rejected: u64,
    parked: u64,
    past_horizon: u64,
    bad_app: u64,
    polls: u64,
    stale_polls: u64,
    snapshots: u64,
    peak_resident: u64,
    poll_fps_sum: f64,
    poll_rtt_sum: f64,
    /// Admit latency (open → decision round-trip), microseconds.
    admit_us: Histogram,
    /// From the driver's HelloAck: fleet size × slots (soak bound).
    servers: u64,
    slots: u64,
}

/// Handshakes on `conn`: sends `Hello` with the spec's token, surfaces an
/// `Unauthorized` refusal as a typed error, and returns
/// `(epoch_ns, servers, slots)`.
fn hello<C: Conn + ?Sized>(
    conn: &mut C,
    spec: &LoadSpec,
    driver: u32,
) -> io::Result<(u64, u64, u64)> {
    conn.send(&Msg::Hello {
        client: spec.seed.wrapping_add(driver as u64),
        token: spec.token.clone(),
    })?;
    match conn.recv()? {
        Msg::HelloAck {
            epoch_ns,
            servers,
            slots,
            ..
        } => Ok((epoch_ns.max(1), servers, slots)),
        Msg::Error {
            code: ErrCode::Unauthorized,
            ..
        } => Err(WireError::Unauthorized.into()),
        other => Err(unexpected("HelloAck", &other)),
    }
}

/// Drives driver `driver`'s partition of the swarm over `conn` up to the
/// horizon — everything except the final drain/seal, which the caller
/// owns (it must wait for every driver first).
fn drive<C: Conn + ?Sized>(
    conn: &mut C,
    spec: &LoadSpec,
    clock: &mut SimClock,
    driver: u32,
) -> io::Result<DriverStats> {
    let drivers = spec.drivers.max(1) as u32;
    let horizon_ns = spec.secs.saturating_mul(1_000_000_000);
    let (epoch_ns, servers, slots) = hello(conn, spec, driver)?;

    let tree = SeedTree::new(spec.seed).child("pictor-load");
    // One driver keeps the classic stream name — the recorded-journal
    // golden depends on it byte for byte.
    let mut rng = if drivers == 1 {
        tree.stream("swarm")
    } else {
        tree.stream(&format!("driver-{driver}"))
    };
    let mut heap: BinaryHeap<Reverse<(u64, u64, Ev)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<_>, seq: &mut u64, t: u64, ev: Ev| {
        if t < horizon_ns {
            heap.push(Reverse((t, *seq, ev)));
            *seq += 1;
        }
    };

    // Closed-loop clients spread their first joins over an initial think
    // window; flash clients all land on the same instant; the open-loop
    // stream draws its first gap from the base rate. Populations are
    // partitioned `id % drivers`.
    for c in 0..spec.clients {
        if c as u32 % drivers != driver {
            continue;
        }
        let t = (exponential(&mut rng, spec.mean_think_secs) * 1e9) as u64;
        push(&mut heap, &mut seq, t, Ev::Join(c as u32));
    }
    for f in 0..spec.flash_burst {
        if f as u32 % drivers != driver {
            continue;
        }
        let t = spec.flash_at_secs * 1_000_000_000;
        push(&mut heap, &mut seq, t, Ev::Join((spec.clients + f) as u32));
    }
    if driver == 0 && spec.open_rate_per_sec > 0.0 {
        let gap = exponential(&mut rng, 1.0 / spec.open_rate_per_sec);
        push(&mut heap, &mut seq, (gap * 1e9) as u64, Ev::OpenLoop);
    }
    if driver == 0 && spec.snapshot_every_secs > 0 {
        push(
            &mut heap,
            &mut seq,
            spec.snapshot_every_secs * 1_000_000_000,
            Ev::Snap,
        );
    }

    let mut st = DriverStats {
        servers,
        slots,
        ..DriverStats::default()
    };
    // Request ids interleave `driver, driver + drivers, …` so they stay
    // globally unique without coordination.
    let mut next_req = driver as u64 + 1;

    while let Some(Reverse((t, _, ev))) = heap.pop() {
        clock.sleep_until(SimTime::from_nanos(t));
        match ev {
            Ev::Join(id) => {
                let app = spec.apps
                    [(rng.gen::<f64>() * spec.apps.len() as f64) as usize % spec.apps.len()];
                let duration_secs = lognormal_mean_cv(&mut rng, spec.mean_session_secs, 0.5);
                let duration_ns = (duration_secs * 1e9).round() as u64;
                let req = next_req;
                next_req += drivers as u64;
                let sent = Instant::now();
                conn.send(&Msg::Open {
                    req,
                    at_ns: t,
                    duration_ns,
                    app_code: app.code().into(),
                })?;
                let reply = conn.recv()?;
                st.admit_us.record(sent.elapsed().as_secs_f64() * 1e6);
                st.requests += 1;
                let Msg::Decision {
                    req: rep_req,
                    outcome,
                    session,
                    start_epoch,
                    end_epoch,
                    ..
                } = reply
                else {
                    return Err(unexpected("Decision", &reply));
                };
                debug_assert_eq!(rep_req, req, "decisions answer in request order");
                let one_shot = (id as usize) >= spec.clients;
                match outcome {
                    Outcome::Admitted => {
                        st.admitted += 1;
                        if spec.poll_every > 0 && st.admitted.is_multiple_of(spec.poll_every) {
                            // Poll mid-session: the grant occupies epochs
                            // [start_epoch, end_epoch), and the engine
                            // answers a poll at any instant inside it with
                            // the session's telemetry (polling at admission
                            // time would land one epoch early and read
                            // `UnknownSession` — sessions start on the
                            // *next* boundary).
                            let mid = start_epoch
                                .saturating_add(end_epoch)
                                .saturating_mul(epoch_ns)
                                / 2;
                            push(&mut heap, &mut seq, mid.max(t), Ev::Poll(session));
                        }
                        if !one_shot {
                            // Play until the granted slot ends, then think.
                            let end_ns = end_epoch.saturating_mul(epoch_ns).max(t);
                            let think = (exponential(&mut rng, spec.mean_think_secs) * 1e9) as u64;
                            push(
                                &mut heap,
                                &mut seq,
                                end_ns.saturating_add(think),
                                Ev::Join(id),
                            );
                        }
                    }
                    Outcome::Parked => {
                        // The daemon owns the retry; re-offering would
                        // double-count. Come back after the would-be
                        // session.
                        st.parked += 1;
                        if !one_shot {
                            let think = (exponential(&mut rng, spec.mean_think_secs) * 1e9) as u64;
                            push(
                                &mut heap,
                                &mut seq,
                                t.saturating_add(duration_ns).saturating_add(think),
                                Ev::Join(id),
                            );
                        }
                    }
                    Outcome::Rejected => {
                        st.rejected += 1;
                        if !one_shot {
                            let think = (exponential(&mut rng, spec.mean_think_secs) * 1e9) as u64;
                            push(&mut heap, &mut seq, t.saturating_add(think), Ev::Join(id));
                        }
                    }
                    Outcome::PastHorizon => st.past_horizon += 1,
                    Outcome::UnknownApp => st.bad_app += 1,
                }
            }
            Ev::OpenLoop => {
                // Ramped Poisson: the gap is drawn at the instantaneous
                // rate, then the stream reschedules itself.
                let frac = t as f64 / horizon_ns as f64;
                let rate = spec.open_rate_per_sec
                    + spec
                        .open_rate_end_per_sec
                        .map_or(0.0, |end| (end - spec.open_rate_per_sec) * frac);
                let app = spec.apps
                    [(rng.gen::<f64>() * spec.apps.len() as f64) as usize % spec.apps.len()];
                let duration_secs = lognormal_mean_cv(&mut rng, spec.mean_session_secs, 0.5);
                let req = next_req;
                next_req += drivers as u64;
                let sent = Instant::now();
                conn.send(&Msg::Open {
                    req,
                    at_ns: t,
                    duration_ns: (duration_secs * 1e9).round() as u64,
                    app_code: app.code().into(),
                })?;
                let reply = conn.recv()?;
                st.admit_us.record(sent.elapsed().as_secs_f64() * 1e6);
                st.requests += 1;
                match reply {
                    Msg::Decision { outcome, .. } => match outcome {
                        Outcome::Admitted => st.admitted += 1,
                        Outcome::Rejected => st.rejected += 1,
                        Outcome::Parked => st.parked += 1,
                        Outcome::PastHorizon => st.past_horizon += 1,
                        Outcome::UnknownApp => st.bad_app += 1,
                    },
                    other => return Err(unexpected("Decision", &other)),
                }
                if rate > 0.0 {
                    let gap = (exponential(&mut rng, 1.0 / rate) * 1e9) as u64;
                    push(
                        &mut heap,
                        &mut seq,
                        t.saturating_add(gap.max(1)),
                        Ev::OpenLoop,
                    );
                }
            }
            Ev::Poll(session) => {
                conn.send(&Msg::Poll { at_ns: t, session })?;
                match conn.recv()? {
                    Msg::Telemetry { fps, rtt_ms, .. } => {
                        st.polls += 1;
                        st.poll_fps_sum += fps;
                        st.poll_rtt_sum += rtt_ms;
                    }
                    // Wall-clock jitter, or another connection's later
                    // clock, can land a poll after its session ended; the
                    // daemon says so by name.
                    Msg::Error {
                        code: ErrCode::UnknownSession,
                        ..
                    } => st.stale_polls += 1,
                    other => return Err(unexpected("Telemetry", &other)),
                }
            }
            Ev::Snap => {
                snapshot(conn, t, &mut st)?;
                push(
                    &mut heap,
                    &mut seq,
                    t + spec.snapshot_every_secs * 1_000_000_000,
                    Ev::Snap,
                );
            }
        }
    }
    clock.sleep_until(SimTime::from_nanos(horizon_ns));
    Ok(st)
}

/// Takes one fleet snapshot on `conn` and folds its resident count into
/// `st`.
fn snapshot<C: Conn + ?Sized>(conn: &mut C, at_ns: u64, st: &mut DriverStats) -> io::Result<()> {
    conn.send(&Msg::Snapshot { at_ns })?;
    match conn.recv()? {
        Msg::SnapshotRep { resident, .. } => {
            st.snapshots += 1;
            st.peak_resident = st.peak_resident.max(resident);
            Ok(())
        }
        other => Err(unexpected("SnapshotRep", &other)),
    }
}

/// Builds the merged [`LoadReport`] from per-driver stats (in driver
/// index order) and the sealed daemon JSON.
fn merge_report(
    spec: &LoadSpec,
    stats: &[DriverStats],
    mode: &str,
    pace: &str,
    wall: std::time::Duration,
    serve_json: String,
) -> LoadReport {
    let sum = |f: fn(&DriverStats) -> u64| stats.iter().map(f).sum::<u64>();
    let requests = sum(|s| s.requests);
    let polls = sum(|s| s.polls);
    let snapshots = sum(|s| s.snapshots);
    let round_trips = requests + polls + snapshots + 1;
    let mut admit_us = Histogram::new();
    for s in stats {
        admit_us.merge(&s.admit_us);
    }
    LoadReport {
        mode: mode.into(),
        pace: pace.into(),
        clients: spec.clients,
        flash_burst: spec.flash_burst,
        secs: spec.secs,
        seed: spec.seed,
        drivers: spec.drivers.max(1),
        requests,
        admitted: sum(|s| s.admitted),
        rejected: sum(|s| s.rejected),
        parked: sum(|s| s.parked),
        past_horizon: sum(|s| s.past_horizon),
        bad_app: sum(|s| s.bad_app),
        polls,
        stale_polls: sum(|s| s.stale_polls),
        snapshots,
        peak_resident: stats.iter().map(|s| s.peak_resident).max().unwrap_or(0),
        wall_ms: wall.as_secs_f64() * 1e3,
        achieved_rps: round_trips as f64 / wall.as_secs_f64().max(1e-9),
        admit_p50_us: admit_us.p50(),
        admit_p95_us: admit_us.p95(),
        admit_p99_us: admit_us.p99(),
        admit_max_us: admit_us.max(),
        poll_fps_mean: if polls > 0 {
            stats.iter().map(|s| s.poll_fps_sum).sum::<f64>() / polls as f64
        } else {
            0.0
        },
        poll_rtt_mean_ms: if polls > 0 {
            stats.iter().map(|s| s.poll_rtt_sum).sum::<f64>() / polls as f64
        } else {
            0.0
        },
        serve_json,
    }
}

/// Drives the full swarm over one `conn` and seals the run. Returns the
/// measured [`LoadReport`] with the daemon's report embedded. Requires
/// `spec.drivers <= 1` — multi-driver swarms need one connection per
/// driver, see [`run_swarm_threaded`].
///
/// `clock` paces the drive: wall mode sleeps between due events (live
/// TCP runs), virtual mode jumps (tests, recording, benchmarks — the
/// 10k-client benchmark would otherwise take hours of idle sleeping).
pub fn run_swarm<C: Conn + ?Sized>(
    conn: &mut C,
    spec: &LoadSpec,
    clock: &mut SimClock,
    mode: &str,
) -> io::Result<LoadReport> {
    spec.validate();
    assert!(
        spec.drivers <= 1,
        "run_swarm drives one connection; use run_swarm_threaded for {} drivers",
        spec.drivers
    );
    let started = Instant::now();
    let st = drive(conn, spec, clock, 0)?;
    let horizon_ns = spec.secs.saturating_mul(1_000_000_000);
    conn.send(&Msg::Seal { at_ns: horizon_ns })?;
    let serve_json = match conn.recv()? {
        Msg::Report { json } => json,
        other => return Err(unexpected("Report", &other)),
    };
    let pace = if clock.is_virtual() {
        "virtual"
    } else {
        "wall"
    };
    Ok(merge_report(
        spec,
        std::slice::from_ref(&st),
        mode,
        pace,
        started.elapsed(),
        serve_json,
    ))
}

/// Drives a multi-driver swarm: `spec.drivers` OS threads, each with its
/// own connection from `make_conn(driver)`, its own clock and its own
/// latency estimators. Driver 0 runs on the calling thread and owns the
/// end of the run: after every driver reaches the horizon it optionally
/// takes one last snapshot and drains the daemon (`drain` — the soak
/// mode's graceful shutdown, proving the journal hit stable storage),
/// then seals and collects the report.
///
/// When `drain` is set this also asserts that no snapshot saw more
/// resident sessions than the fleet has slots — the session-leak
/// regression guard the soak mode exists to enforce. The last snapshot
/// means a soak shorter than the snapshot cadence is checked too.
pub fn run_swarm_threaded<C, F>(
    make_conn: F,
    spec: &LoadSpec,
    virtual_pace: bool,
    mode: &str,
    drain: bool,
) -> io::Result<LoadReport>
where
    C: Conn,
    F: Fn(u32) -> io::Result<C> + Sync,
{
    spec.validate();
    let drivers = spec.drivers.max(1) as u32;
    let started = Instant::now();
    let new_clock = || {
        if virtual_pace {
            SimClock::virtual_start()
        } else {
            SimClock::wall_start()
        }
    };
    let mut conn0 = make_conn(0)?;
    let mut stats: Vec<DriverStats> = Vec::with_capacity(drivers as usize);
    let errs: Vec<io::Result<DriverStats>> = thread::scope(|s| {
        let handles: Vec<_> = (1..drivers)
            .map(|d| {
                let make_conn = &make_conn;
                s.spawn(move || {
                    let mut conn = make_conn(d)?;
                    drive(&mut conn, spec, &mut new_clock(), d)
                })
            })
            .collect();
        let first = drive(&mut conn0, spec, &mut new_clock(), 0);
        // Join in driver order: the merge below must not depend on
        // scheduling.
        let mut all = vec![first];
        for h in handles {
            all.push(h.join().expect("driver thread panicked"));
        }
        all
    });
    for r in errs {
        stats.push(r?);
    }

    // Every driver is done; driver 0's connection winds the run down.
    let horizon_ns = spec.secs.saturating_mul(1_000_000_000);
    if drain {
        snapshot(&mut conn0, horizon_ns, &mut stats[0])?;
        conn0.send(&Msg::Drain { at_ns: 0 })?;
        match conn0.recv()? {
            Msg::DrainAck { .. } => {}
            other => return Err(unexpected("DrainAck", &other)),
        }
    }
    conn0.send(&Msg::Seal { at_ns: horizon_ns })?;
    let serve_json = match conn0.recv()? {
        Msg::Report { json } => json,
        other => return Err(unexpected("Report", &other)),
    };
    let pace = if virtual_pace { "virtual" } else { "wall" };
    let report = merge_report(spec, &stats, mode, pace, started.elapsed(), serve_json);
    if drain {
        // The boundedness probe: placement never puts more sessions on a
        // server than it has slots.
        let capacity = stats[0].servers.saturating_mul(stats[0].slots);
        assert!(
            report.peak_resident <= capacity,
            "daemon held {} resident sessions against {capacity} fleet slots",
            report.peak_resident
        );
    }
    Ok(report)
}

fn unexpected(wanted: &str, got: &Msg) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("protocol violation: expected {wanted}, got {got:?}"),
    )
}

/// A completed in-process run: both sides of the wire.
#[derive(Debug)]
pub struct InProcessRun {
    /// The swarm's measured report (daemon JSON embedded).
    pub load: LoadReport,
    /// The daemon's sealed outcome (report, fleet report, audit,
    /// journal).
    pub outcome: ServeOutcome,
}

/// Runs daemon + swarm in one process over the channel transport, swarm
/// on a virtual clock. With `opts.virtual_clock` set and one driver, the
/// entire run is a deterministic function of `(engine, spec)` — the
/// configuration the record/replay golden and the backpressure tests
/// drive. Multi-driver specs fan out over `run_swarm_threaded`.
pub fn run_in_process(engine: &FleetEngine, opts: &ServeOptions, spec: &LoadSpec) -> InProcessRun {
    let (tx, rx) = channel();
    thread::scope(|s| {
        let daemon = s.spawn(|| run_daemon(engine, opts, rx));
        let load = if spec.drivers > 1 {
            let tx = &tx;
            run_swarm_threaded(
                |d| Ok(ChannelConn::connect(d + 1, tx)),
                spec,
                true,
                "in-process",
                false,
            )
            .expect("in-process transport")
        } else {
            let mut conn = ChannelConn::connect(1, &tx);
            let mut clock = SimClock::virtual_start();
            run_swarm(&mut conn, spec, &mut clock, "in-process").expect("in-process transport")
        };
        drop(tx);
        let outcome = daemon.join().expect("daemon thread");
        InProcessRun { load, outcome }
    })
}
