//! The control-plane daemon: a deterministic sharded core behind a thin
//! transport shim.
//!
//! # Execution model
//!
//! One thread owns the serving state ([`ServeCore`]: N per-shard
//! [`LiveFleet`]s behind a session-hash router) and consumes an mpsc
//! ingress queue of [`DaemonMsg`]s. Transports — TCP reader threads or
//! the in-process channel — only move bytes; every decision happens on
//! the core thread in arrival order. That single serialization point is
//! what makes the journal authoritative: the stamped ingress sequence
//! *is* the run.
//!
//! The engines are the only session state. A `Poll` is answered from
//! its shard's own segments ([`LiveFleet::session_telemetry`]): a session
//! is known exactly while one of its segments covers the polled epoch,
//! and every other poll gets `Error { UnknownSession }`.
//!
//! # Determinism boundary
//!
//! [`ServeCore::handle_frame`] splits each ingress frame into two halves:
//! a **stamping** half (wall/virtual clock read, monotone clamp — the only
//! nondeterministic step, whose output is journaled) and an **apply** half
//! ([`ServeCore::apply_entry`]) that is a pure function of the stamped,
//! shard-routed event. Replay skips stamping entirely and drives
//! `apply_entry` straight from the journal, which is why a replayed
//! [`ServeReport`] is byte-identical to the live one
//! (`tests/serve_replay.rs`).
//!
//! # Sharding
//!
//! With `shards = N`, the base engine is partitioned into N equal
//! sub-fleets ([`shard_engines`]); `Open`s are routed by a
//! connection/request hash, `Poll`s by their session id, and snapshots
//! and the seal broadcast to every shard. Session ids are globalized as
//! `local * N + shard`, server ids through a per-shard index map, and the
//! shard assignment of every routed event is recorded in the journal so
//! replay never re-derives it. With `shards = 1` nothing changes: no
//! markers are written and the journal and report stay byte-identical to
//! the unsharded daemon.
//!
//! # Lifecycle
//!
//! A `Drain` frame seals admissions (later `Open`s get
//! `Error { Draining }`), flushes the journal to stable storage and
//! answers with `DrainAck`; polls, snapshots and the final `Seal` keep
//! working. A fresh daemon restarts from any clean journal prefix via
//! [`run_daemon_from`], which replays the prefix through the apply path
//! before consuming live ingress — the handover primitive
//! `tests/serve_drain.rs` proves byte-deterministic.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};

use pictor_apps::AppId;
use pictor_core::fleet::{Admission, FleetEngine, LiveFleet};
use pictor_sim::SimClock;

use crate::journal::{IngressEvent, JournalEntry, JournalWriter};
use crate::protocol::{ErrCode, Msg, Outcome, PROTOCOL_VERSION};
use crate::report::{IngressCounters, ServeReport, ShardOutcome};

/// Where a connection's reply frames go. The daemon thread writes
/// synchronously: for TCP that hands the frame to the kernel's socket
/// buffer before the next ingress message is processed, so a sealed
/// daemon can exit immediately after sending the final report without
/// racing a writer thread.
#[derive(Debug)]
pub enum ReplySink {
    /// In-process transport: frames go down an mpsc channel.
    Channel(Sender<Vec<u8>>),
    /// TCP transport: frames are written straight to the socket.
    Tcp(TcpStream),
}

impl ReplySink {
    /// Delivers one encoded frame; errors (peer gone) are ignored — the
    /// reader side will surface the hangup.
    fn send(&mut self, frame: Vec<u8>) {
        match self {
            ReplySink::Channel(tx) => {
                let _ = tx.send(frame);
            }
            ReplySink::Tcp(stream) => {
                let _ = stream.write_all(&frame);
            }
        }
    }
}

/// What a transport delivers to the core thread.
#[derive(Debug)]
pub enum DaemonMsg {
    /// A connection opened; `sink` carries encoded reply frames back.
    Connect {
        /// Connection id (unique per daemon run).
        conn: u32,
        /// Reply path: complete wire frames.
        sink: ReplySink,
    },
    /// One decoded frame *body* (length prefix stripped) from `conn`.
    Frame {
        /// Source connection.
        conn: u32,
        /// Frame body bytes.
        body: Vec<u8>,
    },
    /// A connection closed.
    Hangup {
        /// The closed connection.
        conn: u32,
    },
}

/// Daemon configuration knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Stamp ingress from client-supplied timestamps (tests, replay,
    /// virtual-paced load) instead of the wall clock.
    pub virtual_clock: bool,
    /// Record the stamped ingress stream into a journal.
    pub record: bool,
    /// Data-plane threads at seal.
    pub threads: usize,
    /// Core shards behind the session-hash router. Every group's server
    /// count must divide evenly; 1 reproduces the unsharded daemon byte
    /// for byte.
    pub shards: usize,
    /// Auth token clients must present in `Hello` (compared
    /// constant-time); `None` disables auth.
    pub token: Option<String>,
    /// Write the journal through to this file record-by-record (implies
    /// `record`), so a killed daemon leaves a recoverable prefix on disk.
    pub journal_path: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            virtual_clock: false,
            record: false,
            threads: 1,
            shards: 1,
            token: None,
            journal_path: None,
        }
    }
}

/// Transport-layer mishap counters. Diagnostics only: these are *not*
/// part of [`ServeReport`] because they either cannot be reproduced from
/// the journal or (like `unknown_sessions`) arrived after the report
/// schema froze (see the report module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames that failed to decode (answered with `Msg::Error`).
    pub malformed_frames: u64,
    /// Ingress timestamps clamped forward to keep the stream monotone.
    pub clamped_timestamps: u64,
    /// Frames arriving after the run sealed.
    pub after_seal: u64,
    /// Frames refused for a missing or wrong auth token.
    pub unauthorized: u64,
    /// `Open`s refused because the daemon was draining.
    pub refused_draining: u64,
    /// `Poll`s answered with `ErrCode::UnknownSession`: no engine segment
    /// of the session covers the polled epoch (never admitted, not
    /// started yet, ended, or between servers in a migration).
    pub unknown_sessions: u64,
}

/// Everything a sealed run produces.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The deterministic daemon report (merged across shards).
    pub report: ServeReport,
    /// Per-shard sealed fleet reports + invariant-checking audit traces,
    /// indexed by shard (a single entry for an unsharded daemon).
    pub shards: Vec<ShardOutcome>,
    /// The recorded journal bytes (when recording was on).
    pub journal: Option<Vec<u8>>,
    /// Transport diagnostics.
    pub transport: TransportStats,
}

/// Partitions `base` into `shards` equal sub-fleets: every group's
/// servers are divided evenly and each shard past 0 gets a decorrelated
/// seed. Shard 0 of a 1-way split *is* the base engine — the identity the
/// goldens rely on.
///
/// # Panics
///
/// Panics when any group's server count is not divisible by `shards`, or
/// `shards` is zero.
pub fn shard_engines(base: &FleetEngine, shards: usize) -> Vec<FleetEngine> {
    assert!(shards > 0, "need at least one core shard");
    (0..shards)
        .map(|s| {
            let mut e = base.clone();
            for g in &mut e.groups {
                assert!(
                    g.servers % shards == 0,
                    "group '{}' has {} servers, not divisible by {shards} shards",
                    g.label,
                    g.servers
                );
                g.servers /= shards;
            }
            // Golden-gamma decorrelation; s = 0 XORs with 0, keeping the
            // base seed (and thus the single-shard goldens) untouched.
            e.seed = base.seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            e
        })
        .collect()
}

/// FNV-1a over the (connection, request) pair: the `Open` router hash.
fn route_hash(conn: u32, req: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in conn.to_le_bytes().into_iter().chain(req.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Constant-time byte comparison for auth tokens: no early exit on the
/// first mismatching byte (content never short-circuits; only the length
/// check branches, and lengths are not secret).
fn token_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut diff = (a.len() != b.len()) as u8;
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= x ^ y;
    }
    diff == 0
}

/// The deterministic serving core: the shard router, the ingress ledger,
/// one [`LiveFleet`] per shard (ids inside are shard-local; the router
/// globalizes them) and the optional journal.
pub struct ServeCore<'a> {
    cores: Vec<LiveFleet<'a>>,
    clock: SimClock,
    virtual_clock: bool,
    last_ns: u64,
    counters: IngressCounters,
    transport: TransportStats,
    journal: Option<JournalWriter>,
    sealed: bool,
    draining: bool,
    /// Connections that presented a valid token (everyone, when auth is
    /// off).
    authed: HashSet<u32>,
    token: Option<String>,
    /// shard → local server index → global server index.
    server_maps: Vec<Vec<u64>>,
    epoch_ns: u64,
    epochs: u64,
    total_servers: u64,
    slots_per_server: u64,
}

impl<'a> ServeCore<'a> {
    /// Opens the sharded engines for serving. `engines` comes from
    /// [`shard_engines`] on the base engine; pass a single engine for the
    /// classic unsharded daemon.
    ///
    /// # Panics
    ///
    /// Panics on the same engine-validation failures as
    /// [`FleetEngine::live`], or when `engines` is empty.
    pub fn new(engines: &'a [FleetEngine], opts: &ServeOptions) -> Self {
        assert!(!engines.is_empty(), "need at least one shard engine");
        let shards = engines.len();
        let cores: Vec<LiveFleet<'a>> = engines.iter().map(FleetEngine::live).collect();
        // Global index space = base groups concatenated; shard s owns the
        // contiguous [s*per, (s+1)*per) span of each group.
        let mut server_maps = vec![Vec::new(); shards];
        let mut group_base = 0u64;
        for g in 0..engines[0].groups.len() {
            let per = engines[0].groups[g].servers as u64;
            for (s, map) in server_maps.iter_mut().enumerate() {
                for lo in 0..per {
                    map.push(group_base + s as u64 * per + lo);
                }
            }
            group_base += per * shards as u64;
        }
        let journal = if let Some(path) = &opts.journal_path {
            Some(JournalWriter::with_file(path).expect("open journal file"))
        } else {
            opts.record.then(JournalWriter::new)
        };
        ServeCore {
            epoch_ns: cores[0].epoch_ns(),
            epochs: engines[0].epochs,
            total_servers: engines.iter().map(|e| e.total_servers() as u64).sum(),
            slots_per_server: engines[0].slots_per_server as u64,
            cores,
            clock: if opts.virtual_clock {
                SimClock::virtual_start()
            } else {
                SimClock::wall_start()
            },
            virtual_clock: opts.virtual_clock,
            last_ns: 0,
            counters: IngressCounters::default(),
            transport: TransportStats::default(),
            journal,
            sealed: false,
            draining: false,
            authed: HashSet::new(),
            token: opts.token.clone(),
            server_maps,
        }
    }

    /// Stamps one ingress event: reads the clock (wall mode) or trusts
    /// the client (virtual mode), then clamps forward so the stream stays
    /// monotone. This is the only nondeterministic step in the daemon —
    /// its *output* is what gets journaled.
    fn stamp(&mut self, client_at_ns: u64) -> u64 {
        let t = if self.virtual_clock {
            client_at_ns
        } else {
            self.clock.now().as_nanos()
        };
        if t < self.last_ns {
            self.transport.clamped_timestamps += 1;
            self.last_ns
        } else {
            self.last_ns = t;
            t
        }
    }

    fn shards(&self) -> u64 {
        self.cores.len() as u64
    }

    /// Drops per-connection state (auth) when a transport hangs up.
    pub fn forget_conn(&mut self, conn: u32) {
        self.authed.remove(&conn);
    }

    /// True once a `Drain` sealed admissions.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Handles one decoded frame body from `conn`, pushing replies onto
    /// `out` as `(connection, message)` pairs. Returns `true` when the
    /// frame sealed the run (the caller then calls [`ServeCore::seal`]).
    pub fn handle_frame(&mut self, conn: u32, body: &[u8], out: &mut Vec<(u32, Msg)>) -> bool {
        let msg = match Msg::decode_body(body) {
            Ok(m) => m,
            Err(e) => {
                self.transport.malformed_frames += 1;
                out.push((
                    conn,
                    Msg::Error {
                        code: ErrCode::Malformed,
                        detail: e.to_string(),
                    },
                ));
                return false;
            }
        };
        if self.sealed {
            self.transport.after_seal += 1;
            out.push((
                conn,
                Msg::Error {
                    code: ErrCode::Sealed,
                    detail: "run already sealed".into(),
                },
            ));
            return false;
        }
        // Auth gate: every frame except the handshake itself needs a
        // previously accepted Hello when a token is configured. Refused
        // frames never reach stamping, so they leave no journal trace.
        if let Msg::Hello { client: _, token } = &msg {
            let ok = match &self.token {
                Some(want) => token_eq(want, token),
                None => true,
            };
            if ok {
                self.authed.insert(conn);
                out.push((
                    conn,
                    Msg::HelloAck {
                        protocol: PROTOCOL_VERSION,
                        epoch_ns: self.epoch_ns,
                        epochs: self.epochs,
                        servers: self.total_servers,
                        slots: self.slots_per_server,
                        shards: self.shards(),
                    },
                ));
            } else {
                self.transport.unauthorized += 1;
                out.push((
                    conn,
                    Msg::Error {
                        code: ErrCode::Unauthorized,
                        detail: "bad auth token".into(),
                    },
                ));
            }
            return false;
        }
        if self.token.is_some() && !self.authed.contains(&conn) {
            self.transport.unauthorized += 1;
            out.push((
                conn,
                Msg::Error {
                    code: ErrCode::Unauthorized,
                    detail: "say Hello with the auth token first".into(),
                },
            ));
            return false;
        }
        match msg {
            Msg::Hello { .. } => unreachable!("handled above"),
            Msg::Drain { at_ns: _ } => {
                // Router-level, never journaled: the journal simply ends
                // at a clean prefix. Idempotent.
                self.draining = true;
                if let Some(j) = self.journal.as_mut() {
                    j.flush().expect("journal flush on drain");
                }
                out.push((
                    conn,
                    Msg::DrainAck {
                        journaled_events: self.counters.journaled_events,
                    },
                ));
                false
            }
            Msg::Open {
                req,
                at_ns,
                duration_ns,
                app_code,
            } => {
                if self.draining {
                    self.transport.refused_draining += 1;
                    out.push((
                        conn,
                        Msg::Error {
                            code: ErrCode::Draining,
                            detail: "daemon is draining; admissions sealed".into(),
                        },
                    ));
                    return false;
                }
                let at_ns = self.stamp(at_ns);
                let shard = (route_hash(conn, req) % self.shards()) as u16;
                self.apply_entry(
                    &JournalEntry {
                        shard,
                        event: IngressEvent::Open {
                            conn,
                            req,
                            at_ns,
                            duration_ns,
                            app_code,
                        },
                    },
                    out,
                )
            }
            Msg::Poll { at_ns, session } => {
                let at_ns = self.stamp(at_ns);
                let shard = (session % self.shards()) as u16;
                self.apply_entry(
                    &JournalEntry {
                        shard,
                        event: IngressEvent::Poll {
                            conn,
                            at_ns,
                            session,
                        },
                    },
                    out,
                )
            }
            Msg::Snapshot { at_ns } => {
                let at_ns = self.stamp(at_ns);
                self.apply_entry(
                    &JournalEntry {
                        shard: 0,
                        event: IngressEvent::Snapshot { conn, at_ns },
                    },
                    out,
                )
            }
            Msg::Seal { at_ns } => {
                let at_ns = self.stamp(at_ns);
                self.apply_entry(
                    &JournalEntry {
                        shard: 0,
                        event: IngressEvent::Seal { conn, at_ns },
                    },
                    out,
                )
            }
            // Daemon-to-client messages arriving at the daemon are a
            // protocol violation.
            Msg::HelloAck { .. }
            | Msg::Decision { .. }
            | Msg::Telemetry { .. }
            | Msg::SnapshotRep { .. }
            | Msg::DrainAck { .. }
            | Msg::Report { .. }
            | Msg::Error { .. } => {
                self.transport.malformed_frames += 1;
                out.push((
                    conn,
                    Msg::Error {
                        code: ErrCode::Malformed,
                        detail: "unexpected server-side message".into(),
                    },
                ));
                false
            }
        }
    }

    /// Applies one **stamped, routed** ingress entry — the deterministic
    /// half of the daemon, shared verbatim by the live path, journal
    /// replay and handover restarts. Returns `true` on seal.
    pub fn apply_entry(&mut self, entry: &JournalEntry, out: &mut Vec<(u32, Msg)>) -> bool {
        if let Some(j) = self.journal.as_mut() {
            j.record_routed(entry.shard, &entry.event);
            self.counters.journaled_events += 1;
        }
        let nshards = self.shards();
        self.last_ns = self.last_ns.max(entry.event.at_ns());
        match &entry.event {
            IngressEvent::Open {
                conn,
                req,
                at_ns,
                duration_ns,
                app_code,
            } => {
                self.counters.opens += 1;
                let Some(id) = AppId::from_code(app_code) else {
                    self.counters.bad_app += 1;
                    out.push((*conn, decision(*req, Outcome::UnknownApp)));
                    return false;
                };
                let live = &mut self.cores[entry.shard as usize];
                let msg = match live.offer_arrival(*at_ns, id.spec(), *duration_ns) {
                    Admission::Admitted {
                        session,
                        server,
                        start_epoch,
                        end_epoch,
                    } => {
                        self.counters.admitted += 1;
                        Msg::Decision {
                            req: *req,
                            outcome: Outcome::Admitted,
                            session: session * nshards + entry.shard as u64,
                            server: self.server_maps[entry.shard as usize][server],
                            start_epoch,
                            end_epoch,
                        }
                    }
                    Admission::Rejected => {
                        self.counters.rejected += 1;
                        decision(*req, Outcome::Rejected)
                    }
                    Admission::Parked => {
                        self.counters.parked += 1;
                        decision(*req, Outcome::Parked)
                    }
                    Admission::PastHorizon => {
                        self.counters.past_horizon += 1;
                        decision(*req, Outcome::PastHorizon)
                    }
                };
                out.push((*conn, msg));
                false
            }
            IngressEvent::Poll {
                conn,
                at_ns,
                session,
            } => {
                self.counters.polls += 1;
                let live = &mut self.cores[entry.shard as usize];
                live.step_to(*at_ns);
                let epoch = (*at_ns / self.epoch_ns).min(self.epochs - 1);
                let msg = match live.session_telemetry(session / nshards, epoch) {
                    Some(t) => Msg::Telemetry {
                        session: *session,
                        epoch,
                        fps: t.fps,
                        rtt_ms: t.rtt_ms,
                    },
                    // Not resident at the polled epoch: a typed error,
                    // not a fabricated idle sample.
                    None => {
                        self.transport.unknown_sessions += 1;
                        Msg::Error {
                            code: ErrCode::UnknownSession,
                            detail: format!("session {session} not resident at epoch {epoch}"),
                        }
                    }
                };
                out.push((*conn, msg));
                false
            }
            IngressEvent::Snapshot { conn, at_ns } => {
                self.counters.snapshots += 1;
                let (mut epoch, mut offered, mut admitted, mut rejected) = (0, 0, 0, 0);
                let (mut queued_now, mut serving, mut resident) = (0, 0, 0);
                for live in &mut self.cores {
                    live.step_to(*at_ns);
                    let s = live.snapshot();
                    epoch = s.epoch;
                    offered += s.offered;
                    admitted += s.admitted;
                    rejected += s.rejected;
                    queued_now += s.queued_now as u64;
                    serving += s.serving_servers as u64;
                    resident += s.resident_sessions as u64;
                }
                out.push((
                    *conn,
                    Msg::SnapshotRep {
                        epoch,
                        offered,
                        admitted,
                        rejected,
                        queued_now,
                        serving,
                        resident,
                    },
                ));
                false
            }
            IngressEvent::Seal { .. } => {
                self.sealed = true;
                true
            }
        }
    }

    /// Seals the run: drains every shard's fleet, runs the data plane,
    /// and builds the merged deterministic report.
    pub fn seal(self, threads: usize) -> ServeOutcome {
        let shards: Vec<ShardOutcome> = self
            .cores
            .into_iter()
            .map(|live| {
                let (fleet, audit) = live.finish(threads);
                ShardOutcome { fleet, audit }
            })
            .collect();
        let report = ServeReport::merged(self.counters, self.virtual_clock, &shards);
        ServeOutcome {
            report,
            shards,
            journal: self.journal.map(JournalWriter::into_bytes),
            transport: self.transport,
        }
    }
}

/// A convenience `Decision` with zeroed placement coordinates.
fn decision(req: u64, outcome: Outcome) -> Msg {
    Msg::Decision {
        req,
        outcome,
        session: 0,
        server: 0,
        start_epoch: 0,
        end_epoch: 0,
    }
}

/// Runs the daemon loop to completion: consumes `rx` until a `Seal`
/// frame (or every transport sender hangs up), then seals and — when the
/// sealing connection is still reachable — answers it with the
/// [`Msg::Report`].
pub fn run_daemon(
    engine: &FleetEngine,
    opts: &ServeOptions,
    rx: Receiver<DaemonMsg>,
) -> ServeOutcome {
    run_daemon_from(engine, opts, rx, &[])
}

/// [`run_daemon`], but restarted from a previously recorded journal
/// `prefix` (the drain/handover path): the prefix replays through the
/// deterministic apply path — re-recording it when recording is on — and
/// only then does the daemon consume live ingress. With recording off the
/// journaled-events ledger mirrors [`replay`] so a restart-and-seal is
/// byte-identical to an uninterrupted replay of the same prefix.
pub fn run_daemon_from(
    engine: &FleetEngine,
    opts: &ServeOptions,
    rx: Receiver<DaemonMsg>,
    prefix: &[JournalEntry],
) -> ServeOutcome {
    assert!(opts.threads > 0, "need at least one data-plane thread");
    let engines = shard_engines(engine, opts.shards);
    let mut core = ServeCore::new(&engines, opts);
    let mut out: Vec<(u32, Msg)> = Vec::new();
    let mut sealed_by_prefix = false;
    for entry in prefix {
        // Replies went to connections of the previous daemon: discard.
        out.clear();
        if core.apply_entry(entry, &mut out) {
            sealed_by_prefix = true;
            break;
        }
    }
    if core.journal.is_none() {
        core.counters.journaled_events = prefix.len() as u64;
    }
    let mut conns: HashMap<u32, ReplySink> = HashMap::new();
    let mut seal_conn = None;
    if !sealed_by_prefix {
        while let Ok(msg) = rx.recv() {
            match msg {
                DaemonMsg::Connect { conn, sink } => {
                    conns.insert(conn, sink);
                }
                DaemonMsg::Hangup { conn } => {
                    conns.remove(&conn);
                    core.forget_conn(conn);
                }
                DaemonMsg::Frame { conn, body } => {
                    out.clear();
                    let sealed = core.handle_frame(conn, &body, &mut out);
                    for (c, m) in out.drain(..) {
                        if let Some(sink) = conns.get_mut(&c) {
                            sink.send(m.encode_frame());
                        }
                    }
                    if sealed {
                        seal_conn = Some(conn);
                        break;
                    }
                }
            }
        }
    }
    let outcome = core.seal(opts.threads);
    if let Some(sink) = seal_conn.and_then(|c| conns.get_mut(&c)) {
        sink.send(
            Msg::Report {
                json: outcome.report.to_json(),
            }
            .encode_frame(),
        );
    }
    outcome
}

/// Replays a decoded journal through a fresh sharded core: the
/// deterministic `apply_entry` path only — no clock, no stamping, no
/// routing (the recorded shard assignments are authoritative). The
/// resulting [`ServeReport`] is byte-identical to the recording run's
/// when `shards` matches it.
///
/// Assumes the recording daemon ran on a virtual clock (the
/// configuration every test and the committed golden use); a journal
/// recorded under a wall clock replays identically through
/// [`replay_with`] with `virtual_clock: false`, which only changes the
/// report's clock label — the stamps come from the journal either way.
///
/// # Panics
///
/// Panics if the journal's timestamps are not nondecreasing (journals
/// written by [`JournalWriter`] always are), an entry names a shard ≥
/// `shards`, or on engine-validation failures.
pub fn replay(
    engine: &FleetEngine,
    shards: usize,
    entries: &[JournalEntry],
    threads: usize,
) -> ServeOutcome {
    replay_with(
        engine,
        &ServeOptions {
            virtual_clock: true,
            threads,
            shards,
            ..ServeOptions::default()
        },
        entries,
    )
}

/// [`replay`] with explicit [`ServeOptions`]: `opts.virtual_clock` must
/// echo the recording daemon's clock mode for byte-identity (the report
/// records it), `opts.record`/`opts.journal_path` re-journal the replay
/// if set, and `opts.shards` must match the recording layout.
pub fn replay_with(
    engine: &FleetEngine,
    opts: &ServeOptions,
    entries: &[JournalEntry],
) -> ServeOutcome {
    let shards = opts.shards;
    let threads = opts.threads;
    let engines = shard_engines(engine, shards);
    let mut core = ServeCore::new(&engines, opts);
    // Mirror the recording run's ledger: it counted every event it
    // wrote. (When re-journaling, `apply_entry` counts as it writes.)
    if core.journal.is_none() {
        core.counters.journaled_events = entries.len() as u64;
    }
    let mut out = Vec::new();
    let mut last = 0u64;
    for entry in entries {
        assert!(
            (entry.shard as usize) < shards,
            "journal routes to shard {} but the daemon has {shards}",
            entry.shard
        );
        assert!(
            entry.event.at_ns() >= last,
            "journal timestamps must be nondecreasing ({} < {last})",
            entry.event.at_ns()
        );
        last = entry.event.at_ns();
        out.clear();
        if core.apply_entry(entry, &mut out) {
            break;
        }
    }
    core.seal(threads)
}
