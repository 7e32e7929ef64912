//! The `serve_tcp` workload: the `pictor-serve` daemon hosted in this
//! process (`tcp_listen` + `run_daemon` on 127.0.0.1, virtual clock, one
//! shard, journal written through to a file), driven open-loop from one
//! connection.
//!
//! The request sequence is generated from the seed before anything is
//! timed: ~80% `Open`, ~18% `Poll` of a session that is mid-grant in
//! virtual time, ~2% `Snapshot`, each with a fixed virtual `at_ns`, so the
//! daemon makes the same decisions at every offered rate. A dry run of the
//! sequence through an in-process `ServeCore` picks the poll targets and
//! records the exact reply every request must get. Each ladder step and
//! nominal segment then sends a prefix of the sequence on a Poisson
//! schedule at its rate, ends it with `Seal`, and times every request from
//! the instant it was due. Bursts, every request due at once, measure the
//! capacity.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver};
use std::thread;
use std::time::{Duration, Instant};

use pictor_apps::AppId;
use pictor_core::fleet::{Admission, FleetEngine};
use pictor_serve::{
    replay, run_daemon, serve_engine, tcp_listen, DaemonMsg, FrameDecoder, IngressEvent,
    JournalReader, JournalWriter, Msg, Outcome, ReplySink, ServeCore, ServeOptions, ServeOutcome,
};
use pictor_sim::rng::exponential;
use pictor_sim::SeedTree;
use rand::Rng;

use crate::calib::HostClock;
use crate::stats::{median_of, Samples};
use crate::trace::{self, Span, ThreadSpans};
use crate::{digest, Checks, E2e, Metric};

const SERVERS: usize = 64;
const SLOTS: usize = 4;
const EPOCH_MS: u64 = 250;
const QUEUE_LIMIT: usize = 64;
/// Requests per virtual second. With 80% opens of ~8 s sessions this
/// offers ~110% of the 256 slots, so admissions, rejections and parks all
/// happen.
const VIRTUAL_RPS: f64 = 45.0;
const MEAN_SESSION_S: f64 = 8.0;
/// Offered rates, requests per wall second. The top steps lie past the
/// daemon's capacity on a 2-core host, so the sustained rate has a step
/// above it to interpolate toward.
const LADDER: [f64; 7] = [
    5_000.0, 25_000.0, 50_000.0, 70_000.0, 85_000.0, 100_000.0, 115_000.0,
];
/// The step whose latencies are the end-to-end latency metrics.
const NOMINAL: usize = 0;
/// Share of the measured window given to the nominal rate; the other
/// steps split the rest.
const NOMINAL_SHARE: f64 = 0.5;
/// Tails and rates are taken per window of this length and the median
/// window reported: the host stalls for milliseconds now and then, and
/// one stall must not decide a run's p99.
const WINDOW_S: f64 = 0.1;
/// Set-ups (daemon up, handshake, sealed at once) timed besides the
/// ladder's, so the set-up median does not rest on a few steps.
const EXTRA_SETUPS: usize = 10;
/// Requests in each capacity burst, all due at once.
const BURST_REQUESTS: usize = 40_000;

/// One fresh daemon in the end-to-end run.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// A segment at the nominal rate.
    Nominal,
    /// The ladder step at `LADDER[k]`.
    Rung(usize),
    /// A capacity burst.
    Burst,
}

/// The end-to-end run's order. The nominal rate and the bursts are split
/// into segments spread over the run, and each figure is the median over
/// its segments: the host slows down for seconds at a time, and such a
/// spell must spoil at most a segment or two, not the whole figure.
const PLAN: [Phase; 16] = [
    Phase::Nominal,
    Phase::Rung(1),
    Phase::Burst,
    Phase::Nominal,
    Phase::Rung(2),
    Phase::Burst,
    Phase::Rung(3),
    Phase::Nominal,
    Phase::Burst,
    Phase::Rung(4),
    Phase::Rung(5),
    Phase::Nominal,
    Phase::Burst,
    Phase::Rung(6),
    Phase::Nominal,
    Phase::Burst,
];
const NOMINAL_SEGMENTS: usize = 5;
/// The latency limit that defines the sustained rate.
const P99_LIMIT_US: f64 = 1_000.0;
/// Generator lag may not grow by more than this across a step.
const LAG_GROWTH_LIMIT_US: f64 = 1_000.0;
/// Requests in each half of the traced run's overhead comparison.
const OVERHEAD_REQUESTS: usize = 5_000;
/// The traced run's ladder steps last this share of `--seconds`.
const TRACED_STEP_SHARE: f64 = 0.05;
/// Longest the client waits on the socket before failing the step.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Open,
    Poll,
    Snapshot,
}

impl Kind {
    fn span_name(self) -> &'static str {
        match self {
            Kind::Open => "daemon.open",
            Kind::Poll => "daemon.poll",
            Kind::Snapshot => "daemon.snapshot",
        }
    }
}

/// The generated inputs: requests, the reply each must get, and the
/// engine configuration they are served by.
pub struct Schedule {
    seed: u64,
    epochs: u64,
    requests: Vec<Msg>,
    kinds: Vec<Kind>,
    expected: Vec<Msg>,
}

fn engine(seed: u64, epochs: u64) -> FleetEngine {
    serve_engine(SERVERS, SLOTS, epochs, EPOCH_MS, seed, QUEUE_LIMIT)
}

fn hello() -> Msg {
    Msg::Hello {
        client: 1,
        token: String::new(),
    }
}

fn body(msg: &Msg) -> Vec<u8> {
    msg.encode_frame()[pictor_serve::FRAME_HEADER_BYTES..].to_vec()
}

impl Schedule {
    /// Builds `n` requests from `seed`.
    pub fn generate(seed: u64, n: usize) -> Self {
        let seeds = SeedTree::new(seed);
        let mut rng = seeds.stream("serve-requests");
        let mut at_ns = 0u64;
        let mut drafts = Vec::with_capacity(n);
        for _ in 0..n {
            at_ns += (exponential(&mut rng, 1.0 / VIRTUAL_RPS) * 1e9) as u64;
            let u: f64 = rng.gen();
            let kind = if u < 0.80 {
                Kind::Open
            } else if u < 0.98 {
                Kind::Poll
            } else {
                Kind::Snapshot
            };
            let app = AppId::ALL[((rng.gen::<f64>() * 6.0) as usize).min(5)];
            let duration_ns = (exponential(&mut rng, MEAN_SESSION_S).max(0.25) * 1e9) as u64;
            drafts.push((kind, at_ns, app, duration_ns));
        }
        let epoch_ns = EPOCH_MS * 1_000_000;
        let epochs = at_ns / epoch_ns + 40;
        let eng = engine(seed, epochs);
        let engines = [eng];
        let mut core = ServeCore::new(&engines, &virtual_opts(1));
        let mut out = Vec::new();
        core.handle_frame(1, &body(&hello()), &mut out);
        let mut pick = seeds.stream("serve-poll-targets");
        // Admitted sessions not yet over: (session, start ns, end ns).
        let mut granted: Vec<(u64, u64, u64)> = Vec::new();
        let mut sched = Schedule {
            seed,
            epochs,
            requests: Vec::with_capacity(n),
            kinds: Vec::with_capacity(n),
            expected: Vec::with_capacity(n),
        };
        for (i, (kind, at_ns, app, duration_ns)) in drafts.into_iter().enumerate() {
            granted.retain(|&(_, _, end)| end > at_ns);
            let (kind, msg) = match kind {
                Kind::Open => (
                    Kind::Open,
                    Msg::Open {
                        req: i as u64,
                        at_ns,
                        duration_ns,
                        app_code: app.code().into(),
                    },
                ),
                Kind::Poll => {
                    let live: Vec<u64> = granted
                        .iter()
                        .filter(|&&(_, start, _)| start <= at_ns)
                        .map(|&(s, _, _)| s)
                        .collect();
                    let u: f64 = pick.gen();
                    match live.get((u * live.len() as f64) as usize) {
                        Some(&session) => (Kind::Poll, Msg::Poll { at_ns, session }),
                        None => (Kind::Snapshot, Msg::Snapshot { at_ns }),
                    }
                }
                Kind::Snapshot => (Kind::Snapshot, Msg::Snapshot { at_ns }),
            };
            out.clear();
            core.handle_frame(1, &body(&msg), &mut out);
            assert_eq!(out.len(), 1, "one reply per request");
            let (_, reply) = out.pop().expect("reply");
            if let Msg::Decision {
                outcome: Outcome::Admitted,
                session,
                start_epoch,
                end_epoch,
                ..
            } = reply
            {
                granted.push((session, start_epoch * epoch_ns, end_epoch * epoch_ns));
            }
            sched.requests.push(msg);
            sched.kinds.push(kind);
            sched.expected.push(reply);
        }
        sched
    }

    /// The `Seal` that ends a prefix of `n` requests.
    fn seal(&self, n: usize) -> Msg {
        let last = n
            .checked_sub(1)
            .map_or(0, |i| request_at(&self.requests[i]));
        Msg::Seal { at_ns: last + 1 }
    }
}

fn request_at(msg: &Msg) -> u64 {
    match msg {
        Msg::Open { at_ns, .. } | Msg::Poll { at_ns, .. } | Msg::Snapshot { at_ns } => *at_ns,
        other => unreachable!("not a request: {other:?}"),
    }
}

/// Whether `reply` answers `request`: the matching type with the same
/// request id or session. An error reply never does.
fn answers(request: &Msg, reply: &Msg) -> bool {
    match (request, reply) {
        (Msg::Open { req, .. }, Msg::Decision { req: r, .. }) => req == r,
        (Msg::Poll { session, .. }, Msg::Telemetry { session: s, .. }) => session == s,
        (Msg::Snapshot { .. }, Msg::SnapshotRep { .. }) => true,
        _ => false,
    }
}

fn virtual_opts(threads: usize) -> ServeOptions {
    ServeOptions {
        virtual_clock: true,
        threads,
        ..ServeOptions::default()
    }
}

/// Poisson due offsets for `n` requests at `rate` per second.
fn due_offsets(seed: u64, step: u64, rate: f64, n: usize) -> Vec<Duration> {
    let mut rng = SeedTree::new(seed).stream_indexed("serve-due-", step);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += exponential(&mut rng, 1.0 / rate);
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Sleeps until `at`. The sender never spins: on two cores a spinning
/// client steals the daemon's CPU and its tail latency. The timer's
/// overshoot shows up as generator lag, which the latencies include.
fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        thread::sleep(at - now);
    }
}

/// What one ladder step measured.
struct Step {
    rate: f64,
    n: usize,
    setup_s: f64,
    /// Reply instant minus due instant, per request, µs.
    latency_us: Vec<f64>,
    /// Send instant minus due instant, per request, µs.
    lag_us: Vec<f64>,
    due: Vec<Duration>,
    /// Requests answered per second between first due and last reply.
    achieved_rps: f64,
    /// Wall time from the first due instant to the last reply, s.
    wall_s: f64,
    outcome: Option<ServeOutcome>,
    entries: Vec<pictor_serve::JournalEntry>,
    busy_share: f64,
    spans: Vec<ThreadSpans>,
}

struct Sent {
    /// Offsets from the step origin at which each request was sent, ns.
    sent_ns: Vec<u64>,
    spans: Vec<Span>,
}

fn send_loop(
    mut w: TcpStream,
    requests: &[Msg],
    due: &[Duration],
    origin: Instant,
    seal: &Msg,
    traced: bool,
) -> io::Result<Sent> {
    if traced {
        trace::enable(origin);
    }
    let mut sent_ns = Vec::with_capacity(requests.len());
    let result = (|| {
        for (i, msg) in requests.iter().enumerate() {
            wait_until(origin + due[i]);
            sent_ns.push(origin.elapsed().as_nanos() as u64);
            let frame = {
                let _g = trace::span("protocol.encode", Some(i as u64));
                msg.encode_frame()
            };
            let _g = trace::span("transport.write", Some(i as u64));
            w.write_all(&frame)?;
        }
        w.write_all(&seal.encode_frame())
    })();
    if result.is_err() {
        let _ = w.shutdown(Shutdown::Both);
    }
    let spans = if traced { trace::take() } else { Vec::new() };
    result.map(|()| Sent { sent_ns, spans })
}

struct Received {
    /// Offsets from the step origin at which each reply was decoded, ns.
    recv_ns: Vec<u64>,
    replies: Vec<Msg>,
    report: String,
    spans: Vec<Span>,
}

fn recv_loop(mut r: TcpStream, n: usize, origin: Instant, traced: bool) -> io::Result<Received> {
    if traced {
        trace::enable(origin);
    }
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut recv_ns = Vec::with_capacity(n);
    let mut replies = Vec::with_capacity(n);
    let result = (|| loop {
        let k = r.read(&mut buf)?;
        if k == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection before the report",
            ));
        }
        let _g = trace::span("protocol.decode", Some(replies.len() as u64));
        dec.push(&buf[..k]);
        while let Some(body) = dec.next_body()? {
            let msg = Msg::decode_body(&body)?;
            if replies.len() == n {
                return match msg {
                    Msg::Report { json } => Ok(json),
                    other => Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("expected the report, got {other:?}"),
                    )),
                };
            }
            recv_ns.push(origin.elapsed().as_nanos() as u64);
            replies.push(msg);
        }
    })();
    if result.is_err() {
        let _ = r.shutdown(Shutdown::Both);
    }
    let spans = if traced { trace::take() } else { Vec::new() };
    result.map(|report| Received {
        recv_ns,
        replies,
        report,
        spans,
    })
}

fn sink_send(sink: &mut ReplySink, frame: Vec<u8>) {
    match sink {
        ReplySink::Channel(tx) => {
            let _ = tx.send(frame);
        }
        ReplySink::Tcp(stream) => {
            let _ = stream.write_all(&frame);
        }
    }
}

/// `run_daemon`'s loop with spans: time blocked on ingress, each
/// `handle_frame` by request type, and each reply's encode and write.
/// Returns the outcome and the share of the serving window spent busy.
fn traced_daemon(
    engine: &FleetEngine,
    opts: &ServeOptions,
    rx: Receiver<DaemonMsg>,
    kinds: &[Kind],
    origin: Instant,
) -> (ServeOutcome, f64, Vec<Span>) {
    trace::enable(origin);
    let engines = [engine.clone()];
    let mut core = ServeCore::new(&engines, opts);
    let mut out: Vec<(u32, Msg)> = Vec::new();
    let mut conns: HashMap<u32, ReplySink> = HashMap::new();
    let mut seal_conn = None;
    let mut frames = 0usize;
    let mut first_frame: Option<Instant> = None;
    let mut blocked = Duration::ZERO;
    loop {
        let waited = Instant::now();
        let msg = {
            let _g = trace::span("daemon.recv", None);
            rx.recv()
        };
        if first_frame.is_some() {
            blocked += waited.elapsed();
        }
        let Ok(msg) = msg else { break };
        match msg {
            DaemonMsg::Connect { conn, sink } => {
                conns.insert(conn, sink);
            }
            DaemonMsg::Hangup { conn } => {
                conns.remove(&conn);
                core.forget_conn(conn);
            }
            DaemonMsg::Frame { conn, body } => {
                first_frame.get_or_insert_with(Instant::now);
                // Frame 0 is the Hello; request i is frame i + 1.
                let req = frames.checked_sub(1);
                let name = req
                    .and_then(|i| kinds.get(i))
                    .map_or("daemon.control", |k| k.span_name());
                out.clear();
                let sealed = {
                    let _g = trace::span(name, req.map(|i| i as u64));
                    core.handle_frame(conn, &body, &mut out)
                };
                for (c, m) in out.drain(..) {
                    let _g = trace::span("daemon.reply", req.map(|i| i as u64));
                    let frame = m.encode_frame();
                    if let Some(sink) = conns.get_mut(&c) {
                        sink_send(sink, frame);
                    }
                }
                frames += 1;
                if sealed {
                    seal_conn = Some(conn);
                    break;
                }
            }
        }
    }
    let window = first_frame.map_or(Duration::ZERO, |t| t.elapsed());
    let outcome = {
        let _g = trace::span("daemon.seal", None);
        core.seal(opts.threads)
    };
    if let Some(sink) = seal_conn.and_then(|c| conns.get_mut(&c)) {
        sink_send(
            sink,
            Msg::Report {
                json: outcome.report.to_json(),
            }
            .encode_frame(),
        );
    }
    let busy = 1.0 - blocked.as_secs_f64() / window.as_secs_f64().max(1e-9);
    (outcome, busy, trace::take())
}

/// Serves the first `n` requests at the given due offsets through a fresh
/// daemon, and checks every reply, the report and the journal.
fn run_step(
    sched: &Schedule,
    rate: f64,
    due: Vec<Duration>,
    threads: usize,
    journal: &Path,
    traced: bool,
    checks: &mut Checks,
) -> Step {
    let n = due.len();
    let requests = &sched.requests[..n];
    let seal = sched.seal(n);
    checks.attempted += n as u64;
    let setup_at = Instant::now();
    let eng = engine(sched.seed, sched.epochs);
    let opts = ServeOptions {
        journal_path: Some(journal.to_path_buf()),
        ..virtual_opts(threads)
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("listener address");
    let (tx, rx) = channel();
    let mut step = Step {
        rate,
        n,
        setup_s: 0.0,
        latency_us: Vec::new(),
        lag_us: Vec::new(),
        due,
        achieved_rps: 0.0,
        wall_s: 0.0,
        outcome: None,
        entries: Vec::new(),
        busy_share: f64::NAN,
        spans: Vec::new(),
    };
    let result = thread::scope(|s| {
        let accept = s.spawn(move || tcp_listen(listener, tx));
        let daemon = s.spawn(|| {
            if traced {
                traced_daemon(&eng, &opts, rx, &sched.kinds, setup_at)
            } else {
                (run_daemon(&eng, &opts, rx), f64::NAN, Vec::new())
            }
        });
        let client = (|| -> io::Result<(Sent, Received)> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            // A daemon that died leaves its reader thread holding the
            // socket open: give up instead of waiting forever.
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            stream.write_all(&hello().encode_frame())?;
            let mut dec = FrameDecoder::new();
            let mut buf = [0u8; 1024];
            loop {
                let k = stream.read(&mut buf)?;
                if k == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                dec.push(&buf[..k]);
                if let Some(body) = dec.next_body()? {
                    match Msg::decode_body(&body)? {
                        Msg::HelloAck { .. } => break,
                        other => {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("expected HelloAck, got {other:?}"),
                            ))
                        }
                    }
                }
            }
            step.setup_s = setup_at.elapsed().as_secs_f64();
            let reader = stream.try_clone()?;
            // Due instants start a little after the handshake so the first
            // requests are not late by construction.
            let origin = Instant::now() + Duration::from_millis(2);
            let due = &step.due;
            let sender = s.spawn(move || send_loop(stream, requests, due, origin, &seal, traced));
            let receiver = s.spawn(move || recv_loop(reader, n, origin, traced));
            let sent = sender.join().expect("sender thread panicked");
            let received = receiver.join().expect("receiver thread panicked");
            let (sent, received) = (sent?, received?);
            for (i, (&tx, &rx)) in sent.sent_ns.iter().zip(&received.recv_ns).enumerate() {
                let due_ns = step.due[i].as_nanos() as u64;
                step.lag_us.push((tx as f64 - due_ns as f64) / 1e3);
                step.latency_us.push((rx as f64 - due_ns as f64) / 1e3);
            }
            let first = step.due.first().map_or(0, |d| d.as_nanos() as u64);
            let last = received.recv_ns.last().copied().unwrap_or(first);
            step.wall_s = (last - first) as f64 / 1e9;
            step.achieved_rps = n as f64 / step.wall_s.max(1e-9);
            Ok((sent, received))
        })();
        if client.is_err() {
            // The daemon may still be waiting for frames: seal it from a
            // fresh connection so it exits.
            let _ = TcpStream::connect(addr).and_then(|mut s| {
                s.write_all(&hello().encode_frame())?;
                s.write_all(
                    &Msg::Seal {
                        at_ns: u64::MAX / 2,
                    }
                    .encode_frame(),
                )
            });
        }
        let daemon = daemon.join();
        // The accept loop returns on the first connection after the
        // daemon has gone; give it one so it can be joined.
        let _ = TcpStream::connect(addr);
        let _ = accept.join();
        (client, daemon)
    });
    let (client, daemon) = result;
    let (outcome, busy, daemon_spans) = match daemon {
        Ok(d) => d,
        Err(_) => {
            checks.fail(n as u64, format!("daemon panicked at {rate} req/s"));
            return step;
        }
    };
    step.busy_share = busy;
    let (sent, received) = match client {
        Ok(c) => c,
        Err(e) => {
            checks.fail(n as u64, format!("transport error at {rate} req/s: {e}"));
            return step;
        }
    };
    let unanswered = received
        .replies
        .iter()
        .zip(requests)
        .filter(|(reply, request)| !answers(request, reply))
        .count();
    if unanswered > 0 {
        checks.fail(
            unanswered as u64,
            format!("{unanswered} replies do not answer their request at {rate} req/s"),
        );
    }
    let mismatched = received
        .replies
        .iter()
        .zip(&sched.expected)
        .filter(|(got, want)| got != want)
        .count();
    if mismatched > 0 {
        checks.fail(
            mismatched as u64,
            format!("{mismatched} replies differ from the expected ones at {rate} req/s"),
        );
    }
    if !outcome.report.decisions_balance() {
        checks.fail(
            1,
            format!("decision ledger does not balance at {rate} req/s"),
        );
    }
    if received.report != outcome.report.to_json() {
        checks.fail(
            1,
            format!("received report differs from the daemon's at {rate} req/s"),
        );
    }
    match std::fs::read(journal).map(|bytes| JournalReader::recover(&bytes)) {
        Ok(Ok(recovered)) if recovered.truncated_bytes == 0 && recovered.entries.len() == n + 1 => {
            let replayed = replay(
                &engine(sched.seed, sched.epochs),
                1,
                &recovered.entries,
                threads,
            );
            if replayed.report.to_json() != received.report {
                checks.fail(
                    1,
                    format!("journal replay differs from the live report at {rate} req/s"),
                );
            }
            step.entries = recovered.entries;
        }
        other => checks.fail(
            1,
            format!("journal at {rate} req/s is not intact: {other:?}"),
        ),
    }
    let _ = std::fs::remove_file(journal);
    if traced {
        step.spans = vec![
            ("serve.sender".into(), sent.spans),
            ("serve.receiver".into(), received.spans),
            ("serve.daemon".into(), daemon_spans),
        ];
    }
    step.outcome = Some(outcome);
    step
}

/// Per-window p99 of the requests of `kind`, in windows of `WINDOW_S`
/// cut by due instant.
fn window_p99s(step: &Step, kinds: &[Kind], kind: Kind) -> Vec<f64> {
    let mut per: Vec<Samples> = Vec::new();
    for (i, &lat) in step.latency_us.iter().enumerate() {
        if kinds[i] == kind {
            let w = (step.due[i].as_secs_f64() / WINDOW_S) as usize;
            if per.len() <= w {
                per.resize(w + 1, Samples::new());
            }
            per[w].push(lat);
        }
    }
    per.iter_mut()
        .filter(|s| !s.is_empty())
        .map(Samples::p99)
        .collect()
}

fn samples_of(step: &Step, kinds: &[Kind], kind: Kind) -> Samples {
    Samples::from_vec(
        step.latency_us
            .iter()
            .zip(kinds)
            .filter(|(_, &k)| k == kind)
            .map(|(&l, _)| l)
            .collect(),
    )
}

/// Whether a step met the latency limit without the generator falling
/// further and further behind.
fn step_p99_and_pass(step: &Step, kinds: &[Kind]) -> (f64, bool) {
    let p99 = median_of(&window_p99s(step, kinds, Kind::Open));
    let q = (step.lag_us.len() / 4).max(1);
    let growth = if step.lag_us.len() >= 2 * q {
        median_of(&step.lag_us[step.lag_us.len() - q..]) - median_of(&step.lag_us[..q])
    } else {
        0.0
    };
    (
        p99,
        p99 <= P99_LIMIT_US && growth <= LAG_GROWTH_LIMIT_US && !step.latency_us.is_empty(),
    )
}

/// The highest sustained request rate: the achieved rate of the highest
/// passing step, interpolated (in log latency) toward the step above it
/// by how far its p99 sits below the limit. A lower step that failed to a
/// passing stall does not cap it.
fn sustained_rps(steps: &[(f64, bool, f64)]) -> f64 {
    let passing = steps
        .iter()
        .rposition(|(_, pass, _)| *pass)
        .map_or(0, |i| i + 1);
    match passing {
        0 => {
            let (p99, _, achieved) = steps[0];
            achieved * (P99_LIMIT_US / p99).min(1.0)
        }
        k if k == steps.len() => steps[k - 1].2,
        k => {
            let (p_lo, _, r_lo) = steps[k - 1];
            let (p_hi, _, r_hi) = steps[k];
            let f = if p_hi > P99_LIMIT_US && p_hi > p_lo {
                ((P99_LIMIT_US / p_lo).ln() / (p_hi / p_lo).ln()).clamp(0.0, 1.0)
            } else {
                0.0
            };
            r_lo + f * (r_hi - r_lo)
        }
    }
}

fn journal_path(tag: &str) -> PathBuf {
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).expect("create the benchmark's out directory");
    dir.join(format!("serve-{tag}-{}.journal", std::process::id()))
}

fn step_lengths(seconds: f64, share_each: f64) -> Vec<usize> {
    LADDER
        .iter()
        .enumerate()
        .map(|(k, &rate)| {
            let secs = if k == NOMINAL {
                seconds * NOMINAL_SHARE
            } else {
                seconds * share_each
            };
            ((rate * secs) as usize).max(1)
        })
        .collect()
}

/// Prints one ladder step or nominal segment and returns its (open p99,
/// passed, achieved rate).
fn report_step(step: &Step, kinds: &[Kind]) -> (f64, bool, f64) {
    let (p99, pass) = step_p99_and_pass(step, kinds);
    let mut lag = Samples::from_vec(step.lag_us.clone());
    println!(
        "serve_tcp step {:>6.0} req/s: {} requests, achieved {:.0} req/s, open p99 {:.1} us \
         (median of {WINDOW_S} s windows), lag p50 {:.1} us p99 {:.1} us (n={}), {}, report digest {:016x}",
        step.rate,
        step.n,
        step.achieved_rps,
        p99,
        lag.median(),
        lag.p99(),
        lag.len(),
        if pass { "pass" } else { "over limit" },
        step.outcome.as_ref().map_or(0, |o| digest(&o.report.to_json())),
    );
    (p99, pass, step.achieved_rps)
}

pub fn serve_tcp(seed: u64, seconds: f64, threads: usize, checks: &mut Checks) -> E2e {
    let mut clock = HostClock::new();
    let lengths = step_lengths(seconds, (1.0 - NOMINAL_SHARE) / (LADDER.len() - 1) as f64);
    let segment = (lengths[NOMINAL] / NOMINAL_SEGMENTS).max(1);
    let longest = lengths.iter().copied().max().expect("ladder");
    let sched = Schedule::generate(seed, longest.max(BURST_REQUESTS));
    // Every due instant is drawn before anything is timed.
    let runs: Vec<(Option<Phase>, f64, Vec<Duration>)> = (0..EXTRA_SETUPS)
        .map(|_| (None, 0.0, Vec::new()))
        .chain(PLAN.iter().enumerate().map(|(i, &phase)| {
            let (rate, due) = match phase {
                Phase::Nominal => {
                    let rate = LADDER[NOMINAL];
                    (rate, due_offsets(seed, i as u64, rate, segment))
                }
                Phase::Rung(k) => (
                    LADDER[k],
                    due_offsets(seed, i as u64, LADDER[k], lengths[k]),
                ),
                Phase::Burst => (f64::INFINITY, vec![Duration::ZERO; BURST_REQUESTS]),
            };
            (Some(phase), rate, due)
        }))
        .collect();
    let journal = journal_path("e2e");
    let mut setup = Samples::new();
    let mut rungs = vec![(0.0, false, 0.0); LADDER.len()];
    let mut segments = Vec::new();
    let mut capacities = Vec::new();
    let mut wall_capacities = Vec::new();
    for (phase, rate, due) in runs {
        clock.restart();
        let step = run_step(&sched, rate, due, threads, &journal, false, checks);
        if !checks.errors.is_empty() {
            // A broken daemon makes every later step wait out the socket
            // timeout: stop at the first failure.
            return E2e::new(setup, f64::NAN, Samples::new(), clock);
        }
        let slowness = clock.lap();
        setup.push(step.setup_s / slowness);
        match phase {
            None => {}
            Some(Phase::Nominal) => {
                let summary = report_step(&step, &sched.kinds);
                if segments.is_empty() {
                    rungs[NOMINAL] = summary;
                }
                segments.push(step);
            }
            Some(Phase::Rung(k)) => rungs[k] = report_step(&step, &sched.kinds),
            Some(Phase::Burst) => {
                let windows = completion_rates(&step);
                let capacity = median_of(&windows);
                println!(
                    "serve_tcp burst: {BURST_REQUESTS} requests due at once, {capacity:.0} req/s \
                     (median of {} {WINDOW_S} s completion windows), host slowness {slowness:.3}",
                    windows.len()
                );
                wall_capacities.push(capacity);
                capacities.push(capacity * slowness);
            }
        }
    }
    // Per segment: open p50, and the median of its per-window open p99s.
    let p50s: Vec<f64> = segments
        .iter()
        .map(|s| samples_of(s, &sched.kinds, Kind::Open).median())
        .collect();
    let p99s: Vec<f64> = segments
        .iter()
        .map(|s| median_of(&window_p99s(s, &sched.kinds, Kind::Open)))
        .collect();
    let pooled = |kind| {
        let mut all = Samples::new();
        for s in &segments {
            for (&lat, _) in s
                .latency_us
                .iter()
                .zip(&sched.kinds)
                .filter(|(_, &k)| k == kind)
            {
                all.push(lat);
            }
        }
        all
    };
    let (mut opens, mut polls, mut snaps) = (
        pooled(Kind::Open),
        pooled(Kind::Poll),
        pooled(Kind::Snapshot),
    );
    let e2e = E2e {
        setup_s: setup,
        throughput: median_of(&capacities),
        wall_throughput: median_of(&wall_capacities),
        p50_us: median_of(&p50s),
        p99_us: median_of(&p99s),
        latency_samples: opens.len(),
        clock,
    };
    println!(
        "serve_tcp nominal {:.0} req/s, median of {} segments: open p50 {:.1} us p99 {:.1} us \
         (n={}); pooled: open p50 {:.1} us p99 {:.1} us, poll p50 {:.1} us p99 {:.1} us (n={}), \
         snapshot p50 {:.1} us (n={})",
        LADDER[NOMINAL],
        segments.len(),
        e2e.p50_us,
        e2e.p99_us,
        opens.len(),
        opens.median(),
        opens.p99(),
        polls.median(),
        polls.p99(),
        polls.len(),
        snaps.median(),
        snaps.len(),
    );
    println!(
        "serve_tcp sustained {:.0} req/s at open p99 <= {P99_LIMIT_US} us; capacity {:.0} req/s \
         on the nominal host (median of {} bursts)",
        sustained_rps(&rungs),
        e2e.throughput,
        capacities.len()
    );
    e2e
}

/// Replies completed per second in each `WINDOW_S` window of a burst,
/// without the partial first and last windows.
fn completion_rates(burst: &Step) -> Vec<f64> {
    let mut per: Vec<f64> = Vec::new();
    // Every burst request is due at the origin: latency is completion time.
    for &us in &burst.latency_us {
        let w = (us / 1e6 / WINDOW_S) as usize;
        if per.len() <= w {
            per.resize(w + 1, 0.0);
        }
        per[w] += 1.0 / WINDOW_S;
    }
    if per.len() > 2 {
        per.pop();
        per.remove(0);
    }
    per
}

/// The traced pass: a short ladder through the traced daemon copy and a
/// traced client, the recorded stream re-journaled and replayed on a bare
/// `LiveFleet`, and a burst served untraced and traced for the overhead.
pub fn traced_serve_tcp(
    seed: u64,
    seconds: f64,
    threads: usize,
    checks: &mut Checks,
    out: &mut Vec<Metric>,
) -> Vec<ThreadSpans> {
    let mut lengths = step_lengths(seconds, TRACED_STEP_SHARE);
    lengths[NOMINAL] = ((LADDER[NOMINAL] * seconds * TRACED_STEP_SHARE * 2.0) as usize).max(1);
    let n_max = lengths
        .iter()
        .copied()
        .max()
        .expect("ladder")
        .max(OVERHEAD_REQUESTS);
    let sched = Schedule::generate(seed, n_max);
    let journal = journal_path("traced");
    let mut groups = Vec::new();
    let mut nominal = None;
    for (k, &n) in lengths.iter().enumerate() {
        let due = due_offsets(seed, k as u64, LADDER[k], n);
        let step = run_step(&sched, LADDER[k], due, threads, &journal, true, checks);
        if !checks.errors.is_empty() {
            return groups;
        }
        let mut lag = Samples::from_vec(step.lag_us.clone());
        println!(
            "traced serve step {:>6.0} req/s: daemon busy {:.1}% of the serving window, \
             lag p50 {:.1} us p99 {:.1} us (n={})",
            step.rate,
            step.busy_share * 100.0,
            lag.median(),
            lag.p99(),
            lag.len()
        );
        if k == NOMINAL {
            nominal = Some(step);
        }
    }
    let nominal = nominal.expect("nominal step ran");
    let spans: Vec<&Span> = nominal.spans.iter().flat_map(|(_, s)| s).collect();
    let mut by_name: HashMap<&str, Samples> = HashMap::new();
    for s in &spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e3);
    }
    // The client halves: per-request encode/write from the sender, decode
    // per read from the receiver (a read's span is shared by the replies
    // it carried), and wait = write done -> reply decoded.
    let mut write_end: HashMap<u64, u64> = HashMap::new();
    let mut decode: Vec<(u64, u64, u64)> = Vec::new(); // (first req, start, end)
    for s in &spans {
        match s.name {
            "transport.write" => {
                write_end.insert(s.req.expect("request span"), s.end_ns);
            }
            "protocol.decode" => decode.push((s.req.expect("request span"), s.start_ns, s.end_ns)),
            _ => {}
        }
    }
    decode.sort_unstable();
    let mut decode_us = Samples::new();
    let mut wait_us = Samples::new();
    for (j, &(first, start, end)) in decode.iter().enumerate() {
        let next = decode.get(j + 1).map_or(nominal.n as u64, |d| d.0);
        let count = next.saturating_sub(first).max(1);
        for req in first..next {
            decode_us.push((end - start) as f64 / 1e3 / count as f64);
            if let Some(&w) = write_end.get(&req) {
                wait_us.push(end.saturating_sub(w) as f64 / 1e3);
            }
        }
    }
    by_name.insert("protocol.decode", decode_us);
    by_name.insert("transport.wait", wait_us);
    by_name.insert("gen.lag", Samples::from_vec(nominal.lag_us.clone()));

    // Journal appends, re-journaling the recorded stream with write-through.
    let rejournal = journal_path("rejournal");
    trace::enable(Instant::now());
    match JournalWriter::with_file(&rejournal) {
        Ok(mut w) => {
            for e in &nominal.entries {
                let _g = trace::span("journal.append", None);
                w.record_routed(e.shard, &e.event);
            }
        }
        Err(e) => checks.fail(1, format!("cannot open {rejournal:?}: {e}")),
    }
    let _ = std::fs::remove_file(&rejournal);
    // The engine's share: the recorded stream on a bare LiveFleet.
    let eng = engine(seed, sched.epochs);
    let mut live = eng.live();
    let epoch_ns = live.epoch_ns();
    let mut servers: HashMap<u64, usize> = HashMap::new();
    let mut mismatched = 0u64;
    for (i, e) in nominal.entries.iter().enumerate() {
        match &e.event {
            IngressEvent::Open {
                at_ns,
                duration_ns,
                app_code,
                ..
            } => {
                let app = AppId::from_code(app_code).expect("generated app codes are valid");
                let admission = {
                    let _g = trace::span("engine.offer", None);
                    live.offer_arrival(*at_ns, app.spec(), *duration_ns)
                };
                let got = match admission {
                    Admission::Admitted {
                        session, server, ..
                    } => {
                        servers.insert(session, server);
                        (Outcome::Admitted, session)
                    }
                    Admission::Rejected => (Outcome::Rejected, 0),
                    Admission::Parked => (Outcome::Parked, 0),
                    Admission::PastHorizon => (Outcome::PastHorizon, 0),
                };
                let want = match sched.expected.get(i) {
                    Some(Msg::Decision {
                        outcome, session, ..
                    }) => Some((*outcome, *session)),
                    _ => None,
                };
                mismatched += u64::from(want != Some(got));
            }
            IngressEvent::Poll { at_ns, session, .. } => {
                let _g = trace::span("engine.poll", None);
                live.step_to(*at_ns);
                let epoch = (*at_ns / epoch_ns).min(eng.epochs - 1);
                let server = servers.get(session).copied().unwrap_or(usize::MAX);
                std::hint::black_box(live.server_telemetry(server, epoch));
            }
            IngressEvent::Snapshot { at_ns, .. } => {
                live.step_to(*at_ns);
                std::hint::black_box(live.snapshot());
            }
            IngressEvent::Seal { .. } => break,
        }
    }
    if mismatched > 0 {
        checks.fail(mismatched, "bare-engine replay admitted differently".into());
    }
    let engine_spans = trace::take();
    for s in &engine_spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e3);
    }
    groups.extend(nominal.spans.iter().cloned());
    groups.push(("serve.replay".into(), engine_spans));

    // Overhead: the same burst untraced and traced, alternating twice.
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for _ in 0..2 {
        for (traced, total) in [(false, &mut plain_s), (true, &mut traced_s)] {
            let burst = vec![Duration::ZERO; OVERHEAD_REQUESTS];
            *total += run_step(
                &sched,
                f64::INFINITY,
                burst,
                threads,
                &journal,
                traced,
                checks,
            )
            .wall_s;
        }
    }
    let overhead = traced_s / plain_s - 1.0;

    let ingress = nominal
        .outcome
        .as_ref()
        .map(|o| o.report.ingress)
        .unwrap_or_default();
    for name in [
        "protocol.encode",
        "protocol.decode",
        "transport.write",
        "transport.wait",
        "daemon.open",
        "daemon.poll",
        "daemon.snapshot",
        "daemon.reply",
        "journal.append",
        "engine.offer",
        "engine.poll",
        "gen.lag",
    ] {
        let mut s = by_name.remove(name).unwrap_or_default();
        let n = s.len();
        out.push(Metric::new(&format!("{name}_us"), s.median(), "us", n));
        out.push(Metric::new(&format!("{name}_p99_us"), s.p99(), "us", n));
    }
    out.extend([
        Metric::new("daemon.busy_share", nominal.busy_share, "ratio", 1),
        Metric::count("serve.opens", ingress.opens),
        Metric::count("serve.polls", ingress.polls),
        Metric::count("serve.snapshots", ingress.snapshots),
        Metric::count("serve.admitted", ingress.admitted),
        Metric::count("serve.rejected", ingress.rejected),
        Metric::count("serve.parked", ingress.parked),
        Metric::new(
            "serve.admit_ratio",
            ingress.admitted as f64 / ingress.opens as f64,
            "ratio",
            ingress.opens as usize,
        ),
        Metric::new("trace.overhead.serve_tcp", overhead, "ratio", 1),
    ]);
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = Schedule::generate(11, 400);
        let b = Schedule::generate(11, 400);
        let c = Schedule::generate(12, 400);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.expected, b.expected);
        assert_ne!(a.requests, c.requests);
        assert_eq!(
            due_offsets(11, 1, 5000.0, 50),
            due_offsets(11, 1, 5000.0, 50)
        );
        assert_ne!(
            due_offsets(11, 1, 5000.0, 50),
            due_offsets(12, 1, 5000.0, 50)
        );
    }

    #[test]
    fn schedule_mix_and_poll_targets() {
        let s = Schedule::generate(5, 2000);
        let count = |k| s.kinds.iter().filter(|&&x| x == k).count() as f64 / 2000.0;
        assert!(
            (0.75..0.85).contains(&count(Kind::Open)),
            "{}",
            count(Kind::Open)
        );
        assert!(
            (0.13..0.23).contains(&count(Kind::Poll)),
            "{}",
            count(Kind::Poll)
        );
        // Every poll targets a live session: the dry run answered every
        // request in kind, never with an error.
        for (request, reply) in s.requests.iter().zip(&s.expected) {
            assert!(answers(request, reply), "{request:?} -> {reply:?}");
        }
        assert!(!answers(
            &Msg::Poll {
                at_ns: 0,
                session: 3
            },
            &Msg::Error {
                code: pictor_serve::ErrCode::UnknownSession,
                detail: String::new()
            }
        ));
        let outcomes: Vec<Outcome> = s
            .expected
            .iter()
            .filter_map(|m| match m {
                Msg::Decision { outcome, .. } => Some(*outcome),
                _ => None,
            })
            .collect();
        assert!(outcomes.contains(&Outcome::Admitted));
        assert!(outcomes.contains(&Outcome::Rejected) || outcomes.contains(&Outcome::Parked));
    }

    #[test]
    fn sustained_rate_interpolates_between_steps() {
        // Pass, pass, fail at 4 ms: log-interpolated a third of the way.
        let steps = [
            (300.0, true, 2000.0),
            (500.0, true, 5000.0),
            (4000.0, false, 8000.0),
        ];
        let r = sustained_rps(&steps);
        assert!((r - 6000.0).abs() < 1.0, "{r}");
        assert_eq!(sustained_rps(&steps[..2]), 5000.0);
        assert_eq!(sustained_rps(&[(2000.0, false, 1000.0)]), 500.0);
        // A stall that failed a lower step does not cap the rate.
        let stalled = [(3000.0, false, 2000.0), steps[1], steps[2]];
        assert!((sustained_rps(&stalled) - 6000.0).abs() < 1.0);
    }
}
