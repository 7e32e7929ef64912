//! Drain, handover, auth, poll and typed-error semantics for the
//! serving daemon.
//!
//! The headline property is **deterministic handover**: a daemon
//! restarted from *any* clean prefix of a recorded journal
//! (`run_daemon_from`) and then sealed produces a report byte-identical
//! to an offline replay of that same prefix. Together with the journal's
//! write-through + crash-recovery guarantees this is the full failover
//! story — kill the daemon anywhere, recover the journal's clean prefix,
//! restart, and nothing about the serving record is ambiguous.

use std::collections::HashMap;
use std::sync::mpsc::channel;
use std::thread;

use pictor::serve::{
    decode_journal_entries, replay, run_daemon, run_daemon_from, serve_engine, ChannelConn, Conn,
    ErrCode, IngressEvent, JournalEntry, LoadSpec, Msg, Outcome, ServeCore, ServeOptions,
    ServeOutcome, FRAME_HEADER_BYTES,
};

/// Same probe family as the replay golden: a small oversubscribed fleet
/// so every decision branch shows up in the journal.
fn probe() -> pictor::core::fleet::FleetEngine {
    serve_engine(4, 4, 24, 250, 2020, 8)
}

fn swarm() -> LoadSpec {
    let mut spec = LoadSpec::closed(48, 6, 7);
    spec.flash_at_secs = 3;
    spec.flash_burst = 16;
    spec
}

const THREADS: usize = 2;

fn base_opts() -> ServeOptions {
    ServeOptions {
        virtual_clock: true,
        threads: THREADS,
        ..ServeOptions::default()
    }
}

/// Boots a fresh daemon from `prefix` and seals it (through a live
/// client connection unless the prefix already seals the run), returning
/// the sealed outcome — the "restarted daemon" half of the handover
/// property.
fn restart_and_seal(prefix: &[JournalEntry]) -> ServeOutcome {
    let engine = probe();
    let opts = base_opts();
    let prefix_seals = prefix
        .iter()
        .any(|e| matches!(e.event, IngressEvent::Seal { .. }));
    let (tx, rx) = channel();
    thread::scope(|s| {
        let daemon = s.spawn(|| run_daemon_from(&engine, &opts, rx, prefix));
        if !prefix_seals {
            let mut conn = ChannelConn::connect(1, &tx);
            conn.send(&Msg::Hello {
                client: 99,
                token: String::new(),
            })
            .expect("hello");
            assert!(matches!(conn.recv().expect("ack"), Msg::HelloAck { .. }));
            let at_ns = prefix.last().map_or(0, |e| e.event.at_ns());
            conn.send(&Msg::Seal { at_ns }).expect("seal");
            assert!(matches!(conn.recv().expect("report"), Msg::Report { .. }));
        }
        drop(tx);
        daemon.join().expect("daemon thread")
    })
}

/// Kill the daemon after N events, restart from the surviving prefix,
/// seal: the report is byte-identical to an offline replay of the same
/// prefix — for every possible N.
#[test]
fn restart_from_any_clean_prefix_matches_replay() {
    let opts = ServeOptions {
        record: true,
        ..base_opts()
    };
    let run = pictor::serve::run_in_process(&probe(), &opts, &swarm());
    let journal = run.outcome.journal.as_deref().expect("recorded journal");
    let entries = decode_journal_entries(journal).expect("journal decodes");
    assert!(entries.len() > 16, "probe journal too small to cut");

    // Every length class: empty, single event, mid-run, one-short (the
    // crashed-before-seal case), and the complete journal.
    let cuts = [0, 1, entries.len() / 3, entries.len() - 1, entries.len()];
    for &cut in &cuts {
        let prefix = &entries[..cut];
        let want = replay(&probe(), 1, prefix, THREADS).report.to_json();
        let got = restart_and_seal(prefix).report.to_json();
        assert_eq!(
            got, want,
            "handover diverged from replay at prefix length {cut}"
        );
    }
}

/// Live drain semantics: `Drain` seals admissions (new `Open`s are
/// refused with `Draining`, un-journaled), acknowledges with the flushed
/// journal depth, and leaves snapshots/polls/seal working.
#[test]
fn drain_refuses_new_sessions_but_keeps_serving() {
    let engine = probe();
    let opts = ServeOptions {
        record: true,
        ..base_opts()
    };
    let (tx, rx) = channel();
    let outcome = thread::scope(|s| {
        let daemon = s.spawn(|| run_daemon(&engine, &opts, rx));
        let mut conn = ChannelConn::connect(1, &tx);
        conn.send(&Msg::Hello {
            client: 1,
            token: String::new(),
        })
        .expect("hello");
        assert!(matches!(conn.recv().expect("ack"), Msg::HelloAck { .. }));

        conn.send(&Msg::Open {
            req: 1,
            at_ns: 0,
            duration_ns: 2_000_000_000,
            app_code: "STK".into(),
        })
        .expect("open");
        let session = match conn.recv().expect("decision") {
            Msg::Decision { session, .. } => session,
            other => panic!("expected Decision, got {other:?}"),
        };

        conn.send(&Msg::Drain { at_ns: 500_000_000 })
            .expect("drain");
        match conn.recv().expect("drain ack") {
            Msg::DrainAck { journaled_events } => {
                assert_eq!(journaled_events, 1, "one open was journaled before drain");
            }
            other => panic!("expected DrainAck, got {other:?}"),
        }
        // Residency reads from a stamped snapshot, which steps the engine
        // to the drain instant.
        conn.send(&Msg::Snapshot { at_ns: 500_000_000 })
            .expect("snapshot");
        match conn.recv().expect("snapshot reply") {
            Msg::SnapshotRep { resident, .. } => {
                assert_eq!(resident, 1, "the admitted session is resident");
            }
            other => panic!("expected SnapshotRep, got {other:?}"),
        }

        // Admissions are sealed...
        conn.send(&Msg::Open {
            req: 2,
            at_ns: 600_000_000,
            duration_ns: 1_000_000_000,
            app_code: "STK".into(),
        })
        .expect("open while draining");
        match conn.recv().expect("refusal") {
            Msg::Error {
                code: ErrCode::Draining,
                ..
            } => {}
            other => panic!("expected Draining refusal, got {other:?}"),
        }
        // ...but telemetry still flows for live sessions.
        conn.send(&Msg::Poll {
            at_ns: 1_000_000_000,
            session,
        })
        .expect("poll");
        assert!(matches!(
            conn.recv().expect("telemetry"),
            Msg::Telemetry { .. }
        ));

        conn.send(&Msg::Seal {
            at_ns: 2_000_000_000,
        })
        .expect("seal");
        assert!(matches!(conn.recv().expect("report"), Msg::Report { .. }));
        drop(conn);
        drop(tx);
        daemon.join().expect("daemon thread")
    });

    // The refused open never reached the journal or the counters; the
    // refusal is a transport-plane diagnostic.
    assert_eq!(outcome.report.ingress.opens, 1);
    assert_eq!(outcome.transport.refused_draining, 1);
    let entries =
        decode_journal_entries(outcome.journal.as_deref().expect("journal")).expect("decodes");
    assert!(
        !entries
            .iter()
            .any(|e| matches!(&e.event, IngressEvent::Open { req: 2, .. })),
        "a drained-away open leaked into the journal"
    );
}

/// Auth: a daemon armed with a token refuses wrong tokens and
/// pre-`Hello` traffic by name, and never stamps or journals either.
#[test]
fn auth_token_gates_every_frame() {
    let engine = probe();
    let opts = ServeOptions {
        record: true,
        token: Some("sesame".into()),
        ..base_opts()
    };
    let (tx, rx) = channel();
    let outcome = thread::scope(|s| {
        let daemon = s.spawn(|| run_daemon(&engine, &opts, rx));
        let mut conn = ChannelConn::connect(1, &tx);

        // Unauthenticated open: refused before stamping.
        conn.send(&Msg::Open {
            req: 1,
            at_ns: 0,
            duration_ns: 1_000_000_000,
            app_code: "STK".into(),
        })
        .expect("open");
        assert!(matches!(
            conn.recv().expect("refusal"),
            Msg::Error {
                code: ErrCode::Unauthorized,
                ..
            }
        ));
        // Wrong token (same length as the real one — the compare is
        // constant-time either way).
        conn.send(&Msg::Hello {
            client: 1,
            token: "sesamE".into(),
        })
        .expect("bad hello");
        assert!(matches!(
            conn.recv().expect("refusal"),
            Msg::Error {
                code: ErrCode::Unauthorized,
                ..
            }
        ));
        // Right token: in.
        conn.send(&Msg::Hello {
            client: 1,
            token: "sesame".into(),
        })
        .expect("hello");
        assert!(matches!(conn.recv().expect("ack"), Msg::HelloAck { .. }));
        conn.send(&Msg::Open {
            req: 2,
            at_ns: 0,
            duration_ns: 1_000_000_000,
            app_code: "STK".into(),
        })
        .expect("open");
        assert!(matches!(
            conn.recv().expect("decision"),
            Msg::Decision { .. }
        ));

        conn.send(&Msg::Seal {
            at_ns: 1_000_000_000,
        })
        .expect("seal");
        assert!(matches!(conn.recv().expect("report"), Msg::Report { .. }));
        drop(conn);
        drop(tx);
        daemon.join().expect("daemon thread")
    });

    assert_eq!(outcome.transport.unauthorized, 2);
    assert_eq!(
        outcome.report.ingress.opens, 1,
        "refused open never stamped"
    );
    let entries =
        decode_journal_entries(outcome.journal.as_deref().expect("journal")).expect("decodes");
    assert_eq!(entries.len(), 2, "one open + one seal journaled");
}

/// Unknown-session polls get the typed v2 error (and a transport-side
/// count), not a fabricated zero-telemetry sample; a session polled after
/// it ended has no engine segment at the polled epoch and answers the
/// same way.
#[test]
fn unknown_and_expired_sessions_answer_by_name() {
    let engine = probe();
    let opts = base_opts();
    let (tx, rx) = channel();
    let outcome = thread::scope(|s| {
        let daemon = s.spawn(|| run_daemon(&engine, &opts, rx));
        let mut conn = ChannelConn::connect(1, &tx);
        conn.send(&Msg::Hello {
            client: 1,
            token: String::new(),
        })
        .expect("hello");
        assert!(matches!(conn.recv().expect("ack"), Msg::HelloAck { .. }));

        // Never-admitted session id.
        conn.send(&Msg::Poll {
            at_ns: 0,
            session: 424_242,
        })
        .expect("poll");
        match conn.recv().expect("reply") {
            Msg::Error {
                code: ErrCode::UnknownSession,
                detail,
            } => assert!(detail.contains("424242"), "detail names the session"),
            other => panic!("expected UnknownSession, got {other:?}"),
        }

        // A real session, polled long after it ended: no segment of it
        // covers the polled epoch, so it answers identically to a bogus id.
        conn.send(&Msg::Open {
            req: 1,
            at_ns: 0,
            duration_ns: 500_000_000,
            app_code: "STK".into(),
        })
        .expect("open");
        let session = match conn.recv().expect("decision") {
            Msg::Decision { session, .. } => session,
            other => panic!("expected Decision, got {other:?}"),
        };
        conn.send(&Msg::Poll {
            at_ns: 5_000_000_000,
            session,
        })
        .expect("late poll");
        assert!(matches!(
            conn.recv().expect("reply"),
            Msg::Error {
                code: ErrCode::UnknownSession,
                ..
            }
        ));

        conn.send(&Msg::Seal {
            at_ns: 6_000_000_000,
        })
        .expect("seal");
        assert!(matches!(conn.recv().expect("report"), Msg::Report { .. }));
        drop(conn);
        drop(tx);
        daemon.join().expect("daemon thread")
    });

    assert_eq!(outcome.transport.unknown_sessions, 2);
    // Both polls were stamped and counted — the typed error is a reply
    // shape, not a change to the deterministic serving record.
    assert_eq!(outcome.report.ingress.polls, 2);
    assert!(outcome.report.decisions_balance());
}

const EPOCH_NS: u64 = 250_000_000;

/// Sends `msg` straight through `core` from connection 1 and returns its
/// one reply.
fn ask(core: &mut ServeCore<'_>, msg: &Msg) -> Msg {
    let mut out = Vec::new();
    core.handle_frame(1, &msg.encode_frame()[FRAME_HEADER_BYTES..], &mut out);
    assert_eq!(out.len(), 1, "one reply to {msg:?}");
    out.pop().expect("reply").1
}

/// Offers `STK` for `duration_ns` at `at_ns` and returns the grant
/// `(session, start_epoch, end_epoch)` when admitted.
fn grant(
    core: &mut ServeCore<'_>,
    req: u64,
    at_ns: u64,
    duration_ns: u64,
) -> Option<(u64, u64, u64)> {
    let open = Msg::Open {
        req,
        at_ns,
        duration_ns,
        app_code: "STK".into(),
    };
    match ask(core, &open) {
        Msg::Decision {
            outcome: Outcome::Admitted,
            session,
            start_epoch,
            end_epoch,
            ..
        } => Some((session, start_epoch, end_epoch)),
        Msg::Decision { .. } => None,
        other => panic!("expected Decision, got {other:?}"),
    }
}

fn hello_core(engines: &[pictor::core::fleet::FleetEngine]) -> ServeCore<'_> {
    let mut core = ServeCore::new(engines, &base_opts());
    let hello = Msg::Hello {
        client: 1,
        token: String::new(),
    };
    assert!(matches!(ask(&mut core, &hello), Msg::HelloAck { .. }));
    core
}

/// A poll reads the engine's own segments. A session resident in the
/// polled epoch gets real telemetry even after another `Open` in that
/// epoch moved the engine to the next boundary, where the polled session
/// already left its server. A session polled before its start epoch is
/// unknown. Neither reply is a made-up zero sample.
#[test]
fn polls_read_the_engine_even_after_it_moved_ahead() {
    let engines = [probe()];
    let mut core = hello_core(&engines);
    let (one_epoch, start, end) = grant(&mut core, 1, 0, EPOCH_NS).expect("admitted");
    assert_eq!((start, end), (0, 1), "a one-epoch session");
    // Starts at boundary 1, so the engine steps there and `one_epoch`
    // departs.
    let (_, later_start, _) = grant(&mut core, 2, 100_000_000, 2_000_000_000).expect("admitted");
    assert_eq!(later_start, 1);
    match ask(
        &mut core,
        &Msg::Poll {
            at_ns: 200_000_000,
            session: one_epoch,
        },
    ) {
        Msg::Telemetry {
            session,
            epoch,
            fps,
            rtt_ms,
        } => {
            assert_eq!((session, epoch), (one_epoch, 0));
            assert!(
                fps > 0.0 && rtt_ms > 0.0,
                "made-up sample: {fps} fps, {rtt_ms} ms"
            );
        }
        other => panic!("expected Telemetry, got {other:?}"),
    }

    // Offered at 300 ms, so it starts at boundary 2: unknown in epoch 1,
    // telemetry from epoch 2 on.
    let (pending, start, _) = grant(&mut core, 3, 300_000_000, EPOCH_NS).expect("admitted");
    assert_eq!(start, 2);
    let early = Msg::Poll {
        at_ns: 300_000_000,
        session: pending,
    };
    match ask(&mut core, &early) {
        Msg::Error {
            code: ErrCode::UnknownSession,
            detail,
        } => assert!(detail.contains(&pending.to_string()), "{detail}"),
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    let started = Msg::Poll {
        at_ns: 2 * EPOCH_NS,
        session: pending,
    };
    assert!(
        matches!(ask(&mut core, &started), Msg::Telemetry { fps, .. } if fps > 0.0),
        "a started session reads"
    );
}

/// Over a seeded random Open/Poll stream: every poll inside its session's
/// grant reads telemetry and every other poll is unknown, and two polls
/// of one session strictly inside one epoch answer identically however
/// far earlier offers moved the engine in between.
#[test]
fn polls_inside_a_grant_read_and_repeat_within_the_epoch() {
    let engines = [probe()];
    let horizon_ns = engines[0].epochs * EPOCH_NS;
    let mut core = hello_core(&engines);
    // SplitMix64.
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut granted: Vec<(u64, u64, u64)> = Vec::new();
    let mut first: HashMap<(u64, u64), Msg> = HashMap::new();
    let (mut t, mut req, mut inside, mut outside, mut repeats) = (0u64, 0u64, 0, 0, 0);
    loop {
        t += next() % (EPOCH_NS / 16);
        if t >= horizon_ns {
            break;
        }
        if granted.is_empty() || next() % 2 == 0 {
            req += 1;
            let duration_ns = EPOCH_NS / 2 + next() % (4 * EPOCH_NS);
            granted.extend(grant(&mut core, req, t, duration_ns));
            continue;
        }
        // Mostly recent grants, so most polls land inside one.
        let recent = &granted[granted.len().saturating_sub(12)..];
        let (session, start, end) = recent[(next() % recent.len() as u64) as usize];
        let epoch = t / EPOCH_NS;
        let reply = ask(&mut core, &Msg::Poll { at_ns: t, session });
        if start <= epoch && epoch < end {
            inside += 1;
            assert!(
                matches!(reply, Msg::Telemetry { session: s, epoch: e, fps, rtt_ms }
                    if s == session && e == epoch && fps > 0.0 && rtt_ms > 0.0),
                "session {session} granted [{start}, {end}) polled at epoch {epoch}: {reply:?}"
            );
        } else {
            outside += 1;
            assert!(
                matches!(
                    reply,
                    Msg::Error {
                        code: ErrCode::UnknownSession,
                        ..
                    }
                ),
                "session {session} granted [{start}, {end}) polled at epoch {epoch}: {reply:?}"
            );
        }
        if t % EPOCH_NS != 0 {
            if let Some(prev) = first.insert((session, epoch), reply.clone()) {
                repeats += 1;
                assert_eq!(
                    prev, reply,
                    "session {session} epoch {epoch} changed within the epoch"
                );
            }
        }
    }
    assert!(
        inside > 100 && outside > 0 && repeats > 50,
        "{inside} polls inside a grant, {outside} outside, {repeats} repeats"
    );
}
