//! In-process soak: a multi-driver swarm drives the daemon through the
//! full graceful-shutdown path (drive → drain → seal) and the
//! resident-session boundedness guard.
//!
//! The wall-clock variant of this flow is `pictor-load --soak` against a
//! live TCP daemon (CI runs it); this test runs the identical code path
//! on a virtual clock so it finishes in milliseconds and runs on every
//! `cargo test`. The boundedness assertion itself lives inside
//! `run_swarm_threaded`: a snapshot's resident count above the fleet's
//! slots (a session leak) panics the swarm.

use std::sync::mpsc::channel;
use std::thread;

use pictor::serve::{
    run_daemon, run_in_process, run_swarm_threaded, serve_engine, ChannelConn, LoadReport,
    LoadSpec, ServeOptions, ServeOutcome,
};

/// Drives `spec` against a 4x4 virtual-clock daemon, draining before the
/// seal (which arms the boundedness guard).
fn drain_soak(spec: &LoadSpec) -> (LoadReport, ServeOutcome) {
    let engine = serve_engine(4, 4, 40, 250, 2020, 8);
    let opts = ServeOptions {
        virtual_clock: true,
        threads: 2,
        ..ServeOptions::default()
    };
    let (tx, rx) = channel();
    thread::scope(|s| {
        let daemon = s.spawn(|| run_daemon(&engine, &opts, rx));
        let load = run_swarm_threaded(
            |d| Ok(ChannelConn::connect(d + 1, &tx)),
            spec,
            true,
            "in-process",
            true,
        )
        .expect("threaded swarm");
        drop(tx);
        (load, daemon.join().expect("daemon thread"))
    })
}

#[test]
fn multi_driver_drain_soak_stays_bounded() {
    let mut spec = LoadSpec::closed(128, 10, 3);
    spec.drivers = 4;
    let (load, outcome) = drain_soak(&spec);

    assert_eq!(load.drivers, 4);
    assert!(
        load.requests > 0 && load.admitted > 0,
        "swarm served nothing"
    );
    // Client-side and daemon-side ledgers agree: every open was stamped,
    // every poll was answered (with telemetry or a typed stale error).
    assert_eq!(outcome.report.ingress.opens, load.requests);
    assert_eq!(outcome.report.ingress.polls, load.polls + load.stale_polls);
    assert!(outcome.report.decisions_balance());
    // The resident count was actually watched (snapshots ran) and stayed
    // bounded — `run_swarm_threaded` already asserted the bound; here we
    // pin that the probe saw real data.
    assert!(load.snapshots > 0, "soak never snapshotted the daemon");
    assert!(
        load.peak_resident > 0,
        "soak never observed a resident session"
    );
    // The admit tails are read from the exact merge of every driver's
    // histogram, so they are ordered and bounded by the exact max.
    assert!(
        0.0 < load.admit_p50_us
            && load.admit_p50_us <= load.admit_p95_us
            && load.admit_p95_us <= load.admit_p99_us
            && load.admit_p99_us <= load.admit_max_us,
        "admit tails out of order: p50 {} p95 {} p99 {} max {}",
        load.admit_p50_us,
        load.admit_p95_us,
        load.admit_p99_us,
        load.admit_max_us
    );
}

/// A soak shorter than its snapshot cadence schedules no snapshot, so
/// the swarm takes one before the drain: the guard always reads the
/// resident count.
#[test]
fn short_soak_snapshots_once_before_the_drain() {
    let mut spec = LoadSpec::closed(32, 3, 3);
    spec.drivers = 2;
    assert!(spec.snapshot_every_secs > spec.secs);
    let (load, outcome) = drain_soak(&spec);
    assert!(load.admitted > 0, "swarm admitted nothing");
    assert_eq!(load.snapshots, 1);
    assert_eq!(outcome.report.ingress.snapshots, 1);
    assert!(
        load.peak_resident > 0,
        "the snapshot saw no resident session"
    );
}

/// `run_in_process` routes multi-driver specs through the threaded
/// swarm; the embedded daemon JSON still parses and balances.
#[test]
fn run_in_process_fans_out_across_drivers() {
    let engine = serve_engine(4, 4, 24, 250, 2020, 8);
    let opts = ServeOptions {
        virtual_clock: true,
        threads: 2,
        ..ServeOptions::default()
    };
    let mut spec = LoadSpec::closed(64, 6, 5);
    spec.drivers = 3;
    let run = run_in_process(&engine, &opts, &spec);
    assert_eq!(run.load.drivers, 3);
    assert_eq!(run.load.requests, run.outcome.report.ingress.opens);
    assert!(run.outcome.report.decisions_balance());
    assert!(run.load.to_json().contains("\"drivers\": 3"));
    assert!(run.load.to_csv().lines().count() == 2);
}
