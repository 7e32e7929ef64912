//! `pictor-serve` — the live control-plane daemon.
//!
//! Serves one fleet run over TCP: clients connect, open sessions, poll
//! telemetry, and one of them eventually seals (or drains, then seals)
//! the run, at which point the daemon runs the data plane, writes its
//! deterministic `pictor-serve/v1` report, and exits.
//!
//! Flags are listed in [`USAGE`]; an unknown flag, a missing value or a
//! number that does not parse prints it and exits with status 2.
//! `--virtual` stamps ingress from client-supplied timestamps instead of
//! the wall clock (deterministic serving for tests and recording runs).
//! `--auth-token TOK` requires every connection to present the token in
//! its `Hello`. `--record PATH` journals the stamped ingress stream
//! *write-through*: every record hits the file before its effects apply,
//! so a crashed daemon leaves at worst a torn tail. `--replay PATH`
//! recovers the journal's clean prefix (reporting any truncation) and
//! feeds it through a fresh engine — with the same engine flags, the
//! replayed report is byte-identical to the recorded run's.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::mpsc::channel;
use std::thread;

use pictor_serve::cli::Args;
use pictor_serve::{
    replay_with, run_daemon, serve_engine, tcp_listen, JournalReader, ServeOptions,
};

const USAGE: &str = "\
usage: pictor-serve [--addr 127.0.0.1:9230] [--servers 16] [--slots 4]
                    [--epochs 120] [--epoch-ms 1000] [--queue N] [--seed S]
                    [--threads N] [--auth-token TOK]
                    [--virtual] [--record PATH] [--out PATH]
       pictor-serve --replay PATH [engine flags...] [--out PATH]";

fn master_seed() -> u64 {
    std::env::var("PICTOR_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2020)
}

fn main() {
    let args = Args::parse(
        USAGE,
        "--addr --servers --slots --epochs --epoch-ms --queue --seed --threads --auth-token \
         --record --replay --out",
        "--virtual",
    );
    let servers = args.num("--servers", 16);
    let slots = args.num("--slots", 4);
    let epochs = args.num("--epochs", 120);
    let epoch_ms = args.num("--epoch-ms", 1000);
    let seed = args.num("--seed", master_seed());
    let queue = args.num("--queue", servers * 2);
    let engine = serve_engine(servers, slots, epochs, epoch_ms, seed, queue);
    let threads = args.num("--threads", 1);
    let virtual_clock = args.switch("--virtual");
    let record = args.value("--record");

    let outcome = if let Some(path) = args.value("--replay") {
        let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let recovered =
            JournalReader::recover(&bytes).unwrap_or_else(|e| panic!("recover {path}: {e}"));
        if recovered.truncated_bytes > 0 {
            println!(
                "pictor-serve: journal has a torn tail ({} bytes past the last complete \
                 record); replaying the clean {}-byte prefix",
                recovered.truncated_bytes, recovered.clean_len
            );
        }
        println!(
            "pictor-serve: replaying {} journaled events from {path}",
            recovered.entries.len()
        );
        // --virtual must echo the recording daemon's clock mode: the
        // report records it (stamps always come from the journal).
        let opts = ServeOptions {
            virtual_clock,
            threads,
            ..ServeOptions::default()
        };
        replay_with(&engine, &opts, &recovered.entries)
    } else {
        let addr = args.value("--addr").unwrap_or("127.0.0.1:9230");
        let listener = TcpListener::bind(addr).unwrap_or_else(|e| panic!("bind {addr}: {e}"));
        let addr = listener.local_addr().expect("local addr");
        println!(
            "pictor-serve: {} servers x {} slots, {} epochs of {} ms, seed {}, auth {}, \
             listening on {addr} ({} clock)",
            servers,
            slots,
            epochs,
            epoch_ms,
            seed,
            if args.value("--auth-token").is_some() {
                "on"
            } else {
                "off"
            },
            if virtual_clock { "virtual" } else { "wall" },
        );
        let (tx, rx) = channel();
        thread::spawn(move || tcp_listen(listener, tx));
        let opts = ServeOptions {
            virtual_clock,
            record: record.is_some(),
            threads,
            token: args.value("--auth-token").map(str::to_string),
            // Write-through: the journal file is appended before each
            // event applies, so a crash mid-run loses at most a torn
            // tail, never an applied-but-unjournaled event.
            journal_path: record.map(PathBuf::from),
        };
        run_daemon(&engine, &opts, rx)
    };

    if let (Some(path), Some(journal)) = (record, &outcome.journal) {
        println!(
            "journal: {} events ({} bytes) -> {path} (write-through)",
            outcome.report.ingress.journaled_events,
            journal.len()
        );
    }

    let json = outcome.report.to_json();
    if let Ok(dir) = std::env::var("PICTOR_REPORT_DIR") {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir).expect("create PICTOR_REPORT_DIR");
        let path = dir.join("serve.json");
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    }
    if let Some(path) = args.value("--out") {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }

    let i = &outcome.report.ingress;
    println!(
        "ingress: {} opens ({} admitted, {} rejected, {} parked, {} past-horizon, {} bad-app), \
         {} polls, {} snapshots",
        i.opens, i.admitted, i.rejected, i.parked, i.past_horizon, i.bad_app, i.polls, i.snapshots,
    );
    println!(
        "fleet: {} offered, {} admitted, utilization {:.1}%, fps p50 {:.1}, rtt p99 {:.1} ms",
        outcome.report.fleet_offered,
        outcome.report.fleet_admitted,
        outcome.report.utilization * 100.0,
        outcome.report.fps_p50,
        outcome.report.rtt_p99,
    );
    let t = &outcome.transport;
    if t.malformed_frames
        + t.clamped_timestamps
        + t.after_seal
        + t.unauthorized
        + t.refused_draining
        + t.unknown_sessions
        > 0
    {
        println!(
            "transport: {} malformed frames, {} clamped timestamps, {} frames after seal, \
             {} unauthorized, {} refused draining, {} unknown-session polls",
            t.malformed_frames,
            t.clamped_timestamps,
            t.after_seal,
            t.unauthorized,
            t.refused_draining,
            t.unknown_sessions
        );
    }
    assert!(
        outcome.report.decisions_balance(),
        "decision ledger out of balance"
    );
}
