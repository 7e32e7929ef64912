//! `pictor-load` — the synthetic client swarm.
//!
//! Drives a serving daemon with a closed-loop population, an optional
//! open-loop Poisson stream (flat or ramping) and an optional flash
//! crowd, then seals the run and reports achieved throughput plus
//! admit-latency tails (`pictor-serve-load/v2`).
//!
//! Flags are listed in [`USAGE`]; an unknown flag, a missing value or a
//! number that does not parse prints it and exits with status 2.
//! `--addr HOST:PORT` drives a live daemon; without it daemon and swarm
//! run in one process. `--rate R` is the open-loop rate in req/s and
//! `--ramp R2` its rate at the horizon. `--drivers N` partitions the
//! population across N driver threads, one connection each. `--token TOK`
//! is the auth token for the daemon's `Hello`. In-process engine flags
//! mirror `pictor-serve`, plus `--record PATH` to write the daemon's
//! ingress journal. `--out PATH` / `--csv PATH` write the load report.
//!
//! Pacing: in-process runs use a virtual clock (as fast as the control
//! plane can go — that *is* the measurement); `--addr` runs pace
//! open-loop arrivals against the wall clock unless `--virtual` is
//! given (matching a daemon started with `--virtual`).
//!
//! `--soak SECS` (requires `--addr`) is the wall-clock soak mode: drive
//! the swarm against a live daemon for SECS real seconds, take one last
//! snapshot, then *drain* it (seal admissions, flush the journal) before
//! sealing — and assert that no snapshot saw more resident sessions than
//! the fleet has slots, the regression guard for a session leak.

use std::time::Instant;

use pictor_sim::SimClock;

use pictor_serve::cli::Args;
use pictor_serve::{
    run_in_process, run_swarm, run_swarm_threaded, serve_engine, LoadReport, LoadSpec,
    ServeOptions, TcpConn,
};

const USAGE: &str = "\
usage: pictor-load --addr HOST:PORT [swarm flags...]    # against a live daemon
       pictor-load [swarm flags...] [engine flags...]   # daemon + swarm in one process
swarm flags:  [--clients 256] [--secs S] [--seed S] [--rate R] [--ramp R2]
              [--flash N@SECS] [--poll-every N] [--snapshot-every S]
              [--session-secs S] [--think-secs S] [--drivers N] [--token TOK]
              [--soak SECS] [--virtual] [--out PATH] [--csv PATH]
engine flags: [--servers 16] [--slots 4] [--epochs N] [--epoch-ms 1000]
              [--queue N] [--threads 4] [--record PATH]";

fn master_seed() -> u64 {
    std::env::var("PICTOR_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2020)
}

fn measured_secs() -> u64 {
    std::env::var("PICTOR_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

fn main() {
    let args = Args::parse(
        USAGE,
        "--clients --secs --seed --rate --ramp --flash --poll-every --snapshot-every \
         --session-secs --think-secs --drivers --token --soak --addr --out --csv \
         --servers --slots --epochs --epoch-ms --queue --threads --record",
        "--virtual",
    );
    let default_secs = measured_secs().clamp(1, 600);

    let mut spec = LoadSpec::closed(
        args.num("--clients", 256),
        args.num("--secs", default_secs),
        args.num("--seed", master_seed()),
    );
    spec.open_rate_per_sec = args.num("--rate", 0.0);
    spec.open_rate_end_per_sec = args.opt("--ramp");
    let flash = args.value("--flash").unwrap_or("0@0");
    let (burst, at) = flash
        .split_once('@')
        .and_then(|(b, a)| Some((b.parse().ok()?, a.parse().ok()?)))
        .unwrap_or_else(|| args.fail(&format!("--flash wants BURST@SECS, got {flash}")));
    spec.flash_burst = burst;
    spec.flash_at_secs = at;
    if spec.flash_burst > 0 && spec.flash_at_secs >= spec.secs {
        spec.flash_at_secs = spec.secs / 2;
    }
    spec.poll_every = args.num("--poll-every", spec.poll_every);
    spec.snapshot_every_secs = args.num("--snapshot-every", spec.snapshot_every_secs);
    spec.mean_session_secs = args.num("--session-secs", spec.mean_session_secs);
    spec.mean_think_secs = args.num("--think-secs", spec.mean_think_secs);
    spec.drivers = args.num("--drivers", 1);
    spec.token = args.value("--token").unwrap_or_default().to_string();
    let soak: Option<u64> = args.opt("--soak");
    match soak {
        Some(0) => args.fail("--soak wants a positive number of seconds"),
        Some(secs) => spec.secs = secs,
        None => {}
    }
    if soak.is_some() && args.value("--addr").is_none() {
        args.fail("--soak drives a live daemon; pass --addr");
    }
    spec.validate();

    println!(
        "pictor-load: {} closed clients, open rate {}{} req/s, flash {}@{}s, {} s horizon, seed {}",
        spec.clients,
        spec.open_rate_per_sec,
        spec.open_rate_end_per_sec
            .map_or(String::new(), |r| format!(" ramping to {r}")),
        spec.flash_burst,
        spec.flash_at_secs,
        spec.secs,
        spec.seed,
    );

    let started = Instant::now();
    let report: LoadReport = if let Some(addr) = args.value("--addr") {
        let virtual_pace = args.switch("--virtual");
        if spec.drivers > 1 || soak.is_some() {
            // Soak paces against the wall clock by definition; plain
            // multi-driver runs honor --virtual.
            run_swarm_threaded(
                |_d| TcpConn::connect(addr),
                &spec,
                virtual_pace && soak.is_none(),
                "tcp",
                soak.is_some(),
            )
            .unwrap_or_else(|e| panic!("swarm: {e}"))
        } else {
            let mut conn = TcpConn::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
            let mut clock = if virtual_pace {
                SimClock::virtual_start()
            } else {
                SimClock::wall_start()
            };
            run_swarm(&mut conn, &spec, &mut clock, "tcp").unwrap_or_else(|e| panic!("swarm: {e}"))
        }
    } else {
        let servers = args.num("--servers", 16);
        let engine = serve_engine(
            servers,
            args.num("--slots", 4),
            args.num("--epochs", default_secs + 30),
            args.num("--epoch-ms", 1000),
            spec.seed,
            args.num("--queue", servers * 2),
        );
        let opts = ServeOptions {
            virtual_clock: true,
            record: args.value("--record").is_some(),
            threads: args.num("--threads", 4),
            token: (!spec.token.is_empty()).then(|| spec.token.clone()),
            journal_path: None,
        };
        let run = run_in_process(&engine, &opts, &spec);
        if let (Some(path), Some(journal)) = (args.value("--record"), &run.outcome.journal) {
            std::fs::write(path, journal).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("journal: {} bytes -> {path}", journal.len());
        }
        run.load
    };

    let json = report.to_json();
    if let Ok(dir) = std::env::var("PICTOR_REPORT_DIR") {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir).expect("create PICTOR_REPORT_DIR");
        let path = dir.join("serve_load.json");
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    }
    if let Some(path) = args.value("--out") {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    if let Some(path) = args.value("--csv") {
        std::fs::write(path, report.to_csv()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }

    println!(
        "swarm: {} requests in {:.2} s wall ({:.0} round-trips/s)",
        report.requests,
        started.elapsed().as_secs_f64(),
        report.achieved_rps,
    );
    println!(
        "decisions: {} admitted, {} rejected, {} parked, {} past-horizon; peak resident {}",
        report.admitted, report.rejected, report.parked, report.past_horizon, report.peak_resident,
    );
    if report.drivers > 1 || report.stale_polls > 0 {
        println!(
            "swarm shape: {} driver(s), {} stale polls",
            report.drivers, report.stale_polls
        );
    }
    println!(
        "admit latency: p50 {:.1} us, p95 {:.1} us, p99 {:.1} us, max {:.1} us",
        report.admit_p50_us, report.admit_p95_us, report.admit_p99_us, report.admit_max_us,
    );
}
