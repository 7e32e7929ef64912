//! `pictor-load` — the synthetic client swarm.
//!
//! Drives a serving daemon with a closed-loop population, an optional
//! open-loop Poisson stream (flat or ramping) and an optional flash
//! crowd, then seals the run and reports achieved throughput plus
//! admit-latency tails (`pictor-serve-load/v2`).
//!
//! ```text
//! pictor-load --addr HOST:PORT [swarm flags...]          # against a live daemon
//! pictor-load [swarm flags...] [engine flags...]         # daemon + swarm in one process
//! ```
//!
//! Swarm flags: `--clients N`, `--rate R` (open-loop req/s), `--ramp R2`
//! (rate at the horizon), `--flash N@SECS`, `--secs S`, `--seed S`,
//! `--poll-every N`, `--snapshot-every S`, `--drivers N` (partition the
//! population across N driver threads, one connection each), `--token
//! TOK` (auth token for the daemon's `Hello`). In-process engine flags
//! mirror `pictor-serve`: `--servers`, `--slots`, `--epochs`,
//! `--epoch-ms`, `--queue`, `--threads`, plus `--record PATH` to write
//! the daemon's ingress journal. `--out PATH` / `--csv PATH` write the
//! load report.
//!
//! Pacing: in-process runs use a virtual clock (as fast as the control
//! plane can go — that *is* the measurement); `--addr` runs pace
//! open-loop arrivals against the wall clock unless `--virtual` is
//! given (matching a daemon started with `--virtual`).
//!
//! `--soak SECS` (requires `--addr`) is the wall-clock soak mode: drive
//! the swarm against a live daemon for SECS real seconds, then *drain*
//! it (seal admissions, flush the journal) before sealing — and assert
//! that no snapshot saw more resident sessions than the fleet has slots,
//! the regression guard for a session leak.

use std::time::Instant;

use pictor_sim::SimClock;

use pictor_serve::{
    run_in_process, run_swarm, run_swarm_threaded, serve_engine, LoadReport, LoadSpec,
    ServeOptions, TcpConn,
};

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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone()
        })
    };
    let parse = |flag: &str, default: u64| -> u64 {
        value(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} wants a number, got {v}"))
        })
    };
    let parse_f = |flag: &str, default: f64| -> f64 {
        value(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} wants a number, got {v}"))
        })
    };
    let default_secs = measured_secs().clamp(1, 600);

    let mut spec = LoadSpec::closed(
        parse("--clients", 256) as usize,
        parse("--secs", default_secs),
        parse("--seed", master_seed()),
    );
    spec.open_rate_per_sec = parse_f("--rate", 0.0);
    spec.open_rate_end_per_sec = value("--ramp").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--ramp wants a number, got {v}"))
    });
    let flash = value("--flash").unwrap_or_else(|| "0@0".into());
    let (burst, at) = flash
        .split_once('@')
        .unwrap_or_else(|| panic!("--flash wants BURST@SECS, got {flash}"));
    spec.flash_burst = burst
        .parse()
        .unwrap_or_else(|_| panic!("bad flash burst {burst}"));
    spec.flash_at_secs = at
        .parse()
        .unwrap_or_else(|_| panic!("bad flash instant {at}"));
    if spec.flash_burst > 0 && spec.flash_at_secs >= spec.secs {
        spec.flash_at_secs = spec.secs / 2;
    }
    spec.poll_every = parse("--poll-every", spec.poll_every);
    spec.snapshot_every_secs = parse("--snapshot-every", spec.snapshot_every_secs);
    spec.mean_session_secs = parse_f("--session-secs", spec.mean_session_secs);
    spec.mean_think_secs = parse_f("--think-secs", spec.mean_think_secs);
    spec.drivers = parse("--drivers", 1) as usize;
    spec.token = value("--token").unwrap_or_default();
    let soak = value("--soak").map(|v| {
        v.parse::<u64>()
            .unwrap_or_else(|_| panic!("--soak wants seconds, got {v}"))
    });
    if let Some(secs) = soak {
        assert!(secs > 0, "--soak wants a positive number of seconds");
        spec.secs = secs;
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
    let report: LoadReport = if let Some(addr) = value("--addr") {
        let virtual_pace = args.iter().any(|a| a == "--virtual");
        if spec.drivers > 1 || soak.is_some() {
            // Soak paces against the wall clock by definition; plain
            // multi-driver runs honor --virtual.
            run_swarm_threaded(
                |_d| TcpConn::connect(&addr),
                &spec,
                virtual_pace && soak.is_none(),
                "tcp",
                soak.is_some(),
            )
            .unwrap_or_else(|e| panic!("swarm: {e}"))
        } else {
            let mut conn =
                TcpConn::connect(&addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
            let mut clock = if virtual_pace {
                SimClock::virtual_start()
            } else {
                SimClock::wall_start()
            };
            run_swarm(&mut conn, &spec, &mut clock, "tcp").unwrap_or_else(|e| panic!("swarm: {e}"))
        }
    } else {
        assert!(soak.is_none(), "--soak drives a live daemon; pass --addr");
        let servers = parse("--servers", 16) as usize;
        let engine = serve_engine(
            servers,
            parse("--slots", 4) as usize,
            parse("--epochs", default_secs + 30),
            parse("--epoch-ms", 1000),
            spec.seed,
            parse("--queue", (servers * 2) as u64) as usize,
        );
        let opts = ServeOptions {
            virtual_clock: true,
            record: value("--record").is_some(),
            threads: parse("--threads", 4) as usize,
            shards: parse("--shards", 1) as usize,
            token: (!spec.token.is_empty()).then(|| spec.token.clone()),
            journal_path: None,
        };
        let run = run_in_process(&engine, &opts, &spec);
        if let (Some(path), Some(journal)) = (value("--record"), &run.outcome.journal) {
            std::fs::write(&path, journal).unwrap_or_else(|e| panic!("write {path}: {e}"));
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
    if let Some(path) = value("--out") {
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    if let Some(path) = value("--csv") {
        std::fs::write(&path, report.to_csv()).unwrap_or_else(|e| panic!("write {path}: {e}"));
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
