//! The Pictor benchmark: four workloads that together reach every layer of
//! the workspace, measured end to end with tracing off, plus a traced run
//! that breaks the time down layer by layer. See `README.md` next to this
//! package for the workloads, the metrics and how to run it.
//!
//! ```text
//! perfbench --workload <serve_tcp|fleet_control|fleet_sim|ic_colocated>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A failed output check prints the failures to standard error, reports
//! no metrics and exits with status 1.

mod calib;
mod fleet;
mod ic;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use calib::HostClock;
use stats::Samples;

const WORKLOADS: [&str; 4] = ["serve_tcp", "fleet_control", "fleet_sim", "ic_colocated"];

/// Operation counts and output-check failures of a run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    /// Records a failed check that spoiled `ops` operations (at least one).
    pub fn fail(&mut self, ops: u64, msg: String) {
        self.failed += ops.max(1);
        self.errors.push(msg);
    }
}

/// What a workload's end-to-end pass measured. Times of CPU-bound work
/// are rescaled to the nominal host (see `calib`).
pub struct E2e {
    /// Durations of the repeated set-up, s.
    pub setup_s: Samples,
    /// Work per host second on the nominal host (requests, arrivals or
    /// simulated session-seconds, by workload).
    pub throughput: f64,
    /// The same rate by the wall clock, not rescaled.
    pub wall_throughput: f64,
    /// Median and p99 operation latency, µs, with the samples behind them.
    pub p50_us: f64,
    pub p99_us: f64,
    pub latency_samples: usize,
    /// The calibration the times were rescaled with.
    pub clock: HostClock,
}

impl E2e {
    /// Latency percentiles straight from every operation's latency.
    pub fn new(setup_s: Samples, throughput: f64, mut latency_us: Samples, clock: HostClock) -> Self {
        E2e {
            setup_s,
            throughput,
            wall_throughput: throughput,
            p50_us: latency_us.median(),
            p99_us: latency_us.p99(),
            latency_samples: latency_us.len(),
            clock,
        }
    }

    pub fn with_wall_rate(self, wall_throughput: f64) -> Self {
        E2e {
            wall_throughput,
            ..self
        }
    }
}

/// One reported metric with the number of samples behind it.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }

    /// An exact count.
    pub fn count(name: &str, value: u64) -> Self {
        Metric::new(name, value as f64, "count", 1)
    }
}

/// FNV-1a 64-bit digest of an output document.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Where journals and traces go: `out/` inside this package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident memory of this process, MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn end_to_end(args: &Args, threads: usize, checks: &mut Checks) -> Vec<Metric> {
    let (seed, seconds) = (args.seed, args.seconds);
    let (mut e2e, rate_unit) = match args.workload.as_str() {
        "serve_tcp" => (serve::serve_tcp(seed, seconds, threads, checks), "req/s"),
        "fleet_control" => (fleet::fleet_control(seed, seconds, checks), "arrivals/s"),
        "fleet_sim" => (fleet::fleet_sim(seed, seconds, checks), "session-s/s"),
        "ic_colocated" => (
            ic::ic_colocated(seed, seconds, threads, checks),
            "session-s/s",
        ),
        other => unreachable!("validated workload {other}"),
    };
    let (slowness, laps) = e2e.clock.median();
    println!(
        "throughput is {rate_unit} on {}; by the wall clock {:.6}, host slowness {slowness:.3} \
         (median of {laps} calibrations)",
        args.workload, e2e.wall_throughput
    );
    let n = e2e.latency_samples;
    println!("p99 {:.3} us (n={n}), printed only", e2e.p99_us);
    vec![
        Metric::new("setup_s", e2e.setup_s.median(), "s", e2e.setup_s.len()),
        Metric::new("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN), "MiB", 1),
        Metric::new("throughput", e2e.throughput, "1/s", n),
        Metric::new("p50_us", e2e.p50_us, "us", n),
    ]
}

fn traced(args: &Args, threads: usize, checks: &mut Checks) -> Vec<Metric> {
    let seed = args.seed;
    let mut out = Vec::new();
    let mut groups = serve::traced_serve_tcp(seed, args.seconds, threads, checks, &mut out);
    let spans = fleet::traced_fleet_control(seed, threads, checks, &mut out);
    groups.push(("fleet_control".into(), spans));
    let spans = fleet::traced_fleet_sim(seed, threads, checks, &mut out);
    groups.push(("fleet_sim".into(), spans));
    groups.extend(ic::traced_ic_colocated(seed, threads, checks, &mut out));
    let path = out_dir().join(format!("trace-{}-{seed}.jsonl", args.workload));
    let spans: usize = groups.iter().map(|(_, s)| s.len()).sum();
    match trace::write_jsonl(&path, &groups) {
        Ok(()) => println!("wrote {spans} spans to {}", path.display()),
        Err(e) => checks.fail(1, format!("cannot write {}: {e}", path.display())),
    }
    out
}

fn json_result(correct: bool, checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed {} for {} s, trace {}, {threads} threads",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(&args, threads, &mut checks)
    } else {
        end_to_end(&args, threads, &mut checks)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            checks.fail(0, format!("metric {} has no value", m.name));
        }
        println!(
            "{:<34} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "operations: {} attempted, {} failed, error_rate {error_rate}",
        checks.attempted, checks.failed
    );
    if !checks.errors.is_empty() {
        for e in &checks.errors {
            eprintln!("perfbench: check failed: {e}");
        }
        println!("{}", json_result(false, &checks, &[]));
        return ExitCode::from(1);
    }
    println!("{}", json_result(true, &checks, &metrics));
    ExitCode::SUCCESS
}
