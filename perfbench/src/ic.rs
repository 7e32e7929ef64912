//! The `ic_colocated` workload — the paper's own method: D2, STK, RE and
//! 0AD co-located on one `turbovnc_stock` server, each instance played by
//! an intelligent client (CNN + LSTM) trained with
//! `IcTrainConfig::default()` on a recorded human session, with RTTs
//! recovered per input tag by `InputTracker`.
//!
//! Set-up is recording plus training, split over the available threads.
//! One operation is one simulated second of the co-located system:
//! `CloudSystem::run_for`, draining its records, and `InputTracker::analyze`
//! over them. The headline rate is simulated session-seconds per host
//! second.

use std::time::Instant;

use pictor_apps::world::DetectedObject;
use pictor_apps::AppId;
use pictor_client::ic::{IcTrainConfig, IntelligentClient};
use pictor_client::record_session;
use pictor_core::{IcDriver, InputTracker};
use pictor_gfx::Frame;
use pictor_render::driver::{ClientDriver, Reaction};
use pictor_render::{CloudSystem, SystemConfig};
use pictor_sim::{SeedTree, SimDuration};

use crate::calib::HostClock;
use crate::stats::Samples;
use crate::trace::{self, Span, ThreadSpans};
use crate::{digest, secs, Checks, E2e, Metric};

const APPS: [AppId; 4] = [
    AppId::Dota2,
    AppId::SuperTuxKart,
    AppId::RedEclipse,
    AppId::ZeroAd,
];
/// Set-ups (record + train all four clients) timed per run.
const SETUPS: usize = 3;
/// Simulated time per operation.
const CHUNK: SimDuration = SimDuration::from_secs(1);
/// Operations per measured second on a 2-core host. The work is sized from
/// `--seconds` with it, never from the host's speed, so every run of a
/// seed simulates the same span and prints the same digest.
const CHUNKS_PER_S: f64 = 120.0;
/// Operations between host calibrations: ~50 ms of work.
const LAP_CHUNKS: usize = 5;
/// Operations in each half of the traced pass.
const TRACED_CHUNKS: usize = 150;

/// Records a human session and trains one intelligent client per app,
/// spreading the apps over `threads` workers. Each worker's spans for its
/// recordings and trainings are returned when tracing is on.
fn train_all(
    seed: u64,
    threads: usize,
    traced: bool,
) -> (Vec<IntelligentClient>, Vec<ThreadSpans>) {
    let seeds = SeedTree::new(seed);
    let per = APPS.len().div_ceil(threads.max(1));
    let origin = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = APPS
            .chunks(per)
            .map(|apps| {
                let seeds = &seeds;
                s.spawn(move || {
                    if traced {
                        trace::enable(origin);
                    }
                    let config = IcTrainConfig::default();
                    let ics: Vec<IntelligentClient> = apps
                        .iter()
                        .map(|&app| {
                            let app_seeds = seeds.child(app.code());
                            let session = {
                                let _g = trace::span("recorder.record", None);
                                record_session(
                                    app,
                                    &app_seeds,
                                    config.record_frames,
                                    config.record_fps,
                                )
                            };
                            let _g = trace::span("ic.train", None);
                            IntelligentClient::train_on(&session, &app_seeds, config)
                        })
                        .collect();
                    (ics, if traced { trace::take() } else { Vec::new() })
                })
            })
            .collect();
        let mut ics = Vec::new();
        let mut spans = Vec::new();
        for (k, w) in workers.into_iter().enumerate() {
            let (i, s) = w.join().expect("training worker panicked");
            ics.extend(i);
            spans.push((format!("ic.setup.{k}"), s));
        }
        (ics, spans)
    })
}

/// Times a training's outcome can be compared by: per-app CNN accuracy
/// and LSTM loss bit patterns.
fn model_fingerprint(ics: &[IntelligentClient]) -> Vec<(u64, u64)> {
    ics.iter()
        .map(|ic| {
            (
                ic.vision().train_accuracy().to_bits(),
                ic.agent().final_class_loss().to_bits(),
            )
        })
        .collect()
}

/// Times each `on_frame` call of the wrapped driver as an `ic.decide` span.
struct TimedDriver(IcDriver);

impl ClientDriver for TimedDriver {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_frame(&mut self, frame: &Frame, truth: &[DetectedObject]) -> Reaction {
        let _g = trace::span("ic.decide", None);
        self.0.on_frame(frame, truth)
    }
}

/// One co-located system, fed one simulated second at a time.
struct Colocated {
    sys: CloudSystem,
    tracker: InputTracker,
    /// Folds each chunk's tracked inputs into the output digest.
    trail: String,
    chunks: usize,
    tracked: u64,
}

impl Colocated {
    fn new(seed: u64, ics: &[IntelligentClient], timed: bool) -> Self {
        let mut sys = CloudSystem::new(
            SystemConfig::turbovnc_stock(),
            SeedTree::new(seed).child("colocated"),
        );
        for ic in ics {
            let driver = IcDriver::new(ic.clone());
            let driver: Box<dyn ClientDriver> = if timed {
                Box::new(TimedDriver(driver))
            } else {
                Box::new(driver)
            };
            sys.add_instance(ic.app().clone(), driver);
        }
        sys.start();
        Colocated {
            sys,
            tracker: InputTracker::new(),
            trail: String::new(),
            chunks: 0,
            tracked: 0,
        }
    }

    /// Runs one operation and checks what the tracker recovered.
    fn step(&mut self, checks: &mut Checks) {
        let records = {
            let _g = trace::span("render.run_for", None);
            self.sys.run_for(CHUNK);
            self.sys.drain_records()
        };
        let tracks = {
            let _g = trace::span("tracker.analyze", None);
            self.tracker.analyze(&records)
        };
        self.chunks += 1;
        let mut ids: Vec<&u32> = tracks.keys().collect();
        ids.sort_unstable();
        for id in ids {
            let track = &tracks[id];
            let rtt_ns: u64 = track.inputs.iter().map(|i| i.rtt.as_nanos()).sum();
            if track.inputs.iter().any(|i| i.rtt.is_zero()) {
                checks.fail(1, format!("instance {id}: a tracked input has zero RTT"));
            }
            self.tracked += track.inputs.len() as u64;
            self.trail
                .push_str(&format!("{id}:{}:{rtt_ns};", track.inputs.len()));
        }
    }

    /// Checks the per-instance reports and returns the output digest (every
    /// operation's tracked inputs) and the inputs sent.
    fn seal(&mut self, checks: &mut Checks) -> (u64, u64) {
        let reports = self.sys.reports();
        let mut inputs = 0;
        for r in &reports {
            if !(r.server_fps.is_finite() && r.server_fps > 0.0 && r.inputs_sent > 0) {
                checks.fail(1, format!("{}: no frames or no inputs: {r:?}", r.app));
            }
            inputs += r.inputs_sent;
        }
        if self.tracked == 0 || self.tracked > inputs {
            checks.fail(1, format!("tracked {} of {inputs} inputs", self.tracked));
        }
        (digest(&self.trail), inputs)
    }
}

pub fn ic_colocated(seed: u64, seconds: f64, threads: usize, checks: &mut Checks) -> E2e {
    let mut clock = HostClock::new();
    let mut setup = Samples::new();
    let mut ics = Vec::new();
    let mut fingerprint = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        ics = train_all(seed, threads, false).0;
        setup.push(secs(t) / clock.lap());
        let fp = model_fingerprint(&ics);
        if fingerprint.get_or_insert_with(|| fp.clone()) != &fp {
            checks.fail(0, "training one seed twice gave different models".into());
        }
    }
    let mut sys = Colocated::new(seed, &ics, false);
    let mut chunks_us = Samples::new();
    let mut wall_s = 0.0;
    let mut pending = Vec::with_capacity(LAP_CHUNKS);
    let chunks = ((seconds * CHUNKS_PER_S).round() as usize).max(1);
    clock.restart();
    for k in 0..chunks {
        let t = Instant::now();
        sys.step(checks);
        pending.push(secs(t));
        if pending.len() == LAP_CHUNKS || k + 1 == chunks {
            let slowness = clock.lap();
            for raw in pending.drain(..) {
                chunks_us.push(raw / slowness * 1e6);
                wall_s += raw;
            }
        }
    }
    checks.attempted += sys.chunks as u64;
    let (dig, inputs) = sys.seal(checks);
    let simulated_s = (sys.chunks * APPS.len()) as f64 * CHUNK.as_secs_f64();
    println!(
        "ic_colocated: {} instances x {} simulated s, {inputs} inputs sent, tracked-input digest {dig:016x}",
        APPS.len(),
        sys.chunks
    );
    let busy_s = chunks_us.sum() / 1e6;
    E2e::new(setup, simulated_s / busy_s, chunks_us, clock).with_wall_rate(simulated_s / wall_s)
}

pub fn traced_ic_colocated(
    seed: u64,
    threads: usize,
    checks: &mut Checks,
    out: &mut Vec<Metric>,
) -> Vec<ThreadSpans> {
    let (ics, mut groups) = train_all(seed, threads, true);
    let setup_spans: Vec<&Span> = groups.iter().flat_map(|(_, s)| s).collect();
    let run = |timed: bool, checks: &mut Checks| {
        let mut sys = Colocated::new(seed, &ics, timed);
        let t = Instant::now();
        for _ in 0..TRACED_CHUNKS {
            sys.step(checks);
        }
        let wall = secs(t);
        checks.attempted += TRACED_CHUNKS as u64;
        let (dig, inputs) = sys.seal(checks);
        (wall, dig, inputs)
    };
    // Untraced and traced alternate twice; the last traced run's spans
    // are the ones reported.
    let (mut untraced_s, mut traced_s, mut inputs) = (0.0, 0.0, 0);
    let mut run_spans = Vec::new();
    let mut digests = Vec::new();
    for _ in 0..2 {
        let (wall, dig, _) = run(false, checks);
        untraced_s += wall;
        digests.push(dig);
        trace::enable(Instant::now());
        let (wall, dig, sent) = run(true, checks);
        run_spans = trace::take();
        traced_s += wall;
        digests.push(dig);
        inputs = sent;
    }
    if digests.iter().any(|&d| d != digests[0]) {
        checks.fail(
            1,
            "ic_colocated: traced and untraced runs tracked different inputs".into(),
        );
    }
    let self_ns = trace::self_times_ns(&run_spans);
    let total = |spans: &[&Span], name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    };
    let run_refs: Vec<&Span> = run_spans.iter().collect();
    let render_self_s: f64 = run_spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "render.run_for")
        .map(|(_, &ns)| ns as f64 / 1e9)
        .sum();
    let mut decide_us = Samples::from_vec(
        run_spans
            .iter()
            .filter(|s| s.name == "ic.decide")
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect(),
    );
    let decisions = decide_us.len();
    out.extend([
        Metric::new(
            "recorder.record_s",
            total(&setup_spans, "recorder.record"),
            "s",
            APPS.len(),
        ),
        Metric::new(
            "ic.train_s",
            total(&setup_spans, "ic.train"),
            "s",
            APPS.len(),
        ),
        Metric::new("ic.decide_us", decide_us.median(), "us", decisions),
        Metric::new("ic.decide_p99_us", decide_us.p99(), "us", decisions),
        Metric::new("render.self_s", render_self_s, "s", TRACED_CHUNKS),
        Metric::new(
            "tracker.analyze_s",
            total(&run_refs, "tracker.analyze"),
            "s",
            TRACED_CHUNKS,
        ),
        Metric::count("ic.decisions", decisions as u64),
        Metric::count("ic.inputs", inputs),
        Metric::new(
            "ic.input_ratio",
            inputs as f64 / decisions as f64,
            "ratio",
            decisions,
        ),
        Metric::new(
            "trace.overhead.ic_colocated",
            traced_s / untraced_s - 1.0,
            "ratio",
            1,
        ),
    ]);
    groups.push(("ic.run".into(), run_spans));
    groups
}
