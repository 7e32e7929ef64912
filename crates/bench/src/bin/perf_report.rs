//! Perf-trajectory reporter: times the repository's canonical hot loops and
//! emits a machine-readable JSON report (`BENCH_06.json`).
//!
//! Following the continuous-benchmarking discipline of Mohammadi & Bazhirov
//! (arXiv:1812.05257), the committed report gives every future PR a
//! measured baseline to compare against instead of ad-hoc claims. Where the
//! seed's naive kernel is still available as a reference implementation
//! (`*_reference`), the report measures *both* sides in the same run, so
//! before/after numbers come from the same machine and build.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p pictor-bench --bin perf_report            # full run
//! cargo run --release -p pictor-bench --bin perf_report -- --quick # CI smoke
//! cargo run --release -p pictor-bench --bin perf_report -- --out my.json
//! ```
//!
//! After timing, every kernel's outputs are checked for non-finite values
//! (`assert_all_finite`) and the timings themselves are validated, so a CI
//! perf-smoke run catches numeric corruption as well as crashes.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pictor_apps::{AppId, HumanPolicy};
use pictor_bench::fixtures::{assert_all_finite, conv_d_out, conv_fixture, lstm_d_h, lstm_fixture};
use pictor_client::ic::{IcTrainConfig, IntelligentClient};
use pictor_core::fleet::{FirstFit, FleetEngine, FleetSpec, WorkloadMix};
use pictor_ml::{Matrix, Scratch};
use pictor_render::{CloudSystem, HumanDriver, SystemConfig};
use pictor_sim::{SeedTree, SimDuration};

/// `pipeline_one_simulated_second` median committed in PR 3's
/// `BENCH_03.json` — the pre-refactor baseline the pooled/slab hot loop is
/// gated against (measured on the same machine class as this report).
const PIPELINE_SEED_NS: u128 = 5_575_665;

/// Median wall-clock nanoseconds of `iters` runs of `f`.
fn median_ns<O>(iters: usize, mut f: impl FnMut() -> O) -> u128 {
    let mut times: Vec<u128> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        times.push(start.elapsed().as_nanos());
    }
    times.sort_unstable();
    times[times.len() / 2]
}

struct Row {
    name: &'static str,
    before_ns: Option<u128>,
    after_ns: u128,
}

impl Row {
    fn speedup(&self) -> Option<f64> {
        self.before_ns
            .map(|b| b as f64 / self.after_ns.max(1) as f64)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_06.json".to_string());
    // Sample counts: enough for a stable median in a full run, minimal in
    // --quick (CI smoke only checks for panics/NaN and artifact shape).
    let (n_fast, n_slow) = if quick { (3, 1) } else { (200, 20) };

    let mut rows: Vec<Row> = Vec::new();
    let mut ws = Scratch::new();

    // --- blocked GEMM vs the seed's naive triple loop -------------------
    let a = Matrix::from_vec(
        96,
        96,
        (0..96 * 96)
            .map(|i| ((i * 31 % 97) as f64 - 48.0) / 48.0)
            .collect(),
    );
    let b = Matrix::from_vec(
        96,
        96,
        (0..96 * 96)
            .map(|i| ((i * 57 % 89) as f64 - 44.0) / 44.0)
            .collect(),
    );
    rows.push(Row {
        name: "matmul_96x96x96",
        before_ns: Some(median_ns(n_fast, || a.matmul_reference(&b))),
        after_ns: median_ns(n_fast, || a.matmul(&b)),
    });
    assert_all_finite("matmul_96x96x96", a.matmul(&b).data());

    // --- conv forward: vision-shaped batch (32 cells, 3→6 ch, 6×8, k3) --
    let (mut conv, x) = conv_fixture();
    rows.push(Row {
        name: "conv_forward_cells_b32",
        before_ns: Some(median_ns(n_fast, || conv.infer_reference(&x))),
        after_ns: median_ns(n_fast, || conv.infer(&x, &mut ws)),
    });
    assert_all_finite("conv_forward_cells_b32", conv.infer(&x, &mut ws).data());

    // --- conv forward+backward training step -----------------------------
    let d_out = conv_d_out();
    let before_train = median_ns(n_fast, || {
        let pre = conv.conv_forward_reference(&x);
        conv.backward_reference(&x, &pre, &d_out)
    });
    rows.push(Row {
        name: "conv_train_step_b32",
        before_ns: Some(before_train),
        after_ns: median_ns(n_fast, || {
            let y = conv.forward(&x, &mut ws);
            let dx = conv.backward(&d_out, &mut ws);
            (y.data()[0], dx.data()[0])
        }),
    });
    let y = conv.forward(&x, &mut ws);
    let dx = conv.backward(&d_out, &mut ws);
    assert_all_finite("conv_train_step_b32/y", y.data());
    assert_all_finite("conv_train_step_b32/dx", dx.data());
    for (pi, (_, grad)) in conv.params_and_grads().iter().enumerate() {
        assert_all_finite(&format!("conv_train_step_b32/grad{pi}"), grad);
    }

    // --- LSTM sequence: agent-shaped (6 steps, batch 16, 13→24) ----------
    let (mut lstm, xs) = lstm_fixture();
    rows.push(Row {
        name: "lstm_infer_seq_t6_b16",
        before_ns: Some(median_ns(n_fast, || lstm.infer_reference(&xs))),
        after_ns: median_ns(n_fast, || lstm.infer(&xs, &mut ws)),
    });
    assert_all_finite("lstm_infer_seq_t6_b16", lstm.infer(&xs, &mut ws).data());

    // --- LSTM training step over a sequence (forward + BPTT) -------------
    // This is the agent-training hot loop the tentpole targets: the seed
    // cloned every per-step tensor and ran naive matmuls; the arena path
    // reuses storage and the blocked kernel.
    let d_h = lstm_d_h();
    rows.push(Row {
        name: "lstm_train_seq_t6_b16",
        before_ns: Some(median_ns(n_fast, || lstm.train_seq_reference(&xs, &d_h))),
        after_ns: median_ns(n_fast, || {
            let h = lstm.forward(&xs, &mut ws);
            let dxs = lstm.backward(&d_h, &mut ws);
            (h.data()[0], dxs[0].data()[0])
        }),
    });
    let h = lstm.forward(&xs, &mut ws);
    assert_all_finite("lstm_train_seq_t6_b16/h", h.data());
    for (t, dx_t) in lstm.backward(&d_h, &mut ws).iter().enumerate() {
        assert_all_finite(&format!("lstm_train_seq_t6_b16/dx{t}"), dx_t.data());
    }

    // --- intelligent-client fast training (record + CNN + LSTM) ----------
    // No in-tree reference: the seed wall-clock is pinned in the committed
    // BENCH_03.json metadata instead.
    let ic_iters = if quick { 1 } else { 3 };
    rows.push(Row {
        name: "ic_train_fast",
        before_ns: None,
        after_ns: median_ns(ic_iters, || {
            let ic = IntelligentClient::train(
                AppId::RedEclipse,
                &SeedTree::new(5),
                IcTrainConfig::fast(),
            );
            assert!(
                ic.vision().train_accuracy().is_finite(),
                "ic_train_fast: non-finite training accuracy"
            );
            ic
        }),
    });

    // --- full pipeline second (human driver, stock TurboVNC) -------------
    rows.push(Row {
        name: "pipeline_one_simulated_second",
        before_ns: Some(PIPELINE_SEED_NS),
        after_ns: median_ns(n_slow, || {
            let seeds = SeedTree::new(6);
            let mut sys = CloudSystem::new(SystemConfig::turbovnc_stock(), seeds);
            sys.add_instance(
                AppId::Dota2,
                Box::new(HumanDriver::new(
                    HumanPolicy::new(AppId::Dota2, seeds.stream("h")),
                    seeds.stream("attn"),
                )),
            );
            sys.start();
            sys.run_for(SimDuration::from_secs(1));
            sys.now()
        }),
    });

    // --- fleet throughput: simulated session-seconds per wall-second -----
    // One single-threaded fleet run (4 servers, churning sessions) so the
    // number is a property of the hot loop, not of the pool's parallelism.
    // Each session-epoch is one simulated second of one session.
    let fleet_epochs = if quick { 2 } else { 10 };
    let fleet_spec = FleetSpec::new(
        4,
        WorkloadMix::weighted(AppId::ALL.into_iter().map(|id| (id.spec(), 1.0))),
        Arc::new(FirstFit),
        11,
    )
    .epochs(fleet_epochs);
    let fleet_start = Instant::now();
    let fleet_report = FleetEngine::from_spec(&fleet_spec).live().finish(1).0;
    let fleet_wall_ns = fleet_start.elapsed().as_nanos();
    let fleet_rate = fleet_report.session_epochs as f64 * 1e9 / fleet_wall_ns.max(1) as f64;
    rows.push(Row {
        name: "fleet_4srv_first_fit_1thread",
        before_ns: None,
        after_ns: fleet_wall_ns,
    });
    assert!(
        fleet_report.session_epochs > 0,
        "fleet bench simulated no session-epochs"
    );

    // --- report -----------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"pictor-perf-trajectory/v1\",\n");
    json.push_str("  \"pr\": 6,\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(
        "  \"note\": \"before_ns = seed naive kernel (in-tree *_reference), after_ns = blocked \
         GEMM path; both timed in the same release build on the same machine\",\n",
    );
    json.push_str(
        "  \"pipeline_note\": \"pipeline_one_simulated_second before_ns is the median committed \
         in PR 3's BENCH_03.json (pre-refactor event loop); after_ns is the pooled/slab hot \
         loop with zero steady-state allocations\",\n",
    );
    json.push_str(&format!(
        "  \"fleet\": {{\"session_epochs\": {}, \"wall_ns\": {}, \
         \"sessions_simulated_per_wall_second\": {:.1}}},\n",
        fleet_report.session_epochs, fleet_wall_ns, fleet_rate
    ));
    json.push_str(
        "  \"lstm_note\": \"the LSTM benches are capped by ~90us/seq of libm exp/tanh shared \
         with the reference; the kernels stay bit-identical to the seed (golden stability), \
         which rules out approximate gate activations\",\n",
    );
    json.push_str("  \"seed_baselines\": {\n");
    json.push_str("    \"commit\": \"436908a\",\n");
    json.push_str("    \"ic_decide_full_frame_ns\": 97035,\n");
    json.push_str("    \"pipeline_one_simulated_second_ns\": 6887392,\n");
    json.push_str("    \"train_ic_example_default_config_ms\": 10013,\n");
    json.push_str("    \"debug_client_test_suite_ms\": 69059\n");
    json.push_str("  },\n");
    json.push_str("  \"benchmarks\": [\n");
    println!(
        "{:<34} {:>14} {:>14} {:>9}",
        "benchmark", "before ns", "after ns", "speedup"
    );
    for (i, row) in rows.iter().enumerate() {
        assert!(row.after_ns > 0, "{}: zero/invalid timing", row.name);
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let before = row.before_ns.map_or("null".to_string(), |v| v.to_string());
        let speedup = row
            .speedup()
            .map_or("null".to_string(), |s| format!("{s:.2}"));
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"before_ns\": {}, \"after_ns\": {}, \"speedup\": {}}}{}\n",
            row.name, before, row.after_ns, speedup, comma
        ));
        println!(
            "{:<34} {:>14} {:>14} {:>9}",
            row.name,
            row.before_ns.map_or("-".into(), |v: u128| v.to_string()),
            row.after_ns,
            row.speedup().map_or("-".into(), |s| format!("{s:.2}x")),
        );
    }
    json.push_str("  ]\n}\n");
    println!(
        "{:<34} {:>14} session-epochs {:>8.1}/wall-s",
        "fleet_sessions_simulated", fleet_report.session_epochs, fleet_rate
    );
    let mut f = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    f.write_all(json.as_bytes())
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("perf trajectory written to {out_path}");
}
