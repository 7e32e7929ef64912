//! The optimized ML kernels at the shapes the microbenches time: every
//! output and gradient is finite and bit-equal to the seed's reference
//! kernels (`matmul_reference`, `infer_reference`, `backward_reference`,
//! `train_seq_reference`).
//!
//! `crates/ml/tests/kernel_equivalence.rs` property-tests small random
//! shapes (the direct-GEMM cases stop at 23 columns); this pins the
//! benchmark-sized inputs from `pictor_bench::fixtures` plus a 96×96×96
//! GEMM, so a kernel that drifts or overflows only at scale fails here.

use pictor_bench::fixtures::{conv_d_out, conv_fixture, lstm_d_h, lstm_fixture};
use pictor_ml::{Matrix, Scratch};

/// Panics if any value in `values` is non-finite.
fn assert_all_finite(name: &str, values: &[f64]) {
    for (i, v) in values.iter().enumerate() {
        assert!(v.is_finite(), "{name}: non-finite output at index {i}: {v}");
    }
}

/// Panics unless `got` is finite and bit-for-bit equal to `want`.
fn assert_bit_equal(name: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{name}: length differs");
    assert_all_finite(name, got);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{name}: element {i} is {g}, reference {w}"
        );
    }
}

#[test]
fn gemm_96_matches_reference() {
    let fill = |mul: usize, modulus: usize, half: f64| -> Matrix {
        Matrix::from_vec(
            96,
            96,
            (0..96 * 96)
                .map(|i| ((i * mul % modulus) as f64 - half) / half)
                .collect(),
        )
    };
    let a = fill(31, 97, 48.0);
    let b = fill(57, 89, 44.0);
    assert_bit_equal(
        "matmul_96x96x96",
        a.matmul(&b).data(),
        a.matmul_reference(&b).data(),
    );
}

#[test]
fn conv_fixture_matches_reference() {
    let (mut conv, x) = conv_fixture();
    let d_out = conv_d_out();
    let mut ws = Scratch::new();
    let want = conv.infer_reference(&x);
    assert_bit_equal("conv infer", conv.infer(&x, &mut ws).data(), want.data());
    assert_bit_equal(
        "conv forward",
        conv.forward(&x, &mut ws).data(),
        want.data(),
    );
    let dx = conv.backward(&d_out, &mut ws);
    let pre = conv.conv_forward_reference(&x);
    let (dx_ref, dw_ref, db_ref) = conv.backward_reference(&x, &pre, &d_out);
    assert_bit_equal("conv dx", dx.data(), dx_ref.data());
    let grads = conv.params_and_grads();
    assert_bit_equal("conv dw", grads[0].1, &dw_ref);
    assert_bit_equal("conv db", grads[1].1, &db_ref);
}

#[test]
fn lstm_fixture_matches_reference() {
    let (mut lstm, xs) = lstm_fixture();
    let d_h = lstm_d_h();
    let mut ws = Scratch::new();
    let (h_ref, dxs_ref, dwx_ref, dwh_ref, db_ref) = lstm.train_seq_reference(&xs, &d_h);
    assert_bit_equal(
        "lstm infer",
        lstm.infer(&xs, &mut ws).data(),
        lstm.infer_reference(&xs).data(),
    );
    assert_bit_equal(
        "lstm forward",
        lstm.forward(&xs, &mut ws).data(),
        h_ref.data(),
    );
    let dxs = lstm.backward(&d_h, &mut ws);
    assert_eq!(dxs.len(), dxs_ref.len(), "lstm dx steps");
    for (t, (dx, dx_ref)) in dxs.iter().zip(&dxs_ref).enumerate() {
        assert_bit_equal(&format!("lstm dx{t}"), dx.data(), dx_ref.data());
    }
    let grads = lstm.params_and_grads();
    assert_bit_equal("lstm dwx", grads[0].1, dwx_ref.data());
    assert_bit_equal("lstm dwh", grads[1].1, dwh_ref.data());
    assert_bit_equal("lstm db", grads[2].1, db_ref.data());
}
