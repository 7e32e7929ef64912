//! Shared ML hot-loop fixtures for the criterion microbenches and the
//! kernel check at benchmark shapes (`tests/fixture_kernels.rs`).
//!
//! The test proves the optimized kernels bit-equal to their references on
//! exactly the inputs the microbenches time (`conv_forward_cells_b32`,
//! `lstm_infer_seq_t6_b16`, …) — shapes, seeds and fill patterns live
//! here once.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use pictor_ml::{Conv2d, Lstm, Matrix, Tensor4};

/// Vision-shaped conv batch: 32 cells of 3×6×8, 3→6 channels, k=3.
pub fn conv_fixture() -> (Conv2d, Tensor4) {
    let mut rng = SmallRng::seed_from_u64(7);
    let conv = Conv2d::new(3, 6, 3, &mut rng);
    let x = Tensor4::from_vec(
        32,
        3,
        6,
        8,
        (0..32 * 3 * 6 * 8)
            .map(|i| ((i * 37 % 255) as f64) / 255.0 - 0.5)
            .collect(),
    );
    (conv, x)
}

/// Output gradient matching [`conv_fixture`]'s forward shape.
pub fn conv_d_out() -> Tensor4 {
    Tensor4::from_vec(
        32,
        6,
        6,
        8,
        (0..32 * 6 * 6 * 8)
            .map(|i| ((i * 13 % 101) as f64 - 50.0) / 500.0)
            .collect(),
    )
}

/// Agent-shaped LSTM sequence: 6 steps, batch 16, 13 features, hidden 24.
pub fn lstm_fixture() -> (Lstm, Vec<Matrix>) {
    let mut rng = SmallRng::seed_from_u64(8);
    let lstm = Lstm::new(13, 24, &mut rng);
    let xs = (0..6).map(|_| Matrix::xavier(16, 13, &mut rng)).collect();
    (lstm, xs)
}

/// Final-hidden-state gradient matching [`lstm_fixture`]'s shape.
pub fn lstm_d_h() -> Matrix {
    let mut rng = SmallRng::seed_from_u64(9);
    Matrix::xavier(16, 24, &mut rng)
}
