//! Pins the log-linear [`Histogram`] against exact sorted-slice
//! percentiles on adversarial input distributions.
//!
//! The fleet report, the daemon report and the load swarm all read
//! their p50/p95/p99 tails from [`Histogram`], so every quantile must stay
//! within the layout's stated bound — 2⁻⁸ (0.39%) of
//! [`Distribution::percentile`] over the same samples — on the shapes that
//! break quantile sketches: constant streams, bimodal mixtures (a density
//! gap at the median), heavy tails (p99 dominated by rare huge samples),
//! tiny streams and monotone feeds. The properties below pin what makes it
//! safe to merge: record order, splits and merge order cannot change a bit,
//! and a weighted `record_n` is the same as that many single records.

use pictor_sim::rng::{exponential, lognormal_mean_cv};
use pictor_sim::{Distribution, Histogram, SeedTree};
use proptest::prelude::*;
use rand::Rng;

/// Quantiles checked on every feed, as fractions.
const QS: [f64; 7] = [0.0, 0.01, 0.25, 0.5, 0.95, 0.99, 1.0];

/// Asserts every quantile in [`QS`] is within 2⁻⁸ of the exact percentile
/// (plus float-rounding slack from the interpolation).
fn assert_bounded(label: &str, samples: &[f64]) {
    let h: Histogram = samples.iter().copied().collect();
    let mut d: Distribution = samples.iter().copied().collect();
    for q in QS {
        let (got, exact) = (h.quantile(q), d.percentile_mut(q * 100.0));
        let tol = exact / 256.0 + exact * 1e-12;
        assert!(
            (got - exact).abs() <= tol,
            "{label} q={q}: histogram {got} vs exact {exact} (tol {tol}, n={})",
            samples.len()
        );
    }
}

#[test]
fn constant_stream_is_exact() {
    let h: Histogram = std::iter::repeat_n(42.5, 10_000).collect();
    // Every order statistic clamps onto the constant: exact equality, not
    // tolerance.
    for q in QS {
        assert_eq!(h.quantile(q), 42.5, "q={q}");
    }
    assert_eq!((h.min(), h.max(), h.count()), (42.5, 42.5, 10_000));
}

#[test]
fn bimodal_mixture_matches_exact_percentiles() {
    // Two well-separated normal-ish lobes: 70% around 10, 30% around 100.
    // The median sits inside the left lobe, p95/p99 inside the right.
    let mut rng = SeedTree::new(2026).stream("bimodal");
    let samples: Vec<f64> = (0..50_000)
        .map(|_| {
            if rng.gen::<f64>() < 0.7 {
                lognormal_mean_cv(&mut rng, 10.0, 0.1)
            } else {
                lognormal_mean_cv(&mut rng, 100.0, 0.05)
            }
        })
        .collect();
    assert_bounded("bimodal", &samples);
}

#[test]
fn heavy_tail_matches_exact_percentiles() {
    // Lognormal with cv=2: the p99 is ~8x the median and the max is far
    // beyond it.
    let mut rng = SeedTree::new(7).stream("heavy");
    let samples: Vec<f64> = (0..50_000)
        .map(|_| lognormal_mean_cv(&mut rng, 50.0, 2.0))
        .collect();
    assert_bounded("heavy", &samples);
}

#[test]
fn exponential_interarrivals_match_exact_percentiles() {
    // The arrival process's own distribution: memoryless with mode at zero,
    // so the low quantiles live where density is steepest.
    let mut rng = SeedTree::new(11).stream("exp");
    let samples: Vec<f64> = (0..50_000).map(|_| exponential(&mut rng, 3.0)).collect();
    assert_bounded("exp", &samples);
}

#[test]
fn small_stream_tails_track_exact_percentiles() {
    // Every prefix from a single sample up: interpolation between two or
    // three order statistics is where a sketch's small-n read goes wrong.
    let feed: Vec<f64> = (1..=40).map(|i| ((i * 17) % 40) as f64 + 0.5).collect();
    for n in 1..=feed.len() {
        assert_bounded(&format!("prefix n={n}"), &feed[..n]);
    }
}

#[test]
fn sorted_and_reversed_feeds_stay_bounded() {
    let asc: Vec<f64> = (0..20_000).map(|i| i as f64).collect();
    let desc: Vec<f64> = asc.iter().rev().copied().collect();
    assert_bounded("ascending", &asc);
    assert_bounded("descending", &desc);
}

#[test]
fn empty_histogram_reads_zero() {
    let h = Histogram::new();
    assert!(h.is_empty());
    assert_eq!(h.count(), 0);
    for q in QS {
        assert_eq!(h.quantile(q), 0.0);
    }
    assert_eq!(
        (h.p50(), h.p95(), h.p99(), h.min(), h.max()),
        (0.0, 0.0, 0.0, 0.0, 0.0)
    );
    let mut merged = Histogram::new();
    merged.merge(&h);
    assert_eq!(merged, h);
}

#[test]
fn quantile_outside_unit_interval_panics() {
    let h: Histogram = [1.0, 2.0].into_iter().collect();
    for q in [-0.01, 1.01, f64::NAN] {
        let caught = std::panic::catch_unwind(|| h.quantile(q));
        assert!(caught.is_err(), "read quantile {q} without panicking");
    }
}

/// A sample drawn to hit zeros and exact repeats as well as a wide range
/// of normal values (no subnormals: the bound covers normal values only).
fn sample() -> impl Strategy<Value = f64> {
    (0u8..4, 1e-3f64..1e6).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => 7.25,
        2 => x.round(),
        _ => x,
    })
}

proptest! {
    /// Zeros, repeats and six decades of spread: every quantile stays
    /// within the bound.
    #[test]
    fn bound_holds_with_zeros_and_repeats(xs in prop::collection::vec(sample(), 1..300)) {
        assert_bounded(&format!("{xs:?}"), &xs);
    }

    /// Any permutation of a stream, and any split of it merged in reverse
    /// order, equals one pass over the stream.
    #[test]
    fn permutations_and_split_merges_are_equal(
        keyed in prop::collection::vec((sample(), any::<u64>()), 1..300),
        cuts in prop::collection::vec(0usize..300, 0..5),
    ) {
        let xs: Vec<f64> = keyed.iter().map(|&(x, _)| x).collect();
        let whole: Histogram = xs.iter().copied().collect();
        let mut shuffled = keyed.clone();
        shuffled.sort_by_key(|&(_, k)| k);
        let permuted: Histogram = shuffled.iter().map(|&(x, _)| x).collect();
        prop_assert_eq!(&permuted, &whole);

        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (xs.len() + 1)).collect();
        bounds.extend([0, xs.len()]);
        bounds.sort_unstable();
        let mut merged = Histogram::new();
        for w in bounds.windows(2).rev() {
            merged.merge(&xs[w[0]..w[1]].iter().copied().collect());
        }
        prop_assert_eq!(&merged, &whole);
        for q in QS {
            prop_assert_eq!(merged.quantile(q).to_bits(), whole.quantile(q).to_bits());
        }
    }

    /// Count, min and max are exact, and the read quantiles are ordered
    /// inside them.
    #[test]
    fn min_max_and_count_are_exact(xs in prop::collection::vec(sample(), 1..300)) {
        let h: Histogram = xs.iter().copied().collect();
        prop_assert_eq!(h.count(), xs.len() as u64);
        prop_assert_eq!(h.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(h.max(), xs.iter().copied().fold(0.0, f64::max));
        prop_assert!(h.min() <= h.p50() && h.p50() <= h.p95());
        prop_assert!(h.p95() <= h.p99() && h.p99() <= h.max());
    }

    /// A constant stream reads back bit-for-bit at every quantile.
    #[test]
    fn constant_stream_reads_back_bit_for_bit(c in 0.0f64..1e12, n in 1usize..2000) {
        let h: Histogram = std::iter::repeat_n(c, n).collect();
        for q in QS {
            prop_assert_eq!(h.quantile(q).to_bits(), c.to_bits());
        }
    }

    /// NaN, ±infinity and any negative value panic, even after valid
    /// records.
    #[test]
    fn rejects_nan_infinities_and_negatives(
        xs in prop::collection::vec(sample(), 0..20),
        kind in 0usize..4,
        magnitude in 1e-9f64..1e9,
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -magnitude][kind];
        let mut h: Histogram = xs.into_iter().collect();
        prop_assert!(
            std::panic::catch_unwind(move || h.record(bad)).is_err(),
            "recorded {} without panicking", bad
        );
    }

    /// `record_n(x, n)` mixed with single records, in any order, equals the
    /// stream with `n` separate `record(x)` calls — signed zeros included.
    #[test]
    fn record_n_equals_repeated_records(
        keyed in prop::collection::vec((sample(), 0u64..6, any::<u64>(), any::<bool>()), 0..120),
    ) {
        let mut repeated = Histogram::new();
        for &(x, n, _, negate) in &keyed {
            let x = if negate && x == 0.0 { -0.0 } else { x };
            for _ in 0..n {
                repeated.record(x);
            }
        }
        let mut shuffled = keyed.clone();
        shuffled.sort_by_key(|&(_, _, k, _)| k);
        let mut weighted = Histogram::new();
        for (i, &(x, n, _, negate)) in shuffled.iter().enumerate() {
            let x = if negate && x == 0.0 { -0.0 } else { x };
            if i % 2 == 0 {
                weighted.record_n(x, n);
            } else {
                for _ in 0..n {
                    weighted.record(x);
                }
            }
        }
        prop_assert_eq!(&weighted, &repeated);
        prop_assert_eq!(weighted.count(), keyed.iter().map(|&(_, n, _, _)| n).sum::<u64>());
        prop_assert_eq!(weighted.min().to_bits(), repeated.min().to_bits());
    }

    /// A zero weight leaves any histogram unchanged; an empty one still
    /// reads 0 for min and max.
    #[test]
    fn record_n_with_zero_weight_changes_nothing(
        xs in prop::collection::vec(sample(), 0..20),
        x in sample(),
    ) {
        let before: Histogram = xs.into_iter().collect();
        let mut after = before.clone();
        after.record_n(x, 0);
        after.record_n(-0.0, 0);
        prop_assert_eq!(&after, &before);
        if before.is_empty() {
            prop_assert_eq!((after.min(), after.max(), after.count()), (0.0, 0.0, 0));
        }
    }

    /// NaN, ±infinity and negative values panic in `record_n` for every
    /// weight, zero included.
    #[test]
    fn record_n_rejects_bad_values_even_with_zero_weight(
        xs in prop::collection::vec(sample(), 0..20),
        kind in 0usize..4,
        magnitude in 1e-9f64..1e9,
        n in 1u64..1000,
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -magnitude][kind];
        let h: Histogram = xs.into_iter().collect();
        for weight in [0, n] {
            let mut h = h.clone();
            prop_assert!(
                std::panic::catch_unwind(move || h.record_n(bad, weight)).is_err(),
                "recorded {} x{} without panicking", bad, weight
            );
        }
    }
}
