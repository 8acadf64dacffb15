//! Property tests pinning `Histogram` bucketing against a reference
//! model computed in `u128` (where no edge can overflow), with the
//! extremes (`0`, `u64::MAX`, widths near `u64::MAX`) injected
//! explicitly — the saturated bucket-edge cases the fixed arithmetic
//! has to get right live here.

use proptest::prelude::*;

use predbranch_stats::Histogram;

/// The bucket a sample belongs to, computed in u128 so the model itself
/// cannot overflow.
fn reference_index(width: u64, sample: u64) -> u128 {
    u128::from(sample) / u128::from(width)
}

/// Nominal `[lo, hi)` edges of bucket `idx`, in u128.
fn reference_range(width: u64, idx: usize) -> (u128, u128) {
    (
        idx as u128 * u128::from(width),
        (idx as u128 + 1) * u128::from(width),
    )
}

/// Samples biased towards the edges.
fn sample_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(1u64 << 63),
        any::<u64>(),
        0u64..1024,
    ]
}

fn check_against_reference(width: u64, buckets: usize, samples: &[u64]) {
    let mut h = Histogram::linear(buckets, width);
    let mut expected = vec![0u64; buckets];
    let mut expected_overflow = 0u64;
    let mut expected_max = 0u64;
    for &s in samples {
        h.record(s);
        let idx = reference_index(width, s);
        if idx < buckets as u128 {
            expected[idx as usize] += 1;
        } else {
            expected_overflow += 1;
        }
        expected_max = expected_max.max(s);
    }
    for (idx, &want) in expected.iter().enumerate() {
        assert_eq!(h.bucket_count(idx), want, "bucket {idx} at width {width}");
    }
    assert_eq!(h.overflow(), expected_overflow);
    assert_eq!(h.count(), samples.len() as u64);
    assert_eq!(h.max(), expected_max);
    // conservation: every sample is in exactly one bucket or overflow
    let total: u64 = (0..buckets).map(|i| h.bucket_count(i)).sum::<u64>() + h.overflow();
    assert_eq!(total, h.count());
    // reported edges are the nominal u128 edges clamped to u64::MAX
    for idx in 0..buckets {
        let (lo, hi) = h.bucket_range(idx);
        let (ref_lo, ref_hi) = reference_range(width, idx);
        assert_eq!(u128::from(lo), ref_lo.min(u128::from(u64::MAX)), "lo {idx}");
        assert_eq!(u128::from(hi), ref_hi.min(u128::from(u64::MAX)), "hi {idx}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn linear_matches_reference_model(
        buckets in 1usize..40,
        width in prop_oneof![
            1u64..100,
            Just(1u64),
            Just(u64::MAX),
            Just(u64::MAX / 2),
            Just(u64::MAX / 3),
        ],
        samples in proptest::collection::vec(sample_strategy(), 0..200),
    ) {
        check_against_reference(width, buckets, &samples);
    }

    #[test]
    fn cumulative_fraction_is_monotone_and_capped(
        buckets in 1usize..70,
        width in prop_oneof![1u64..100, Just(u64::MAX / 3)],
        samples in proptest::collection::vec(sample_strategy(), 1..100),
    ) {
        let mut h = Histogram::linear(buckets, width);
        for &s in &samples {
            h.record(s);
        }
        let mut prev = 0.0;
        for idx in 0..buckets {
            let f = h.cumulative_fraction(idx);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev);
            prev = f;
        }
    }
}
