//! Property tests for the scheduler's determinism contract: for any
//! batch of pure items and any lane count, `par_map` must return
//! exactly what a sequential map would, in the same order.

use proptest::prelude::*;

use predbranch_sweep::par_map;

/// A deliberately order-sensitive pure function (mixes index and seed).
fn cell(seed: u64, index: u64) -> u64 {
    let mut x = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..(index % 7) {
        x = x.rotate_left(13).wrapping_mul(5).wrapping_add(0xe654_6b64);
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_equals_sequential(
        jobs in 1usize..9,
        cells in 0usize..80,
        seed in any::<u64>(),
    ) {
        let sequential: Vec<u64> = (0..cells as u64).map(|i| cell(seed, i)).collect();
        prop_assert_eq!(par_map(jobs, 0..cells as u64, |i| cell(seed, i)), sequential);
    }

    #[test]
    fn repeated_calls_stay_deterministic(
        rounds in 1usize..5,
        seed in any::<u64>(),
    ) {
        let expected: Vec<u64> = (0..32).map(|i| cell(seed, i)).collect();
        for _ in 0..rounds {
            prop_assert_eq!(par_map(4, 0..32, |i| cell(seed, i)), expected.clone());
        }
    }
}
