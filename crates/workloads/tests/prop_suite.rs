//! Suite-wide properties over arbitrary input seeds: every benchmark
//! halts, plain and predicated binaries agree architecturally, and the
//! dynamic branch mix stays within its designed envelope.

use proptest::prelude::*;

use predbranch_sim::{Executor, NullSink};
use predbranch_workloads::{compile_benchmark, suite, CompileOptions, DEFAULT_MAX_INSTRUCTIONS};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every benchmark halts within budget and computes the same memory
    /// image both ways, on arbitrary (not just the canonical) seeds.
    #[test]
    fn plain_and_predicated_agree_on_any_seed(
        seed in 0u64..1_000_000,
        which in 0usize..11,
    ) {
        let bench = &suite()[which];
        let compiled = compile_benchmark(bench, &CompileOptions::default());
        let mut a = Executor::new(&compiled.plain, bench.input(seed));
        let mut b = Executor::new(&compiled.predicated, bench.input(seed));
        let sa = a.run(&mut NullSink, DEFAULT_MAX_INSTRUCTIONS);
        let sb = b.run(&mut NullSink, DEFAULT_MAX_INSTRUCTIONS);
        prop_assert!(sa.halted, "{}: plain did not halt", compiled.name);
        prop_assert!(sb.halted, "{}: predicated did not halt", compiled.name);
        let mut ma: Vec<_> = a.memory().iter().collect();
        let mut mb: Vec<_> = b.memory().iter().collect();
        ma.sort_unstable();
        mb.sort_unstable();
        prop_assert_eq!(ma, mb, "{}: memory diverged", compiled.name);
    }

    /// The predicated binary's dynamic branch mix keeps region branches
    /// present and the taken fraction sane on every seed.
    #[test]
    fn branch_mix_is_stable_across_seeds(
        seed in 0u64..1_000_000,
        which in 0usize..11,
    ) {
        let bench = &suite()[which];
        let compiled = compile_benchmark(bench, &CompileOptions::default());
        let summary = Executor::new(&compiled.predicated, bench.input(seed))
            .run(&mut NullSink, DEFAULT_MAX_INSTRUCTIONS);
        prop_assert!(summary.halted);
        prop_assert!(summary.region_branches > 0, "{}", compiled.name);
        // a taken fraction within 0..=1
        prop_assert!(summary.taken_conditional <= summary.conditional_branches);
    }
}
