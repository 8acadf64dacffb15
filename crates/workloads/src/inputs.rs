//! Seeded input generation shared by the benchmark analogs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The deterministic RNG used by all input generators.
///
/// Every benchmark input is a pure function of `(benchmark, seed)`, so
/// experiments are exactly reproducible and train/evaluate splits are
/// just different seeds.
#[derive(Debug)]
pub(crate) struct InputRng(StdRng);

impl InputRng {
    /// Creates a generator from a seed, domain-separated by the
    /// benchmark name so two benchmarks never share a stream.
    pub(crate) fn new(benchmark: &str, seed: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in benchmark.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        InputRng(StdRng::seed_from_u64(h ^ seed))
    }

    /// A uniform value in `[lo, hi)`.
    pub(crate) fn range(&mut self, lo: i64, hi: i64) -> i64 {
        self.0.gen_range(lo..hi)
    }

    /// A biased coin: true with probability `p`.
    pub(crate) fn coin(&mut self, p: f64) -> bool {
        self.0.gen_bool(p.clamp(0.0, 1.0))
    }
}

/// `len` uniform values in `[lo, hi)`.
pub(crate) fn uniform(rng: &mut InputRng, len: usize, lo: i64, hi: i64) -> Vec<i64> {
    (0..len).map(|_| rng.range(lo, hi)).collect()
}

/// Run-structured data: values alternate between two regimes
/// (`[0, split)` and `[split, hi)`) in geometric runs of mean length
/// `mean_run` — the compressible/incompressible texture of gzip-like
/// inputs, and the source of strong short-term branch correlation.
pub(crate) fn run_structured(
    rng: &mut InputRng,
    len: usize,
    split: i64,
    hi: i64,
    mean_run: f64,
) -> Vec<i64> {
    let mut out = Vec::with_capacity(len);
    let mut low_regime = rng.coin(0.5);
    let flip_p = 1.0 / mean_run.max(1.0);
    for _ in 0..len {
        if rng.coin(flip_p) {
            low_regime = !low_regime;
        }
        let v = if low_regime {
            rng.range(0, split)
        } else {
            rng.range(split, hi)
        };
        out.push(v);
    }
    out
}

/// A first-order Markov symbol stream over `symbols` states: with
/// probability `stay`, the next symbol repeats a deterministic successor
/// of the previous one (`(prev * 3 + 1) % symbols`); otherwise it is
/// uniform. This produces the bigram-correlated opcode streams that
/// global-history predictors exploit.
pub(crate) fn markov_stream(rng: &mut InputRng, len: usize, symbols: i64, stay: f64) -> Vec<i64> {
    let mut out = Vec::with_capacity(len);
    let mut prev = rng.range(0, symbols);
    for _ in 0..len {
        let next = if rng.coin(stay) {
            (prev * 3 + 1) % symbols
        } else {
            rng.range(0, symbols)
        };
        out.push(next);
        prev = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_benchmark_and_seed() {
        let mut a = InputRng::new("gzip", 7);
        let mut b = InputRng::new("gzip", 7);
        let va: Vec<i64> = (0..10).map(|_| a.range(0, 1000)).collect();
        let vb: Vec<i64> = (0..10).map(|_| b.range(0, 1000)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn rng_domain_separates_benchmarks() {
        let mut a = InputRng::new("gzip", 7);
        let mut b = InputRng::new("vpr", 7);
        let va: Vec<i64> = (0..10).map(|_| a.range(0, 1000)).collect();
        let vb: Vec<i64> = (0..10).map(|_| b.range(0, 1000)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn seeds_differ() {
        let mut a = InputRng::new("gzip", 1);
        let mut b = InputRng::new("gzip", 2);
        let va: Vec<i64> = (0..10).map(|_| a.range(0, 1000)).collect();
        let vb: Vec<i64> = (0..10).map(|_| b.range(0, 1000)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = InputRng::new("t", 0);
        let v = uniform(&mut rng, 1000, -5, 5);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&x| (-5..5).contains(&x)));
    }

    #[test]
    fn run_structured_has_long_runs() {
        let mut rng = InputRng::new("t", 1);
        let v = run_structured(&mut rng, 4000, 100, 200, 16.0);
        // count regime transitions; with mean run 16 expect ~250, far
        // fewer than the ~2000 of unstructured data
        let transitions = v
            .windows(2)
            .filter(|w| (w[0] < 100) != (w[1] < 100))
            .count();
        assert!(transitions < 700, "transitions = {transitions}");
        assert!(transitions > 50, "degenerate run structure");
    }

    #[test]
    fn markov_stream_is_bigram_biased() {
        let mut rng = InputRng::new("t", 2);
        let v = markov_stream(&mut rng, 4000, 8, 0.8);
        let follows = v.windows(2).filter(|w| w[1] == (w[0] * 3 + 1) % 8).count();
        // ~80% deterministic successor (+ chance hits)
        assert!(follows > 3000, "follows = {follows}");
        assert!(v.iter().all(|&s| (0..8).contains(&s)));
    }

    #[test]
    fn coin_probability_roughly_respected() {
        let mut rng = InputRng::new("t", 3);
        let heads = (0..10_000).filter(|_| rng.coin(0.1)).count();
        assert!((500..1500).contains(&heads), "heads = {heads}");
    }
}
