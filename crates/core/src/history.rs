//! Global history registers: the classic 64-bit shift register, a
//! segmented register for histories longer than a machine word, and the
//! incrementally folded view of a long history that TAGE-style
//! predictors index with.

use std::fmt;

/// The longest history a one-word shift register holds, in bits: the
/// bound of [`GlobalHistory::new`] and of a [`crate::Local`] predictor's
/// per-branch histories.
pub const MAX_HISTORY_BITS: u32 = u64::BITS;

/// A shift register of recent branch (and, under PGU, predicate)
/// outcomes, up to [`MAX_HISTORY_BITS`].
///
/// Bit 0 is the most recent outcome.
///
/// # Examples
///
/// ```
/// use predbranch_core::GlobalHistory;
///
/// let mut h = GlobalHistory::new(4);
/// h.shift_in(true);
/// h.shift_in(false);
/// h.shift_in(true);
/// assert_eq!(h.value(), 0b101);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalHistory {
    bits: u64,
    len: u32,
}

impl GlobalHistory {
    /// Creates an all-zero history of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or greater than [`MAX_HISTORY_BITS`].
    pub fn new(len: u32) -> Self {
        assert!(
            (1..=MAX_HISTORY_BITS).contains(&len),
            "history length must be 1..={MAX_HISTORY_BITS}"
        );
        GlobalHistory { bits: 0, len }
    }

    /// Number of history bits.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the register currently holds all zeros.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Shifts one outcome in (most recent at bit 0).
    pub fn shift_in(&mut self, outcome: bool) {
        self.bits = ((self.bits << 1) | u64::from(outcome)) & self.mask();
    }

    /// The current history value.
    pub fn value(&self) -> u64 {
        self.bits
    }

    /// The all-ones mask for this history length.
    pub fn mask(&self) -> u64 {
        if self.len == 64 {
            u64::MAX
        } else {
            (1u64 << self.len) - 1
        }
    }

    /// Folds the history down to `bits` bits by XOR, for indexing tables
    /// smaller than the history is long.
    pub fn folded(&self, bits: u32) -> u64 {
        assert!((1..=64).contains(&bits), "fold width must be 1..=64");
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let mut v = self.bits;
        let mut out = 0u64;
        while v != 0 {
            out ^= v & mask;
            v >>= bits;
        }
        out
    }

    /// Clears the history.
    pub fn reset(&mut self) {
        self.bits = 0;
    }

    /// Storage cost in bits.
    pub fn storage_bits(&self) -> usize {
        self.len as usize
    }
}

impl fmt::Display for GlobalHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:0width$b}", self.bits, width = self.len as usize)
    }
}

/// Maximum length of a [`LongHistory`], in bits.
pub const MAX_LONG_HISTORY: u32 = 256;

const LONG_WORDS: usize = (MAX_LONG_HISTORY / 64) as usize;

/// A shift register of recent outcomes longer than a machine word —
/// the global history a TAGE geometric series reads from (its longest
/// table wants far more than [`GlobalHistory`]'s 64-bit cap).
///
/// Bit 0 is the most recent outcome, exactly as in [`GlobalHistory`].
/// The register is a fixed array of words and `Copy`, so speculative
/// predictors can checkpoint it by value and a squash restores it
/// exactly, with no allocation on the hot path.
///
/// # Examples
///
/// ```
/// use predbranch_core::LongHistory;
///
/// let mut h = LongHistory::new(130);
/// h.shift_in(true);
/// h.shift_in(false);
/// assert!(!h.bit(0));
/// assert!(h.bit(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LongHistory {
    words: [u64; LONG_WORDS],
    len: u32,
}

impl LongHistory {
    /// Creates an all-zero history of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or greater than [`MAX_LONG_HISTORY`].
    pub fn new(len: u32) -> Self {
        assert!(
            (1..=MAX_LONG_HISTORY).contains(&len),
            "long history length must be 1..={MAX_LONG_HISTORY}"
        );
        LongHistory {
            words: [0; LONG_WORDS],
            len,
        }
    }

    /// Number of history bits.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the register currently holds all zeros.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Shifts one outcome in (most recent at bit 0), dropping the bit
    /// that ages out past `len`.
    pub fn shift_in(&mut self, outcome: bool) {
        let mut carry = u64::from(outcome);
        for word in &mut self.words {
            let next = *word >> 63;
            *word = (*word << 1) | carry;
            carry = next;
        }
        self.trim();
    }

    /// Zeroes every bit at position `len` and beyond.
    fn trim(&mut self) {
        let full = (self.len / 64) as usize;
        let rem = self.len % 64;
        if rem != 0 {
            self.words[full] &= (1u64 << rem) - 1;
        }
        for word in &mut self.words[(full + usize::from(rem != 0))..] {
            *word = 0;
        }
    }

    /// The outcome `k` steps ago (`k = 0` is the most recent).
    ///
    /// # Panics
    ///
    /// Panics if `k >= len`.
    pub fn bit(&self, k: u32) -> bool {
        assert!(k < self.len, "history bit {k} out of range");
        (self.words[(k / 64) as usize] >> (k % 64)) & 1 == 1
    }

    /// Clears the history.
    pub fn reset(&mut self) {
        self.words = [0; LONG_WORDS];
    }

    /// Storage cost in bits.
    pub fn storage_bits(&self) -> usize {
        self.len as usize
    }
}

/// An incrementally maintained XOR-fold of the newest `olen` bits of a
/// [`LongHistory`], compressed to `clen` bits (Seznec's folded history).
///
/// TAGE indexes each tagged table with a fold of a geometrically longer
/// history prefix; recomputing those folds per prediction would cost
/// O(history), so this register maintains each one in O(1) per inserted
/// bit. The invariant (pinned by property test against
/// [`FoldedHistory::recompute`]) is the plain chunk fold: the value
/// always equals the XOR of the window's consecutive `clen`-bit chunks.
///
/// The update must see the bit *leaving* the window, so call
/// [`FoldedHistory::update`] with the pre-shift history, then shift the
/// [`LongHistory`] itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FoldedHistory {
    comp: u64,
    olen: u32,
    clen: u32,
    outpoint: u32,
}

impl FoldedHistory {
    /// Creates the all-zero fold of an `olen`-bit window down to `clen`
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `clen` is outside `1..=32` or `olen` is 0 or greater
    /// than [`MAX_LONG_HISTORY`].
    pub fn new(olen: u32, clen: u32) -> Self {
        assert!((1..=32).contains(&clen), "fold width must be 1..=32");
        assert!(
            (1..=MAX_LONG_HISTORY).contains(&olen),
            "folded window must be 1..={MAX_LONG_HISTORY} bits"
        );
        FoldedHistory {
            comp: 0,
            olen,
            clen,
            outpoint: olen % clen,
        }
    }

    /// The current folded value (`clen` bits).
    pub fn value(&self) -> u64 {
        self.comp
    }

    fn mask(&self) -> u64 {
        (1u64 << self.clen) - 1
    }

    /// Advances the fold for one inserted bit. `history` must be the
    /// *pre-shift* register (the update reads the bit about to age out
    /// of the window); shift the [`LongHistory`] after calling this.
    ///
    /// # Panics
    ///
    /// Panics if the register is shorter than the folded window — bits
    /// would then age out of the register before the fold could remove
    /// them, silently corrupting the fold.
    pub fn update(&mut self, history: &LongHistory, inserted: bool) {
        assert!(
            self.olen <= history.len(),
            "folded window longer than the history register"
        );
        let outgoing = history.bit(self.olen - 1);
        self.comp = (self.comp << 1) | u64::from(inserted);
        self.comp ^= u64::from(outgoing) << self.outpoint;
        self.comp ^= self.comp >> self.clen;
        self.comp &= self.mask();
    }

    /// Recomputes the fold from scratch — the specification
    /// [`FoldedHistory::update`] maintains incrementally, used by the
    /// property tests as an independent oracle.
    pub fn recompute(&self, history: &LongHistory) -> u64 {
        let mut folded = 0u64;
        for k in 0..self.olen.min(history.len()) {
            if history.bit(k) {
                folded ^= 1 << (k % self.clen);
            }
        }
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_keeps_len_bits() {
        let mut h = GlobalHistory::new(3);
        for _ in 0..10 {
            h.shift_in(true);
        }
        assert_eq!(h.value(), 0b111);
    }

    #[test]
    fn most_recent_is_bit_zero() {
        let mut h = GlobalHistory::new(8);
        h.shift_in(true);
        h.shift_in(false);
        assert_eq!(h.value() & 1, 0);
        assert_eq!((h.value() >> 1) & 1, 1);
    }

    #[test]
    fn full_width_history() {
        let mut h = GlobalHistory::new(64);
        h.shift_in(true);
        assert_eq!(h.value(), 1);
        assert_eq!(h.mask(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "history length")]
    fn zero_length_rejected() {
        let _ = GlobalHistory::new(0);
    }

    #[test]
    #[should_panic(expected = "history length")]
    fn oversized_rejected() {
        let _ = GlobalHistory::new(65);
    }

    #[test]
    fn folding_xors_chunks() {
        let mut h = GlobalHistory::new(8);
        for bit in [true, false, true, true, false, false, true, false] {
            h.shift_in(bit);
        }
        // bits = 0b10110010
        assert_eq!(h.value(), 0b1011_0010);
        assert_eq!(h.folded(4), 0b1011 ^ 0b0010);
        assert_eq!(h.folded(8), h.value());
        assert_eq!(h.folded(16), h.value());
    }

    #[test]
    fn reset_clears() {
        let mut h = GlobalHistory::new(4);
        h.shift_in(true);
        h.reset();
        assert!(h.is_empty());
    }

    #[test]
    fn display_is_fixed_width_binary() {
        let mut h = GlobalHistory::new(4);
        h.shift_in(true);
        assert_eq!(h.to_string(), "0001");
    }

    #[test]
    fn long_history_crosses_word_boundaries() {
        let mut h = LongHistory::new(200);
        h.shift_in(true);
        for _ in 0..70 {
            h.shift_in(false);
        }
        assert!(h.bit(70), "the set bit migrated into the second word");
        assert!(!h.bit(69));
        assert!(!h.bit(71));
    }

    #[test]
    fn long_history_drops_bits_past_len() {
        let mut h = LongHistory::new(5);
        h.shift_in(true);
        for _ in 0..4 {
            h.shift_in(false);
        }
        assert!(h.bit(4));
        h.shift_in(false);
        assert!(h.is_empty(), "the set bit aged out of a 5-bit register");
    }

    #[test]
    fn long_history_matches_global_history_at_64_bits() {
        let mut long = LongHistory::new(64);
        let mut short = GlobalHistory::new(64);
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let bit = x >> 63 == 1;
            long.shift_in(bit);
            short.shift_in(bit);
        }
        for k in 0..64 {
            assert_eq!(long.bit(k), (short.value() >> k) & 1 == 1);
        }
    }

    #[test]
    #[should_panic(expected = "long history length")]
    fn long_history_oversized_rejected() {
        let _ = LongHistory::new(MAX_LONG_HISTORY + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn long_history_bit_out_of_range_rejected() {
        let _ = LongHistory::new(8).bit(8);
    }

    #[test]
    #[should_panic(expected = "folded window longer")]
    fn fold_over_short_register_rejected() {
        let mut fold = FoldedHistory::new(16, 4);
        fold.update(&LongHistory::new(8), true);
    }

    #[test]
    fn fold_window_shorter_than_width_is_verbatim() {
        let mut hist = LongHistory::new(64);
        let mut fold = FoldedHistory::new(3, 8);
        for bit in [true, false, true] {
            fold.update(&hist, bit);
            hist.shift_in(bit);
        }
        assert_eq!(fold.value(), 0b101);
        // a fourth insert pushes the oldest of the 3-bit window out
        fold.update(&hist, false);
        hist.shift_in(false);
        assert_eq!(fold.value(), 0b010);
    }

    mod folded_props {
        use super::*;
        use proptest::prelude::*;

        /// One step of a speculative-history life: insert a bit,
        /// checkpoint, or roll back to the checkpoint (squash).
        #[derive(Debug, Clone, Copy)]
        enum Op {
            Insert(bool),
            Snapshot,
            Restore,
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                any::<bool>().prop_map(Op::Insert),
                any::<bool>().prop_map(Op::Insert),
                Just(Op::Snapshot),
                Just(Op::Restore),
            ]
        }

        proptest! {
            /// Satellite invariant: the O(1) fold update stays equal to
            /// a from-scratch recompute under arbitrary insert /
            /// snapshot / restore (squash) sequences, for folds of
            /// several widths over several window lengths.
            #[test]
            fn fold_update_equals_recompute(
                len in 1u32..=MAX_LONG_HISTORY,
                ops in prop::collection::vec(arb_op(), 1..200),
            ) {
                let mut hist = LongHistory::new(len);
                let mut folds: Vec<FoldedHistory> = [
                    (1, 1),
                    (len, 32.min(len)),
                    (len, 11.min(len)),
                    (len.div_ceil(2), 7.min(len)),
                    (len.div_ceil(3), 3.min(len)),
                ]
                .iter()
                .map(|&(olen, clen)| FoldedHistory::new(olen, clen))
                .collect();
                let mut saved = (hist, folds.clone());
                for op in ops {
                    match op {
                        Op::Insert(bit) => {
                            for fold in &mut folds {
                                fold.update(&hist, bit);
                            }
                            hist.shift_in(bit);
                        }
                        Op::Snapshot => saved = (hist, folds.clone()),
                        Op::Restore => (hist, folds) = saved.clone(),
                    }
                    for fold in &folds {
                        prop_assert_eq!(fold.value(), fold.recompute(&hist));
                    }
                }
            }
        }
    }
}
