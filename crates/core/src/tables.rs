//! Saturating counters and counter tables.

/// A 2-bit saturating counter: 0–1 predict not-taken, 2–3 predict taken.
///
/// # Examples
///
/// ```
/// use predbranch_core::TwoBitCounter;
///
/// let mut c = TwoBitCounter::weakly_not_taken();
/// assert!(!c.predict());
/// c.update(true);
/// assert!(c.predict()); // 1 → 2: weakly taken
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TwoBitCounter(u8);

impl Default for TwoBitCounter {
    fn default() -> Self {
        Self::weakly_not_taken()
    }
}

impl TwoBitCounter {
    /// Strongly not-taken (0).
    pub fn strongly_not_taken() -> Self {
        TwoBitCounter(0)
    }

    /// Weakly not-taken (1) — the conventional initial state.
    pub fn weakly_not_taken() -> Self {
        TwoBitCounter(1)
    }

    /// Weakly taken (2).
    pub fn weakly_taken() -> Self {
        TwoBitCounter(2)
    }

    /// Strongly taken (3).
    pub fn strongly_taken() -> Self {
        TwoBitCounter(3)
    }

    /// The raw state in `0..=3`.
    pub fn state(&self) -> u8 {
        self.0
    }

    /// The predicted direction.
    pub fn predict(&self) -> bool {
        self.0 >= 2
    }

    /// Trains toward the outcome, saturating at the ends.
    pub fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }

    /// Whether the counter is in a strong state (immune to one
    /// contrarian outcome).
    pub fn is_strong(&self) -> bool {
        self.0 == 0 || self.0 == 3
    }
}

/// The largest `index_bits` a [`CounterTable`] (or any other
/// direct-mapped predictor table) accepts: `2^28` entries.
pub const MAX_TABLE_INDEX_BITS: u32 = 28;

/// A power-of-two table of 2-bit counters, indexed modulo its size.
///
/// # Examples
///
/// ```
/// use predbranch_core::CounterTable;
///
/// let mut t = CounterTable::new(10); // 1024 entries
/// t.update(12345, true);
/// t.update(12345, true);
/// assert!(t.predict(12345));
/// assert_eq!(t.storage_bits(), 2048);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterTable {
    counters: Vec<TwoBitCounter>,
    index_bits: u32,
}

impl CounterTable {
    /// Creates a table with `2^index_bits` counters, all weakly
    /// not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than
    /// [`MAX_TABLE_INDEX_BITS`].
    pub fn new(index_bits: u32) -> Self {
        Self::with_initial(index_bits, TwoBitCounter::default())
    }

    /// Creates a table with every counter set to `initial` (e.g. the
    /// agree predictor initializes to weakly-taken = weakly-agree).
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than
    /// [`MAX_TABLE_INDEX_BITS`].
    pub fn with_initial(index_bits: u32, initial: TwoBitCounter) -> Self {
        assert!(
            (1..=MAX_TABLE_INDEX_BITS).contains(&index_bits),
            "table index bits must be 1..={MAX_TABLE_INDEX_BITS}"
        );
        CounterTable {
            counters: vec![initial; 1 << index_bits],
            index_bits,
        }
    }

    /// Number of index bits.
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.counters.len()
    }

    fn slot(&self, index: u64) -> usize {
        (index & (self.counters.len() as u64 - 1)) as usize
    }

    /// The predicted direction for `index`.
    pub fn predict(&self, index: u64) -> bool {
        self.counters[self.slot(index)].predict()
    }

    /// Trains the counter at `index`.
    pub fn update(&mut self, index: u64, taken: bool) {
        let slot = self.slot(index);
        self.counters[slot].update(taken);
    }

    /// The raw counter at `index`.
    pub fn counter(&self, index: u64) -> TwoBitCounter {
        self.counters[self.slot(index)]
    }

    /// Storage cost: 2 bits per entry.
    pub fn storage_bits(&self) -> usize {
        self.counters.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_both_ends() {
        let mut c = TwoBitCounter::strongly_not_taken();
        c.update(false);
        assert_eq!(c.state(), 0);
        for _ in 0..5 {
            c.update(true);
        }
        assert_eq!(c.state(), 3);
    }

    #[test]
    fn counter_hysteresis() {
        let mut c = TwoBitCounter::strongly_taken();
        c.update(false);
        assert!(c.predict(), "one not-taken must not flip a strong counter");
        c.update(false);
        assert!(!c.predict());
    }

    #[test]
    fn counter_strength() {
        assert!(TwoBitCounter::strongly_taken().is_strong());
        assert!(TwoBitCounter::strongly_not_taken().is_strong());
        assert!(!TwoBitCounter::weakly_taken().is_strong());
        assert!(!TwoBitCounter::weakly_not_taken().is_strong());
    }

    #[test]
    fn table_wraps_indices() {
        let mut t = CounterTable::new(4); // 16 entries
        t.update(3, true);
        t.update(3, true);
        assert!(t.predict(3));
        assert!(t.predict(3 + 16), "aliasing is modulo table size");
        assert!(!t.predict(4));
    }

    #[test]
    fn table_storage_accounting() {
        assert_eq!(CounterTable::new(1).storage_bits(), 4);
        assert_eq!(CounterTable::new(12).storage_bits(), 8192);
        assert_eq!(CounterTable::new(10).entries(), 1024);
    }

    #[test]
    #[should_panic(expected = "index bits")]
    fn zero_bits_rejected() {
        let _ = CounterTable::new(0);
    }

    #[test]
    fn fresh_table_predicts_not_taken() {
        let t = CounterTable::new(6);
        assert!((0..64).all(|i| !t.predict(i)));
    }
}
