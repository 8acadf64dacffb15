//! Word-addressed sparse data memory.

use std::collections::HashMap;

/// A sparse, word-addressed data memory of `i64` values.
///
/// Unwritten addresses read as zero (trap-free semantics matching the
/// rest of the ISA). Addresses are signed so base+offset arithmetic never
/// faults.
///
/// # Examples
///
/// ```
/// use predbranch_sim::Memory;
///
/// let mut mem = Memory::new();
/// assert_eq!(mem.load(100), 0);
/// mem.store(100, -7);
/// assert_eq!(mem.load(100), -7);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Memory {
    words: HashMap<i64, i64>,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Creates a memory pre-loaded with `values` starting at `base`.
    ///
    /// # Examples
    ///
    /// ```
    /// use predbranch_sim::Memory;
    ///
    /// let mem = Memory::from_slice(10, &[1, 2, 3]);
    /// assert_eq!(mem.load(11), 2);
    /// ```
    pub fn from_slice(base: i64, values: &[i64]) -> Self {
        let mut mem = Memory::new();
        for (i, &v) in values.iter().enumerate() {
            mem.store(base.wrapping_add(i as i64), v);
        }
        mem
    }

    /// Reads the word at `addr` (zero if never written).
    pub fn load(&self, addr: i64) -> i64 {
        self.words.get(&addr).copied().unwrap_or(0)
    }

    /// Writes the word at `addr`.
    pub fn store(&mut self, addr: i64, value: i64) {
        if value == 0 {
            // Keep the map sparse; zero is the default.
            self.words.remove(&addr);
        } else {
            self.words.insert(addr, value);
        }
    }

    /// Iterates over `(addr, value)` pairs of non-zero words in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        self.words.iter().map(|(&a, &v)| (a, v))
    }
}

impl FromIterator<(i64, i64)> for Memory {
    fn from_iter<T: IntoIterator<Item = (i64, i64)>>(iter: T) -> Self {
        let mut mem = Memory::new();
        for (a, v) in iter {
            mem.store(a, v);
        }
        mem
    }
}

impl Extend<(i64, i64)> for Memory {
    fn extend<T: IntoIterator<Item = (i64, i64)>>(&mut self, iter: T) {
        for (a, v) in iter {
            self.store(a, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.load(0), 0);
        assert_eq!(mem.load(i64::MIN), 0);
        assert_eq!(mem.load(i64::MAX), 0);
    }

    #[test]
    fn store_then_load() {
        let mut mem = Memory::new();
        mem.store(-5, 42);
        assert_eq!(mem.load(-5), 42);
        mem.store(-5, 43);
        assert_eq!(mem.load(-5), 43);
    }

    #[test]
    fn storing_zero_erases() {
        let mut mem = Memory::new();
        mem.store(1, 9);
        assert_eq!(mem.iter().count(), 1);
        mem.store(1, 0);
        assert_eq!(mem.iter().count(), 0);
        assert_eq!(mem.load(1), 0);
    }

    #[test]
    fn from_slice_lays_out_consecutively() {
        let mem = Memory::from_slice(100, &[5, 0, 7]);
        assert_eq!(mem.load(100), 5);
        assert_eq!(mem.load(101), 0);
        assert_eq!(mem.load(102), 7);
        assert_eq!(mem.iter().count(), 2);
    }

    #[test]
    fn collect_and_extend() {
        let mut mem: Memory = [(1, 10), (2, 20)].into_iter().collect();
        mem.extend([(3, 30)]);
        assert_eq!(mem.load(3), 30);
        let mut pairs: Vec<_> = mem.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn equality_ignores_zero_writes() {
        let mut a = Memory::new();
        a.store(5, 0);
        assert_eq!(a, Memory::new());
    }
}
