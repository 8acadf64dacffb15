//! Fixed-capacity ring buffers for the prediction hot path.
//!
//! Every simulated branch pushes and pops checkpoint state: the harness
//! enqueues the branch in its in-flight window, and each speculative
//! predictor checkpoints its history registers. The original
//! implementation used `VecDeque` for all of these, which means a heap
//! allocation the first time each queue is touched, amortized
//! reallocation as it grows, and capacity/wrap bookkeeping tuned for
//! arbitrary sizes. But the depth of every one of these queues is
//! architecturally bounded: the harness force-retires the oldest
//! in-flight branch once [`crate::PredictionHarness`] holds
//! `WINDOW_CAPACITY` (64) of them, so no checkpoint FIFO can ever hold
//! more than 65 entries (the 65th appears for the instant between a
//! `speculate` and the force-retire that makes room for its branch).
//!
//! [`Ring`] exploits that bound: a fixed, power-of-two capacity chosen
//! at compile time, index arithmetic that is a mask instead of a
//! compare-and-wrap, and exactly one allocation for the whole life of
//! the queue (the backing storage, reserved at construction). Pushing
//! beyond the capacity is a logic error upstream — the harness's window
//! invariant was violated — and panics rather than silently growing.

use std::fmt;

/// Capacity of the harness's in-flight branch window (a bounded reorder
/// buffer): when full, the oldest pending branch is force-retired to
/// make room, like a real ROB stalling-then-retiring at capacity. Every
/// per-predictor checkpoint FIFO is sized from this bound via
/// [`checkpoint_capacity`].
pub const WINDOW_CAPACITY: usize = 64;

/// The ring capacity a per-predictor checkpoint FIFO needs to back an
/// in-flight window of `window` branches: `window + 1` entries (the
/// extra slot covers the instant a `speculate` overlaps the force-retire
/// making room for its branch), rounded up to the next power of two so
/// indexing is a mask. `const`, so predictors with their own snapshot
/// rings (the modern tier's TAGE checkpoints are an order of magnitude
/// larger than a gshare history) derive their capacity from the same
/// window bound instead of hard-coding a number that can silently fall
/// behind it.
pub const fn checkpoint_capacity(window: usize) -> usize {
    (window + 1).next_power_of_two()
}

/// Capacity of the per-predictor checkpoint rings, derived from
/// [`WINDOW_CAPACITY`] via [`checkpoint_capacity`].
pub(crate) const CHECKPOINT_CAPACITY: usize = checkpoint_capacity(WINDOW_CAPACITY);

/// A fixed-capacity FIFO ring buffer over `Copy` elements.
///
/// Drop-in replacement for the `push_back` / `pop_front` / `front`
/// subset of `VecDeque` used by the in-flight window and the
/// per-predictor checkpoint FIFOs, with a compile-time power-of-two
/// capacity. Equality and `Debug` are defined over the *logical*
/// contents (front to back), so two rings that hold the same elements
/// compare equal regardless of where their heads sit — predictors that
/// derive `PartialEq` keep their state-comparison semantics.
///
/// # Examples
///
/// ```
/// use predbranch_core::Ring;
///
/// let mut ring: Ring<u32, 8> = Ring::new();
/// ring.push_back(1);
/// ring.push_back(2);
/// assert_eq!(ring.front(), Some(&1));
/// assert_eq!(ring.pop_front(), Some(1));
/// assert_eq!(ring.len(), 1);
/// ```
#[derive(Clone)]
pub struct Ring<T, const CAP: usize> {
    /// Backing storage. Allocated to `CAP` once at construction; its
    /// physical length grows to `CAP` as slots are first written and
    /// never shrinks, so steady-state pushes are pure stores.
    buf: Vec<T>,
    /// Index of the logical front element.
    head: usize,
    /// Number of live elements.
    len: usize,
}

impl<T: Copy, const CAP: usize> Ring<T, CAP> {
    /// Compile-time check that the capacity is a nonzero power of two
    /// (so wrapping is a mask).
    const CAP_IS_POW2: () = assert!(
        CAP.is_power_of_two(),
        "ring capacity must be a power of two"
    );

    /// Creates an empty ring with its full backing storage reserved.
    pub fn new() -> Self {
        // touch the const so an invalid CAP fails at compile time
        #[allow(clippy::let_unit_value)]
        let () = Self::CAP_IS_POW2;
        Ring {
            buf: Vec::with_capacity(CAP),
            head: 0,
            len: 0,
        }
    }

    /// Number of live elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fixed capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        CAP
    }

    /// Appends an element at the back.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full: the queues this type backs are
    /// architecturally bounded, so overflowing one means the caller
    /// broke the speculate/commit balance contract.
    #[inline]
    pub fn push_back(&mut self, value: T) {
        assert!(
            self.len < CAP,
            "ring overflow: more than {CAP} entries in flight"
        );
        let slot = (self.head + self.len) & (CAP - 1);
        if slot == self.buf.len() {
            // first lap: the backing vector is still growing to CAP
            self.buf.push(value);
        } else {
            self.buf[slot] = value;
        }
        self.len += 1;
    }

    /// Removes and returns the front element, or `None` when empty.
    #[inline]
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let value = self.buf[self.head];
        self.head = (self.head + 1) & (CAP - 1);
        self.len -= 1;
        Some(value)
    }

    /// The front (oldest) element, or `None` when empty.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            Some(&self.buf[self.head])
        }
    }

    /// Removes every element.
    #[inline]
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Iterates the logical contents, front to back.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len).map(move |i| &self.buf[(self.head + i) & (CAP - 1)])
    }
}

impl<T: Copy, const CAP: usize> Default for Ring<T, CAP> {
    fn default() -> Self {
        Ring::new()
    }
}

impl<T: Copy + fmt::Debug, const CAP: usize> fmt::Debug for Ring<T, CAP> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Equality over logical contents: same elements in the same order,
/// regardless of head position or physical layout.
impl<T: Copy + PartialEq, const CAP: usize> PartialEq for Ring<T, CAP> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Copy + Eq, const CAP: usize> Eq for Ring<T, CAP> {}

/// The checkpoint FIFO type every speculative predictor uses: a ring
/// sized to the harness's in-flight window bound.
pub type Checkpoints<T> = Ring<T, CHECKPOINT_CAPACITY>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_wraparound() {
        let mut ring: Ring<u32, 4> = Ring::new();
        for lap in 0..5u32 {
            for i in 0..4 {
                ring.push_back(lap * 4 + i);
            }
            for i in 0..4 {
                assert_eq!(ring.front(), Some(&(lap * 4 + i)));
                assert_eq!(ring.pop_front(), Some(lap * 4 + i));
            }
            assert!(ring.is_empty());
            assert_eq!(ring.pop_front(), None);
        }
    }

    #[test]
    fn interleaved_push_pop_never_reorders() {
        let mut ring: Ring<u64, 8> = Ring::new();
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        // push 3 / pop 2 repeatedly so head sweeps the full ring
        for _ in 0..100 {
            for _ in 0..3 {
                if ring.len() < ring.capacity() {
                    ring.push_back(next_in);
                    next_in += 1;
                }
            }
            for _ in 0..2 {
                if let Some(v) = ring.pop_front() {
                    assert_eq!(v, next_out);
                    next_out += 1;
                }
            }
        }
        while let Some(v) = ring.pop_front() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_in, next_out);
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn overflow_panics() {
        let mut ring: Ring<u8, 2> = Ring::new();
        ring.push_back(0);
        ring.push_back(1);
        ring.push_back(2);
    }

    #[test]
    fn equality_ignores_head_position() {
        let mut a: Ring<u8, 4> = Ring::new();
        let mut b: Ring<u8, 4> = Ring::new();
        // advance `a`'s head before filling
        a.push_back(9);
        a.push_back(9);
        a.pop_front();
        a.pop_front();
        for v in [1, 2, 3] {
            a.push_back(v);
            b.push_back(v);
        }
        assert_eq!(a, b);
        b.pop_front();
        assert_ne!(a, b);
    }

    #[test]
    fn debug_renders_logical_contents() {
        let mut ring: Ring<u8, 4> = Ring::new();
        ring.push_back(1);
        ring.push_back(2);
        assert_eq!(format!("{ring:?}"), "[1, 2]");
    }

    #[test]
    fn checkpoint_capacity_covers_window_plus_one() {
        assert_eq!(checkpoint_capacity(WINDOW_CAPACITY), CHECKPOINT_CAPACITY);
        assert_eq!(checkpoint_capacity(64), 128);
        assert_eq!(checkpoint_capacity(63), 64);
        assert_eq!(checkpoint_capacity(1), 2);
        for window in 1..=256 {
            let cap = checkpoint_capacity(window);
            assert!(cap.is_power_of_two());
            assert!(cap > window);
        }
    }

    #[test]
    fn clear_resets() {
        let mut ring: Ring<u8, 4> = Ring::new();
        ring.push_back(1);
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.front(), None);
        // reusable after clear
        ring.push_back(7);
        assert_eq!(ring.pop_front(), Some(7));
    }
}
