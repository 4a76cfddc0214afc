//! Depth-bounded FIFO.
//!
//! Models the hardware FIFOs of VEDA: the 4096×16-bit s' FIFO of the voting
//! engine and the 32×16-bit tile FIFO of the SFU (Table I). Push on a full
//! FIFO is an error — in hardware this is a stall condition the scheduler
//! must avoid, and the cycle model asserts it never happens.

/// Error returned when pushing to a full FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoFullError {
    /// The configured depth that was exceeded.
    pub depth: usize,
}

impl std::fmt::Display for FifoFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fifo full at depth {}", self.depth)
    }
}

impl std::error::Error for FifoFullError {}

/// A bounded FIFO.
///
/// ```
/// use veda_mem::Fifo;
/// let mut f: Fifo<u16> = Fifo::new(2);
/// f.push(1)?;
/// f.push(2)?;
/// assert!(f.push(3).is_err());
/// assert_eq!(f.pop(), Some(1));
/// # Ok::<(), veda_mem::fifo::FifoFullError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    depth: usize,
    items: std::collections::VecDeque<T>,
}

impl<T> Fifo<T> {
    /// Creates a FIFO with the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "fifo depth must be positive");
        Self { depth, items: std::collections::VecDeque::with_capacity(depth) }
    }

    /// Configured depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.depth
    }

    /// Pushes an item.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] when at capacity.
    pub fn push(&mut self, item: T) -> Result<(), FifoFullError> {
        if self.is_full() {
            return Err(FifoFullError { depth: self.depth });
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Pops the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Empties the FIFO.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_ordering() {
        let mut f = Fifo::new(4);
        for i in 0..4 {
            f.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(f.pop(), Some(i));
        }
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn full_push_is_rejected() {
        let mut f = Fifo::new(1);
        f.push('a').unwrap();
        assert!(f.is_full());
        assert_eq!(f.push('b'), Err(FifoFullError { depth: 1 }));
    }

    #[test]
    fn clear_empties() {
        let mut f = Fifo::new(2);
        f.push(1).unwrap();
        f.push(2).unwrap();
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn front_peeks() {
        let mut f = Fifo::new(2);
        f.push(7).unwrap();
        assert_eq!(f.front(), Some(&7));
        assert_eq!(f.len(), 1);
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_panics() {
        let _ = Fifo::<u8>::new(0);
    }
}
