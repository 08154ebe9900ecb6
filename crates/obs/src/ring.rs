//! The one bounded ring buffer behind the flight recorder and the kernel's
//! syscall audit trace.
//!
//! When full, a push evicts the oldest entry and counts it, so recording
//! never grows memory without bound and silent loss is always visible.

use std::collections::VecDeque;

/// A bounded FIFO of `T` that evicts (and counts) its oldest entry when
/// full.
#[derive(Debug)]
pub struct Ring<T> {
    capacity: usize,
    dropped: u64,
    items: VecDeque<T>,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            capacity: capacity.max(1),
            dropped: 0,
            items: VecDeque::with_capacity(capacity.clamp(1, 4096)),
        }
    }

    /// Appends `item`, evicting the oldest entry if the ring is full.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// The buffered entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Entries evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Entries ever pushed: every push is either still buffered or was
    /// evicted.
    pub fn total_recorded(&self) -> u64 {
        self.dropped + self.items.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_still_keeps_the_newest_entry() {
        let mut r = Ring::new(0);
        r.push('a');
        r.push('b');
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec!['b']);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.total_recorded(), 2);
    }
}
