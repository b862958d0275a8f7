//! Spare buffers for the largest columns a pipeline copies.
//!
//! A paper pipeline holds its dataset three times in turn: as built, as the
//! corrupted raw parts, and as recovered. At scale 1.0 each copy carries an
//! 8 MB weekly-usage buffer and a 6 MB ticket vector. Freed, such a buffer
//! merges into the free top of glibc's heap, and glibc hands a free top
//! larger than twice the largest chunk it has mapped back to the system, so
//! the next copy faults every page in again. A few emptied buffers kept here
//! stay resident instead. A spare holds no values, only capacity, so which
//! spare a copy gets never shows in what it holds.

use std::sync::{Mutex, PoisonError};

/// At most `N` emptied vectors, kept for reuse.
pub(crate) struct Spares<T, const N: usize> {
    buffers: Mutex<Vec<Vec<T>>>,
}

impl<T, const N: usize> Spares<T, N> {
    pub(crate) const fn new() -> Self {
        Self {
            buffers: Mutex::new(Vec::new()),
        }
    }

    /// The spare with the most capacity, or a new empty vector.
    pub(crate) fn take(&self) -> Vec<T> {
        let mut buffers = self.buffers.lock().unwrap_or_else(PoisonError::into_inner);
        let largest = (0..buffers.len()).max_by_key(|&i| buffers[i].capacity());
        largest.map_or_else(Vec::new, |i| buffers.swap_remove(i))
    }

    /// Keeps `buffer`, emptied, while there is room; frees it otherwise.
    pub(crate) fn keep(&self, mut buffer: Vec<T>) {
        if buffer.capacity() == 0 {
            return;
        }
        buffer.clear();
        let mut buffers = self.buffers.lock().unwrap_or_else(PoisonError::into_inner);
        if buffers.len() < N {
            buffers.push(buffer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spare_comes_back_empty_with_its_capacity() {
        let spares: Spares<u32, 2> = Spares::new();
        assert_eq!(spares.take().capacity(), 0);
        spares.keep(Vec::new());
        spares.keep(vec![1, 2, 3]);
        spares.keep(Vec::with_capacity(64));
        // Full: a third buffer is freed.
        spares.keep(Vec::with_capacity(128));
        let largest = spares.take();
        assert!(largest.is_empty() && largest.capacity() >= 64);
        let next = spares.take();
        assert!(next.is_empty() && next.capacity() >= 3);
        assert_eq!(spares.take().capacity(), 0);
    }
}
