//! Non-blocking counting semaphore with RAII permits.
//!
//! Built for admission control on the registry HTTP accept loop: the
//! acceptor `try_acquire`s a permit per connection and sheds load (503)
//! when the cap is reached instead of spawning an unbounded thread per
//! socket. Permits release on drop, so a panicking handler still returns
//! its slot.

use crate::lock::Mutex;
use std::sync::Arc;

/// A counting semaphore with a fixed number of permits.
#[derive(Clone)]
pub struct Semaphore {
    available: Arc<Mutex<usize>>,
}

impl Semaphore {
    /// Creates a semaphore with `permits` slots (at least one).
    pub fn new(permits: usize) -> Semaphore {
        Semaphore { available: Arc::new(Mutex::new(permits.max(1))) }
    }

    /// Takes a permit without blocking; `None` when the semaphore is full.
    pub fn try_acquire(&self) -> Option<SemaphorePermit> {
        let mut n = self.available.lock();
        if *n == 0 {
            return None;
        }
        *n -= 1;
        Some(SemaphorePermit { available: Arc::clone(&self.available) })
    }
}

/// RAII permit; dropping it returns the slot.
pub struct SemaphorePermit {
    available: Arc<Mutex<usize>>,
}

impl Drop for SemaphorePermit {
    fn drop(&mut self) {
        *self.available.lock() += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_acquire_respects_cap() {
        let s = Semaphore::new(2);
        let a = s.try_acquire().expect("first");
        let _b = s.try_acquire().expect("second");
        assert!(s.try_acquire().is_none(), "cap is 2");
        drop(a);
        assert!(s.try_acquire().is_some(), "released permit is reusable");
    }

    #[test]
    fn zero_permits_rounds_up_to_one() {
        let s = Semaphore::new(0);
        assert_eq!(*s.available.lock(), 1);
        assert!(s.try_acquire().is_some());
    }
}
