//! A counting semaphore bounding the number of in-flight chunks.
//!
//! The streaming pipeline acquires one permit per chunk when the reader
//! flushes it, and the worker releases the permit once it has run the
//! chunk. The permit count is therefore a hard ceiling on how many chunks
//! exist anywhere past the reader — input queues and worker hands
//! combined — which is what makes the pipeline's memory bound independent
//! of trace length.

use std::sync::{Condvar, Mutex};

/// A counting semaphore with blocking acquire.
pub struct Semaphore {
    permits: Mutex<usize>,
    available: Condvar,
}

impl Semaphore {
    /// A semaphore starting with `permits` permits (minimum 1).
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            permits: Mutex::new(permits.max(1)),
            available: Condvar::new(),
        }
    }

    /// Takes one permit, blocking until one is available.
    pub fn acquire(&self) {
        let mut permits = self.permits.lock().expect("semaphore lock");
        while *permits == 0 {
            permits = self.available.wait(permits).expect("semaphore lock");
        }
        *permits -= 1;
    }

    /// Returns one permit, waking one blocked acquirer.
    pub fn release(&self) {
        let mut permits = self.permits.lock().expect("semaphore lock");
        *permits += 1;
        drop(permits);
        self.available.notify_one();
    }

    /// Permits currently available (racy — monitoring only).
    pub fn available(&self) -> usize {
        *self.permits.lock().expect("semaphore lock")
    }
}

impl std::fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Semaphore")
            .field("available", &self.available())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn acquire_release_round_trip() {
        let sem = Semaphore::new(2);
        sem.acquire();
        sem.acquire();
        assert_eq!(sem.available(), 0);
        sem.release();
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn acquire_blocks_until_release() {
        let sem = Semaphore::new(1);
        sem.acquire();
        let entered = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                sem.acquire();
                entered.store(1, Ordering::SeqCst);
                sem.release();
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(entered.load(Ordering::SeqCst), 0);
            sem.release();
        });
        assert_eq!(entered.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn bounds_concurrent_holders() {
        let sem = Semaphore::new(3);
        let holding = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        sem.acquire();
                        let now = holding.fetch_add(1, Ordering::SeqCst) + 1;
                        assert!(now <= 3, "{now} holders");
                        holding.fetch_sub(1, Ordering::SeqCst);
                        sem.release();
                    }
                });
            }
        });
    }

    #[test]
    fn zero_permits_clamped_to_one() {
        let sem = Semaphore::new(0);
        assert_eq!(sem.available(), 1);
    }
}
