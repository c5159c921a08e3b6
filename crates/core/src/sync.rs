//! Tiny concurrency helpers shared by the in-memory caches
//! (`zr_image::ShardedRegistry`, `zr_image::LayerStore`, one lock each)
//! and the build scheduler — one definition of the poison-tolerant
//! locking policy, instead of a copy per call site.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock a mutex, treating poisoning as survivable: the protected data
/// in this workspace is always caches and counters, where a panicking
/// peer's half-finished update is still more useful than cascading the
/// panic.
pub fn lock_or_poisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_or_poisoned_survives_poison() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert_eq!(*lock_or_poisoned(&m), 7);
    }
}
