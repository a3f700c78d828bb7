//! When each new epoch was first served. Serving threads report every
//! epoch they serve at; the round driver blocks (without polling, so it
//! takes no processor time from them) until the epoch it published shows
//! up.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// First sightings of new epochs.
#[derive(Debug)]
pub struct Adoptions {
    max_seen: AtomicU64,
    seen: Mutex<Vec<(u64, Instant)>>,
    arrived: Condvar,
}

impl Adoptions {
    /// Nothing past `epoch` seen yet.
    pub fn new(epoch: u64) -> Adoptions {
        Adoptions {
            max_seen: AtomicU64::new(epoch),
            seen: Mutex::new(Vec::new()),
            arrived: Condvar::new(),
        }
    }

    /// A decision at `epoch` was served `at`. One atomic load unless the
    /// epoch is new.
    pub fn observe(&self, epoch: u64, at: Instant) {
        if epoch > self.max_seen.load(Ordering::Acquire)
            && self.max_seen.fetch_max(epoch, Ordering::AcqRel) < epoch
        {
            self.seen
                .lock()
                .expect("adoption log poisoned")
                .push((epoch, at));
            self.arrived.notify_all();
        }
    }

    /// When `epoch` (or a later one) was first served, waiting up to
    /// `timeout`; `None` if it never was.
    pub fn wait(&self, epoch: u64, timeout: Duration) -> Option<Instant> {
        let deadline = Instant::now() + timeout;
        let mut seen = self.seen.lock().expect("adoption log poisoned");
        loop {
            if let Some(&(_, at)) = seen.iter().find(|(e, _)| *e >= epoch) {
                seen.clear();
                return Some(at);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            seen = self
                .arrived
                .wait_timeout(seen, left)
                .expect("adoption log poisoned")
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waits_for_the_first_sighting_of_an_epoch() {
        let a = Adoptions::new(3);
        let t = Instant::now();
        a.observe(3, t); // not new
        assert_eq!(a.wait(4, Duration::from_millis(1)), None);
        std::thread::scope(|s| {
            s.spawn(|| a.observe(5, t));
            assert_eq!(a.wait(4, Duration::from_secs(10)), Some(t));
        });
        a.observe(5, Instant::now()); // already seen
        assert_eq!(a.wait(5, Duration::from_millis(1)), None);
    }
}
