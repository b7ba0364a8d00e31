//! Admission control for the shared worker pool.
//!
//! The serve daemon (and any other multi-conversation frontend) runs many
//! request handlers against **one** machine's worth of cores. Each handler
//! that reaches its compute path wants the whole worker pool; N
//! handlers computing at once would oversubscribe it N-fold and turn every
//! request's latency into the convoy of all of them. [`AdmissionControl`]
//! is the gate in front of the pool: a counting semaphore with a *bounded
//! wait queue*, so a burst beyond `max_in_flight + max_queue` fails fast
//! with a typed [`Busy`] answer instead of stacking unbounded waiters.
//!
//! Shape of the contract:
//!
//! * [`AdmissionControl::admit`] either returns an [`AdmissionPermit`]
//!   (possibly after waiting in the bounded queue) or [`Busy`] with the
//!   observed depth, **never** blocks beyond the queue bound, and never
//!   poisons: a panicking permit holder releases its slot on unwind
//!   because release lives in [`Drop`].
//! * Fairness is the condvar's (FIFO-ish on Linux futexes); what the type
//!   guarantees is *bounded occupancy*: at most `max_in_flight` permits
//!   out, at most `max_queue` callers parked.
//! * Cache hits should bypass admission entirely — the gate prices
//!   compute, not lookups.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// The answer a caller gets when both the pool and the wait queue are
/// full: a snapshot of the depths, for a typed "busy" response upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    /// Permits out when the caller was turned away.
    pub in_flight: usize,
    /// Callers already parked in the wait queue.
    pub queued: usize,
}

/// Cumulative admission counters (monotonic, lock-free reads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    /// Permits granted (immediately or after queueing).
    pub admitted: u64,
    /// Callers that had to park before being admitted.
    pub queued: u64,
    /// Callers turned away with [`Busy`].
    pub rejected: u64,
}

#[derive(Debug, Default)]
struct Gate {
    in_flight: usize,
    waiting: usize,
}

/// A counting semaphore with a bounded wait queue in front of the shared
/// worker pool. See the [module docs](self) for the contract.
#[derive(Debug)]
pub struct AdmissionControl {
    gate: Mutex<Gate>,
    freed: Condvar,
    max_in_flight: usize,
    max_queue: usize,
    admitted: AtomicU64,
    queued: AtomicU64,
    rejected: AtomicU64,
}

fn lock_gate<'a>(m: &'a Mutex<Gate>) -> MutexGuard<'a, Gate> {
    // Poison tolerance: the only writes under this lock are counter
    // increments/decrements; a panicking waiter leaves consistent state.
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl AdmissionControl {
    /// A gate allowing `max_in_flight` concurrent permits (clamped to at
    /// least 1) and parking at most `max_queue` further callers.
    pub fn new(max_in_flight: usize, max_queue: usize) -> AdmissionControl {
        AdmissionControl {
            gate: Mutex::new(Gate::default()),
            freed: Condvar::new(),
            max_in_flight: max_in_flight.max(1),
            max_queue,
            admitted: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Acquires a permit, parking in the bounded queue if the pool is
    /// full; returns [`Busy`] if the queue is full too. The permit frees
    /// its slot when dropped (including on unwind).
    pub fn admit(&self) -> Result<AdmissionPermit<'_>, Busy> {
        let mut gate = lock_gate(&self.gate);
        if gate.in_flight < self.max_in_flight {
            gate.in_flight += 1;
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(AdmissionPermit { ctl: self });
        }
        if gate.waiting >= self.max_queue {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Busy { in_flight: gate.in_flight, queued: gate.waiting });
        }
        gate.waiting += 1;
        self.queued.fetch_add(1, Ordering::Relaxed);
        while gate.in_flight >= self.max_in_flight {
            gate = self
                .freed
                .wait(gate)
                .unwrap_or_else(|poison| poison.into_inner());
        }
        gate.waiting -= 1;
        gate.in_flight += 1;
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(AdmissionPermit { ctl: self })
    }

    /// Permits currently out.
    pub fn in_flight(&self) -> usize {
        lock_gate(&self.gate).in_flight
    }

    /// Callers currently parked in the wait queue.
    pub fn queued(&self) -> usize {
        lock_gate(&self.gate).waiting
    }

    /// The concurrency bound this gate enforces.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// The wait-queue bound this gate enforces.
    pub fn max_queue(&self) -> usize {
        self.max_queue
    }

    /// Cumulative counters (monotonic snapshot).
    pub fn counters(&self) -> AdmissionCounters {
        AdmissionCounters {
            admitted: self.admitted.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    fn release(&self) {
        let mut gate = lock_gate(&self.gate);
        gate.in_flight = gate.in_flight.saturating_sub(1);
        drop(gate);
        self.freed.notify_one();
    }
}

/// An outstanding admission slot; dropping it (normally or on unwind)
/// frees the slot and wakes one parked waiter.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    ctl: &'a AdmissionControl,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.ctl.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn admits_up_to_the_bound_and_rejects_past_the_queue() {
        let gate = AdmissionControl::new(2, 0);
        let a = gate.admit().expect("first permit");
        let b = gate.admit().expect("second permit");
        assert_eq!(gate.in_flight(), 2);
        let busy = gate.admit().expect_err("third caller is turned away");
        assert_eq!(busy, Busy { in_flight: 2, queued: 0 });
        drop(a);
        let _c = gate.admit().expect("freed slot re-admits");
        drop(b);
        let counters = gate.counters();
        assert_eq!((counters.admitted, counters.rejected), (3, 1));
    }

    #[test]
    fn dropping_a_permit_on_unwind_still_releases() {
        let gate = AdmissionControl::new(1, 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = gate.admit().expect("permit");
            panic!("deliberate test sabotage");
        }));
        assert!(result.is_err());
        assert_eq!(gate.in_flight(), 0, "unwind released the slot");
        let _again = gate.admit().expect("slot reusable after unwind");
    }

    #[test]
    fn queued_caller_runs_after_the_holder_releases() {
        let gate = AdmissionControl::new(1, 4);
        let order = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let permit = gate.admit().expect("holder");
            let waiter = scope.spawn(|| {
                let _p = gate.admit().expect("queued caller admitted");
                order.fetch_add(1, Ordering::SeqCst)
            });
            // Let the waiter park, then free the slot.
            while gate.queued() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(order.load(Ordering::SeqCst), 0, "waiter is parked");
            drop(permit);
            let slot = waiter.join().expect("waiter finishes");
            assert_eq!(slot, 0);
        });
        assert_eq!(gate.counters().queued, 1);
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn zero_bounds_clamp_to_a_usable_gate() {
        let gate = AdmissionControl::new(0, 0);
        assert_eq!(gate.max_in_flight(), 1);
        let permit = gate.admit().expect("clamped gate still admits one");
        assert!(gate.admit().is_err());
        drop(permit);
    }
}
