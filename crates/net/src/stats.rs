//! Reactor counters, exported by the embedding server (stats doc + metrics).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Atomic counters describing the life of the event loop. All relaxed: these
/// are monitoring signals, not synchronization.
#[derive(Default)]
pub struct NetStats {
    /// Connections accepted into the reactor (within budget).
    pub accepted: AtomicU64,
    /// Connections turned away with the busy response (budget exhausted).
    pub rejected: AtomicU64,
    /// Currently open connections owned by the reactor.
    pub open: AtomicI64,
    /// Currently open connections that have completed a keep-alive
    /// response (parked between requests, or serving a later one).
    pub keepalive: AtomicI64,
    /// Times the poll loop woke up (readiness, waker, or tick timeout).
    pub poll_wakeups: AtomicU64,
    /// Connection deadlines that actually fired (idle/header/write).
    pub timer_expirations: AtomicU64,
    /// Frames handed to the worker pool.
    pub dispatched: AtomicU64,
    /// Frames served inline on the reactor thread (protocol fast path).
    pub inline_served: AtomicU64,
}

impl NetStats {
    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            open: self.open.load(Ordering::Relaxed).max(0) as u64,
            keepalive: self.keepalive.load(Ordering::Relaxed).max(0) as u64,
            poll_wakeups: self.poll_wakeups.load(Ordering::Relaxed),
            timer_expirations: self.timer_expirations.load(Ordering::Relaxed),
            dispatched: self.dispatched.load(Ordering::Relaxed),
            inline_served: self.inline_served.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`NetStats`], convenient for serialization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    pub accepted: u64,
    pub rejected: u64,
    pub open: u64,
    pub keepalive: u64,
    pub poll_wakeups: u64,
    pub timer_expirations: u64,
    pub dispatched: u64,
    pub inline_served: u64,
}
