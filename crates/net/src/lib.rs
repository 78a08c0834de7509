//! Event-driven server core: a readiness reactor over nonblocking sockets.
//!
//! This crate is dependency-free (std only) and protocol-agnostic. It exists
//! so the serve front end can hold tens of thousands of keep-alive
//! connections without a thread per socket:
//!
//! * [`sys`] — a tiny `libc`-free FFI shim over `poll(2)` (plus `rlimit`),
//!   with a portable sleep-tick fallback behind the `portable-poll` feature
//!   or on non-unix targets.
//! * [`timer`] — a coarse timer wheel (fixed tick, fixed slot count) for
//!   idle/read/write deadlines. Cancellation is lazy: entries carry a
//!   connection generation and are dropped on expiry if stale.
//! * [`stats`] — atomic counters and gauges surfaced by the embedding
//!   server (accepted/rejected, open and keep-alive connections, poll
//!   wakeups, timer expirations, ...).
//! * [`reactor`] — the event loop itself: single acceptor with an explicit
//!   connection budget (over-budget connections get the protocol's busy
//!   response instead of languishing in the accept queue), per-connection
//!   buffered state machines with incremental framing and pipelining, and
//!   execution handed to a worker pool so the reactor thread never blocks
//!   on request handling. Shutdown drains: in-flight requests finish (up to
//!   a deadline) while idle connections close immediately.
//!
//! The embedding protocol implements [`reactor::Protocol`]: framing over a
//! byte buffer (reporting how many bytes a partial frame still needs, so a
//! request is not re-framed on every read), execution of a frame into
//! response bytes, and canned responses for budget rejection and deadline
//! expiry. The reactor never interprets bytes itself, which is what lets
//! the serve crate answer byte-identically to its in-process request path.

pub mod reactor;
pub mod stats;
pub mod sys;
pub mod timer;

pub use reactor::{Framed, Protocol, Reactor, ReactorOptions, Reply, StopHandle, Waker};
pub use stats::NetStats;
