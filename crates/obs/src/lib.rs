//! # adds-obs — observability substrate for the ADDS pipeline
//!
//! Two small, dependency-free building blocks, shared by every layer of
//! the workspace (query DB, HTTP server, bytecode VM, CLI):
//!
//! * [`trace`] — a lock-light span recorder. A global atomic gate keeps
//!   the disabled path to one relaxed load; when enabled, each thread
//!   records into its own ring buffer (one uncontended mutex per thread)
//!   with timestamps in microseconds since a global monotonic epoch.
//!   Snapshots render as Chrome `trace_event` JSON (`adds.trace/v1`)
//!   viewable in `chrome://tracing` or Perfetto.
//! * [`metrics`] — atomic [`Counter`](metrics::Counter)s and fixed-bucket
//!   log₂-scale [`Histogram`](metrics::Histogram)s from which p50/p90/p99 are
//!   derivable without locks, plus helpers that render one sample or one
//!   histogram series in the Prometheus text exposition format. Which
//!   metrics a server exports, under which names, is declared once in
//!   `adds-serve`, whose sinks render it as `/v1/stats` and as the
//!   `adds.metrics/v2` text of `/v1/metrics`.
//!
//! Everything here is deliberately below the rest of the workspace in
//! the dependency graph: `adds-obs` depends only on `std`, so the
//! machine, query, and serve crates can all instrument themselves
//! without cycles.

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;
