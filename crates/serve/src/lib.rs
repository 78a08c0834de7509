//! # adds-serve — the ADDS pipeline as a long-running service
//!
//! This crate is the HTTP face of the demand-driven analysis session in
//! `adds-query`, with no dependencies beyond `std` (the build environment
//! is offline):
//!
//! * [`corpus`] — the built-in programs, by name.
//! * [`http`] — a minimal HTTP/1.1 request reader and response serializer,
//!   with opt-in keep-alive.
//! * [`logging`] — the structured access-log line (`serve --log`).
//! * [`metrics`] — the sinks that render the server's one metric walk as
//!   the `/v1/stats` document and the `/v1/metrics` Prometheus text.
//! * [`server`] — the `adds-cli serve` engine: the `adds-net` `poll(2)`
//!   reactor with a `--jobs` worker pool, routing the endpoints that
//!   [`server::ENDPOINTS`] declares (table in the [`server`] docs).
//!
//! The wire format *is* the CLI report format: `POST /v1/analyze` with a
//! source body answers with a document byte-identical to
//! `adds-cli analyze` on the same bytes (given the same display name), so
//! goldens, scripts, and dashboards can consume either interchangeably.
//! And because every endpoint runs over one shared session, a
//! `parallelize` request after an `analyze` of the same bytes reuses the
//! parse/typecheck/analysis artifacts instead of recomputing them.

#![warn(missing_docs)]

pub mod corpus;
pub mod http;
pub mod logging;
pub mod metrics;
pub mod server;
