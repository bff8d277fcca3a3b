//! # volley-serve
//!
//! The live traffic surface of the Volley reproduction — an embedded
//! HTTP/1.1 server on `std::net::TcpListener` (no external deps)
//! hosted next to the coordinator, serving the "millions of users"
//! query plane the paper assumes exists around a datacenter monitor.
//!
//! Three endpoint families:
//!
//! - `GET /metrics` — Prometheus text exposition rendered directly
//!   from the **live** obs registry (not the file snapshot).
//! - `GET /api/v1/query?task=&monitor=&from=&to=` — JSON range
//!   queries compiled to a [`volley_store::ScanRange`] over the
//!   recorded sample store, with a bounded page size and a pagination
//!   cursor. The report and its rendering are shared with
//!   `volley store query` so the two surfaces are byte-identical.
//! - `GET /api/v1/alerts/stream` — a chunked transfer-encoding
//!   subscription pushing alert, epoch and degradation events as
//!   NDJSON from a bounded broadcast ring; subscriber overflow is
//!   counted like net backpressure, never blocking the runtime.
//!
//! ## Isolation guarantees
//!
//! The server runs on the same [`reactor`] as `runtime::net`: a
//! `poll(2)` readiness wait, bounded per-connection buffers, batched
//! writes, idle reaping, and slow clients dropped rather than waited
//! on. The runtime only ever touches the serving plane through
//! [`ServePublisher`] — a couple of relaxed atomic stores and a
//! bounded ring push per event — so query traffic cannot block a
//! monitoring tick. The existing self-monitor watchdog ("Volley
//! watching Volley") gates that this stays true under load.
//!
//! ## Layout
//!
//! - [`http`]: the cap-enforced incremental request parser (in the
//!   style of `runtime::net::FrameBuffer`) and response builders.
//! - [`events`]: the bounded broadcast ring and [`ServePublisher`].
//! - [`wire`]: the versioned JSON report envelope shared with the CLI.
//! - [`reactor`]: the readiness wait, wake handle and connection-table
//!   loop shared with `runtime::net` (it lives here because
//!   `volley-runtime` already depends on this crate).
//! - [`server`]: the listener, endpoint dispatch and stream pump — the
//!   HTTP protocol of that loop.
//!
//! ## Unsafe policy
//!
//! The workspace has exactly one `unsafe` site: the `poll(2)` call in
//! `reactor::sys`, behind `cfg(unix)`, in the only module that carries
//! `#[allow(unsafe_code)]`. Everything else in this crate is denied
//! unsafe code, and every other crate forbids it.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod http;
pub mod reactor;
pub mod server;
pub mod wire;

pub use events::{EventRing, ServePublisher, DEFAULT_STREAM_BUFFER};
pub use http::{HttpError, Request, RequestParser, DEFAULT_MAX_REQUEST_BYTES};
pub use server::{ServeConfig, ServeStats, Server, ServerHandle, DEFAULT_PAGE_LIMIT};
pub use wire::{envelope, REPORT_SCHEMA_VERSION};
