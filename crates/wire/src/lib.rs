#![warn(missing_docs)]

//! `tsgb-wire`: the one protocol every process in the serving tier
//! speaks.
//!
//! Extracted from `tsgb-serve` when the tier grew from one process to
//! a router + worker fleet: the worker (`tsgb-serve`), the router
//! (`tsgb-router`), and the load probe (`loadgen`) all frame requests
//! the same way, so the codec lives once, here, with the robustness
//! tests attached to it. The crate is dependency-free `std` — it can
//! be pulled into any binary in the workspace without dragging model
//! code along.
//!
//! Four layers, bottom-up:
//!
//! * [`json`] — a hand-rolled RFC 8259 codec. Its `f64` writer,
//!   [`json::write_num`], writes the bytes `Display` writes (shortest
//!   round-trip digits: values parse back bit-identically, and response
//!   bodies are comparable byte-for-byte), computing the common range
//!   itself with exact integer arithmetic rather than through
//!   `core::fmt`, and `null` for a non-finite value.
//! * [`http`] — HTTP/1.1 request reading with persistent connections
//!   and explicit `Content-Length` framing. Malformed input is a
//!   first-class outcome ([`http::ReadOutcome::Malformed`]): the
//!   server answers a structured `400` instead of silently dropping
//!   the connection, and hostile input can never panic or hang the
//!   reader.
//! * [`client`] — the client half: one-shot and keep-alive exchanges
//!   with timeouts, shared by the router's proxy/health paths and the
//!   load generator.
//! * [`server`] — lifecycle scaffolding (draining flag, active
//!   connection count, stop signal) plus the per-connection
//!   read→handle→respond loop, so router and worker cannot drift on
//!   drain semantics.
//!
//! [`error::HttpError`] maps every failure to a status plus a
//! machine-readable JSON body; it is the error type of the whole tier.
//!
//! [`digest`] sits alongside the codec: the stable FNV-1a/splitmix64
//! hash both the router's placement ring and the eval cache's content
//! addressing are keyed on.

pub mod client;
pub mod digest;
pub mod error;
pub mod http;
pub mod json;
pub mod server;

pub use client::{
    http_request, http_request_stream, request_once, HttpResponse, StreamingResponse,
};
pub use digest::{fnv1a64, Fnv64};
pub use error::HttpError;
pub use http::{
    finish_chunks, read_request, write_chunk, write_chunked_head, write_response, ReadOutcome,
    Request,
};
pub use json::Json;
pub use server::{ChunkSink, Lifecycle, Reply, StreamProducer};
