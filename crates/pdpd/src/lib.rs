//! `agenp-pdpd` — the PDP on the wire.
//!
//! A from-scratch HTTP/1.1 serving tier over the shared-snapshot PDP:
//! no external dependencies, blocking `std::net` sockets, a fixed worker
//! pool where each worker owns a [`agenp_core::arch::PdpPin`] (one
//! pinned snapshot per thread, revalidated by an epoch load), keep-alive
//! and pipelining,
//! and a built-in load client that doubles as a wire-path differential
//! test. Protocol shapes are documented in `docs/SERVING.md`.
//!
//! - `POST /decide` — one access request in, one decision outcome out.
//! - `POST /decide_batch` — `{"requests": [...]}` in, a batch envelope
//!   out; all outcomes share one snapshot epoch (never torn).
//! - `GET /metrics` — serve stats, HTTP counters, and the `agenp-obs`
//!   dump when telemetry is enabled.
//! - `GET /healthz` — liveness.

pub mod client;
pub mod http;
pub mod json;
pub mod server;
pub mod wire;

pub use client::{run_load, LoadOptions, LoadReport};
pub use server::{HttpStats, PdpdServer, ServerOptions};
