#![deny(unsafe_code)]
#![warn(missing_docs)]
//! The serving layer: a multi-tenant query front-end over the pipeline-graph
//! engine.
//!
//! The paper's data-flow architecture only pays off when many queries
//! contend for the same devices and fabric links; this crate supplies the
//! missing multi-query front-end:
//!
//! - [`protocol`] — a simple length-prefixed wire protocol (frames over any
//!   byte stream; batches travel wire-encoded via `df_codec::wire`);
//! - [`tenant`] — the session/tenant registry: name, fair-share weight,
//!   priority;
//! - [`sched`] — the cross-query scheduler: per-tenant **weighted fair
//!   share** over credit grants (stride scheduling), priority preemption at
//!   batch boundaries, and a conservation-checked [`sched::CreditLedger`];
//! - [`admission`] — priced admission against the flow-model link capacity
//!   that picks the first plan variant fitting now, or queues or rejects;
//! - [`dispatch`] — the query execution pipeline (plan → compile → verify +
//!   deadlock-check → admit → gated execute → merge/stream), in the
//!   dispatcher/merger shape;
//! - [`server`] — a TCP server (and client) speaking the protocol, one
//!   session thread per connection, all sharing one scheduler;
//! - [`harness`] — a `SimRng`-seeded deterministic concurrency harness that
//!   replays N-tenant query mixes on the **sim clock**, so scheduler
//!   decisions, per-tenant latency histograms, and trace bytes are
//!   bit-reproducible in CI.

pub mod admission;
pub mod dispatch;
pub mod harness;
pub mod protocol;
pub mod sched;
pub mod server;
pub mod tenant;

use std::fmt;

/// Errors from the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// Engine-side failure (parse, plan, execute).
    Engine(df_core::error::EngineError),
    /// The compiled graph failed static verification or deadlock analysis.
    PlanRejected(String),
    /// Admission control rejected the query.
    Rejected(String),
    /// Wire / socket failure.
    Io(std::io::Error),
    /// Malformed frame or protocol-state violation.
    Protocol(String),
    /// A server-side failure reported to a client over the wire.
    Remote(String),
    /// The peer went away mid-stream.
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine: {e}"),
            ServeError::PlanRejected(msg) => write!(f, "plan rejected: {msg}"),
            ServeError::Rejected(msg) => write!(f, "admission rejected: {msg}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ServeError::Remote(msg) => write!(f, "server: {msg}"),
            ServeError::Disconnected => write!(f, "peer disconnected"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<df_core::error::EngineError> for ServeError {
    fn from(e: df_core::error::EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Result alias for serving-layer operations.
pub type Result<T> = std::result::Result<T, ServeError>;
