#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # df-sim — discrete-event simulation kernel
//!
//! The timing substrate for the fabric model. Everything that "takes time" in
//! the reproduced system (link transfers, device service, credit returns) is
//! expressed as events on a [`Simulation`]'s queue. The kernel is
//! deterministic: same inputs, same event order, same results.
//!
//! Modules:
//! - [`time`] — nanosecond simulated time and rate/duration arithmetic
//! - [`event`] — the event queue and simulation driver
//! - [`metrics`] — a fixed-bound histogram (the serving harness's latencies)
//! - [`rng`] — a small deterministic SplitMix64/xoshiro RNG
//! - [`trace`] — hierarchical span/event tracing on per-device lanes

pub mod event;
pub mod metrics;
pub mod rng;
pub mod time;
pub mod trace;

pub use event::Simulation;
pub use metrics::Histogram;
pub use rng::SimRng;
pub use time::{Bandwidth, SimDuration, SimTime};
pub use trace::{LaneId, LaneKind, SpanGuard, Tracer};
