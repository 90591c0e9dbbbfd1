#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # df-core — the data-flow query engine
//!
//! The paper's contribution (§7, "A New Query Processing Model"): a query
//! engine whose plans are *pipelines of operators placed on devices along
//! the data path*, executed push-based in a streaming fashion, with data
//! movement as the first-class cost.
//!
//! Layered bottom-up:
//!
//! - [`expr`] — expressions with vectorized evaluation
//! - [`kernel`] — the accelerator programming model (§7.2): the one
//!   lowering from expressions into the offload predicate language that
//!   storage, NIC and near-memory filters run, and a regex engine
//! - [`logical`] — logical plans and a builder API
//! - [`ops`] — push-based physical operators (filter, project, aggregate,
//!   hash join, sort, limit)
//! - [`physical`] — physical plans: operator chains with device placement
//! - [`pipeline`] — the placed pipeline-graph IR: physical plans compile
//!   into pipelines cut at breakers and device boundaries, with typed
//!   local/fabric edges; every executor and the flow simulator drive this
//!   one graph
//! - [`exec`] — the push executor with its movement ledger and the
//!   tuple-at-a-time Volcano baseline (§1's departure point)
//! - [`optimizer`] — rewrites (predicate/projection pushdown), cardinality
//!   estimation, and the movement-aware cost model that enumerates
//!   placement alternatives and ranks plan variants (§7.3 requires several
//!   data-path alternatives per query)
//! - [`scaleout`] — N-host distributed execution as placed Exchange plans
//!   over the pipeline-graph IR (Figure 4), and `fan_out`: morsel
//!   parallelism on one node as a gather-exchange rewrite
//! - [`streaming`] — unbounded seed-deterministic sources, event-time
//!   windows, and frontier-gated windowed aggregation (§7.4–7.5); the
//!   pipeline graph carries punctuation on its edges and the verifier
//!   enforces the streaming legality rules
//! - [`sql`] — a SQL frontend for the examples
//! - [`session`] — the top-level API tying tables, topology, optimizer and
//!   executor together
//!
//! Admission and §7.3's runtime choice among plan variants live in the
//! serving layer (`df-serve::admission`), which prices each variant's flow
//! specs against link capacity.

pub mod error;
pub mod exec;
pub mod expr;
pub mod kernel;
pub mod logical;
pub mod ops;
pub mod optimizer;
pub mod physical;
pub mod pipeline;
pub mod scaleout;
pub mod session;
pub mod sql;
pub mod streaming;

pub use error::{EngineError, Result};
pub use expr::Expr;
pub use logical::LogicalPlan;
pub use session::Session;
