//! Push-based physical operators.
//!
//! Every operator consumes batches via [`Operator::push`] and may emit
//! output immediately (streaming operators: filter, project, limit) or only
//! at [`Operator::finish`] (pipeline breakers: final aggregation, sort).
//! Hash joins are two-phase: the executor feeds the build side first via
//! [`join::HashJoinOp::build`], then streams probes through `push`.
//!
//! The push interface is the §1 departure from pull-based Volcano; the
//! tuple-at-a-time pull baseline lives in [`crate::exec::volcano`].

pub mod aggregate;
pub mod filter;
pub mod join;
pub mod limit;
pub mod project;
pub mod sort;
pub mod topk;

use df_data::{Batch, SchemaRef};

use crate::error::Result;

/// A single-input push operator.
pub trait Operator: Send {
    /// Output schema.
    fn schema(&self) -> SchemaRef;

    /// Consume one batch, producing zero or more output batches.
    fn push(&mut self, batch: Batch) -> Result<Vec<Batch>>;

    /// End of input: flush any buffered state.
    fn finish(&mut self) -> Result<Vec<Batch>>;
}

pub use aggregate::{AggMode, HashAggOp};
pub use filter::FilterOp;
pub use join::HashJoinOp;
pub use limit::LimitOp;
pub use project::ProjectOp;
pub use sort::SortOp;
pub use topk::TopKOp;
