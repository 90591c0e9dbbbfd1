//! Executors: the push-based streaming engine (with movement ledger) and
//! the tuple-at-a-time Volcano baseline. Morsel parallelism is a plan
//! rewrite the push engine runs ([`crate::scaleout::fan_out`]).

pub mod ledger;
pub mod push;
pub mod source;
pub mod volcano;

pub use ledger::MovementLedger;
pub use push::{execute, CodecDecision, CodecPolicy, ExecEnv, ExecOutcome};
