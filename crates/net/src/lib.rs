#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # df-net — intentionally empty
//!
//! Smart-NIC work (§4.3–4.4) runs on the pipeline-graph IR in `df-core`,
//! like the work of every other device: a plan places `Filter`, `Project`,
//! bounded `Aggregate` stages (`Partial`, bounded `Merge`), COUNT and
//! `Exchange` tips on `storage.nic` or `compute0.nic`, and the push
//! executor runs them with the same operators, kernels, credit-bounded
//! fabric edges and movement ledger as on any CPU. E4, E5, E6, E10 and
//! E15–E17 drive their NIC stages that way.
//!
//! The crate stays only because the benchmark package's lockfile pins
//! df-core's and df-bench's dependency edges on it; removing it re-locks
//! that package.
