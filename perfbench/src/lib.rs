//! Host-time benchmark of the BARD simulator: two 8-core workloads driven
//! through the public API, end-to-end metrics with tracing off, per-layer
//! metrics from a traced run, and an output check on every run.

#![forbid(unsafe_code)]

pub mod bench;
pub mod catalog;
pub mod spans;
pub mod stats;
