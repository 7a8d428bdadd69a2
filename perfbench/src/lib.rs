//! The forumcast benchmark: four single-process workloads that time the
//! workspace's crates through their public functions, check every
//! output, and print one result line. See `README.md` in this
//! directory for the workloads, the metrics and how to run them.

pub mod checks;
pub mod harness;
pub mod layers;
pub mod metrics;
pub mod workloads;
