//! End-to-end benchmark of `dexd`: seeded workloads driven over
//! loopback HTTP against an in-process daemon, every response checked
//! against a closed-form oracle, and a separate traced run that times
//! each layer's public calls from outside. See `README.md` beside this
//! package.

#![forbid(unsafe_code)]

pub mod bench;
pub mod client;
pub mod json;
pub mod oracle;
pub mod speed;
pub mod trace;
pub mod workload;
