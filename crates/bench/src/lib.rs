//! # prever-bench
//!
//! The benchmark harness reproducing every experiment in EXPERIMENTS.md.
//!
//! The paper (§6) prescribes the evaluation any PReVer instantiation
//! should run: standardized database benchmarks (YCSB, TPC-style)
//! compared against non-private baselines, and distributed deployments
//! compared against Paxos and PBFT on throughput and latency. Each
//! experiment lives in [`experiments`] as a plain function returning
//! printable rows, which the `report` binary (`cargo run --release -p
//! prever-bench --bin report`) prints as tables. The `bench_amortized`
//! binary times the crypto kernels under them; the per-layer costs of
//! the whole stack are the `benchmark/` package's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod meta;
pub mod table;

pub use table::Table;
