//! Deterministic randomness and a mini property-testing harness.
//!
//! The workspace builds in fully offline environments, so it cannot pull in
//! `rand` or `proptest`. This crate provides the two pieces the experiment
//! suite and the test suites actually need:
//!
//! * [`Rng64`] — a seeded `SplitMix64` generator with the handful of sampling
//!   methods the workload generators use (`gen_range` over integer and float
//!   ranges, Fisher–Yates [`Rng64::shuffle`]);
//! * [`propcheck`] / [`propcheck_cases`] — run a property over many seeded
//!   cases and report the first failing seed so a failure reproduces exactly;
//! * [`CountingAlloc`] — a global allocator that counts allocation calls
//!   and live bytes per thread, for allocation and retention guards.

pub mod alloc;
pub mod prop;
pub mod rng;

pub use alloc::{thread_allocations, thread_live_bytes, CountingAlloc};
pub use prop::{propcheck, propcheck_cases};
pub use rng::{Rng64, SampleRange};
