//! Deterministic fault injection for the GMP simulator, plus the
//! delivery-guarantee oracle.
//!
//! The paper's robustness story — voids, sparse regions, perimeter-mode
//! fallback — cannot be exercised with i.i.d. coin flips alone. This crate
//! models faults as a *plan*: a seeded, reproducible schedule of typed
//! events layered on top of the legacy Bernoulli knobs.
//!
//! - [`FaultPlan`] — the schedule: Bernoulli node/link failure
//!   probabilities plus timed [`FaultEvent`]s (crashes, regional
//!   blackouts, duty-cycle sleep, mobility-driven link churn).
//! - [`FaultScratch`] — the runtime: compiles a plan against a topology
//!   (cached), advances node liveness as simulated time passes, and
//!   answers per-delivery queries from the event loop.
//! - The **oracle** ([`FaultScratch::classify_failures`]) — after a task,
//!   classifies every failed destination as *justified* (dead, or the
//!   faulted connectivity graph itself was disconnected) or a *protocol
//!   failure* (reachable but undelivered), with the proximate
//!   [`FailureCause`] attached. It searches the graph only as far as the
//!   live failed destinations need.
//!
//! Everything is deterministic: a plan never consumes simulator RNG draws
//! beyond the two legacy Bernoulli streams, and timed events are compiled
//! from the plan's own seeds, so equal seeds give bit-identical runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cause;
mod plan;
mod runtime;

pub use cause::{FailedDest, FailureCause};
pub use plan::{FaultEvent, FaultPlan, FaultRegion};
pub use runtime::FaultScratch;
