//! # square-route — gate scheduling and communication
//!
//! The machine-facing half of the SQUARE compiler: an ASAP gate
//! scheduler with per-qubit availability tracking, a swap-chain router
//! for NISQ lattices (each SWAP costs three CNOT cycles; chain latency
//! grows with distance), and a braid router for fault-tolerant surface
//! code machines (braids complete in constant time but may not cross —
//! conflicting braids queue, Section IV-D of the paper).
//!
//! The central type is [`Machine`]: it owns the virtual→physical
//! placement ([`Placement`]), schedules every gate the compile-time
//! executor emits ([`Clock`]), accumulates communication statistics
//! (the running `S` factors the CER heuristic consumes), and records
//! per-qubit liveness segments from which `square-metrics` computes
//! the active quantum volume. Routing strategy is pluggable behind the
//! stateless [`Router`] trait, configured with a [`RouterConfig`] and
//! driven through a per-call [`RoutingCtx`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod braid;
pub mod config;
pub mod ctx;
pub mod machine;
pub mod placement;
pub mod router;
pub mod schedule;
pub mod sink;
pub mod timeline;

mod error;

pub use braid::BraidField;
pub use config::{RouterConfig, DEFAULT_LOOKAHEAD_WINDOW};
pub use ctx::{BfsScratch, RouterScratch, RoutingCtx};
pub use error::RouteError;
pub use machine::{
    journey_of, CommStats, LivenessSegment, Machine, MachineConfig, PlacementEvent, RouteReport,
};
pub use placement::{CellSet, Placement};
pub use router::{GreedyRouter, LookaheadRouter, Router, RouterKind};
pub use schedule::{gate_duration, ScheduledGate};
pub use sink::ScheduleSink;
pub use timeline::Clock;
