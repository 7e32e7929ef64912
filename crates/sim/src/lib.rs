//! Discrete-event simulation substrate for the Pictor reproduction.
//!
//! This crate provides the simulation kernel every other crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`EventQueue`] — a cancellable priority queue of timestamped events with
//!   deterministic FIFO tie-breaking.
//! * [`PsResource`] — a processor-sharing resource (CPU pools, PCIe links,
//!   network bandwidth) that recomputes per-job service rates whenever the
//!   active set changes.
//! * [`FifoResource`] — a single-server FIFO queue (GPU render engine).
//! * [`rng`] — deterministic, named random-number streams plus the handful of
//!   distributions the models need (normal, lognormal).
//! * [`stats`] — streaming summaries, percentile distributions, the
//!   mergeable tail [`Histogram`] and time-weighted utilization integrals
//!   used by the measurement framework.
//!
//! # Example
//!
//! ```
//! use pictor_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_millis(5), "later");
//! queue.schedule(SimTime::ZERO + SimDuration::from_millis(1), "sooner");
//! let (t, ev) = queue.pop().expect("event");
//! assert_eq!(ev, "sooner");
//! assert_eq!(t, SimTime::from_nanos(1_000_000));
//! ```

pub mod clock;
pub mod event;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use clock::SimClock;
pub use event::{EventId, EventQueue};
pub use resource::{FifoResource, JobId, PsResource};
pub use rng::SeedTree;
pub use stats::{Distribution, Histogram, Summary, TimeWeighted};
pub use time::{SimDuration, SimTime};
