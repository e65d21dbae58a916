//! Simulation runtime primitives shared by the PROV-IO reproduction.
//!
//! The paper evaluates PROV-IO on a Haswell supercomputer with a Lustre
//! backend; this workspace replaces that testbed with simulated substrates.
//! Everything those substrates need to agree on time and randomness lives
//! here:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual nanoseconds.
//! * [`VirtualClock`] — a shareable per-agent clock. It advances only by
//!   *modeled* amounts (I/O and compute cost models, the per-record store
//!   latency, retry backoff, network timeouts, injected delays), never by
//!   host time, so a run is a function of its model and its seed (see
//!   `DESIGN.md` §3, "Timing model").
//! * [`LatencyBandwidth`] — the latency + bandwidth cost primitive used by
//!   the Lustre model in `provio-hpcfs`.
//! * [`DetRng`] — deterministic, splittable random streams so every
//!   experiment is reproducible run-to-run.
//! * [`NetPlan`] — seeded interconnect faults (loss, duplication,
//!   reordering, delay, partitions) for the streaming collection layer.
#![warn(unreachable_pub)]

pub(crate) mod clock;
pub(crate) mod cost;
pub(crate) mod net;
pub(crate) mod panics;
pub(crate) mod rng;

pub use clock::{SimDuration, SimTime, VirtualClock};
pub use cost::LatencyBandwidth;
pub use net::{NetLink, NetPlan, PartitionEpisode, SendFate};
pub use panics::catch_quiet;
pub use rng::DetRng;
