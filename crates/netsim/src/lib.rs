//! Discrete-event network simulator for block propagation.
//!
//! The paper's deployment results (Fig. 12) come from a live Bitcoin Cash
//! node with six peers; this crate is the in-repo substitute. Peers exchange
//! *real encoded messages* (`graphene-wire` frames) over links with latency,
//! bandwidth, and fault injection (random drop / byte corruption — the
//! smoltcp guide's `--drop-chance` / `--corrupt-chance` idiom), so a relay
//! here exercises exactly the bytes and state transitions a socket would.
//!
//! * [`time`] / [`event`] — simulated clock and the hierarchical
//!   timing-wheel event queue (with a retained heap reference
//!   implementation for equivalence testing);
//! * [`link`] — link parameters and the fault injector;
//! * [`arena`] — structure-of-arrays peer storage splitting the event
//!   loop's hot per-peer fields from cold protocol state;
//! * [`topology`] — Barabási–Albert scale-free graph generation for
//!   internet-scale sweeps;
//! * [`peer`] — per-peer state machines for Graphene (Protocols 1+2 with
//!   the failure-recovery ladder), Compact Blocks, XThin and full blocks,
//!   plus misbehavior scoring / banning and server failover;
//! * [`backoff`] — deterministic jittered exponential retry backoff;
//! * [`rtt`] — RFC 6298-style per-server RTT estimation feeding
//!   RTO-derived adaptive timers;
//! * [`health`] — per-peer circuit breaker over non-attributable
//!   failures (timeouts, undecodables), with closed/open/half-open
//!   states and deterministic half-open probes;
//! * [`caps`] — §6.2 resource caps on inbound messages;
//! * [`adversary`] — hostile-peer fault injection (§6.1 malformed IBLTs,
//!   oversized filters, stalls, garbage responses);
//! * [`chaos`] — deterministic environment-failure injection: churn,
//!   partitions, crash/restart (see also the link-level duplication and
//!   reordering faults in [`link`]);
//! * [`network`] — topology, message routing, and the block-propagation
//!   experiment driver;
//! * [`metrics`] — byte/latency/ban accounting shared across the run.
//!
//! Peers run a **bounded-resource runtime**: every inbound frame passes
//! through a capped queue with announcement-first load shedding, sessions
//! and buffered bodies are capped, and a [`peer::ResourceAccounting`]
//! high-water mark proves memory stays bounded even under combined chaos
//! and adversarial load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod arena;
pub mod backoff;
pub mod caps;
pub mod chaos;
pub mod event;
pub mod health;
pub mod link;
pub mod metrics;
pub mod network;
pub mod peer;
pub mod rtt;
pub mod time;
pub mod topology;

pub use adversary::{AdversaryConfig, Behavior};
pub use arena::PeerArena;
pub use caps::MessageCaps;
pub use chaos::{ChaosConfig, ChaosEvent, OutageKind};
pub use health::{BreakerState, HealthTracker};
pub use link::{LatencyClass, LinkParams};
pub use metrics::Metrics;
pub use network::{Network, PropagationResult};
pub use peer::{FanoutPolicy, PeerId, RelayProtocol, ResourceAccounting, ResourceLimits};
pub use rtt::{RttEstimate, RttTable};
pub use time::SimTime;
pub use topology::barabasi_albert;
