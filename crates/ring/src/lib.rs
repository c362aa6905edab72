//! # dde-ring
//!
//! A Chord-style ring-overlay network simulator — the P2P substrate for the
//! ring-DDE reproduction of *"Effective Data Density Estimation in
//! Ring-Based P2P Networks"* (ICDE 2012).
//!
//! The simulator is **structural**, not timed: peers, their routing state
//! (predecessor, successor lists, finger tables), and their local data stores
//! are real; message passing is simulated by direct state access with exact
//! **message and hop accounting** through [`messages::MessageStats`]. This is
//! the right fidelity for the paper's claims, which are about *estimation
//! accuracy per message*, not wall-clock latency (latency is reported in
//! routing hops, as the paper family does).
//!
//! What is deliberately faithful:
//!
//! * routing uses **only each node's own (possibly stale) state** — never the
//!   simulator's global view — so churn degrades routing exactly as it would
//!   in a deployment;
//! * joins, graceful leaves (with data handoff), and crash failures (with
//!   data loss) mutate routing state the way Chord's protocol does, and
//!   periodic [`Network::stabilize_round`] repairs it the way Chord's
//!   stabilization does;
//! * every remote interaction (lookup hop, probe, stabilization ping, gossip
//!   exchange) is charged to the message counters with payload sizes.
//!
//! Modules:
//!
//! * [`id`] — 2⁶⁴ identifier-ring arithmetic (wraparound arcs, distances);
//! * [`faults`] — seeded, deterministic fault injection (message loss,
//!   reply drops, delays, crashes, sick-peer windows);
//! * [`placement`] — mapping data values onto the ring (hashed vs
//!   order-preserving range placement);
//! * [`store`] — per-peer sorted data stores with rank queries and summaries;
//! * [`node`] — peer routing state;
//! * [`messages`] — message kinds and cost accounting;
//! * [`network`] — the overlay itself: build, route, probe;
//! * [`membership`] — join / leave / fail / stabilize;
//! * [`churn`] — Poisson churn process driver plus the batched arena-churn
//!   path ([`ChurnBatch`] repair sweeps for mega-scale networks).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod arena;
pub mod batch;
pub mod churn;
pub mod faults;
pub mod id;
pub mod index;
pub mod membership;
pub mod messages;
pub mod network;
pub mod node;
pub mod placement;
pub mod query;
pub mod replication;
pub mod store;

pub use arena::{FingerTable, RingArena, SuccessorList};
pub use batch::BatchRouter;
pub use churn::{ChurnApplied, ChurnBatch, ChurnConfig, ChurnEvent, ChurnProcess};
pub use faults::{DelayDist, FaultDecision, FaultPlan};
pub use id::RingId;
pub use index::{NodeIndex, RepairStats};
pub use messages::{MessageKind, MessageStats};
pub use network::{LookupError, LookupResult, Network, ProbeReply};
pub use node::{Node, RouteBuf};
pub use placement::{DomainMap, Placement};
pub use query::RangeQueryResult;
pub use store::LocalStore;
