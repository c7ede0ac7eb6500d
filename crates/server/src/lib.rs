//! PReVer serving layer: a simulated front end that multiplexes client
//! connections onto the consensus batch path (DESIGN.md §14).
//!
//! The crate splits into sans-IO cores and simulator wiring:
//!
//! * [`admission`] — per-tenant token buckets and the overload
//!   degradation ladder, both pure virtual-time state machines;
//! * [`audit`] — signed audit-digest attestations; a whole round of
//!   gateway signatures verifies as one batched Schnorr check;
//! * [`frontend`] — the admission/backpressure engine: bounded queue,
//!   global inflight window, deadline propagation, explicit
//!   `Overloaded { retry_after }` shedding (never silent queueing);
//! * [`client`] — open-loop / closed-loop load generator with
//!   timeouts, jittered exponential backoff, and retry budgets;
//! * [`sim`] — the actors: gateway (front end + consensus replica 0),
//!   peer replicas, and client connections over one message type.
//!
//! All client↔gateway traffic crosses the [`prever_wire`] framed
//! protocol, so every byte a client can send is hostile-input checked
//! before it touches admission state, and nothing reaches consensus
//! without passing admission.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod audit;
pub mod client;
pub mod frontend;
pub mod quota;
pub mod sim;

pub use admission::{DegradeLevel, TokenBucket};
pub use audit::{attest, verify_round, AuditError, DigestAttestation};
pub use client::{ClientCfg, ClientConn, ClientStats, LoadMode};
pub use frontend::{Action, FrontConfig, FrontEnd, FrontStats};
pub use quota::{is_quota_id, QuotaUpdate, QUOTA_ID_BIT};
pub use sim::{
    multi_gateway_cluster, server_cluster, ClientPeer, Gateway, Replica, ServerMsg, ServerPeer,
};
