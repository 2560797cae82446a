//! Negotiation protocol messages.
//!
//! The allocation protocol is a one-round call-for-offers:
//!
//! 1. the client broadcasts a request for a query to the nodes holding
//!    the relevant data,
//! 2. each willing server answers with an [`Offer`] carrying its estimated
//!    completion time (servers running QA-NT only offer while their supply
//!    vector has units left — step 4 of the QA-NT pseudo-code),
//! 3. the client accepts the best offer and the rest implicitly expire; if
//!    nobody offered, the client re-submits the query in the next time
//!    period (§2.2).
//!
//! The messages a carrier actually sends are `qa_net::wire`'s `messages!`
//! table. **Autonomy invariant**: none of them carries a price. Prices are
//! private per-node state (§3.3: "Query prices are never disclosed or
//! exchanged over the network"); a census test over that table holds it.

use qa_simnet::SimDuration;
use qa_workload::NodeId;

/// A server's offer to evaluate a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offer {
    /// The query being offered for.
    pub query_id: u64,
    /// The offering server.
    pub server: NodeId,
    /// The server's estimate of queueing + execution time.
    pub estimated_completion: SimDuration,
}

/// Approximate wire sizes, used by the network model to charge
/// serialization time and by the Table 2 message-count comparison.
pub const REQUEST_BYTES: u64 = 64;
/// Offer wire size.
pub const OFFER_BYTES: u64 = 48;
/// Accept/decline wire size.
pub const RESPONSE_BYTES: u64 = 32;
