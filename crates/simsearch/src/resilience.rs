//! Query-side and store-side resilience configuration.
//!
//! The paper evaluates its index on a stabilized, reliable overlay; this
//! module adds the knobs that keep the index answering under the
//! adversity [`simnet::FaultPlane`] injects — lossy links, latency
//! spikes, crashed hosts:
//!
//! * every cross-host index message is wrapped in a
//!   [`crate::msg::SearchMsg::Tracked`] envelope, acknowledged by the
//!   receiver, and retransmitted with exponential backoff until acked or
//!   the retry budget runs out;
//! * a sender whose retries are exhausted *suspects* the destination,
//!   re-routes the payload around it (failure-aware routing, see
//!   [`crate::overlay::FailureAware`]), and gossips the suspicion inside
//!   subsequent envelopes;
//! * each published entry is stored at its owner *and* at the owner's
//!   `replication - 1` ring successors, so a suspected owner's key range
//!   is answered from replicas by the failover surrogate.
//!
//! Everything here is strictly opt-in: a system built without a
//! [`ResilienceConfig`] sends exactly the messages it sent before this
//! module existed.

use simnet::SimDuration;

/// Retransmissions attempted before the destination is suspected dead
/// and the payload fails over.
pub(crate) const MAX_RETRIES: u32 = 4;
/// Fixed slack added to every retransmit timeout.
const BASE_TIMEOUT: SimDuration = SimDuration::from_millis(200);
/// The RTT multiple a sender waits for an ack before retransmitting.
const RTT_MULTIPLIER: f64 = 3.0;
/// Timeout growth factor per successive retransmission.
const BACKOFF: f64 = 2.0;

/// Retry/failover and replication. All deterministic: the retransmit
/// timeout is computed from the topology's RTT, not measured.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Total copies of each entry (`1` = primaries only, no replicas).
    pub replication: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig { replication: 2 }
    }
}

impl ResilienceConfig {
    /// Sanity-check the knobs; called when a node adopts the config.
    pub fn validate(&self) {
        assert!(self.replication >= 1, "replication counts the primary");
    }

    /// The first retransmit timeout for a destination `rtt` away.
    pub fn timeout_for(&self, rtt: SimDuration) -> SimDuration {
        SimDuration(BASE_TIMEOUT.0 + (rtt.0 as f64 * RTT_MULTIPLIER).round() as u64)
    }

    /// The timeout for retransmission number `attempt` (1-based),
    /// growing geometrically from [`ResilienceConfig::timeout_for`].
    pub fn backoff_timeout(&self, first: SimDuration, attempt: u32) -> SimDuration {
        SimDuration((first.0 as f64 * BACKOFF.powi(attempt as i32)).round() as u64)
    }
}

/// A node's failure-suspicion set: the plain id set that failure-aware
/// routing filters on, filled from local retry exhaustion and gossip.
#[derive(Clone, Debug, Default)]
pub struct SuspicionSet {
    ids: std::collections::BTreeSet<u64>,
}

impl SuspicionSet {
    /// An empty set: everybody is presumed live.
    pub fn new() -> SuspicionSet {
        SuspicionSet::default()
    }

    /// Suspect `id`; true when this is news (edge trigger).
    pub fn insert(&mut self, id: u64) -> bool {
        self.ids.insert(id)
    }

    /// Is `id` currently suspected dead?
    pub fn contains(&self, id: u64) -> bool {
        self.ids.contains(&id)
    }

    /// True when nobody is suspected.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of suspected ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Suspected ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.ids.iter().copied()
    }

    /// The raw set, for [`crate::overlay::FailureAware`].
    pub fn as_set(&self) -> &std::collections::BTreeSet<u64> {
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ResilienceConfig::default().validate();
    }

    #[test]
    fn suspicion_insert_is_edge_triggered() {
        let mut s = SuspicionSet::new();
        assert!(s.is_empty());
        assert!(s.insert(7), "first suspicion is news");
        assert!(!s.insert(7), "repeat suspicion is not");
        assert!(s.insert(3));
        assert!(s.contains(7) && s.contains(3) && !s.contains(4));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(s.as_set().len(), 2);
    }

    #[test]
    fn timeouts_grow_geometrically() {
        let rc = ResilienceConfig::default();
        let first = rc.timeout_for(SimDuration::from_millis(100));
        // 200 ms base + 3 × 100 ms RTT.
        assert_eq!(first, SimDuration::from_millis(500));
        assert_eq!(rc.backoff_timeout(first, 1), SimDuration::from_millis(1000));
        assert_eq!(rc.backoff_timeout(first, 2), SimDuration::from_millis(2000));
    }

    #[test]
    #[should_panic(expected = "replication counts the primary")]
    fn zero_replication_rejected() {
        ResilienceConfig { replication: 0 }.validate();
    }
}
