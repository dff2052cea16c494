//! Network-wide accounting.
//!
//! The simulator counts every message and byte that crosses the (simulated)
//! wire. Experiments layer their own per-query attribution on top; these
//! totals are the ground truth they must reconcile with.

/// Aggregate counters over an entire simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network layer.
    pub messages: u64,
    /// Sum of the declared sizes of those messages, in bytes.
    pub bytes: u64,
    /// Timer events fired.
    pub timers: u64,
    /// Events processed in total (messages + timers + starts).
    pub events: u64,
    /// Cross-host messages dropped by the loss model.
    pub dropped: u64,
    /// Messages discarded because the destination host was down.
    pub dropped_down: u64,
    /// Messages discarded by an active network partition.
    pub partitioned: u64,
    /// Messages delivered twice by the duplication fault.
    pub duplicated: u64,
    /// Messages whose delivery was delayed by a latency spike.
    pub spiked: u64,
    /// Crash events fired.
    pub crashes: u64,
    /// Restart events fired.
    pub restarts: u64,
    /// Most events simultaneously queued at any point in the run — the
    /// working-set size the event queue had to hold, which at scale is
    /// the simulator's dominant memory driver. It is the event queue's
    /// own high-water mark.
    pub peak_queue: u64,
}

impl NetStats {
    /// Record one message of `bytes` bytes.
    #[inline]
    pub(crate) fn on_send(&mut self, bytes: u32) {
        self.messages += 1;
        self.bytes += bytes as u64;
    }

    /// Mean message size in bytes, or 0 when no messages were sent.
    pub fn mean_message_bytes(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.bytes as f64 / self.messages as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates() {
        let mut s = NetStats::default();
        s.on_send(100);
        s.on_send(50);
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 150);
        assert_eq!(s.mean_message_bytes(), 75.0);
    }

    #[test]
    fn empty_mean_is_zero() {
        assert_eq!(NetStats::default().mean_message_bytes(), 0.0);
    }
}
