//! The packet value the engine moves through the network.

use serde::{Deserialize, Serialize};

/// A fixed-size packet travelling through the network.
///
/// The paper's packets are 100 bits carrying data, memory-module address,
/// intra-module address and return-processor address; here the payload is
/// abstract and only the routing information is materialized.
///
/// Routing is a pure function of `dest` (the per-stage tags are the
/// destination's mixed-radix digits, MSB first), so the tags are not
/// stored per packet: the engine precomputes one route table per network
/// and looks tags up by destination. That keeps `Packet` a small `Copy`
/// value — it moves through buffer slots, retry heaps, and delivery paths
/// without ever allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique id (injection order).
    pub id: u64,
    /// Source port.
    pub src: u32,
    /// Destination port.
    pub dest: u32,
    /// Cycle the packet was generated (entered the source queue).
    pub injected_at: u64,
    /// Cycle the packet's head entered the first-stage buffer.
    pub entered_at: Option<u64>,
    /// How many times this packet has been dropped by a fault and
    /// re-offered by its source (see [`crate::RetryPolicy`]).
    pub attempts: u32,
    /// Whether this packet was generated inside the measurement window and
    /// therefore contributes to statistics.
    pub tracked: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_is_a_small_copy_value() {
        let p = Packet {
            id: 0,
            src: 1,
            dest: 9,
            injected_at: 5,
            entered_at: None,
            attempts: 0,
            tracked: true,
        };
        let q = p; // Copy: p stays usable.
        assert_eq!(p, q);
        // The hot path copies packets at every hop; keep that cheap.
        assert!(size_of::<Packet>() <= 48);
    }
}
