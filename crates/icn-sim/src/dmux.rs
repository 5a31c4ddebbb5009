//! Structural simulation of one DMUX/MUX crossbar chip (Figure 4b).
//!
//! The DMC chip routes by accumulating the packet header at an input port
//! controller: with a `W`-bit path, the `log₂N` destination bits arrive in
//! `M_sx = ⌈log₂N / W⌉` cycles (eq. 4.3). The input's demultiplexer then
//! drives one of the `N` equal-length harness wires; the output port
//! controller (a multiplexer) grants among simultaneous requesters and the
//! chosen packet streams through a one-bit output register — head latency
//! `M_sx + 1`, the figure the network engine's [`crate::ChipModel::Dmc`]
//! abstraction uses. This module builds that structure explicitly so the
//! abstraction is *derived*, not asserted.

use serde::{Deserialize, Serialize};

/// One packet to drive through the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmcPacket {
    /// Input port.
    pub input: u32,
    /// Output port.
    pub output: u32,
    /// Cycle the first header flit arrives at the input.
    pub arrival: u64,
    /// Packet length in flits.
    pub flits: u64,
}

/// The transit record of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmcTransit {
    /// Input port.
    pub input: u32,
    /// Output port.
    pub output: u32,
    /// Cycle the header started arriving.
    pub head_in: u64,
    /// Cycle the demux finished decoding the routing header
    /// (`head_in + M_sx`).
    pub setup_done: u64,
    /// Cycle the output mux granted the packet its circuit.
    pub granted_at: u64,
    /// Cycle the head left the chip (`granted_at + 1`, the output
    /// register).
    pub head_out: u64,
    /// Cycle the tail left the chip.
    pub tail_out: u64,
}

impl DmcTransit {
    /// Head latency through the chip.
    #[must_use]
    pub fn head_latency(&self) -> u64 {
        self.head_out - self.head_in
    }

    /// Cycles the packet waited at the output mux beyond its setup.
    #[must_use]
    pub fn mux_wait(&self) -> u64 {
        self.granted_at - self.setup_done
    }
}

/// Setup cycles `M_sx = ⌈log₂N / W⌉` (eq. 4.3), at least one.
///
/// # Panics
/// Panics if `radix < 2` or `width == 0`.
#[must_use]
pub fn setup_cycles(radix: u32, width: u32) -> u64 {
    assert!(radix >= 2, "DMC radix must be at least 2");
    assert!(width >= 1, "width must be at least 1");
    ((f64::from(radix).log2() / f64::from(width)).ceil() as u64).max(1)
}

/// Simulate an `radix × radix` DMC chip with `width`-bit paths carrying
/// `packets`.
///
/// Semantics: each input decodes its header for `M_sx` cycles, then
/// requests its output's multiplexer. A free mux grants the lowest-index
/// requester each cycle and is circuit-held until the packet's tail passes
/// (`1 + flits` cycles after grant). One packet per input at a time
/// (callers model input queueing).
///
/// # Examples
/// ```
/// use icn_sim::dmux::{simulate_dmc, DmcPacket};
///
/// // W=4 on a 16×16 chip: M_sx = 1 setup cycle + 1 output register.
/// let t = simulate_dmc(16, 4, &[DmcPacket { input: 3, output: 11, arrival: 0, flits: 25 }]);
/// assert_eq!(t[0].head_latency(), 2);
/// ```
///
/// # Panics
/// Panics on out-of-range ports, zero flits, or two packets sharing an
/// input with overlapping lifetimes.
#[must_use]
pub fn simulate_dmc(radix: u32, width: u32, packets: &[DmcPacket]) -> Vec<DmcTransit> {
    let m_sx = setup_cycles(radix, width);
    for p in packets {
        assert!(p.input < radix && p.output < radix, "port out of range");
        assert!(p.flits >= 1, "packets need at least one flit");
    }
    #[derive(Debug)]
    struct Flight {
        output: u32,
        setup_done: u64,
        granted_at: Option<u64>,
    }
    let mut flights: Vec<Flight> = packets
        .iter()
        .map(|p| Flight {
            output: p.output,
            setup_done: p.arrival + m_sx,
            granted_at: None,
        })
        .collect();
    let mut mux_free = vec![0u64; radix as usize];

    let horizon: u64 = packets
        .iter()
        .map(|p| p.arrival + m_sx + 1 + p.flits)
        .sum::<u64>()
        + 16;
    let mut now = 0u64;
    // Completion counter instead of an O(flights) rescan every cycle.
    let mut remaining = flights.len();
    while remaining > 0 {
        assert!(now <= horizon, "DMC simulation exceeded its bound");
        // Each mux grants the lowest-index ready requester (fixed priority,
        // like the paper's "simplest possible" OPC).
        for out in 0..radix {
            if mux_free[out as usize] > now {
                continue;
            }
            let ready = flights
                .iter_mut()
                .enumerate()
                .filter(|(_, f)| f.output == out && f.granted_at.is_none() && f.setup_done <= now)
                .min_by_key(|(i, _)| *i);
            if let Some((i, flight)) = ready {
                flight.granted_at = Some(now);
                mux_free[out as usize] = now + 1 + packets[i].flits;
                remaining -= 1;
            }
        }
        now += 1;
    }

    flights
        .iter()
        .zip(packets)
        .map(|(f, p)| {
            #[expect(
                clippy::expect_used,
                reason = "the grant loop above runs until `remaining == 0`, which sets every granted_at"
            )]
            let granted_at = f.granted_at.expect("loop exits only when all granted");
            DmcTransit {
                input: p.input,
                output: p.output,
                head_in: p.arrival,
                setup_done: f.setup_done,
                granted_at,
                head_out: granted_at + 1,
                tail_out: granted_at + p.flits,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChipModel;

    #[test]
    fn setup_cycles_match_eq_4_3() {
        assert_eq!(setup_cycles(16, 1), 4);
        assert_eq!(setup_cycles(16, 2), 2);
        assert_eq!(setup_cycles(16, 4), 1);
        assert_eq!(setup_cycles(16, 8), 1);
        assert_eq!(setup_cycles(8, 1), 3);
    }

    /// The structural head latency equals the network engine's DMC
    /// abstraction (`M_sx + 1`) for every width — the abstraction is
    /// derived from the structure.
    #[test]
    fn structure_reproduces_the_engine_abstraction() {
        for width in [1u32, 2, 4, 8] {
            for radix in [4u32, 8, 16] {
                let t = simulate_dmc(
                    radix,
                    width,
                    &[DmcPacket {
                        input: 0,
                        output: radix - 1,
                        arrival: 0,
                        flits: 25,
                    }],
                );
                assert_eq!(
                    t[0].head_latency(),
                    ChipModel::Dmc.head_latency(radix, width),
                    "N={radix} W={width}"
                );
                assert_eq!(t[0].mux_wait(), 0);
            }
        }
    }

    /// Distinct outputs never interact: a full permutation goes through
    /// with zero mux wait.
    #[test]
    fn permutation_is_concurrent() {
        let packets: Vec<DmcPacket> = (0..16)
            .map(|i| DmcPacket {
                input: i,
                output: (i + 7) % 16,
                arrival: 0,
                flits: 10,
            })
            .collect();
        for t in simulate_dmc(16, 4, &packets) {
            assert_eq!(t.mux_wait(), 0);
        }
    }

    /// Output contention serializes on the mux: the loser waits for the
    /// winner's tail (circuit-held output), exactly one packet time.
    #[test]
    fn output_contention_serializes_by_packet_time() {
        let flits = 10;
        let packets = vec![
            DmcPacket {
                input: 2,
                output: 5,
                arrival: 0,
                flits,
            },
            DmcPacket {
                input: 9,
                output: 5,
                arrival: 0,
                flits,
            },
        ];
        let t = simulate_dmc(16, 4, &packets);
        // Fixed priority: the lower input index wins.
        assert_eq!(t[0].mux_wait(), 0);
        assert_eq!(t[1].mux_wait(), 1 + flits);
    }

    /// Late arrivals wait out their own setup, not the clock.
    #[test]
    fn arrival_offsets_shift_the_pipeline() {
        let t = simulate_dmc(
            16,
            2,
            &[DmcPacket {
                input: 1,
                output: 3,
                arrival: 100,
                flits: 50,
            }],
        );
        assert_eq!(t[0].setup_done, 102);
        assert_eq!(t[0].head_out, 103);
        assert_eq!(t[0].tail_out, 152);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_port_panics() {
        let _ = simulate_dmc(
            4,
            1,
            &[DmcPacket {
                input: 4,
                output: 0,
                arrival: 0,
                flits: 1,
            }],
        );
    }
}
