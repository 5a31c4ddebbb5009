//! The paper's §4 network-delay expressions, in their printed form.
//!
//! Best case (lightly loaded, no blocking): a packet streams through the
//! whole network, delayed only by per-chip setup/pipeline-fill and its own
//! transfer time.
//!
//! * MCC (eq. 4.2): `T = (N·⌈log_N N′⌉ + P/W) / F` — each chip contributes
//!   ~N crosspoint-pipeline cycles.
//! * DMC (eq. 4.5): `T = ((M_sx + 1)·⌈log_N N′⌉ + P/W) / F` with
//!   `M_sx = ⌈log₂N / W⌉` — each chip contributes its setup plus one output
//!   register.
//!
//! The printed tables keep `P/W` fractional (e.g. 100/8 = 12.5 bit-times at
//! W = 8); we do the same here. The cycle-level simulator necessarily uses
//! whole flits (`⌈P/W⌉`), and the difference (< 1 cycle) is accounted for
//! in the E4 validation.

use icn_phys::CrossbarKind;
use icn_units::{Frequency, Time};
use serde::{Deserialize, Serialize};

/// DMC per-chip setup time in cycles, `M_sx = ⌈log₂N / W⌉` (eq. 4.3).
///
/// # Panics
/// Panics if `chip_radix < 2` or `width == 0`.
#[must_use]
pub fn dmc_setup_cycles(chip_radix: u32, width: u32) -> u32 {
    assert!(chip_radix >= 2, "chip radix must be at least 2");
    assert!(width >= 1, "width must be at least 1");
    (f64::from(chip_radix).log2() / f64::from(width))
        .ceil()
        .max(1.0) as u32
}

/// Number of stages `⌈log_N N′⌉` a packet crosses.
///
/// # Panics
/// Panics if `chip_radix < 2` or `network_ports == 0`.
#[must_use]
pub fn stage_count(network_ports: u32, chip_radix: u32) -> u32 {
    icn_phys::rack::ceil_log(network_ports, chip_radix)
}

/// The packet-independent part of the unloaded delay, in cycles: the
/// per-chip pipeline fill (`N` for MCC, `M_sx + 1` for DMC) times the
/// stage count `⌈log_N N′⌉`.
#[must_use]
pub fn fill_cycles(kind: CrossbarKind, chip_radix: u32, width: u32, network_ports: u32) -> f64 {
    let stages = f64::from(stage_count(network_ports, chip_radix));
    let fill_per_stage = match kind {
        CrossbarKind::Mcc => f64::from(chip_radix),
        CrossbarKind::Dmc => f64::from(dmc_setup_cycles(chip_radix, width) + 1),
    };
    fill_per_stage * stages
}

/// The packet's own transfer time `P/W` in cycles (fractional, as
/// printed).
#[must_use]
pub fn transfer_cycles(packet_bits: u32, width: u32) -> f64 {
    f64::from(packet_bits) / f64::from(width)
}

/// Unloaded one-way delay in clock cycles (fractional, as printed):
/// [`fill_cycles`] plus [`transfer_cycles`].
#[must_use]
pub fn unloaded_cycles(
    kind: CrossbarKind,
    chip_radix: u32,
    width: u32,
    packet_bits: u32,
    network_ports: u32,
) -> f64 {
    fill_cycles(kind, chip_radix, width, network_ports) + transfer_cycles(packet_bits, width)
}

/// Unloaded one-way delay as a duration at clock `f`.
#[must_use]
pub fn unloaded_delay(
    kind: CrossbarKind,
    chip_radix: u32,
    width: u32,
    packet_bits: u32,
    network_ports: u32,
    f: Frequency,
) -> Time {
    f.cycles(unloaded_cycles(
        kind,
        chip_radix,
        width,
        packet_bits,
        network_ports,
    ))
}

/// A remote memory read: request across the network, memory access, reply
/// back (§4's round-trip observation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundTrip {
    /// One-way network delay.
    pub one_way: Time,
    /// Memory access time (200 ns in the paper's example).
    pub memory_access: Time,
}

impl RoundTrip {
    /// Total round-trip time `2·T + t_mem`.
    #[must_use]
    pub fn total(&self) -> Time {
        self.one_way * 2.0 + self.memory_access
    }

    /// Slowdown versus a strictly local access of `local` duration — the
    /// paper's "more than an order of magnitude" conclusion.
    #[must_use]
    pub fn slowdown_vs_local(&self, local: Time) -> f64 {
        self.total() / local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MHZ: f64 = 1e6;

    fn t_us(kind: CrossbarKind, width: u32, f_mhz: f64) -> f64 {
        // Paper's delay table: P = 100, N = 16, 512 ≤ N′ ≤ 4096 → 3 stages.
        unloaded_delay(kind, 16, width, 100, 4096, Frequency::from_hz(f_mhz * MHZ)).micros()
    }

    /// Every cell of the paper's "Time Through Network" table (both the MCC
    /// and the DMC block), to the table's printed precision.
    #[test]
    fn reproduces_delay_table() {
        let mcc = [
            (1u32, [14.8, 7.4, 4.9, 3.7, 1.9]),
            (2, [9.8, 4.9, 3.3, 2.5, 1.2]),
            (4, [7.3, 3.7, 2.4, 1.8, 0.91]),
            (8, [6.1, 3.1, 2.0, 1.5, 0.76]),
        ];
        let dmc = [
            (1u32, [11.5, 5.75, 3.8, 2.88, 1.44]),
            (2, [5.9, 2.95, 1.9, 1.48, 0.74]),
            (4, [3.1, 1.55, 1.03, 0.78, 0.39]),
            (8, [1.9, 0.95, 0.63, 0.48, 0.24]),
        ];
        let freqs = [10.0, 20.0, 30.0, 40.0, 80.0];
        for (kind, table) in [(CrossbarKind::Mcc, mcc), (CrossbarKind::Dmc, dmc)] {
            for (w, expected) in table {
                for (i, &f) in freqs.iter().enumerate() {
                    let got = t_us(kind, w, f);
                    let want = expected[i];
                    // The paper prints 2–3 significant digits and sometimes
                    // truncates rather than rounds (e.g. 59/30 = 1.967
                    // printed as 1.9), so allow 5 % slack.
                    assert!(
                        (got - want).abs() / want < 0.05,
                        "{kind} W={w} F={f}: got {got}, paper {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn stage_counts() {
        assert_eq!(stage_count(4096, 16), 3);
        assert_eq!(stage_count(2048, 16), 3);
        assert_eq!(stage_count(512, 16), 3);
        assert_eq!(stage_count(256, 16), 2);
        assert_eq!(stage_count(16, 16), 1);
    }

    #[test]
    fn dmc_setup_matches_eq_4_3() {
        assert_eq!(dmc_setup_cycles(16, 1), 4);
        assert_eq!(dmc_setup_cycles(16, 2), 2);
        assert_eq!(dmc_setup_cycles(16, 4), 1);
        assert_eq!(dmc_setup_cycles(16, 8), 1);
        assert_eq!(dmc_setup_cycles(8, 1), 3);
    }

    /// §6's headline: the 2048-port DMC design at ~32 MHz has a one-way
    /// delay of about 1 µs and a > 2 µs round trip with 200 ns memory.
    #[test]
    fn example_2048_headline_numbers() {
        let f = Frequency::from_mhz(32.0);
        let one_way = unloaded_delay(CrossbarKind::Dmc, 16, 4, 100, 2048, f);
        assert!(
            (0.9..=1.1).contains(&one_way.micros()),
            "one-way {} µs",
            one_way.micros()
        );
        let rt = RoundTrip {
            one_way,
            memory_access: Time::from_nanos(200.0),
        };
        assert!(
            rt.total().micros() > 2.0,
            "round trip {} µs",
            rt.total().micros()
        );
        // More than an order of magnitude slower than a 200 ns local access.
        let slowdown = rt.slowdown_vs_local(Time::from_nanos(200.0));
        assert!(slowdown > 10.0, "slowdown {slowdown}");
    }

    #[test]
    fn mcc_is_slower_than_dmc_at_equal_frequency() {
        // The paper's tables: MCC's N-cycle fill dominates DMC's setup at
        // every width (for N = 16).
        for w in [1, 2, 4, 8] {
            assert!(t_us(CrossbarKind::Mcc, w, 40.0) > t_us(CrossbarKind::Dmc, w, 40.0));
        }
    }

    #[test]
    fn delay_scales_inversely_with_frequency() {
        let a = t_us(CrossbarKind::Dmc, 4, 10.0);
        let b = t_us(CrossbarKind::Dmc, 4, 80.0);
        assert!((a / b - 8.0).abs() < 1e-9);
    }
}
