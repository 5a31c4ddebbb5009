//! Lazy cross-product enumeration of candidate designs.
//!
//! A [`GridSpec`] names the axis values of a design-space sweep; it never
//! materialises the cross-product. Candidates are identified by a single
//! canonical index `0..candidate_count()` and decoded on demand with a
//! mixed-radix scheme, so a 10^6+ grid costs a few `Vec`s of axis values
//! and nothing else.
//!
//! Axis order (slowest- to fastest-varying): technology, crossbar kind,
//! clock scheme, network ports, chip radix, path width, packet bits.
//! Packet bits varying fastest is deliberate: every candidate property
//! except the transfer delay is packet-size independent, so a sequential
//! evaluator can reuse one "chassis" evaluation (pins, boards, clock,
//! frequency) across the whole innermost run (see `eval`).

use icn_phys::{ClockScheme, CrossbarKind};
use icn_tech::presets;
use serde::{Deserialize, Serialize};

/// Largest grid the engine accepts; anything bigger is a spec mistake
/// (at ~10^7 candidates/sec/core this is already days of work).
pub const MAX_GRID_CANDIDATES: u64 = 100_000_000_000;

/// The axes of a design-space sweep. Every field with a `0`/empty
/// sentinel documents its fallback; the axis vectors themselves must be
/// non-empty (see [`GridSpec::validate`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Technology preset names (see `icn_tech::presets::by_name`).
    #[serde(default)]
    pub techs: Vec<String>,
    /// Crossbar kinds to consider.
    #[serde(default)]
    pub kinds: Vec<CrossbarKind>,
    /// Clock distribution schemes to consider.
    #[serde(default)]
    pub clock_schemes: Vec<ClockScheme>,
    /// Full-network port counts `N'`.
    #[serde(default)]
    pub network_ports: Vec<u32>,
    /// Chip radices `N`.
    #[serde(default)]
    pub radices: Vec<u32>,
    /// Path widths `W` in bits.
    #[serde(default)]
    pub widths: Vec<u32>,
    /// Packet sizes `P` in bits.
    #[serde(default)]
    pub packet_bits: Vec<u32>,
    /// Memory access time in nanoseconds (0 = the paper's 200 ns).
    #[serde(default)]
    pub memory_access_ns: f64,
    /// Largest board port count considered when choosing a board for a
    /// radix (0 = the paper's 256-port scale).
    #[serde(default)]
    pub max_board_ports: u32,
}

/// One decoded candidate: the axis values at a canonical grid index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Canonical grid index this candidate was decoded from.
    pub index: u64,
    /// Index into [`GridSpec::techs`].
    pub tech_index: usize,
    /// Crossbar kind.
    pub kind: CrossbarKind,
    /// Clock scheme.
    pub clock_scheme: ClockScheme,
    /// Full-network ports `N'`.
    pub network_ports: u32,
    /// Chip radix `N`.
    pub chip_radix: u32,
    /// Path width `W`.
    pub width: u32,
    /// Packet size `P` in bits.
    pub packet_bits: u32,
}

impl Default for GridSpec {
    fn default() -> Self {
        Self::paper()
    }
}

impl GridSpec {
    /// The paper's §3 design space: the same 32 (kind, N, W) points
    /// `icn_core::explore::ExploreSpec::paper_space()` walks.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            techs: vec!["paper-1986-mos-pga".to_string()],
            kinds: vec![CrossbarKind::Mcc, CrossbarKind::Dmc],
            clock_schemes: vec![ClockScheme::MultiplePulse],
            network_ports: vec![2048],
            radices: vec![4, 8, 16, 32],
            widths: vec![1, 2, 4, 8],
            packet_bits: vec![100],
            memory_access_ns: 200.0,
            max_board_ports: 256,
        }
    }

    /// A mid-size grid (~5k candidates) used by the test suite: big
    /// enough that chunking and thread fan-out are exercised, small
    /// enough for CI.
    #[must_use]
    pub fn bench() -> Self {
        Self {
            techs: vec![
                "paper-1986-mos-pga".to_string(),
                "scaled-cmos-early90s".to_string(),
            ],
            kinds: vec![CrossbarKind::Mcc, CrossbarKind::Dmc],
            clock_schemes: vec![ClockScheme::Standard, ClockScheme::MultiplePulse],
            network_ports: vec![1024, 2048],
            radices: vec![4, 8, 16, 32],
            widths: vec![1, 2, 4, 8],
            packet_bits: (50..=500).step_by(25).collect(),
            memory_access_ns: 200.0,
            max_board_ports: 256,
        }
    }

    /// A ≥10^6-candidate grid: every technology preset, both kinds, both
    /// clock schemes, four network sizes, six radices, eight widths and a
    /// dense packet-size sweep — 1,163,520 candidates.
    #[must_use]
    pub fn million() -> Self {
        Self {
            techs: presets::all().into_iter().map(|t| t.name).collect(),
            kinds: vec![CrossbarKind::Mcc, CrossbarKind::Dmc],
            clock_schemes: vec![ClockScheme::Standard, ClockScheme::MultiplePulse],
            network_ports: vec![512, 1024, 2048, 4096],
            radices: vec![2, 4, 8, 16, 32, 64],
            widths: vec![1, 2, 3, 4, 6, 8, 12, 16],
            packet_bits: (16..=1024).step_by(2).collect(),
            memory_access_ns: 200.0,
            max_board_ports: 256,
        }
    }

    /// Look up a built-in grid by name (`paper`, `bench`, `million`).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(Self::paper()),
            "bench" => Some(Self::bench()),
            "million" => Some(Self::million()),
            _ => None,
        }
    }

    /// Memory access time with the zero-sentinel resolved.
    #[must_use]
    pub fn memory_access_ns_resolved(&self) -> f64 {
        if self.memory_access_ns > 0.0 {
            self.memory_access_ns
        } else {
            200.0
        }
    }

    /// Board-size cap with the zero-sentinel resolved.
    #[must_use]
    pub fn max_board_ports_resolved(&self) -> u32 {
        if self.max_board_ports > 0 {
            self.max_board_ports
        } else {
            256
        }
    }

    /// Total candidates in the cross-product.
    ///
    /// # Errors
    /// Returns a message when any axis is empty, a technology name is
    /// unknown, an axis value is out of domain, or the product exceeds
    /// [`MAX_GRID_CANDIDATES`].
    pub fn candidate_count(&self) -> Result<u64, String> {
        self.validate()?;
        self.raw_count()
            .ok_or_else(|| "grid cross-product overflows u64".to_string())
    }

    fn raw_count(&self) -> Option<u64> {
        [
            self.techs.len(),
            self.kinds.len(),
            self.clock_schemes.len(),
            self.network_ports.len(),
            self.radices.len(),
            self.widths.len(),
            self.packet_bits.len(),
        ]
        .iter()
        .try_fold(1u64, |acc, &len| acc.checked_mul(len as u64))
    }

    /// Check the spec for authoring mistakes before any evaluation runs.
    ///
    /// # Errors
    /// Returns a human-readable message naming the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let axes: [(&str, usize); 7] = [
            ("techs", self.techs.len()),
            ("kinds", self.kinds.len()),
            ("clock_schemes", self.clock_schemes.len()),
            ("network_ports", self.network_ports.len()),
            ("radices", self.radices.len()),
            ("widths", self.widths.len()),
            ("packet_bits", self.packet_bits.len()),
        ];
        for (name, len) in axes {
            if len == 0 {
                return Err(format!("grid axis `{name}` is empty"));
            }
        }
        for name in &self.techs {
            if presets::by_name(name).is_none() {
                return Err(format!("unknown technology preset `{name}`"));
            }
        }
        if let Some(&p) = self.network_ports.iter().find(|&&p| p < 2) {
            return Err(format!("network_ports value {p} is below 2"));
        }
        if let Some(&r) = self.radices.iter().find(|&&r| r < 2) {
            return Err(format!("radix {r} is below 2"));
        }
        if self.widths.contains(&0) {
            return Err("width 0 is not a data path".to_string());
        }
        if self.packet_bits.contains(&0) {
            return Err("packet_bits 0 carries no data".to_string());
        }
        if !self.memory_access_ns.is_finite() || self.memory_access_ns < 0.0 {
            return Err("memory_access_ns must be a non-negative finite number".to_string());
        }
        match self.raw_count() {
            Some(n) if n <= MAX_GRID_CANDIDATES => Ok(()),
            Some(n) => Err(format!(
                "grid has {n} candidates, above the {MAX_GRID_CANDIDATES} cap"
            )),
            None => Err("grid cross-product overflows u64".to_string()),
        }
    }

    /// Decode the candidate at canonical `index` (mixed-radix, packet
    /// bits fastest-varying). `index` must be below the candidate count.
    #[must_use]
    pub fn candidate(&self, index: u64) -> Candidate {
        let mut rest = index;
        let mut pick = |len: usize| -> usize {
            let len = len.max(1) as u64;
            let digit = rest % len;
            rest /= len;
            digit as usize
        };
        let packet_bits = self.packet_bits[pick(self.packet_bits.len())];
        let width = self.widths[pick(self.widths.len())];
        let chip_radix = self.radices[pick(self.radices.len())];
        let network_ports = self.network_ports[pick(self.network_ports.len())];
        let clock_scheme = self.clock_schemes[pick(self.clock_schemes.len())];
        let kind = self.kinds[pick(self.kinds.len())];
        let tech_index = pick(self.techs.len());
        Candidate {
            index,
            tech_index,
            kind,
            clock_scheme,
            network_ports,
            chip_radix,
            width,
            packet_bits,
        }
    }

    /// The id shared by every candidate that differs only in packet bits
    /// — the key of the chassis memo in `eval`.
    #[must_use]
    pub fn chassis_id(&self, index: u64) -> u64 {
        index / self.packet_bits.len().max(1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_grids_validate() {
        for name in ["paper", "bench", "million"] {
            let spec = GridSpec::by_name(name).unwrap();
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(GridSpec::by_name("nope").is_none());
    }

    #[test]
    fn paper_grid_matches_the_seed_walk() {
        assert_eq!(GridSpec::paper().candidate_count().unwrap(), 32);
    }

    #[test]
    fn million_grid_is_actually_a_million() {
        let n = GridSpec::million().candidate_count().unwrap();
        assert!(n >= 1_000_000, "only {n} candidates");
        assert_eq!(n, 1_163_520);
    }

    #[test]
    fn decode_round_trips_every_axis_value() {
        let spec = GridSpec::bench();
        let n = spec.candidate_count().unwrap();
        // Every candidate index decodes to in-range axis values, and the
        // full sweep hits every value of every axis.
        let mut seen_packets = std::collections::BTreeSet::new();
        let mut seen_radices = std::collections::BTreeSet::new();
        for index in 0..n {
            let c = spec.candidate(index);
            assert_eq!(c.index, index);
            assert!(spec.packet_bits.contains(&c.packet_bits));
            assert!(spec.radices.contains(&c.chip_radix));
            assert!(c.tech_index < spec.techs.len());
            seen_packets.insert(c.packet_bits);
            seen_radices.insert(c.chip_radix);
        }
        assert_eq!(seen_packets.len(), spec.packet_bits.len());
        assert_eq!(seen_radices.len(), spec.radices.len());
    }

    #[test]
    fn packet_bits_is_the_fastest_axis() {
        let spec = GridSpec::bench();
        let a = spec.candidate(0);
        let b = spec.candidate(1);
        assert_eq!(a.chip_radix, b.chip_radix);
        assert_ne!(a.packet_bits, b.packet_bits);
        assert_eq!(spec.chassis_id(0), spec.chassis_id(1));
        assert_ne!(
            spec.chassis_id(0),
            spec.chassis_id(spec.packet_bits.len() as u64)
        );
    }

    #[test]
    fn validation_catches_authoring_mistakes() {
        let mut spec = GridSpec::paper();
        spec.techs = vec!["not-a-preset".to_string()];
        assert!(spec.validate().is_err());
        let mut spec = GridSpec::paper();
        spec.widths.clear();
        assert!(spec.validate().is_err());
        let mut spec = GridSpec::paper();
        spec.radices = vec![1];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = GridSpec::bench();
        let json = serde_json::to_string(&spec).unwrap();
        let back: GridSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
