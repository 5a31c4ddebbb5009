//! The MCC "N crosspoints per chip" abstraction, checked at the
//! crosspoint level.
//!
//! Eq. 4.1 prices each MCC chip crossing at N pipeline cycles, citing "the
//! average number of crosspoint switches per chip that a packet passes
//! through is N". The crosspoint-level chip simulator measures the actual
//! distribution: mean exactly N, but spanning 1 to 2N − 1 — so a
//! synchronous inter-chip design must either pad to the worst case or pay
//! elastic buffering. The experiment reports the distribution and checks
//! the simulated head transits against the path-geometry formula
//! everywhere.

use icn_sim::mesh::{self, MeshPacket};

use crate::table::{trim_float, TextTable};

use super::Artifact;

/// Exhaustively transit a 16×16 mesh chip, one packet per (row, col).
#[must_use]
pub fn mesh_validation() -> Artifact {
    let n = 16u32;
    let mut latencies = Vec::new();
    let mut all_match = true;
    for row in 0..n {
        for col in 0..n {
            let t = mesh::simulate_mesh(
                n,
                &[MeshPacket {
                    row,
                    col,
                    arrival: 0,
                    flits: 25,
                }],
            );
            let expected = u64::from(mesh::path_crosspoints(n, row, col));
            all_match &= t[0].head_latency() == expected;
            latencies.push(t[0].head_latency());
        }
    }
    let mean = latencies.iter().sum::<u64>() as f64 / latencies.len() as f64;
    let min = *latencies.iter().min().expect("non-empty");
    let max = *latencies.iter().max().expect("non-empty");

    // Histogram in buckets of N/4 cycles.
    let mut t = TextTable::new(vec!["head latency (cycles)", "paths", "plot"]);
    let bucket = u64::from(n) / 4;
    let mut edges = Vec::new();
    let mut lo = 1u64;
    while lo <= u64::from(2 * n - 1) {
        edges.push((lo, lo + bucket - 1));
        lo += bucket;
    }
    let mut histogram = Vec::new();
    for &(a, b) in &edges {
        let count = latencies.iter().filter(|&&l| (a..=b).contains(&l)).count();
        t.row(vec![
            format!("{a}..{b}"),
            count.to_string(),
            "#".repeat(count / 2),
        ]);
        histogram.push(serde_json::json!({ "from": a, "to": b, "count": count }));
    }

    let text = format!(
        "Crosspoint-level transit of a {n}x{n} MCC chip (all {count} input/output pairs)\n\n\
         mean head latency: {mean} cycles (eq. 4.1 uses N = {n}); range {min}..{max}\n\
         simulated transits match the path-geometry formula everywhere: {all_match}\n\n{}",
        t.render(),
        count = n * n,
        mean = trim_float(mean, 2),
    );
    Artifact {
        text,
        json: serde_json::json!({
            "n": n,
            "mean": mean,
            "min": min,
            "max": max,
            "all_match": all_match,
            "histogram": histogram,
        }),
        notes: vec![
            "worst case is 2N-1, twice eq. 4.1's average — a synchronous design pads \
             or buffers the difference"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_n_and_everything_matches() {
        let r = mesh_validation();
        assert_eq!(r.json["all_match"], true);
        let mean = r.json["mean"].as_f64().unwrap();
        assert!((mean - 16.0).abs() < 1e-9, "mean {mean}");
        assert_eq!(r.json["min"], 1);
        assert_eq!(r.json["max"], 31);
    }
}
