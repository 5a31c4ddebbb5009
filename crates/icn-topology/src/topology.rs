//! The wired network: shuffles, modules, and path computation.

use serde::{Deserialize, Serialize};

use crate::plan::StagePlan;
use crate::route::{Hop, Path};

/// A generalized delta network: `plan.stages()` stages of crossbar modules
/// joined by perfect-shuffle wiring.
///
/// Line numbering: between any two adjacent stages (and at the network's
/// edges) there are `N′` lines, numbered `0..N′`. Stage `i` is *preceded* by
/// the radix-`r_i` perfect shuffle `σ_i(p) = (p·r_i) mod N′ + ⌊p·r_i / N′⌋`;
/// after the shuffle, line `p` enters module `⌊p / r_i⌋` on port `p mod r_i`,
/// and a packet destined for `d` leaves on port `tag_i(d)` — one mixed-radix
/// digit of the destination, most significant first.
///
/// This is exactly the Boolean-hypercube-style `N log N` structure of the
/// paper's Figure 1 (for radix 2) generalized to the 16×16-chip networks of
/// §3–§6 (and to the mixed-radix 16·16·8 plan of the 2048-port example).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    plan: StagePlan,
}

impl Topology {
    /// Wire up the network described by `plan`.
    #[must_use]
    pub fn new(plan: StagePlan) -> Self {
        Self { plan }
    }

    /// The stage plan.
    #[must_use]
    pub fn plan(&self) -> &StagePlan {
        &self.plan
    }

    /// Total ports `N′`.
    #[must_use]
    pub fn ports(&self) -> u32 {
        self.plan.ports()
    }

    /// Number of stages.
    #[must_use]
    pub fn stages(&self) -> u32 {
        self.plan.stages()
    }

    /// The perfect shuffle applied to line `line` entering stage `stage`.
    ///
    /// # Panics
    /// Panics if `stage` or `line` is out of range.
    #[must_use]
    pub fn shuffle(&self, stage: u32, line: u32) -> u32 {
        let n = u64::from(self.ports());
        assert!(u64::from(line) < n, "line {line} out of range");
        let r = u64::from(self.stage_radix(stage));
        let p = u64::from(line);
        ((p * r) % n + (p * r) / n) as u32
    }

    /// Radix of stage `stage`.
    ///
    /// # Panics
    /// Panics if `stage` is out of range.
    #[must_use]
    pub fn stage_radix(&self, stage: u32) -> u32 {
        self.plan.radices()[stage as usize]
    }

    /// The self-routing tag (output port) a packet destined for `dest` uses
    /// at each stage: the mixed-radix digits of `dest`, most significant
    /// first, with stage `i`'s digit in radix `r_i`. The digits come one
    /// per stage without an allocation; collect them for a `Vec`.
    ///
    /// # Panics
    /// Panics if `dest` is out of range.
    pub fn routing_tags(&self, dest: u32) -> impl ExactSizeIterator<Item = u32> + '_ {
        assert!(dest < self.ports(), "destination {dest} out of range");
        let mut weight = u64::from(self.ports());
        self.plan.radices().iter().map(move |&r| {
            weight /= u64::from(r);
            ((u64::from(dest) / weight) % u64::from(r)) as u32
        })
    }

    /// The unique path from `src` to `dest`.
    ///
    /// # Examples
    /// ```
    /// use icn_topology::{StagePlan, Topology};
    ///
    /// // The paper's 2048-port network of 16×16 chips (16·16·8).
    /// let t = Topology::new(StagePlan::balanced_pow2(2048, 16).unwrap());
    /// let path = t.route(37, 1900);
    /// assert_eq!(path.exit_line, 1900);
    /// assert_eq!(path.hops.len(), 3); // one hop per stage
    /// ```
    ///
    /// # Panics
    /// Panics if either port is out of range.
    #[must_use]
    pub fn route(&self, src: u32, dest: u32) -> Path {
        assert!(src < self.ports(), "source {src} out of range");
        let mut line = src;
        let mut hops = Vec::with_capacity(self.stages() as usize);
        for (stage, tag) in self.routing_tags(dest).enumerate() {
            let stage = stage as u32;
            let r = self.stage_radix(stage);
            let shuffled = self.shuffle(stage, line);
            let module = shuffled / r;
            let in_port = shuffled % r;
            hops.push(Hop {
                stage,
                module,
                in_port,
                out_port: tag,
            });
            line = module * r + tag;
        }
        Path {
            src,
            dest,
            hops,
            exit_line: line,
        }
    }

    /// Where line `line` leaving stage `stage` enters stage `stage + 1`
    /// (identity here — the shuffle is modelled at stage entry), or the
    /// network output if `stage` is the last.
    ///
    /// Provided for simulators that walk the wiring hop by hop.
    #[must_use]
    pub fn module_output_line(&self, stage: u32, module: u32, out_port: u32) -> u32 {
        let r = self.stage_radix(stage);
        assert!(
            out_port < r,
            "output port {out_port} out of range for radix {r}"
        );
        assert!(
            module < self.plan.modules_in_stage(stage),
            "module {module} out of range in stage {stage}"
        );
        module * r + out_port
    }

    /// The (module, input-port) pair that line `line` reaches at stage
    /// `stage`, after the stage's shuffle.
    #[must_use]
    pub fn stage_input(&self, stage: u32, line: u32) -> (u32, u32) {
        let r = self.stage_radix(stage);
        let shuffled = self.shuffle(stage, line);
        (shuffled / r, shuffled % r)
    }

    /// Every destination's routing tags in one flat table, destination
    /// major: `table[dest · stages + stage]` is the `stage`-th item of
    /// [`Topology::routing_tags`]`(dest)`.
    ///
    /// Built without per-element division: stage `s`'s digit is constant
    /// over blocks of `∏_{j>s} r_j` consecutive destinations and steps
    /// through `0..r_s` from one block to the next. The returned `Vec`'s
    /// capacity is exactly its length.
    #[must_use]
    pub fn route_table(&self) -> Vec<u32> {
        let radices = self.plan.radices();
        let stages = radices.len();
        let mut table = vec![0; self.ports() as usize * stages];
        let mut block = self.ports() as usize;
        for (stage, &r) in radices.iter().enumerate() {
            block /= r as usize;
            let mut digit = 0;
            for rows in table.chunks_exact_mut(block * stages) {
                for row in rows.chunks_exact_mut(stages) {
                    row[stage] = digit;
                }
                digit = if digit + 1 == r { 0 } else { digit + 1 };
            }
        }
        table
    }

    /// The perfect shuffle ahead of stage `stage` for every line:
    /// `table[line]` = [`Topology::shuffle`]`(stage, line)`, which is also
    /// [`Topology::stage_input`]'s `module · r + port`.
    ///
    /// Built without division: line `k·(N′/r) + j` lands on `j·r + k`.
    /// The returned `Vec`'s capacity is exactly its length.
    ///
    /// # Panics
    /// Panics if `stage` is out of range.
    #[must_use]
    pub fn shuffle_table(&self, stage: u32) -> Vec<u32> {
        let r = self.stage_radix(stage);
        let per_turn = self.ports() / r;
        let mut table = Vec::with_capacity(self.ports() as usize);
        for k in 0..r {
            table.extend((0..per_turn).map(|j| j * r + k));
        }
        table
    }

    /// Render the network as a Graphviz DOT digraph (Figure 1 style):
    /// input nodes, one node per module per stage, output nodes, and an
    /// edge per wire. Intended for small networks — a 16-port network
    /// renders nicely, a 2048-port one produces 6k+ edges.
    #[must_use]
    pub fn to_dot(&self) -> String {
        use core::fmt::Write as _;
        let mut dot = String::new();
        dot.push_str("digraph network {\n  rankdir=LR;\n  node [shape=box];\n");
        for p in 0..self.ports() {
            let _ = writeln!(dot, "  in{p} [shape=plaintext,label=\"i{p}\"];");
            let _ = writeln!(dot, "  out{p} [shape=plaintext,label=\"o{p}\"];");
        }
        for stage in 0..self.stages() {
            for module in 0..self.plan.modules_in_stage(stage) {
                let r = self.stage_radix(stage);
                let _ = writeln!(
                    dot,
                    "  s{stage}m{module} [label=\"{r}x{r}\\ns{stage} m{module}\"];"
                );
            }
        }
        // Wires into stage 0 and between stages (through each shuffle).
        for line in 0..self.ports() {
            let (m, p) = self.stage_input(0, line);
            let _ = writeln!(
                dot,
                "  in{line} -> s0m{m} [taillabel=\"\",headlabel=\"{p}\"];"
            );
        }
        for stage in 0..self.stages() {
            let r = self.stage_radix(stage);
            for module in 0..self.plan.modules_in_stage(stage) {
                for out in 0..r {
                    let line = self.module_output_line(stage, module, out);
                    if stage + 1 == self.stages() {
                        let _ = writeln!(dot, "  s{stage}m{module} -> out{line};");
                    } else {
                        let (dm, dp) = self.stage_input(stage + 1, line);
                        let _ = writeln!(
                            dot,
                            "  s{stage}m{module} -> s{next}m{dm} [headlabel=\"{dp}\"];",
                            next = stage + 1
                        );
                    }
                }
            }
        }
        dot.push_str("}\n");
        dot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(radices: &[u32]) -> Topology {
        Topology::new(StagePlan::from_radices(radices.to_vec()))
    }

    /// Every (src, dest) pair must arrive — the full-access property, which
    /// also pins down the digit order of `routing_tags`.
    #[test]
    fn full_access_small_networks() {
        for radices in [
            vec![2u32, 2],
            vec![2, 2, 2, 2],
            vec![4, 4],
            vec![2, 3],
            vec![3, 2],
            vec![4, 2, 8],
            vec![16, 16],
        ] {
            let t = net(&radices);
            let n = t.ports();
            for src in 0..n {
                for dest in 0..n {
                    let path = t.route(src, dest);
                    assert_eq!(
                        path.exit_line, dest,
                        "misroute {src}->{dest} in {radices:?}"
                    );
                    assert_eq!(path.hops.len() as u32, t.stages());
                }
            }
        }
    }

    /// The paper's 2048-port 16·16·8 network routes correctly (sampled
    /// corners plus a strided sweep; the exhaustive check lives in the
    /// verify module's tests for smaller networks).
    #[test]
    fn paper_2048_routes_correctly() {
        let t = Topology::new(StagePlan::balanced_pow2(2048, 16).unwrap());
        for src in (0..2048).step_by(61) {
            for dest in (0..2048).step_by(67) {
                assert_eq!(t.route(src, dest).exit_line, dest);
            }
        }
        for (src, dest) in [(0, 0), (0, 2047), (2047, 0), (2047, 2047), (1024, 1023)] {
            assert_eq!(t.route(src, dest).exit_line, dest);
        }
    }

    /// Figure 1's 16-port network of 2×2 modules: 4 stages of 8 modules.
    #[test]
    fn figure1_structure() {
        let t = net(&[2, 2, 2, 2]);
        assert_eq!(t.ports(), 16);
        assert_eq!(t.stages(), 4);
        for s in 0..4 {
            assert_eq!(t.plan().modules_in_stage(s), 8);
        }
    }

    /// Routing tags are the destination's mixed-radix digits, MSB first.
    #[test]
    fn routing_tags_are_destination_digits() {
        let t = net(&[16, 16, 8]);
        // dest = 1234 = 4·256 + 13·16 + 2·... in radix (16,16,8):
        // weights are 128, 8, 1: 1234 = 9·128 + 10·8 + 2.
        assert_eq!(t.routing_tags(1234).collect::<Vec<_>>(), [9, 10, 2]);
        assert_eq!(t.routing_tags(0).collect::<Vec<_>>(), [0, 0, 0]);
        assert_eq!(t.routing_tags(2047).collect::<Vec<_>>(), [15, 15, 7]);
    }

    /// The shuffle before each stage is a permutation of the lines.
    #[test]
    fn shuffles_are_permutations() {
        let t = net(&[4, 2, 8]);
        for stage in 0..t.stages() {
            let mut seen = vec![false; t.ports() as usize];
            for line in 0..t.ports() {
                let s = t.shuffle(stage, line);
                assert!(!seen[s as usize], "shuffle collision at stage {stage}");
                seen[s as usize] = true;
            }
        }
    }

    /// Paths are deterministic and consistent with stage_input /
    /// module_output_line.
    #[test]
    fn path_hops_are_consistent_with_wiring() {
        let t = net(&[4, 4, 4]);
        let path = t.route(17, 42);
        let mut line = 17;
        for hop in &path.hops {
            let (module, in_port) = t.stage_input(hop.stage, line);
            assert_eq!(module, hop.module);
            assert_eq!(in_port, hop.in_port);
            line = t.module_output_line(hop.stage, hop.module, hop.out_port);
        }
        assert_eq!(line, 42);
    }

    /// The DOT rendering has one node per module plus input/output stubs
    /// and one edge per wire.
    #[test]
    fn dot_export_structure() {
        let t = net(&[2, 2, 2, 2]); // Figure 1
        let dot = t.to_dot();
        assert!(dot.starts_with("digraph network {"));
        assert!(dot.trim_end().ends_with('}'));
        // 4 stages × 8 modules.
        assert_eq!(dot.matches("\\ns").count(), 32, "module labels");
        // 16 input edges + 3×16 inter-stage edges + 16 output edges.
        assert_eq!(dot.matches(" -> ").count(), 16 + 48 + 16);
        assert!(dot.contains("s0m0 -> s1m"));
        assert!(dot.contains("-> out15;"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_destination_panics() {
        let _ = net(&[2, 2]).route(0, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let _ = net(&[2, 2]).route(4, 0);
    }
}
