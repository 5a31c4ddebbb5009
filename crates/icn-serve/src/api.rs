//! Request types, resolution, and content addressing.
//!
//! Every cacheable endpoint follows the same discipline: parse the JSON
//! body into a request type, **resolve** it against defaults and limits
//! into the fully explicit typed configuration, then re-serialize that
//! resolved configuration as the *canonical form*. The cache key is a
//! content hash of the canonical form, so two requests that spell the same
//! configuration differently — omitted defaults, reordered fields — still
//! land on the same cache entry, while any semantic difference (a seed, a
//! cycle count) yields a distinct key.

use icn_explore::GridSpec;
use icn_sim::{ChipModel, FaultPlan, RetryPolicy, SimConfig, TelemetryConfig};
use icn_topology::StagePlan;
use icn_workloads::{Pattern, Workload};
use serde::{Deserialize, Serialize};

/// Admission priority of a job, used by the overload shed policy: past the
/// queue's high-water mark, `Low` work is rejected first; only a
/// completely full queue rejects `Normal` and `High`.
///
/// Priority is a *service* concern: it never enters the resolved
/// [`SimConfig`], so two requests differing only in priority share one
/// cache entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Priority {
    /// Shed first under load (batch/speculative work).
    Low,
    /// The default for interactive requests.
    #[default]
    Normal,
    /// Last to be shed (operator probes, deadline-critical work).
    High,
}

/// Server-side guard rails on what one `/v1/simulate` or `/v1/explore`
/// job may cost.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest accepted network (`ports`).
    pub max_ports: u32,
    /// Cap on `warmup + measure + drain` cycles for one job.
    pub max_total_cycles: u64,
    /// Largest grid one `/v1/explore` job may enumerate.
    pub max_candidates: u64,
    /// Most simulator spot-checks one `/v1/explore` job may request.
    pub max_spot_checks: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_ports: 4096,
            max_total_cycles: 2_000_000,
            max_candidates: 5_000_000,
            max_spot_checks: 16,
        }
    }
}

/// Maximum chip radix used when planning the network's stages, matching
/// the CLI's `simulate` command (the paper's 16×16 chip crossbar).
pub const PLAN_MAX_RADIX: u32 = 16;

/// Watchdog bound applied when a request asks for `watchdog_cycles: 0`.
///
/// Zero normally *disables* the engine watchdog; a service cannot allow
/// that, because a wedged simulation would pin a worker forever. Requests
/// that try are clamped to this paper-baseline bound instead.
pub const MIN_WATCHDOG_CYCLES: u64 = 10_000;

/// Body of `POST /v1/simulate`: every field optional, defaulting to the
/// CLI `simulate` command's baseline (a 256-port DMC network of 16×16
/// chips with 4-bit paths at load 0.01).
///
/// The vendored `serde_derive` supports no field attributes beyond
/// `#[serde(default)]`, so optionality is expressed the plain way: every
/// field is an `Option`, and [`SimulateRequest::resolve`] fills in the
/// defaults and validates the combination.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct SimulateRequest {
    /// Network ports `N′` (power of two; default 256).
    #[serde(default)]
    pub ports: Option<u32>,
    /// Chip timing model, `"Mcc"` or `"Dmc"` (default DMC).
    #[serde(default)]
    pub chip: Option<ChipModel>,
    /// Data path width `W` in bits (default 4).
    #[serde(default)]
    pub width: Option<u32>,
    /// Offered load per port per cycle in `[0, 1]` (default 0.01).
    #[serde(default)]
    pub load: Option<f64>,
    /// Destination pattern (default uniform), e.g.
    /// `{"HotSpot":{"hot_fraction":0.05,"hot_port":0}}`.
    #[serde(default)]
    pub pattern: Option<Pattern>,
    /// RNG seed (default `0x1986`, matching the CLI).
    #[serde(default)]
    pub seed: Option<u64>,
    /// Cycles before measurement starts (default 2000).
    #[serde(default)]
    pub warmup_cycles: Option<u64>,
    /// Measured cycles (default `10_000`).
    #[serde(default)]
    pub measure_cycles: Option<u64>,
    /// Post-measurement drain bound (default `20_000`).
    #[serde(default)]
    pub drain_cycles: Option<u64>,
    /// Watchdog stall bound; `0` is clamped to [`MIN_WATCHDOG_CYCLES`].
    #[serde(default)]
    pub watchdog_cycles: Option<u64>,
    /// Module failures to inject at cycle 0 (default 0).
    #[serde(default)]
    pub fail_modules: Option<u32>,
    /// Link failures to inject at cycle 0 (default 0).
    #[serde(default)]
    pub fail_links: Option<u32>,
    /// Seed for fault placement (default `0xF417`, matching the CLI).
    #[serde(default)]
    pub fault_seed: Option<u64>,
    /// Source retry limit for packets lost to faults (default 3).
    #[serde(default)]
    pub retry_limit: Option<u32>,
    /// Admission priority (default `Normal`). A service concern only:
    /// excluded from the resolved configuration and the cache key.
    #[serde(default)]
    pub priority: Option<Priority>,
    /// Wall-clock budget for the job in milliseconds (default: the
    /// server's `--deadline-ms`, 0 = none). Like `priority`, excluded
    /// from the cache key — a deadline changes *whether* the job
    /// finishes, never *what* it computes.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Enable the engine's span profiler and hotspot heatmap (default
    /// off). Unlike `priority`, this *does* enter the resolved config —
    /// and hence the cache key — because it changes the response body.
    #[serde(default)]
    pub profile: Option<bool>,
}

impl SimulateRequest {
    /// Resolve the request into a validated [`SimConfig`], applying the
    /// CLI-baseline defaults and the server's [`Limits`].
    ///
    /// # Errors
    /// Returns a client-facing message (served as HTTP 400) when a value
    /// is out of domain, a pattern's preconditions do not hold for the
    /// network, or the job exceeds the limits.
    pub fn resolve(&self, limits: &Limits) -> Result<SimConfig, String> {
        let ports = self.ports.unwrap_or(256);
        if ports > limits.max_ports {
            return Err(format!(
                "ports {ports} exceeds this server's limit of {}",
                limits.max_ports
            ));
        }
        let plan = StagePlan::balanced_pow2(ports, PLAN_MAX_RADIX)
            .ok_or("ports must be a power of two >= 2")?;
        let workload = Workload {
            load: self.load.unwrap_or(0.01),
            pattern: self.pattern.clone().unwrap_or(Pattern::Uniform),
        };
        workload.validate(ports)?;

        let mut config = SimConfig::paper_baseline(
            plan,
            self.chip.unwrap_or(ChipModel::Dmc),
            self.width.unwrap_or(4),
            workload,
        );
        config.seed = self.seed.unwrap_or(0x1986);
        if let Some(cycles) = self.warmup_cycles {
            config.warmup_cycles = cycles;
        }
        if let Some(cycles) = self.measure_cycles {
            config.measure_cycles = cycles;
        }
        if let Some(cycles) = self.drain_cycles {
            config.drain_cycles = cycles;
        }
        config.watchdog_cycles = self.watchdog_cycles.unwrap_or(MIN_WATCHDOG_CYCLES);
        if config.watchdog_cycles == 0 {
            config.watchdog_cycles = MIN_WATCHDOG_CYCLES;
        }
        let total = config
            .warmup_cycles
            .saturating_add(config.measure_cycles)
            .saturating_add(config.drain_cycles);
        if total > limits.max_total_cycles {
            return Err(format!(
                "warmup+measure+drain of {total} cycles exceeds this server's limit of {}",
                limits.max_total_cycles
            ));
        }

        let fail_modules = self.fail_modules.unwrap_or(0);
        let fail_links = self.fail_links.unwrap_or(0);
        if fail_modules > 0 || fail_links > 0 {
            let fault_seed = self.fault_seed.unwrap_or(0xF417);
            config.faults =
                FaultPlan::random_module_failures(&config.plan, fail_modules, 0, fault_seed)
                    .merged(FaultPlan::random_link_failures(
                        &config.plan,
                        fail_links,
                        0,
                        fault_seed,
                    ));
        }
        config.retry = RetryPolicy::retries(self.retry_limit.unwrap_or(3));
        if self.profile == Some(true) {
            config.telemetry = TelemetryConfig::profiled(0);
        }

        // The engine's own validation is the last word; surface its typed
        // error as a client message rather than letting a worker hit it.
        config.validate().map_err(|e| e.to_string())?;
        Ok(config)
    }
}

/// Body of `POST /v1/explore`: a design-space sweep as an asynchronous
/// job. Either a built-in grid by name (`"grid": "paper"`) or an inline
/// [`GridSpec`] (`"spec": {...}`); defaults to the paper grid.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct ExploreRequest {
    /// Built-in grid name: `"paper"`, `"bench"`, or `"million"`.
    /// Mutually exclusive with `spec`.
    #[serde(default)]
    pub grid: Option<String>,
    /// Inline grid axes. Mutually exclusive with `grid`.
    #[serde(default)]
    pub spec: Option<GridSpec>,
    /// Simulator spot-checks of the lowest-delay frontier points
    /// (default 0; capped by [`Limits::max_spot_checks`]). Changes the
    /// response body, so it enters the cache key.
    #[serde(default)]
    pub spot_checks: Option<usize>,
    /// Admission priority (default `Normal`); a service concern,
    /// excluded from the cache key like `/v1/simulate`'s.
    #[serde(default)]
    pub priority: Option<Priority>,
    /// Wall-clock budget in milliseconds (default: the server's
    /// `--deadline-ms`, 0 = none). Excluded from the cache key. A job
    /// still queued past it fails when a worker claims it, and a running
    /// exploration stops at it (`icn_explore::explore_bounded` polls it
    /// before every chunk and during the spot-check simulations) and
    /// fails with no partial result. Graceful shutdown does not cancel a
    /// running exploration: it drains, as a simulate job does.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
}

/// The fully resolved `/v1/explore` job: the canonical form that is
/// hashed into the content key, journaled, and recovered after a crash.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResolvedExplore {
    /// The grid to enumerate.
    pub spec: GridSpec,
    /// How many frontier points to spot-check in the simulator.
    pub spot_checks: usize,
}

impl ExploreRequest {
    /// Resolve the request into the canonical [`ResolvedExplore`],
    /// applying defaults and the server's [`Limits`].
    ///
    /// # Errors
    /// Returns a client-facing message (served as HTTP 400) when both
    /// `grid` and `spec` are given, the grid name is unknown, the spec
    /// fails validation, or the job exceeds the limits.
    pub fn resolve(&self, limits: &Limits) -> Result<ResolvedExplore, String> {
        let spec = match (&self.grid, &self.spec) {
            (Some(_), Some(_)) => {
                return Err(
                    "give either a built-in `grid` name or an inline `spec`, not both".to_string(),
                )
            }
            (Some(name), None) => GridSpec::by_name(name)
                .ok_or_else(|| format!("unknown grid `{name}`: expected paper, bench, million"))?,
            (None, Some(spec)) => spec.clone(),
            (None, None) => GridSpec::paper(),
        };
        spec.validate()?;
        let candidates = spec.candidate_count()?;
        if candidates > limits.max_candidates {
            return Err(format!(
                "grid has {candidates} candidates, exceeding this server's limit of {}",
                limits.max_candidates
            ));
        }
        let spot_checks = self.spot_checks.unwrap_or(0);
        if spot_checks > limits.max_spot_checks {
            return Err(format!(
                "spot_checks {spot_checks} exceeds this server's limit of {}",
                limits.max_spot_checks
            ));
        }
        Ok(ResolvedExplore { spec, spot_checks })
    }
}

/// The content key of a `simulate` or `explore` body. Both come from the
/// simulator's seeded random stream, so the key folds in
/// [`icn_sim::STREAM_VERSION`]: a body journaled or spilled by a build with
/// another stream is a miss, never a wrong answer. (`evaluate` bodies are
/// closed-form and keyed by [`content_key`] alone.)
#[must_use]
pub fn stream_key(endpoint: &str, canonical: &str) -> String {
    content_key(
        endpoint,
        &format!("stream {}\n{canonical}", icn_sim::STREAM_VERSION),
    )
}

/// Hash a canonical configuration into a content key.
///
/// Two independent 64-bit FNV-1a streams (different offset bases) are
/// concatenated into a 128-bit hex digest — collision-safe at any cache
/// size this service will see, dependency-free, and stable across runs
/// (unlike `std`'s seeded hasher).
#[must_use]
pub fn content_key(endpoint: &str, canonical: &str) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h2: u64 = 0x6c62_272e_07bb_0142;
    for &byte in canonical.as_bytes() {
        h1 = (h1 ^ u64::from(byte)).wrapping_mul(PRIME);
        h2 = (h2 ^ u64::from(byte).rotate_left(1)).wrapping_mul(PRIME);
    }
    format!("{endpoint}:{h1:016x}{h2:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_cli_baseline() {
        let config = SimulateRequest::default()
            .resolve(&Limits::default())
            .unwrap();
        assert_eq!(config.plan.ports(), 256);
        assert_eq!(config.chip, ChipModel::Dmc);
        assert_eq!(config.width, 4);
        assert_eq!(config.seed, 0x1986);
        assert!((config.workload.load - 0.01).abs() < 1e-12);
    }

    #[test]
    fn same_semantics_same_key_different_seed_different_key() {
        let limits = Limits::default();
        let explicit: SimulateRequest =
            serde_json::from_str(r#"{"ports":256,"seed":6534,"load":0.01}"#).unwrap();
        let sparse: SimulateRequest = serde_json::from_str(r#"{"seed":6534}"#).unwrap();
        let other: SimulateRequest = serde_json::from_str(r#"{"seed":6535}"#).unwrap();
        let key = |r: &SimulateRequest| {
            let canon = serde_json::to_string(&r.resolve(&limits).unwrap()).unwrap();
            content_key("simulate", &canon)
        };
        assert_eq!(key(&explicit), key(&sparse));
        assert_ne!(key(&explicit), key(&other));
    }

    #[test]
    fn non_power_of_two_ports_rejected() {
        let req: SimulateRequest = serde_json::from_str(r#"{"ports":100}"#).unwrap();
        let err = req.resolve(&Limits::default()).unwrap_err();
        assert!(err.contains("power of two"), "{err}");
    }

    #[test]
    fn over_limit_jobs_rejected() {
        let req: SimulateRequest = serde_json::from_str(r#"{"measure_cycles":3000000}"#).unwrap();
        let err = req.resolve(&Limits::default()).unwrap_err();
        assert!(err.contains("limit"), "{err}");

        let req: SimulateRequest = serde_json::from_str(r#"{"ports":8192}"#).unwrap();
        let err = req.resolve(&Limits::default()).unwrap_err();
        assert!(err.contains("limit"), "{err}");
    }

    #[test]
    fn zero_watchdog_is_clamped_not_honored() {
        let req: SimulateRequest = serde_json::from_str(r#"{"watchdog_cycles":0}"#).unwrap();
        let config = req.resolve(&Limits::default()).unwrap();
        assert_eq!(config.watchdog_cycles, MIN_WATCHDOG_CYCLES);
    }

    #[test]
    fn bad_patterns_are_client_errors_not_panics() {
        // The messages are the 400 bodies' text, so they are pinned.
        let cases = [
            (
                r#"{"pattern":{"HotSpot":{"hot_fraction":1.5,"hot_port":0}}}"#,
                "hot_fraction must be in [0,1], got 1.5",
            ),
            (
                r#"{"pattern":{"HotSpot":{"hot_fraction":0.1,"hot_port":999}}}"#,
                "hot_port 999 out of range for 256 ports",
            ),
            (
                r#"{"pattern":{"Permutation":[0,1,2]}}"#,
                "permutation has 3 targets but the network has 256 ports",
            ),
            (
                r#"{"ports":32,"pattern":"Transpose"}"#,
                "transpose needs an even number of address bits; 32 ports has 5",
            ),
            (
                r#"{"pattern":{"LocalClusters":{"cluster_size":7,"locality":0.5}}}"#,
                "cluster_size 7 must divide the port count 256",
            ),
            (r#"{"load":2}"#, "load must be in [0,1], got 2"),
            (r#"{"load":-1}"#, "load must be in [0,1], got -1"),
        ];
        for (case, message) in cases {
            let req: SimulateRequest = serde_json::from_str(case).unwrap();
            assert_eq!(
                req.resolve(&Limits::default()),
                Err(message.into()),
                "{case}"
            );
        }
    }

    #[test]
    fn priority_and_deadline_do_not_change_the_cache_key() {
        let limits = Limits::default();
        let plain: SimulateRequest = serde_json::from_str(r#"{"seed":11}"#).unwrap();
        let decorated: SimulateRequest =
            serde_json::from_str(r#"{"seed":11,"priority":"Low","deadline_ms":250}"#).unwrap();
        assert_eq!(decorated.priority, Some(Priority::Low));
        assert_eq!(decorated.deadline_ms, Some(250));
        let key = |r: &SimulateRequest| {
            let canon = serde_json::to_string(&r.resolve(&limits).unwrap()).unwrap();
            content_key("simulate", &canon)
        };
        assert_eq!(key(&plain), key(&decorated));
    }

    #[test]
    fn profile_flag_changes_the_cache_key() {
        let limits = Limits::default();
        let plain: SimulateRequest = serde_json::from_str(r#"{"seed":11}"#).unwrap();
        let profiled: SimulateRequest =
            serde_json::from_str(r#"{"seed":11,"profile":true}"#).unwrap();
        let resolved = profiled.resolve(&limits).unwrap();
        assert!(resolved.telemetry.profile, "flag must reach the engine");
        let key = |r: &SimulateRequest| {
            let canon = serde_json::to_string(&r.resolve(&limits).unwrap()).unwrap();
            content_key("simulate", &canon)
        };
        assert_ne!(
            key(&plain),
            key(&profiled),
            "a profiled response body differs, so the cache entry must too"
        );
    }

    #[test]
    fn priority_defaults_to_normal_and_orders_sensibly() {
        assert_eq!(Priority::default(), Priority::Normal);
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
    }

    #[test]
    fn content_key_is_stable_and_endpoint_scoped() {
        let key = content_key("simulate", "abc");
        assert_eq!(key, content_key("simulate", "abc"));
        assert_ne!(key, content_key("evaluate", "abc"));
        assert!(key.starts_with("simulate:"));
        assert_eq!(key.len(), "simulate:".len() + 32);
    }
}
