//! Lock-step cycle-level simulator of the paper's modified packet-switched
//! network (§2).
//!
//! The paper's switch architecture, reproduced faithfully:
//!
//! * every network node is a crossbar *module* (one per chip, or several
//!   logical modules per chip in mixed-radix stages);
//! * each module input has a small number of **packet buffers** (one in the
//!   paper's baseline) with a **pass-through** mechanism that lets a packet
//!   stream straight through without a buffer-fill delay when its output and
//!   the downstream buffer are free;
//! * **within** a module, switching is circuit-held: a packet holds its
//!   input→output path for its entire duration, releasing it as its tail
//!   leaves (the module-output is the unit of contention);
//! * a **buffer-full** line feeds back from every input buffer to the
//!   upstream output, so blocked packets are held upstream (back-pressure);
//! * everything advances in lock step on a single network-wide clock, one
//!   `W`-bit flit per data path per cycle; a `P`-bit packet is
//!   `⌈P/W⌉` flits;
//! * chip implementations differ only in their **head latency** per module:
//!   MCC pays ~`N` crosspoint-pipeline cycles, DMC pays the
//!   `M_sx = ⌈log₂N / W⌉` setup cycles plus one output-register cycle
//!   (§4, eq. 4.2/4.5).
//!
//! Under zero contention the simulator reproduces the paper's delay
//! expressions **cycle-exactly** (this is asserted in tests and used as the
//! validation anchor for experiment E4); under load it measures everything
//! the paper set aside — queueing, blocking, saturation, hot spots.
//!
//! The simulator also models **faults and graceful degradation** (see
//! [`FaultPlan`]): deterministic, seed-replayable permanent or transient
//! failures of modules, links, and source ports; source-side timeout/retry
//! with bounded exponential backoff ([`RetryPolicy`]); and a watchdog that
//! terminates wedged runs with a [`StallReport`] instead of spinning.
//! Every run satisfies the conservation invariant
//! `injected == delivered + dropped + live`
//! (see [`SimResult::conservation_ok`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// ICN003: callers get typed `SimError`s; `clippy.toml` allows these in tests.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod blocking;
mod config;
pub mod dmux;
mod due;
mod engine;
mod error;
mod fault;
pub mod mesh;
mod metrics;
mod module;
mod options;
mod packet;
mod pool;
mod roundtrip;
mod runner;
mod store;
mod sweep;
pub mod telemetry;
mod trace;

pub use config::{Arbitration, ChipModel, SimConfig, MAX_BUFFER_CAPACITY, MAX_FLITS_PER_PACKET};
pub use engine::{Delivery, DroppedPacket, Engine, STOP_POLL_CYCLES};
pub use error::SimError;
pub use fault::{FaultEvent, FaultPlan, FaultTarget, RetryPolicy, StallReport};
pub use metrics::{LatencyStats, SimResult, StageCounters};
pub use options::EngineOptions;
pub use packet::Packet;
pub use pool::{fold_by_worker, ordered_map, resolve_threads};
pub use roundtrip::{run_roundtrip, RoundTripConfig, RoundTripResult};
pub use runner::{
    run, run_parallel, sweep_load, sweep_module_failures, try_run, FaultSweepPoint, LoadSweepPoint,
};
pub use telemetry::{
    EventSink, Histogram, MemorySink, Sample, SimEvent, TelemetryConfig, TelemetryReport,
    TimeSeries, TraceBuilder,
};
pub use trace::{HopTrace, PacketTrace};

/// Version of the simulator's seeded random stream: which draws a seed
/// turns into which arrivals and destinations. It changes only when the
/// results of a fixed seed change on purpose, and anything that keeps
/// simulated results by configuration (the service's cache and journal)
/// folds it into its keys. Version 2 draws each injection's geometric gap
/// ([`icn_workloads::Arrivals`]) where version 1 drew one Bernoulli trial
/// per port per cycle.
pub const STREAM_VERSION: u32 = 2;
