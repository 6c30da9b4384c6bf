//! What the benchmark measures: its workloads, its end-to-end metrics, and
//! for every per-layer metric the layer it belongs to and the end-to-end
//! metric and workload it should move.
//!
//! `BENCHMARK.json` at the repository root mirrors the names, units,
//! directions and bounds listed here; the self-tests hold the two equal.

/// Whether a smaller or a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
}

/// A metric a user of the simulator sees, measured with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of one layer, measured in the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The layer (module of the repository) the metric belongs to.
    pub layer: &'static str,
    /// `(end-to-end metric, workload)` pairs this metric should move.
    pub moves: &'static [(&'static str, &'static str)],
}

/// `--seed` when none is given: the Table II default generator seed.
pub const DEFAULT_SEED: u64 = 0x1BAD_B002;

/// A seed kept out of every tuning run, for checking later claims.
pub const HELD_OUT_SEED: u64 = 0x5EED_2026;

/// The host the bounds were set on.
pub const HOST: &str = "2 vCPU Intel Xeon (KVM guest), 16 GiB shared, Linux 6.18, rustc 1.95";

/// Accuracy statement for every simulated figure the benchmark prints.
pub const VALIDATION: &str = "model unvalidated: the repository holds no reference measurements, \
                              so no error figure is given";

/// The read-saturated graph workload.
pub const GRAPH: &str = "graph_contention_8c";
/// The warm-fork and replay workload.
pub const WARM_FORK: &str = "warm_fork_mix8c";

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [WorkloadSpec; 2] = [
    WorkloadSpec {
        name: GRAPH,
        why: "pagerank and bc saturate shared MSHR and write-back slots, so arbitration and \
              wake routing dominate; cells end on the starvation guard until arbitration is fair",
    },
    WorkloadSpec {
        name: WARM_FORK,
        why: "mix0 recorded to a trace archive and one warm image, forked across four policies \
              and replayed: the only workload that runs the trace, snapshot and report layers",
    },
];

/// Seconds for the timed grid.
pub const WALL_S: &str = "wall_s";
/// Seconds of set-up before the first timed cell.
pub const SETUP_S: &str = "setup_s";
/// Peak resident memory.
pub const PEAK_RSS_MIB: &str = "peak_rss_mib";

/// End-to-end metrics (host time and memory), printed with `--trace 0`.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: WALL_S, unit: "s", better: Better::Lower, bound: 0.2 },
    EndToEnd { name: SETUP_S, unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: PEAK_RSS_MIB, unit: "MiB", better: Better::Lower, bound: 0.1 },
];

const ALL_WALL: &[(&str, &str)] = &[(WALL_S, GRAPH), (WALL_S, WARM_FORK)];
const GRAPH_WALL: &[(&str, &str)] = &[(WALL_S, GRAPH)];
const FORK_SETUP: &[(&str, &str)] = &[(SETUP_S, WARM_FORK)];
const FORK_WALL: &[(&str, &str)] = &[(WALL_S, WARM_FORK)];
const FORK_SETUP_RSS: &[(&str, &str)] = &[(SETUP_S, WARM_FORK), (PEAK_RSS_MIB, WARM_FORK)];

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> PerLayer {
    PerLayer { name, unit, better, layer, moves }
}

use Better::{Higher, Lower};

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [PerLayer; 47] = [
    metric(
        "system.warmup_s",
        "s",
        Lower,
        "system",
        &[(WALL_S, GRAPH), (SETUP_S, WARM_FORK), (WALL_S, WARM_FORK)],
    ),
    metric("system.timed_s", "s", Lower, "system", ALL_WALL),
    metric("system.sim_cycles", "cycles", Lower, "system", GRAPH_WALL),
    metric("system.retired_instr", "instructions", Higher, "system", GRAPH_WALL),
    metric("system.host_ns_per_cycle", "ns/cycle", Lower, "system", GRAPH_WALL),
    metric("system.guard_terminations", "cells", Lower, "system", GRAPH_WALL),
    metric("system.ipc_min", "IPC", Higher, "system", GRAPH_WALL),
    metric("system.ipc_max", "IPC", Higher, "system", GRAPH_WALL),
    metric("system.ipc_jain", "ratio", Higher, "system", GRAPH_WALL),
    metric("cache.l1d_accesses", "count", Lower, "cache", ALL_WALL),
    metric("cache.l2_misses", "count", Lower, "cache", ALL_WALL),
    metric("cache.llc_misses", "count", Lower, "cache", ALL_WALL),
    metric("cache.llc_dirty_evictions", "count", Lower, "cache", ALL_WALL),
    metric("probe.set_scans", "count", Lower, "cache", ALL_WALL),
    metric("probe.filter_skips", "count", Higher, "cache", ALL_WALL),
    metric("mshr.releases", "count", Lower, "cache", GRAPH_WALL),
    metric("mshr.wakes", "count", Lower, "cache", GRAPH_WALL),
    metric("policy.writebacks", "count", Lower, "policy", FORK_WALL),
    metric("policy.overrides", "count", Higher, "policy", FORK_WALL),
    metric("policy.cleanses", "count", Higher, "policy", FORK_WALL),
    metric("policy.incorrect_decisions", "count", Lower, "policy", FORK_WALL),
    metric("dram.reads", "count", Lower, "dram", ALL_WALL),
    metric("dram.writes", "count", Lower, "dram", ALL_WALL),
    metric("dram.drain_episodes", "count", Lower, "dram", ALL_WALL),
    metric("dram.write_blp", "banks", Higher, "dram", FORK_WALL),
    metric("dram.write_time_frac", "ratio", Lower, "dram", FORK_WALL),
    metric("dram.read_latency_cycles", "cycles", Lower, "dram", GRAPH_WALL),
    metric("dram.wq_full_events", "count", Lower, "dram", FORK_WALL),
    metric("phase.dispatch_s", "s", Lower, "phase", GRAPH_WALL),
    metric("phase.probe_s", "s", Lower, "phase", ALL_WALL),
    metric("phase.dram_scheduling_s", "s", Lower, "phase", FORK_WALL),
    metric("phase.completion_drain_s", "s", Lower, "phase", GRAPH_WALL),
    metric("phase.stat_settlement_s", "s", Lower, "phase", ALL_WALL),
    metric("snapshot.image_bytes", "bytes", Lower, "snapshot", FORK_SETUP_RSS),
    metric("snapshot.encode_s", "s", Lower, "snapshot", FORK_SETUP),
    metric("snapshot.restore_s", "s", Lower, "snapshot", FORK_WALL),
    metric("trace.archive_bytes", "bytes", Lower, "trace", FORK_SETUP_RSS),
    metric("trace.record_s", "s", Lower, "trace", FORK_SETUP),
    metric("trace.open_s", "s", Lower, "trace", FORK_SETUP_RSS),
    metric("trace.decode_hits", "count", Higher, "trace", FORK_WALL),
    metric("trace.decode_misses", "count", Lower, "trace", FORK_SETUP),
    metric("report.artifact_s", "s", Lower, "report", FORK_WALL),
    metric("report.artifact_bytes", "bytes", Lower, "report", FORK_WALL),
    metric("model.ipc_sum", "IPC", Higher, "model", GRAPH_WALL),
    metric("model.bardh_speedup_pct", "%", Higher, "model", FORK_WALL),
    metric("model.result_digest", "hash", Higher, "model", ALL_WALL),
    metric("telemetry.trace_overhead", "ratio", Lower, "telemetry", ALL_WALL),
];
