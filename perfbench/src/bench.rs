//! The two workloads: their cells, set-up, timed grid, output checks and
//! metrics.
//!
//! A *cell* is one `(SystemConfig, workload)` simulation. Every cell uses the
//! Table II 8-core system. Cells run one at a time through the serial
//! `Runner`, so host time is not shared between simulations.

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bard::experiment::Comparison;
use bard::trace::TraceStore;
use bard::workloads::WorkloadId;
use bard::{
    geomean_speedup_percent, speedup_percent, telemetry, Artifact, Provenance, RunLength,
    RunResult, Runner, Snapshot, System, SystemConfig, TraceConfig, WritePolicyKind,
};

use crate::catalog::{self, GRAPH, WARM_FORK};
use crate::spans::{self, Recorder};
use crate::stats::{fnv1a64, jain_index, median};

/// Set-up rounds per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Live pagerank and bc, cold, baseline and BARD-H.
    GraphContention,
    /// mix0 forked from one warm image and replayed from a trace archive.
    WarmFork,
}

impl Kind {
    /// Parses a `--workload` name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            GRAPH => Some(Kind::GraphContention),
            WARM_FORK => Some(Kind::WarmFork),
            _ => None,
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::GraphContention => GRAPH,
            Kind::WarmFork => WARM_FORK,
        }
    }

    /// Instructions per core of each cell. Graph keeps the test preset's
    /// 30:1:5 shape at a twelfth, long enough for every cell to reach the
    /// guard; warm-fork warms for the standard preset's 4 M instructions and
    /// times half the test preset's short windows. Short cells let a run
    /// repeat its grid often.
    #[must_use]
    pub fn length(self) -> RunLength {
        match self {
            Kind::GraphContention => {
                RunLength { functional_warmup: 12_000, timed_warmup: 400, measure: 2_000 }
            }
            Kind::WarmFork => {
                RunLength { functional_warmup: 4_000_000, timed_warmup: 2_500, measure: 12_500 }
            }
        }
    }

    fn apps(self) -> &'static [WorkloadId] {
        match self {
            Kind::GraphContention => &[WorkloadId::Pagerank, WorkloadId::Bc],
            Kind::WarmFork => &[WorkloadId::Mix0],
        }
    }

    fn policies(self) -> &'static [WritePolicyKind] {
        match self {
            Kind::WarmFork => &[
                WritePolicyKind::Baseline,
                WritePolicyKind::BardE,
                WritePolicyKind::BardC,
                WritePolicyKind::BardH,
            ],
            Kind::GraphContention => &[WritePolicyKind::Baseline, WritePolicyKind::BardH],
        }
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub kind: Kind,
    /// Workload-generator seed (`SystemConfig::with_seed`).
    pub seed: u64,
    /// Host time the timed grids may take.
    pub seconds: f64,
    /// The traced run: spans and telemetry on, per-layer metrics out.
    pub trace: bool,
    /// Directory for traces, artifacts, digests and spans.
    pub work_dir: PathBuf,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Cells attempted in the timed grids.
    pub attempted: u64,
    /// Cells that panicked.
    pub failed: u64,
    /// Output-check failures; empty when the outputs are correct.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Digest of one grid's results.
    pub result_digest: u64,
}

struct Cell {
    label: String,
    config: SystemConfig,
    workload: WorkloadId,
}

struct CellOut {
    result: RunResult,
    /// Simulated cycles of the timed warm-up and the measured window.
    sim_cycles: u64,
}

/// The warm-fork workload's set-up products.
struct Fork {
    trace: TraceConfig,
    image: Vec<u8>,
    archive_bytes: u64,
}

struct Grid {
    outs: Vec<Option<CellOut>>,
    artifact_bytes: u64,
    wall_s: f64,
    spans: Range<usize>,
}

struct Bench {
    kind: Kind,
    length: RunLength,
    cells: Vec<Cell>,
    rec: Mutex<Recorder>,
    work_dir: PathBuf,
    fork: Option<Fork>,
    /// Cold live runs of each app's baseline cell, from the first set-up
    /// round.
    references: Vec<RunResult>,
}

/// Set-up rounds: their times, span ranges and the decode-cache traffic of
/// the last round.
struct Setup {
    seconds: Vec<f64>,
    spans: Vec<Range<usize>>,
    decodes: (u64, u64),
}

/// The traced grids' registry readings and the decode-cache traffic of the
/// last traced grid.
struct Traced {
    registry: Vec<Registry>,
    decodes: (u64, u64),
}

/// Runs one benchmark run.
///
/// # Panics
///
/// Panics when set-up fails or the work directory cannot be written.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    telemetry::set_enabled(false);
    let mut bench = Bench::new(opts);
    let mut problems = Vec::new();
    let setup = bench.setup_rounds(&mut problems);

    // Set-up spans are recorded in the traced run; the untraced grids that
    // give it its base line record none.
    bench.rec().set_on(false);
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let untraced_budget = if opts.trace { budget / 2 } else { budget };
    let mut grids = Vec::new();
    while grids.is_empty() || start.elapsed() < untraced_budget {
        grids.push(bench.grid(grids.len()));
    }
    let untraced = grids.len();
    let mut traced = Traced { registry: Vec::new(), decodes: (0, 0) };
    if opts.trace {
        telemetry::set_enabled(true);
        bench.rec().set_on(true);
        while grids.len() == untraced || start.elapsed() < budget {
            telemetry::reset_metrics();
            let decodes = decode_counters();
            grids.push(bench.grid(grids.len()));
            traced.decodes = diff(decode_counters(), decodes);
            traced.registry.push(registry_values());
        }
        telemetry::set_enabled(false);
    }

    let attempted = (grids.len() * bench.cells.len()) as u64;
    let failed = grids.iter().flat_map(|g| &g.outs).filter(|o| o.is_none()).count() as u64;
    let digests: Vec<u64> = grids.iter().map(|g| digest(&g.outs)).collect();
    let result_digest = digests[0];
    if digests.iter().any(|&d| d != result_digest) {
        problems.push(format!("grids of one run disagree on result_digest: {digests:016x?}"));
    }
    for (i, grid) in grids.iter().enumerate() {
        bench.check(i, grid, &mut problems);
    }
    if let Err(e) = bench.check_stored_digest(opts.seed, result_digest) {
        problems.push(e);
    }

    let walls: Vec<f64> = grids[..untraced].iter().map(|g| g.wall_s).collect();
    eprintln!("perfbench: set-up seconds {:.3?}; untraced grid seconds {walls:.3?}", setup.seconds);
    let wall_s = median(&walls).expect("at least one untraced grid");
    let metrics = if opts.trace {
        let metrics = bench.per_layer(&setup, &grids[untraced..], &traced, wall_s, result_digest);
        bench.write_spans(opts.seed);
        metrics
    } else {
        BTreeMap::from([
            (catalog::WALL_S, wall_s),
            (catalog::SETUP_S, median(&setup.seconds).expect("set-up ran")),
            (catalog::PEAK_RSS_MIB, peak_rss_mib()),
        ])
    };
    Outcome { attempted, failed, problems, metrics, result_digest }
}

impl Bench {
    fn new(opts: &Options) -> Self {
        let kind = opts.kind;
        let base = SystemConfig::baseline_8core().with_seed(opts.seed);
        let cells = kind
            .apps()
            .iter()
            .flat_map(|&app| {
                let base = &base;
                kind.policies().iter().map(move |&policy| Cell {
                    label: format!("{}/{}", app.name(), policy.label()),
                    config: base.clone().with_policy(policy),
                    workload: app,
                })
            })
            .collect();
        Self {
            kind,
            length: kind.length(),
            cells,
            rec: Mutex::new(Recorder::new(opts.trace)),
            work_dir: opts.work_dir.clone(),
            fork: None,
            references: Vec::new(),
        }
    }

    fn rec(&self) -> MutexGuard<'_, Recorder> {
        self.rec.lock().expect("span recorder poisoned by a panic outside a cell")
    }

    /// Runs the set-up rounds; every round's reference cells must agree.
    fn setup_rounds(&mut self, problems: &mut Vec<String>) -> Setup {
        let mut setup = Setup { seconds: Vec::new(), spans: Vec::new(), decodes: (0, 0) };
        for round in 0..SETUP_ROUNDS {
            let decodes = decode_counters();
            let first = self.rec().spans().len();
            let t = Instant::now();
            let references = self.setup(round);
            setup.seconds.push(t.elapsed().as_secs_f64());
            setup.spans.push(first..self.rec().spans().len());
            setup.decodes = diff(decode_counters(), decodes);
            if self.references.is_empty() {
                self.references = references;
            } else if self.references != references {
                problems.push(format!("set-up round {round}: reference cells differ"));
            }
        }
        setup
    }

    /// The per-layer metrics of a traced run: span self times (median over
    /// set-up rounds or traced grids), registry values, and the exact counts
    /// of the first traced grid.
    fn per_layer(
        &self,
        setup: &Setup,
        grids: &[Grid],
        traced: &Traced,
        untraced_wall_s: f64,
        result_digest: u64,
    ) -> BTreeMap<&'static str, f64> {
        let rec = self.rec();
        let by_name = |ranges: Vec<Range<usize>>| -> Vec<BTreeMap<&str, f64>> {
            ranges.into_iter().map(|r| spans::self_seconds_by_name(rec.spans(), r)).collect()
        };
        let per_grid = by_name(grids.iter().map(|g| g.spans.clone()).collect());
        let per_setup = by_name(setup.spans.clone());
        let span_median = |sets: &[BTreeMap<&str, f64>], names: &[&str]| {
            let v: Vec<f64> = sets
                .iter()
                .map(|s| names.iter().filter_map(|n| s.get(n)).fold(0.0, |a, b| a + b))
                .collect();
            median(&v).unwrap_or(0.0)
        };
        let warmup = if self.kind == Kind::WarmFork {
            "system.restore_warm"
        } else {
            "system.functional_warmup"
        };
        let mut m = BTreeMap::from([
            ("system.warmup_s", span_median(&per_grid, &[warmup])),
            ("system.timed_s", span_median(&per_grid, &["system.run"])),
            (
                "snapshot.restore_s",
                span_median(&per_grid, &["snapshot.decode", "system.restore_warm"]),
            ),
            ("report.artifact_s", span_median(&per_grid, &["report.write"])),
            (
                "snapshot.encode_s",
                span_median(&per_setup, &["snapshot.capture", "snapshot.encode"]),
            ),
            ("trace.record_s", span_median(&per_setup, &["trace.record"])),
            ("trace.open_s", span_median(&per_setup, &["trace.open"])),
        ]);
        drop(rec);
        for (i, phase) in telemetry::Phase::ALL.iter().enumerate() {
            let name = match phase {
                telemetry::Phase::Dispatch => "phase.dispatch_s",
                telemetry::Phase::Probe => "phase.probe_s",
                telemetry::Phase::DramScheduling => "phase.dram_scheduling_s",
                telemetry::Phase::CompletionDrain => "phase.completion_drain_s",
                telemetry::Phase::StatSettlement => "phase.stat_settlement_s",
            };
            let seconds: Vec<f64> = traced.registry.iter().map(|r| r.phase_s[i]).collect();
            m.insert(name, median(&seconds).unwrap_or(0.0));
        }
        for (name, value) in &traced.registry[0].counters {
            m.insert(name, *value as f64);
        }
        m.insert("trace.decode_hits", (setup.decodes.0 + traced.decodes.0) as f64);
        m.insert("trace.decode_misses", (setup.decodes.1 + traced.decodes.1) as f64);
        let traced_walls: Vec<f64> = grids.iter().map(|g| g.wall_s).collect();
        m.insert(
            "telemetry.trace_overhead",
            median(&traced_walls).expect("at least one traced grid") / untraced_wall_s,
        );
        let fork = self.fork.as_ref();
        m.insert("snapshot.image_bytes", fork.map_or(0.0, |f| f.image.len() as f64));
        m.insert("trace.archive_bytes", fork.map_or(0.0, |f| f.archive_bytes as f64));
        m.insert("report.artifact_bytes", grids[0].artifact_bytes as f64);
        let outs: Vec<&CellOut> = grids[0].outs.iter().flatten().collect();
        model_metrics(&outs, &mut m);
        m.insert("system.host_ns_per_cycle", m["system.timed_s"] * 1e9 / m["system.sim_cycles"]);
        m.insert("model.result_digest", (result_digest >> 12) as f64);
        m
    }

    /// Indices of the cells the set-up runs as references: each app's
    /// baseline cell.
    fn reference_cells(&self) -> impl Iterator<Item = usize> {
        (0..self.cells.len()).step_by(self.kind.policies().len())
    }

    /// One set-up round: the reference cells every workload checks its grid
    /// against, plus, for the warm fork, the trace archive and warm image.
    fn setup(&mut self, round: usize) -> Vec<RunResult> {
        let label = format!("setup{round}");
        let mut rec = self.rec();
        rec.begin("setup", &label);
        let references = self
            .reference_cells()
            .map(|i| {
                let cell = &self.cells[i];
                live_cell(&mut rec, cell, &format!("{label}/{}", cell.label), self.length).result
            })
            .collect();
        let fork = (self.kind == Kind::WarmFork).then(|| self.prepare_fork(&mut rec, &label));
        rec.end();
        drop(rec);
        self.fork = fork;
        references
    }

    /// Records mix0 to a BTF1 archive, opens it, and captures one warm image
    /// after the functional warm-up with the archive attached.
    fn prepare_fork(&self, rec: &mut Recorder, label: &str) -> Fork {
        let length = self.length;
        let base = &self.cells[0].config;
        let workload = self.cells[0].workload;
        let dir = self.work_dir.join("traces");
        let budget = TraceConfig::budget_for(length);
        let store = TraceStore::new(&dir);
        let per_core = workload.per_core_workloads(base.cores);
        let path = |core: usize, w: WorkloadId| {
            let core = u32::try_from(core).expect("core index fits u32");
            store.path_for(w.name(), core, base.seed, budget)
        };
        let archive_bytes = rec.leaf("trace.record", label, || {
            // Archives are keyed by seed; keep only this run's.
            if dir.exists() {
                std::fs::remove_dir_all(&dir).expect("clear the trace archive");
            }
            let mut bytes = 0;
            for (core, w) in per_core.iter().enumerate() {
                let mut live = w.build(core, base.seed);
                let id = u32::try_from(core).expect("core index fits u32");
                store.record(live.as_mut(), id, base.seed, budget).expect("record trace");
                bytes += std::fs::metadata(path(core, *w)).expect("recorded trace").len();
            }
            bytes
        });
        rec.leaf("trace.open", label, || {
            for (core, w) in per_core.iter().enumerate() {
                TraceStore::open_cached(&path(core, *w)).expect("open recorded trace");
            }
        });
        let trace = TraceConfig::new(&dir, budget);
        let config = base.clone().with_trace(Some(trace.clone()));
        let mut system = rec.leaf("system.new", label, || System::new(config, workload));
        rec.leaf("system.functional_warmup", label, || {
            system.functional_warmup(length.functional_warmup);
        });
        let snap =
            rec.leaf("snapshot.capture", label, || system.capture_warm(length.functional_warmup));
        let image = rec.leaf("snapshot.encode", label, || snap.to_bytes());
        Fork { trace, image, archive_bytes }
    }

    /// One timed pass over every cell.
    fn grid(&self, index: usize) -> Grid {
        let first = self.rec().spans().len();
        let t = Instant::now();
        let indices: Vec<usize> = (0..self.cells.len()).collect();
        let outs = Runner::serial().run_jobs(indices, |&i| {
            let cell = &self.cells[i];
            let label = format!("g{index}/{}", cell.label);
            let mut rec = self.rec();
            let depth = rec.depth();
            let out = catch_unwind(AssertUnwindSafe(|| match &self.fork {
                Some(fork) => fork_cell(&mut rec, cell, &label, self.length, fork),
                None => live_cell(&mut rec, cell, &label, self.length),
            }));
            rec.close_to(depth);
            if telemetry::enabled() {
                // Drop the simulated-time trace events so the sink does not
                // grow across cells; the benchmark reads only counters.
                drop(telemetry::take_trace_events());
            }
            out.ok()
        });
        let mut artifact_bytes = 0;
        if self.kind == Kind::WarmFork && outs.iter().all(Option::is_some) {
            let results: Vec<RunResult> = outs.iter().flatten().map(|o| o.result.clone()).collect();
            let label = format!("g{index}");
            artifact_bytes = self
                .rec()
                .leaf("report.write", &label, || self.write_artifacts(&results))
                .expect("write artifacts");
        }
        Grid {
            outs,
            artifact_bytes,
            wall_s: t.elapsed().as_secs_f64(),
            spans: first..self.rec().spans().len(),
        }
    }

    /// Writes the fork grid's JSON and CSV artifacts; returns their total
    /// size in bytes.
    fn write_artifacts(&self, results: &[RunResult]) -> std::io::Result<u64> {
        let base = &self.cells[0].config;
        let provenance = Provenance {
            config_label: base.label(),
            cores: base.cores,
            workloads: vec![self.cells[0].workload.name().to_string()],
            run_length: self.length,
            jobs: 1,
            git_describe: None,
            wall_clock_seconds: 0.0,
        };
        let mut artifact =
            Artifact::new(WARM_FORK, "Benchmark", "mix0 forked across write policies", provenance);
        artifact.banner();
        artifact.records_from(results);
        for (cell, result) in self.cells.iter().zip(results).skip(1) {
            let label = cell.config.label();
            let cmp =
                Comparison::from_results(&label, vec![results[0].clone()], vec![result.clone()]);
            artifact.delta_labeled(&label, &cmp);
        }
        artifact.finish();
        let dir = self.work_dir.join("artifacts");
        std::fs::create_dir_all(&dir)?;
        let files = [("json", artifact.to_json().render()), ("csv", artifact.to_csv())];
        let mut bytes = 0;
        for (ext, body) in files {
            std::fs::write(dir.join(format!("{WARM_FORK}.{ext}")), &body)?;
            bytes += body.len() as u64;
        }
        Ok(bytes)
    }

    /// The output check of one grid: per-cell sanity, and the cells that
    /// repeat a set-up reference must equal it bitwise.
    fn check(&self, index: usize, grid: &Grid, problems: &mut Vec<String>) {
        for (cell, out) in self.cells.iter().zip(&grid.outs) {
            let Some(out) = out else { continue };
            let r = &out.result;
            let name = format!("grid {index} cell {}", cell.label);
            if r.instructions_per_core != self.length.measure {
                problems.push(format!(
                    "{name}: measured {} instructions per core, requested {}",
                    r.instructions_per_core, self.length.measure
                ));
            }
            if r.cores != cell.config.cores || r.per_core_ipc.len() != r.cores {
                problems.push(format!(
                    "{name}: {} per-core IPCs for {} cores",
                    r.per_core_ipc.len(),
                    r.cores
                ));
            }
            if let Some(bad) = r.per_core_ipc.iter().find(|x| !(x.is_finite() && **x > 0.0)) {
                problems.push(format!("{name}: per-core IPC {bad} is not finite and positive"));
            }
        }
        for (i, reference) in self.reference_cells().zip(&self.references) {
            if grid.outs[i].as_ref().is_some_and(|out| out.result != *reference) {
                problems.push(format!(
                    "grid {index}: cell {} differs from the cold live reference run in set-up",
                    self.cells[i].label
                ));
            }
        }
    }

    /// Compares the digest with the one stored by an earlier run of the same
    /// executable on the same workload and seed, or stores it.
    fn check_stored_digest(&self, seed: u64, digest: u64) -> Result<(), String> {
        let exe = std::env::current_exe()
            .and_then(std::fs::read)
            .map_err(|e| format!("cannot read the benchmark executable: {e}"))?;
        let dir = self.work_dir.join("digests");
        let path = dir.join(format!("{}.s{seed}.x{:016x}.txt", self.kind.name(), fnv1a64(&exe)));
        let line = format!("{digest:016x}\n");
        match std::fs::read_to_string(&path) {
            Ok(stored) if stored == line => Ok(()),
            Ok(stored) => Err(format!(
                "result_digest {digest:016x} differs from {} stored by an earlier run of this executable",
                stored.trim()
            )),
            Err(_) => std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, line))
                .map_err(|e| format!("cannot store result_digest in {}: {e}", path.display())),
        }
    }

    fn write_spans(&self, seed: u64) {
        let dir = self.work_dir.join("spans");
        std::fs::create_dir_all(&dir).expect("create span directory");
        let path = dir.join(format!("{}.s{seed}.json", self.kind.name()));
        std::fs::write(&path, self.rec().to_json().render()).expect("write spans");
    }
}

/// A cold live cell: build, functional warm-up, timed run.
fn live_cell(rec: &mut Recorder, cell: &Cell, label: &str, length: RunLength) -> CellOut {
    rec.begin("cell", label);
    let mut system =
        rec.leaf("system.new", label, || System::new(cell.config.clone(), cell.workload));
    rec.leaf("system.functional_warmup", label, || {
        system.functional_warmup(length.functional_warmup);
    });
    let out = timed_run(rec, &mut system, label, length);
    rec.end();
    out
}

/// A forked cell: decode the warm image, restore it under the cell's
/// policy with the trace archive attached, timed run.
fn fork_cell(
    rec: &mut Recorder,
    cell: &Cell,
    label: &str,
    length: RunLength,
    fork: &Fork,
) -> CellOut {
    rec.begin("cell", label);
    let snap = rec
        .leaf("snapshot.decode", label, || Snapshot::from_bytes(&fork.image))
        .expect("decode warm image");
    let config = cell.config.clone().with_trace(Some(fork.trace.clone()));
    let mut system = rec
        .leaf("system.restore_warm", label, || {
            System::restore_warm(config, cell.workload, length.functional_warmup, &snap)
        })
        .expect("restore warm image");
    let out = timed_run(rec, &mut system, label, length);
    rec.end();
    out
}

fn timed_run(rec: &mut Recorder, system: &mut System, label: &str, length: RunLength) -> CellOut {
    let start = system.cycle();
    let result =
        rec.leaf("system.run", label, || system.run(0, length.timed_warmup, length.measure));
    CellOut { result, sim_cycles: system.cycle() - start }
}

/// FNV-1a over the exact debug rendering of every result (floats print
/// their shortest round-trip form, so equal digests mean equal bits).
fn digest(outs: &[Option<CellOut>]) -> u64 {
    let text: Vec<String> = outs
        .iter()
        .map(|o| o.as_ref().map_or_else(|| "panicked".to_string(), |o| format!("{:?}", o.result)))
        .collect();
    fnv1a64(text.join("\n").as_bytes())
}

/// The simulated statistics of one grid: exact counts and model outputs.
fn model_metrics(outs: &[&CellOut], m: &mut BTreeMap<&'static str, f64>) {
    let sum = |f: &dyn Fn(&RunResult) -> u64| outs.iter().map(|o| f(&o.result)).sum::<u64>() as f64;
    let mean = |f: &dyn Fn(&RunResult) -> f64| {
        outs.iter().map(|o| f(&o.result)).sum::<f64>() / outs.len() as f64
    };
    m.insert("system.sim_cycles", outs.iter().map(|o| o.sim_cycles).sum::<u64>() as f64);
    m.insert("system.retired_instr", sum(&|r| r.total_instructions()));
    m.insert("system.guard_terminations", sum(&|r| u64::from(!r.completed)));
    let ipcs: Vec<f64> = outs.iter().flat_map(|o| o.result.per_core_ipc.iter().copied()).collect();
    m.insert("system.ipc_min", ipcs.iter().copied().fold(f64::INFINITY, f64::min));
    m.insert("system.ipc_max", ipcs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    m.insert("system.ipc_jain", mean(&|r| jain_index(&r.per_core_ipc).unwrap_or(0.0)));
    m.insert("cache.l1d_accesses", sum(&|r| r.l1d_stats.demand_accesses()));
    m.insert("cache.l2_misses", sum(&|r| r.l2_stats.demand_misses()));
    m.insert("cache.llc_misses", sum(&|r| r.llc_stats.demand_misses()));
    m.insert("cache.llc_dirty_evictions", sum(&|r| r.llc_stats.dirty_evictions));
    m.insert("policy.writebacks", sum(&|r| r.policy_stats.writebacks));
    m.insert("policy.overrides", sum(&|r| r.policy_stats.overrides));
    m.insert("policy.cleanses", sum(&|r| r.policy_stats.cleanses));
    m.insert("policy.incorrect_decisions", sum(&|r| r.policy_stats.incorrect_decisions));
    m.insert("dram.reads", sum(&|r| r.dram_stats.reads));
    m.insert("dram.writes", sum(&|r| r.dram_stats.writes));
    m.insert("dram.drain_episodes", sum(&|r| r.dram_stats.drain_episodes));
    m.insert("dram.write_blp", mean(&RunResult::write_blp));
    m.insert("dram.write_time_frac", mean(&RunResult::write_time_fraction));
    m.insert(
        "dram.read_latency_cycles",
        sum(&|r| r.dram_stats.read_latency_cycles) / sum(&|r| r.dram_stats.reads),
    );
    m.insert("dram.wq_full_events", sum(&|r| r.dram_stats.write_queue_full_events));
    m.insert("model.ipc_sum", mean(&RunResult::ipc_sum));
    m.insert("model.bardh_speedup_pct", bardh_speedup_pct(outs));
}

/// Geometric-mean BARD-H speedup over baseline across the grid's apps.
fn bardh_speedup_pct(outs: &[&CellOut]) -> f64 {
    let label = |p: WritePolicyKind| SystemConfig::baseline_8core().with_policy(p).label();
    let (base, bardh) = (label(WritePolicyKind::Baseline), label(WritePolicyKind::BardH));
    let find = |w: WorkloadId, l: &str| {
        outs.iter().map(|o| &o.result).find(|r| r.workload == w && r.config_label == l)
    };
    let mut apps: Vec<WorkloadId> = outs.iter().map(|o| o.result.workload).collect();
    apps.dedup();
    let speedups: Vec<f64> = apps
        .iter()
        .filter_map(|&w| Some(speedup_percent(find(w, &bardh)?, find(w, &base)?)))
        .collect();
    geomean_speedup_percent(&speedups)
}

struct Registry {
    counters: Vec<(&'static str, u64)>,
    phase_s: [f64; 5],
}

/// The registry counters and phase times the traced grid reads.
fn registry_values() -> Registry {
    let counters = ["probe.set_scans", "probe.filter_skips", "mshr.releases", "mshr.wakes"]
        .map(|name| {
            let metric = telemetry::metrics()
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("registry has no metric {name}"));
            (name, metric.value())
        })
        .to_vec();
    let phase_s = telemetry::phase_nanos().map(|(_, ns)| ns as f64 * 1e-9);
    Registry { counters, phase_s }
}

fn decode_counters() -> (u64, u64) {
    let c = bard::trace::decode_cache_counters();
    (c.hits, c.misses)
}

fn diff(after: (u64, u64), before: (u64, u64)) -> (u64, u64) {
    (after.0 - before.0, after.1 - before.1)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string(Path::new("/proc/self/status"))
        .expect("peak memory is read from /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}
