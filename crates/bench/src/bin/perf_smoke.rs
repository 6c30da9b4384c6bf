//! CI perf-smoke guard: re-measures the `sim_engine` reference shape in
//! quick mode and fails when simulated-cycles/s regresses against the
//! recorded baseline in `crates/bench/benches/BENCH_sim_engine.json`.
//!
//! Two checks, both read from the baseline file's `perf_smoke` object:
//!
//! * **ratio** (primary, machine-independent): the skip-engine speedup over
//!   the step engine must stay within `ratio_tolerance` (20%) of the
//!   recorded speedup — a fast path that stops paying off fails CI even on
//!   a runner whose absolute speed differs from the reference host.
//! * **floor** (catastrophe guard): the skip engine's absolute
//!   simulated-cycles/s must stay above `floor_fraction` of the recorded
//!   reference — generous slack for runner variance, but a model-wide
//!   slowdown that halves throughput everywhere still fails.
//!
//! A third check is self-referential (no baseline file):
//!
//! * **warm-fork reuse**: a warm-up-heavy four-configuration grid forked
//!   from a pre-captured `--snapshot-dir` image must beat the same grid run
//!   cold — the warm grid skips every per-cell functional warm-up, so if it
//!   stops winning, snapshot restore has become more expensive than the
//!   simulation it replaces.
//!
//! A fourth check gates the telemetry subsystem's disabled path:
//!
//! * **telemetry-off overhead**: telemetry is forced off for every gated
//!   measurement above, so the skip-engine **floor** check doubles as the
//!   disabled-path regression gate — if the telemetry hooks cost anything
//!   measurable when `BARD_TELEMETRY` is unset, absolute throughput drops
//!   below `floor_fraction` of the recorded reference and CI fails. The
//!   enabled path is then measured once more for information only, printing
//!   the on/off throughput ratio and the per-phase host-time attribution
//!   (dispatch, probe, DRAM scheduling, completion drain, stat settlement).
//!
//! Run manually with `cargo run --release --bin perf_smoke`.

use std::time::Instant;

use bard::experiment::{Comparison, RunLength};
use bard::report::json::Json;
use bard::runner::Runner;
use bard::{EngineKind, SnapshotStore, System, SystemConfig, WritePolicyKind};
use bard_workloads::WorkloadId;

/// The shape `BENCH_sim_engine.json` records for the smoke check.
const WORKLOAD: WorkloadId = WorkloadId::Lbm;
const CORES: usize = 2;

fn simulate(engine: EngineKind, length: RunLength) -> u64 {
    let mut cfg = SystemConfig::small_test().with_engine(engine);
    cfg.cores = CORES;
    let mut system = System::new(cfg, WORKLOAD);
    system.run(length.functional_warmup, length.timed_warmup, length.measure);
    system.cycle()
}

/// Best simulated-cycles/s over a few attempts (shields against one-off
/// scheduler hiccups on shared runners).
fn cycles_per_sec(engine: EngineKind, length: RunLength) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let cycles = simulate(engine, length);
            cycles as f64 / start.elapsed().as_secs_f64()
        })
        .fold(0.0f64, f64::max)
}

fn load_baseline(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path} must parse: {e:?}"))
}

fn get_num(json: &Json, file: &str, path: &[&str]) -> f64 {
    let mut node = json;
    for key in path {
        node = node.get(key).unwrap_or_else(|| panic!("{file}: missing key '{}'", path.join(".")));
    }
    node.as_f64().unwrap_or_else(|| panic!("{file}: '{}' not a number", path.join(".")))
}

/// Wall-clock seconds for one serial fig10-style grid (baseline + three
/// BARD variants of one workload), cold or forked from `store`.
fn grid_seconds(length: RunLength, store: Option<&SnapshotStore>) -> f64 {
    let base = {
        let mut cfg = SystemConfig::small_test();
        cfg.cores = CORES;
        cfg
    };
    let variants = [
        base.clone().with_policy(WritePolicyKind::BardE),
        base.clone().with_policy(WritePolicyKind::BardC),
        base.clone().with_policy(WritePolicyKind::BardH),
    ];
    let start = Instant::now();
    let _ =
        Comparison::run_many_with(&Runner::serial(), &base, &variants, &[WORKLOAD], length, store);
    start.elapsed().as_secs_f64()
}

/// True when the warm-fork gate fails: a pre-captured snapshot grid must be
/// faster than the cold grid (best of three each, warm-up-dominated length).
fn warm_fork_gate_failed() -> bool {
    let dir = std::env::temp_dir().join(format!("bard-perf-smoke-snaps-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::new(&dir);
    // Warm-up-dominated on purpose: reuse pays in proportion to the skipped
    // functional warm-up instructions.
    let length = RunLength { functional_warmup: 400_000, timed_warmup: 1_000, measure: 4_000 };
    // Untimed capture pass publishes the shared image.
    let _ = grid_seconds(length, Some(&store));
    let cold = (0..3).map(|_| grid_seconds(length, None)).fold(f64::INFINITY, f64::min);
    let warm = (0..3).map(|_| grid_seconds(length, Some(&store))).fold(f64::INFINITY, f64::min);
    let _ = std::fs::remove_dir_all(&dir);
    println!("perf_smoke: warm-fork grid cold={cold:.3}s warm={warm:.3}s ({:.2}x)", cold / warm);
    if warm >= cold {
        eprintln!(
            "perf_smoke FAIL: the warm-forked grid ({warm:.3}s) is no faster than the cold \
             grid ({cold:.3}s) — snapshot restore costs more than the functional warm-up it \
             skips"
        );
        return true;
    }
    false
}

/// Measures the telemetry-enabled path for information: prints the on/off
/// throughput ratio and how host time splits across the model phases.
/// Leaves telemetry disabled on return.
fn report_telemetry_overhead(length: RunLength, skip_off: f64) {
    bard_bench::telemetry::set_enabled(true);
    bard_bench::telemetry::reset_metrics();
    let skip_on = cycles_per_sec(EngineKind::Skip, length);
    let phases = bard_bench::telemetry::phase_nanos();
    bard_bench::telemetry::set_enabled(false);
    let total: u64 = phases.iter().map(|(_, nanos)| nanos).sum();
    let split = phases
        .iter()
        .map(|(phase, nanos)| {
            format!("{}={:.0}%", phase.name(), *nanos as f64 / total.max(1) as f64 * 100.0)
        })
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "perf_smoke: telemetry on={skip_on:.3e} off={skip_off:.3e} cycles/s \
         (on/off {:.2}x) phases: {split}",
        skip_on / skip_off,
    );
}

fn main() {
    // Force the disabled path for every gated measurement below — the floor
    // check then doubles as the telemetry-off overhead gate: any cost left
    // on the disabled path shows up as lost absolute throughput.
    bard_bench::telemetry::set_enabled(false);
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/benches/BENCH_sim_engine.json");
    let json = load_baseline(baseline_path);
    let recorded_speedup = get_num(&json, baseline_path, &["perf_smoke", "skip_over_step"]);
    let recorded_skip = get_num(&json, baseline_path, &["perf_smoke", "skip_cycles_per_sec"]);
    let ratio_tolerance = get_num(&json, baseline_path, &["perf_smoke", "ratio_tolerance"]);
    let floor_fraction = get_num(&json, baseline_path, &["perf_smoke", "floor_fraction"]);

    let length = RunLength { functional_warmup: 100_000, timed_warmup: 2_000, measure: 10_000 };
    let step = cycles_per_sec(EngineKind::Step, length);
    let skip = cycles_per_sec(EngineKind::Skip, length);
    let speedup = skip / step;
    println!(
        "perf_smoke: {} {}c step={step:.3e} skip={skip:.3e} cycles/s speedup={speedup:.2}x \
         (recorded {recorded_speedup:.2}x @ {recorded_skip:.3e})",
        WORKLOAD.name(),
        CORES,
    );

    let mut failed = false;
    let min_speedup = recorded_speedup * (1.0 - ratio_tolerance);
    if speedup < min_speedup {
        eprintln!(
            "perf_smoke FAIL: skip/step speedup {speedup:.2}x fell below {min_speedup:.2}x \
             ({:.0}% tolerance on the recorded {recorded_speedup:.2}x)",
            ratio_tolerance * 100.0
        );
        failed = true;
    }
    let floor = recorded_skip * floor_fraction;
    if skip < floor {
        eprintln!(
            "perf_smoke FAIL: skip engine {skip:.3e} simulated-cycles/s fell below the \
             {floor:.3e} floor ({:.0}% of the recorded reference)",
            floor_fraction * 100.0
        );
        failed = true;
    }
    if warm_fork_gate_failed() {
        failed = true;
    }
    report_telemetry_overhead(length, skip);
    if failed {
        std::process::exit(1);
    }
    println!("perf_smoke: ok");
}
