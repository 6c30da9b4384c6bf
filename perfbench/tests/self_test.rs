//! Self-tests of the benchmark's own code: the metric catalog, its mirror in
//! `BENCHMARK.json`, the span arithmetic and the statistics helpers.

use std::collections::BTreeSet;

use bard::report::json::Json;
use bard_perfbench::bench::Kind;
use bard_perfbench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use bard_perfbench::spans::{self, Recorder, Span};
use bard_perfbench::stats::{jain_index, median};

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_and_units_are_well_formed_and_within_limits() {
    assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
    assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
    assert!((2..=8).contains(&WORKLOADS.len()));
    let mut seen = BTreeSet::new();
    let names = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
    for (name, unit) in names {
        assert!(is_name(name), "bad metric name {name:?}");
        assert!(is_unit(unit), "bad unit {unit:?} of {name}");
        assert!(seen.insert(name), "metric {name} listed twice");
    }
    for w in WORKLOADS {
        assert!(is_name(w.name), "bad workload name {:?}", w.name);
        assert!(seen.insert(w.name), "workload {} reuses a name", w.name);
        assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
    }
}

#[test]
fn setup_time_is_an_end_to_end_metric_with_the_largest_bound() {
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is listed");
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    for m in END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound {}", m.name, m.bound);
        assert!(m.bound <= setup.bound, "{} has a larger bound than setup_s", m.name);
    }
}

#[test]
fn every_mapping_names_an_end_to_end_metric_and_a_workload() {
    let e2e: BTreeSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let workloads: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for m in PER_LAYER {
        assert!(!m.moves.is_empty(), "{} maps to nothing", m.name);
        assert!(!m.layer.is_empty(), "{} has no layer", m.name);
        for (metric, workload) in m.moves {
            assert!(e2e.contains(metric), "{} maps to unknown metric {metric}", m.name);
            assert!(workloads.contains(workload), "{} maps to unknown workload {workload}", m.name);
        }
    }
}

#[test]
fn workload_names_parse_to_kinds() {
    for w in WORKLOADS {
        let kind = Kind::from_name(w.name).expect("every listed workload runs");
        assert_eq!(kind.name(), w.name);
    }
    assert_eq!(Kind::from_name("lbm"), None);
}

fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    json.get(key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn keys(json: &Json) -> Vec<&str> {
    json.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn benchmark_json_mirrors_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&json),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let run_seconds = field(&json, "run_seconds").as_f64().expect("a number");
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
    let paths: Vec<&str> = field(&json, "paths")
        .as_array()
        .expect("an array")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["perfbench"]);
    let command = field(&json, "command").as_array().expect("an array");
    assert!(command.len() <= 32);
    for arg in command.iter().map(|a| a.as_str().expect("a string")) {
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."), "{arg}");
    }

    let workloads = field(&json, "workloads").as_array().expect("an array");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(j), ["name", "why"]);
        assert_eq!(field(j, "name").as_str(), Some(w.name));
        assert_eq!(field(j, "why").as_str(), Some(w.why));
    }

    let e2e = field(&json, "end_to_end").as_array().expect("an array");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(j), ["name", "unit", "better", "bound"]);
        assert_eq!(field(j, "name").as_str(), Some(m.name));
        assert_eq!(field(j, "unit").as_str(), Some(m.unit));
        assert_eq!(field(j, "better").as_str(), Some(m.better.name()));
        assert_eq!(field(j, "bound").as_f64(), Some(m.bound));
    }

    let per_layer = field(&json, "per_layer").as_array().expect("an array");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (j, m) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(keys(j), ["name", "unit", "better"]);
        assert_eq!(field(j, "name").as_str(), Some(m.name));
        assert_eq!(field(j, "unit").as_str(), Some(m.unit));
        assert_eq!(field(j, "better").as_str(), Some(m.better.name()));
    }
}

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span { name, cell: "c0".into(), parent, start_ns, end_ns }
}

#[test]
fn self_time_subtracts_the_union_of_children_within_the_parent() {
    let spans = [
        span("cell", None, 0, 100),
        span("a", Some(0), 10, 30),
        span("b", Some(0), 20, 50), // overlaps a: [10, 50) is covered once
        span("c", Some(0), 90, 120), // runs past the parent: only [90, 100) counts
        span("d", Some(1), 12, 18), // grandchild: covers part of a, not of cell
    ];
    assert_eq!(spans::self_times_ns(&spans), [50, 14, 30, 30, 6]);
}

#[test]
fn self_time_of_a_span_without_children_is_its_duration() {
    let spans = [span("x", None, 5, 5), span("y", None, 7, 19)];
    assert_eq!(spans::self_times_ns(&spans), [0, 12]);
}

#[test]
fn self_seconds_sum_by_name_over_a_range() {
    let spans = [
        span("cell", None, 0, 1_000),
        span("system.run", Some(0), 100, 600),
        span("cell", None, 1_000, 3_000),
        span("system.run", Some(2), 1_000, 2_000),
    ];
    let all = spans::self_seconds_by_name(&spans, 0..4);
    assert!((all["cell"] - 1_500e-9).abs() < 1e-15);
    assert!((all["system.run"] - 1_500e-9).abs() < 1e-15);
    let second = spans::self_seconds_by_name(&spans, 2..4);
    assert!((second["system.run"] - 1_000e-9).abs() < 1e-15);
}

#[test]
fn recorder_links_children_to_the_innermost_open_span() {
    let mut rec = Recorder::new(true);
    rec.begin("cell", "c0");
    let v = rec.leaf("system.new", "c0", || 7);
    rec.begin("system.run", "c0");
    rec.leaf("inner", "c0", || ());
    rec.close_to(0);
    assert_eq!(v, 7);
    let parents: Vec<Option<usize>> = rec.spans().iter().map(|s| s.parent).collect();
    assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
    assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
    assert_eq!(rec.depth(), 0);

    let mut off = Recorder::new(false);
    off.leaf("system.run", "c0", || ());
    assert!(off.spans().is_empty());
}

#[test]
fn jain_index_matches_known_vectors() {
    assert_eq!(jain_index(&[0.3, 0.3, 0.3, 0.3]), Some(1.0));
    assert_eq!(jain_index(&[1.0, 0.0, 0.0, 0.0]), Some(0.25));
    assert_eq!(jain_index(&[1.0, 2.0]), Some(0.9));
    let skewed =
        jain_index(&[0.31, 0.30, 0.16, 0.04, 0.007, 0.004, 0.004, 0.004]).expect("non-zero");
    assert!((skewed - 0.40256).abs() < 1e-5, "{skewed}");
    assert_eq!(jain_index(&[]), None);
    assert_eq!(jain_index(&[0.0, 0.0]), None);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}
