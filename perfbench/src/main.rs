//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one benchmark workload and prints every metric by name with its
//! unit, then, as the last line of standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits non-zero when the output check fails.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use bard_perfbench::bench::{self, Kind, Options};
use bard_perfbench::catalog;

const USAGE: &str =
    "usage: perfbench --workload graph_contention_8c|warm_fork_mix8c \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Traces, images, artifacts, digests and spans, relative to the directory
/// the benchmark runs from.
const WORK_DIR: &str = ".perfbench_work";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        kind: Kind::GraphContention,
        seed: catalog::DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
        work_dir: PathBuf::from(WORK_DIR),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Kind::from_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.kind = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} (default seed {}, held-out seed {})",
        opts.kind.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        catalog::DEFAULT_SEED,
        catalog::HELD_OUT_SEED,
    );
    eprintln!("perfbench: host {}; {}", catalog::HOST, catalog::VALIDATION);
    if std::env::var_os("GLIBC_TUNABLES").is_none() {
        eprintln!(
            "perfbench: GLIBC_TUNABLES is unset, so peak_rss_mib includes allocator \
             fragmentation; run the command in BENCHMARK.json to compare it"
        );
    }

    let out = bench::run(&opts);
    let mut problems = out.problems;
    let listed: Vec<(&str, &str)> = if opts.trace {
        catalog::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        catalog::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut json = Vec::new();
    for (name, unit) in listed {
        let value = *out.metrics.get(name).unwrap_or_else(|| panic!("metric {name} not measured"));
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name} = {value} {unit}");
        json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!("result_digest {} {:016x}", opts.kind.name(), out.result_digest);
    for p in &problems {
        eprintln!("perfbench: output check failed: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        out.attempted,
        out.failed,
        json.join(", ")
    );
    if problems.is_empty() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
