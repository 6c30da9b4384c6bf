//! **T1 — telemetry purity.** Telemetry must be write-only from the model:
//! the simulation may bump counters and emit spans, but model behavior must
//! never depend on telemetry state — otherwise the telemetry-on and
//! telemetry-off runs diverge and the parity suite's "bitwise identical
//! with telemetry enabled" guarantee dies.
//!
//! Two scopes:
//!
//! * **Core + root** (where `bard::telemetry` lives): a `telemetry::` path
//!   may call the write/emit API (`CELL.add(..)`, `CELL.observe(..)`,
//!   `trace_span`, `trace_instant`, `flush_phase_nanos`, the enable
//!   setters) and name the vocabulary types (`Phase`, `Progress`). Reading
//!   state back (`.value()`, registry exports) is reporting-only and must
//!   carry `// bard-lint: allow(T1) -- <why this is a report path>`.
//! * **Leaf crates** (`cache`, `cpu`, `dram`, `workloads`, `trace`): the
//!   dependency graph points the other way, so leaf code must not name
//!   `telemetry` at all — leaf counters are scraped through the sanctioned
//!   fn-pointer probes (`decode_cache_counters` et al.) instead.
//!
//! The `bench` crate is the harness that *checks* telemetry and is exempt;
//! `core/src/telemetry.rs` is the subsystem itself and is exempt.

use crate::findings::{Finding, Severity};
use crate::passes::{AnnotationMap, Pass};
use crate::source::Tok;
use crate::workspace::Workspace;

/// Crates that sit below `bard` in the dependency graph and therefore
/// cannot name `bard::telemetry` at all.
const LEAF_CRATES: &[&str] = &["cache", "cpu", "dram", "workloads", "trace"];

/// Sanctioned path segments directly after `telemetry::`: the write/emit
/// fns, the enable switches (write-side), and the vocabulary types.
const WRITE_API: &[&str] = &[
    "trace_span",
    "trace_instant",
    "flush_phase_nanos",
    "set_enabled",
    "enabled",
    "Phase",
    "PHASE_COUNT",
    "Progress",
];

/// The telemetry-purity pass.
pub struct TelemetryPurity;

impl Pass for TelemetryPurity {
    fn code(&self) -> &'static str {
        "T1"
    }

    fn name(&self) -> &'static str {
        "telemetry-purity"
    }

    fn run(&self, ws: &Workspace, _ann: &AnnotationMap, out: &mut Vec<Finding>) {
        for file in &ws.files {
            let leaf = LEAF_CRATES.contains(&file.crate_name.as_str());
            let host = file.crate_name == "core" || file.crate_name == "root";
            if !(leaf || host) || file.file_test {
                continue;
            }
            if file.rel.ends_with("src/telemetry.rs") {
                continue; // the subsystem itself
            }
            let toks = &file.src.tokens;
            for (i, t) in toks.iter().enumerate() {
                if !t.tok.is_ident("telemetry") || file.src.is_test_line(t.line) {
                    continue;
                }
                if leaf {
                    out.push(Finding {
                        code: "T1",
                        severity: Severity::Error,
                        file: file.rel.clone(),
                        line: t.line,
                        message: "leaf crate names `telemetry`; leaf counters are scraped via \
                                  the registered fn-pointer probes, never by direct reference"
                            .into(),
                    });
                    continue;
                }
                // Host scope: `telemetry` must be a path segment followed by
                // a sanctioned member. A bare `telemetry` ident (module decl,
                // variable) is fine.
                let is_path = toks.get(i + 1).is_some_and(|t| t.tok.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.tok.is_punct(':'));
                if !is_path {
                    continue;
                }
                let Some(Tok::Ident(member)) = toks.get(i + 3).map(|t| &t.tok) else { continue };
                if WRITE_API.contains(&member.as_str()) {
                    continue;
                }
                if is_screaming_case(member) {
                    // A counter cell: the very next tokens decide write vs
                    // read — `.add(` / `.observe(` are writes, everything
                    // else (`.value()`, passing the cell around) is a read.
                    let method = toks
                        .get(i + 4)
                        .filter(|t| t.tok.is_punct('.'))
                        .and_then(|_| toks.get(i + 5))
                        .and_then(|t| t.tok.ident());
                    if matches!(method, Some("add" | "observe")) {
                        continue;
                    }
                    out.push(Finding {
                        code: "T1",
                        severity: Severity::Error,
                        file: file.rel.clone(),
                        line: t.line,
                        message: format!(
                            "telemetry cell `{member}` is read, not written; model code must \
                             not branch on telemetry state (annotate report-only paths with \
                             allow(T1))"
                        ),
                    });
                } else {
                    out.push(Finding {
                        code: "T1",
                        severity: Severity::Error,
                        file: file.rel.clone(),
                        line: t.line,
                        message: format!(
                            "`telemetry::{member}` is not in the sanctioned write/emit API; \
                             reading telemetry state from model code breaks on/off parity"
                        ),
                    });
                }
            }
        }
    }
}

/// True for SCREAMING_SNAKE_CASE identifiers (counter cell names).
fn is_screaming_case(s: &str) -> bool {
    s.len() > 1
        && s.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && s.chars().any(|c| c.is_ascii_uppercase())
}
