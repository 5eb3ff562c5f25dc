//! CI perf-regression gate: one table ([`GATES`]) of what to compare,
//! one loop that compares it.
//!
//! ```text
//! bench_regression bench-results.jsonl target/paper/dedup_summary.json ...
//! ```
//!
//! Every argument is a results file some sweep wrote; each is gated by
//! the rows of [`GATES`] that name it (by file name) against the
//! committed `BENCH_*.json` in the working directory. A file no row
//! names is an error, so is an unreadable one — the job lists what it
//! produced and nothing is skipped silently. A check passes when the
//! measured value is at least `max(recorded × (1 − tolerance), floor)`,
//! `recorded`, `floor` and `regression_tolerance` (default 0.25) all
//! read from the baseline. Every gated value is a ratio or a count, so
//! runner speed cancels.
//!
//! `bench-results.jsonl` is the `BFF_BENCH_JSON` output of the criterion
//! shim; it is first reduced to a flat summary of speedup ratios
//! (sequential reference ÷ batched pipeline, each bench's `min_ns`
//! across all its lines — the least-interference estimator on noisy
//! shared machines) and then goes through the same loop.
//!
//! On failure the gate ends with a `FAILED METRICS` block naming, for
//! every tripped check, the metric key, the measured value, the
//! threshold and floor that tripped and the baseline file — so a red CI
//! run reads off what regressed without grepping the JSON by hand.

use std::path::Path;
use std::process::ExitCode;

/// One gated metric: `key` of `summary` must hold up against `key` and
/// `floor_key` of `baseline`.
struct Gate {
    baseline: &'static str,
    summary: &'static str,
    label: &'static str,
    key: &'static str,
    floor_key: &'static str,
}

const fn gate(
    baseline: &'static str,
    summary: &'static str,
    label: &'static str,
    key: &'static str,
    floor_key: &'static str,
) -> Gate {
    Gate {
        baseline,
        summary,
        label,
        key,
        floor_key,
    }
}

const CRITERION: &str = "bench-results.jsonl";

#[rustfmt::skip]
const GATES: &[Gate] = &[
    gate("BENCH_2.json", CRITERION, "read: vectored read_multi vs per-run reads", "cold_boot_sweep_speedup", "cold_boot_sweep_floor"),
    gate("BENCH_2.json", CRITERION, "write: fan-out batched vs sequential pushes", "cold_write_sweep_speedup_fanout", "cold_write_sweep_floor"),
    gate("BENCH_3.json", "dedup_summary.json", "dedup: provider bytes written, off ÷ on", "dedup_stored_reduction", "dedup_stored_floor"),
    gate("BENCH_3.json", "dedup_summary.json", "dedup: network bytes, off ÷ on", "dedup_network_reduction", "dedup_network_floor"),
    gate("BENCH_3.json", "dedup_summary.json", "node cache: descriptor hit rate", "desc_hit_rate", "desc_hit_rate_floor"),
    gate("BENCH_4.json", "prefetch_summary.json", "prefetch: cold concurrent boot throughput, on ÷ off", "prefetch_boot_speedup", "prefetch_boot_floor"),
    gate("BENCH_4.json", "prefetch_summary.json", "prefetch: read-ahead hit rate", "prefetch_hit_rate", "prefetch_hit_rate_floor"),
    gate("BENCH_4.json", "prefetch_summary.json", "prefetch: boot network bytes, off ÷ on", "prefetch_network_reduction", "prefetch_network_floor"),
    gate("BENCH_5.json", "cluster_summary.json", "cluster dedup: provider bytes, node-local ÷ cluster index", "cluster_stored_reduction", "cluster_stored_floor"),
    gate("BENCH_5.json", "cluster_summary.json", "cluster dedup: network bytes, node-local ÷ cluster index", "cluster_network_reduction", "cluster_network_floor"),
    gate("BENCH_5.json", "cluster_summary.json", "snapshot GC: fraction of deleted-unique bytes reclaimed", "gc_reclaimed_fraction", "gc_reclaimed_floor"),
    gate("BENCH_5.json", "prefetch_summary.json", "prefetch confidence: unused read-aheads saved vs unfiltered", "confidence_waste_saved", "confidence_waste_saved_floor"),
    gate("BENCH_7.json", "transport_summary.json", "transport: codec boots/s retention vs direct", "transport_codec_retention", "transport_codec_retention_floor"),
    gate("BENCH_8.json", "recovery_summary.json", "recovery: acknowledged snapshots byte-identical after kill -9", "recovery_survivor_identity", "recovery_survivor_identity_floor"),
    gate("BENCH_8.json", "recovery_summary.json", "recovery: restart-time margin under the bound", "recovery_margin", "recovery_margin_floor"),
    gate("BENCH_9.json", "durable_summary.json", "durable: group-commit boots/s retention vs non-durable socket", "durable_retention", "durable_retention_floor"),
    gate("BENCH_9.json", "durable_summary.json", "durable: acked mutations per fsync under concurrency", "acks_per_fsync", "acks_per_fsync_floor"),
];

/// The criterion ratios: summary key = `reference` ÷ `pipeline` bench.
const CRITERION_RATIOS: &[(&str, &str, &str)] = &[
    (
        "cold_boot_sweep_speedup",
        "cold_boot_sweep/per_run_reads",
        "cold_boot_sweep/read_multi",
    ),
    (
        "cold_write_sweep_speedup_fanout",
        "cold_write_sweep/sequential_push",
        "cold_write_sweep/fanout_batched",
    ),
];

/// Extract the first number following `"key":` in a JSON text. Good for
/// the flat objects the sweeps and the criterion shim emit and the
/// top-level scalar fields of `BENCH_*.json` — not a general JSON parser.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reduce the criterion shim's jsonl to a flat summary of the
/// [`CRITERION_RATIOS`]. A ratio whose benches are missing is left out,
/// which the loop reports as a missing key.
fn criterion_summary(jsonl: &str) -> String {
    let min_ns = |bench: &str| {
        let needle = format!("\"bench\":\"{bench}\"");
        jsonl
            .lines()
            .filter(|l| l.contains(&needle))
            .filter_map(|l| json_number(l, "min_ns"))
            .reduce(f64::min)
    };
    CRITERION_RATIOS
        .iter()
        .filter_map(|(key, reference, pipeline)| {
            Some(format!(
                "\"{key}\": {}\n",
                min_ns(reference)? / min_ns(pipeline)?
            ))
        })
        .collect()
}

/// One checked gate, carrying everything the report needs.
struct Checked {
    /// The summary's metric key (what you would grep for).
    metric: &'static str,
    /// Measured value, `None` when the key was missing entirely.
    current: Option<f64>,
    recorded: f64,
    floor: f64,
    threshold: f64,
    baseline: &'static str,
}

impl Checked {
    fn passed(&self) -> bool {
        self.current.is_some_and(|v| v >= self.threshold)
    }

    fn describe(&self) -> String {
        match self.current {
            Some(v) => format!(
                "metric {} = {v:.3} {} threshold {:.3} \
                 (floor {:.3}, recorded {:.3} in {})",
                self.metric,
                if self.passed() { "holds" } else { "tripped" },
                self.threshold,
                self.floor,
                self.recorded,
                self.baseline
            ),
            None => format!(
                "metric {} missing from results (baseline {})",
                self.metric, self.baseline
            ),
        }
    }
}

/// Check one gate. A key missing from the *baseline* is table/baseline
/// drift and panics (a unit test keeps the two in step).
fn check(gate: &Gate, summary: &str, baseline: &str) -> Checked {
    let from_baseline = |key: &str| {
        json_number(baseline, key).unwrap_or_else(|| panic!("{} missing {key}", gate.baseline))
    };
    let tolerance = json_number(baseline, "regression_tolerance").unwrap_or(0.25);
    let recorded = from_baseline(gate.key);
    let floor = from_baseline(gate.floor_key);
    Checked {
        metric: gate.key,
        current: json_number(summary, gate.key),
        recorded,
        floor,
        threshold: (recorded * (1.0 - tolerance)).max(floor),
        baseline: gate.baseline,
    }
}

/// The final report: one line per tripped metric.
fn report(failures: &[Checked]) -> String {
    if failures.is_empty() {
        return String::from("all gated metrics within tolerance");
    }
    let lines: Vec<String> = failures
        .iter()
        .map(|f| format!("  {}", f.describe()))
        .collect();
    format!(
        "\nFAILED METRICS ({}):\n{}",
        failures.len(),
        lines.join("\n")
    )
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    assert!(
        !paths.is_empty(),
        "usage: bench_regression <results file>..."
    );
    let mut failures = Vec::new();
    for path in &paths {
        let name = Path::new(path).file_name().and_then(|n| n.to_str());
        let gates: Vec<&Gate> = GATES.iter().filter(|g| Some(g.summary) == name).collect();
        assert!(!gates.is_empty(), "no GATES row reads {path}");
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let summary = if name == Some(CRITERION) {
            criterion_summary(&text)
        } else {
            text
        };
        for gate in gates {
            let baseline = std::fs::read_to_string(gate.baseline)
                .unwrap_or_else(|e| panic!("read baseline {}: {e}", gate.baseline));
            let checked = check(gate, &summary, &baseline);
            let verdict = if checked.passed() { "ok  " } else { "FAIL" };
            println!("{verdict} {}: {}", gate.label, checked.describe());
            if !checked.passed() {
                failures.push(checked);
            }
        }
    }
    println!("{}", report(&failures));
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATE: Gate = gate(
        "BENCH_X.json",
        "x_summary.json",
        "x",
        "speedup",
        "speedup_floor",
    );

    fn baseline(recorded: f64, floor: f64, tolerance: f64) -> String {
        format!(
            "{{\"speedup\": {recorded}, \"speedup_floor\": {floor}, \
             \"regression_tolerance\": {tolerance}}}"
        )
    }

    fn passes(summary: &str, baseline: &str) -> bool {
        check(&GATE, summary, baseline).passed()
    }

    #[test]
    fn threshold_is_the_larger_of_tolerated_drop_and_floor() {
        // 4.0 × (1 − 0.25) = 3.0 rules over a floor of 2.0 …
        let b = baseline(4.0, 2.0, 0.25);
        assert!(passes("{\"speedup\": 3.0}", &b));
        let f = check(&GATE, "{\"speedup\": 2.99}", &b);
        assert!(!f.passed());
        assert_eq!((f.threshold, f.floor, f.recorded), (3.0, 2.0, 4.0));
        // … and a floor of 3.5 rules over it.
        let b = baseline(4.0, 3.5, 0.25);
        assert_eq!(check(&GATE, "{}", &b).threshold, 3.5);
        assert!(passes("{\"speedup\": 3.5}", &b));
        assert!(!passes("{\"speedup\": 3.4}", &b));
        // No recorded tolerance means 0.25.
        let b = "{\"speedup\": 4.0, \"speedup_floor\": 0.0}";
        assert!(passes("{\"speedup\": 3.0}", b));
        assert!(!passes("{\"speedup\": 2.9}", b));
    }

    #[test]
    fn zero_tolerance_trips_on_any_drop() {
        let b = baseline(11.444, 5.0, 0.0);
        assert!(passes("{\"speedup\": 11.444}", &b));
        assert!(passes("{\"speedup\": 12.0}", &b));
        assert!(!passes("{\"speedup\": 11.443}", &b));
    }

    #[test]
    fn a_missing_summary_key_fails_instead_of_panicking() {
        let f = check(&GATE, "{\"other\": 1.0}", &baseline(4.0, 2.0, 0.25));
        assert!(!f.passed());
        assert_eq!(f.current, None);
        assert_eq!(
            f.describe(),
            "metric speedup missing from results (baseline BENCH_X.json)"
        );
    }

    #[test]
    fn the_failure_report_names_key_value_threshold_floor_and_baseline() {
        let f = check(&GATE, "{\"speedup\": 2.5}", &baseline(4.0, 2.0, 0.25));
        assert_eq!(
            report(&[f]),
            "\nFAILED METRICS (1):\n  metric speedup = 2.500 tripped threshold 3.000 \
             (floor 2.000, recorded 4.000 in BENCH_X.json)"
        );
        assert_eq!(report(&[]), "all gated metrics within tolerance");
    }

    #[test]
    fn criterion_lines_reduce_to_min_ns_ratios() {
        let line = |bench: &str, min_ns: f64| {
            format!("{{\"bench\":\"{bench}\",\"median_ns\":9e9,\"min_ns\":{min_ns}}}\n")
        };
        let jsonl = [
            line("cold_boot_sweep/per_run_reads", 900.0),
            line("cold_boot_sweep/read_multi", 250.0),
            line("cold_boot_sweep/per_run_reads", 800.0),
            line("cold_boot_sweep/read_multi", 200.0),
            line("cold_write_sweep/sequential_push", 300.0),
            line("cold_write_sweep/fanout_batched", 150.0),
        ]
        .concat();
        let summary = criterion_summary(&jsonl);
        assert_eq!(json_number(&summary, "cold_boot_sweep_speedup"), Some(4.0));
        assert_eq!(
            json_number(&summary, "cold_write_sweep_speedup_fanout"),
            Some(2.0)
        );
        // A ratio with a bench missing from the results is absent, so
        // the loop reports it missing.
        let summary = criterion_summary(&line("cold_write_sweep/sequential_push", 300.0));
        assert_eq!(
            json_number(&summary, "cold_write_sweep_speedup_fanout"),
            None
        );
    }

    /// Table/baseline drift fails `cargo test`, not the last CI step.
    #[test]
    fn every_gate_names_keys_its_committed_baseline_has() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for gate in GATES {
            let text = std::fs::read_to_string(root.join(gate.baseline))
                .unwrap_or_else(|e| panic!("read {}: {e}", gate.baseline));
            for key in [gate.key, gate.floor_key] {
                assert!(
                    json_number(&text, key).is_some(),
                    "{} has no number under {key}",
                    gate.baseline
                );
            }
        }
        for (key, ..) in CRITERION_RATIOS {
            assert!(
                GATES
                    .iter()
                    .any(|g| g.key == *key && g.summary == CRITERION),
                "criterion ratio {key} is gated by no row"
            );
        }
    }
}
