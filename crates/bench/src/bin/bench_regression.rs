//! CI perf-regression gate: compare the criterion read/write pipeline
//! benches against the committed `BENCH_*.json` baseline, and the
//! `dedup_sweep` summary against the `BENCH_3.json` floors.
//!
//! Usage:
//!
//! ```text
//! bench_regression --results bench-results.jsonl --baseline BENCH_2.json \
//!     [--dedup-results target/paper/dedup_summary.json --dedup-baseline BENCH_3.json] \
//!     [--prefetch-results target/paper/prefetch_summary.json --prefetch-baseline BENCH_4.json] \
//!     [--cluster-results target/paper/cluster_summary.json --cluster-baseline BENCH_5.json] \
//!     [--loadgen-results target/paper/load_summary.json --loadgen-baseline BENCH_6.json] \
//!     [--transport-results target/paper/transport_summary.json --transport-baseline BENCH_7.json] \
//!     [--recovery-results target/paper/recovery_summary.json --recovery-baseline BENCH_8.json] \
//!     [--durable-results target/paper/durable_summary.json --durable-baseline BENCH_9.json] \
//!     [--gc-results target/paper/gc_cost_summary.json --gc-baseline BENCH_13.json] \
//!     [--pipeline-results target/paper/pipeline_summary.json --pipeline-baseline BENCH_14.json \
//!      --diff-boot-baseline BENCH_15.json]
//! ```
//!
//! On failure the gate ends with a `FAILED METRICS` block naming, for
//! every tripped check, the exact metric key, the measured value, the
//! recorded baseline, and the floor/threshold that tripped — so a red
//! CI run reads off what regressed without grepping the JSON by hand.
//!
//! `--results` is the `BFF_BENCH_JSON` jsonl the criterion shim appends
//! (pass it several times to merge files). The gate checks *speedup
//! ratios* (sequential reference ÷ batched pipeline), not absolute
//! nanoseconds, so it is immune to runner hardware differences; within a
//! run it uses each bench's `min_ns` — the least-interference estimator
//! on noisy shared CI machines. A check fails when a ratio drops more
//! than `regression_tolerance` below the baseline ratio, or below the
//! corresponding hard floor recorded in the baseline.
//!
//! The dedup checks work the same way on deterministic byte ratios
//! (provider-bytes-written reduction, network reduction, cache hit
//! rate), so they are noise-free: a failure means the dedup or
//! node-shared-cache pipeline itself regressed. The prefetch checks
//! gate the `prefetch_sweep` summary against the `BENCH_4.json` floors:
//! virtual-time boot throughput, read-ahead hit rate, traffic reduction
//! and the pipelined-chain latency win — all measured on the
//! deterministic simulator, so they are noise-free too.

use std::process::ExitCode;

/// Extract the first number following `"key":` in a JSON text. Good for
/// the flat objects the criterion shim emits and the top-level scalar
/// fields of `BENCH_*.json` — not a general JSON parser.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `min_ns` of the named bench across all results lines.
fn min_ns(lines: &[String], bench: &str) -> Option<f64> {
    let needle = format!("\"bench\":\"{bench}\"");
    lines
        .iter()
        .filter(|l| l.contains(&needle))
        .filter_map(|l| json_number(l, "min_ns"))
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
}

struct Check {
    name: &'static str,
    /// Ratio: reference bench ÷ pipeline bench (higher is better).
    reference: &'static str,
    pipeline: &'static str,
    /// Baseline key holding the recorded ratio.
    baseline_key: &'static str,
    /// Baseline key holding the hard floor.
    floor_key: &'static str,
}

const CHECKS: &[Check] = &[
    Check {
        name: "read: vectored read_multi vs per-run reads",
        reference: "cold_boot_sweep/per_run_reads",
        pipeline: "cold_boot_sweep/read_multi",
        baseline_key: "cold_boot_sweep_speedup",
        floor_key: "cold_boot_sweep_floor",
    },
    Check {
        name: "write: fan-out batched vs sequential pushes",
        reference: "cold_write_sweep/sequential_push",
        pipeline: "cold_write_sweep/fanout_batched",
        baseline_key: "cold_write_sweep_speedup_fanout",
        floor_key: "cold_write_sweep_floor",
    },
    Check {
        name: "write: chain batched vs sequential pushes",
        reference: "cold_write_sweep/sequential_push",
        pipeline: "cold_write_sweep/chain_batched",
        baseline_key: "cold_write_sweep_speedup_chain",
        floor_key: "cold_write_sweep_floor",
    },
];

/// Measured-value keys checked between a dedup summary and `BENCH_3.json`
/// (each `<key>` needs a `<key minus suffix>_floor` in the baseline).
const DEDUP_CHECKS: &[(&str, &str, &str)] = &[
    (
        "dedup: provider bytes written, off ÷ on",
        "dedup_stored_reduction",
        "dedup_stored_floor",
    ),
    (
        "dedup: network bytes, off ÷ on",
        "dedup_network_reduction",
        "dedup_network_floor",
    ),
    (
        "node cache: descriptor hit rate",
        "desc_hit_rate",
        "desc_hit_rate_floor",
    ),
];

/// Measured-value keys checked between the cluster-dedup summary and
/// `BENCH_5.json`.
const CLUSTER_CHECKS: &[(&str, &str, &str)] = &[
    (
        "cluster dedup: provider bytes, node-local ÷ cluster index",
        "cluster_stored_reduction",
        "cluster_stored_floor",
    ),
    (
        "cluster dedup: network bytes, node-local ÷ cluster index",
        "cluster_network_reduction",
        "cluster_network_floor",
    ),
    (
        "snapshot GC: fraction of deleted-unique bytes reclaimed",
        "gc_reclaimed_fraction",
        "gc_reclaimed_floor",
    ),
];

/// Confidence-filter keys checked between the *prefetch* summary and
/// `BENCH_5.json` (the filter shipped with the cluster-dedup PR).
const CONFIDENCE_CHECKS: &[(&str, &str, &str)] = &[(
    "prefetch confidence: unused read-aheads saved vs unfiltered",
    "confidence_waste_saved",
    "confidence_waste_saved_floor",
)];

/// Measured-value keys checked between the `load_sweep` summary and
/// `BENCH_6.json`. These are *wall-clock* numbers from real OS threads,
/// so every gate is a throughput ratio between locking disciplines
/// replaying the identical workload (never an absolute time) and the
/// baseline carries a wide tolerance — the gate survives slow or noisy
/// runners, but still trips if a contention fix stops paying for
/// itself.
const LOADGEN_CHECKS: &[(&str, &str, &str)] = &[
    (
        "loadgen: wall-clock boot throughput, all-fixes ÷ naive fabric",
        "loadgen_boot_speedup",
        "loadgen_boot_speedup_floor",
    ),
    (
        "loadgen: wall-clock boot throughput, lane fix alone ÷ naive fabric",
        "loadgen_lane_fix_speedup",
        "loadgen_lane_fix_speedup_floor",
    ),
    (
        "loadgen: p99 boot latency, naive ÷ all-fixes",
        "loadgen_p99_speedup",
        "loadgen_p99_speedup_floor",
    ),
];

/// Measured-value keys checked between a transport summary
/// (`load_sweep --transport all`) and `BENCH_7.json`. Only the
/// codec÷direct throughput ratio is gated — both transports run
/// in-process over the identical workload, so the ratio isolates the
/// wire codec + dispatch overhead from runner speed. Socket absolutes
/// are recorded in the summary but not gated: they measure kernel
/// round-trips and vary wildly with runner hardware.
const TRANSPORT_CHECKS: &[(&str, &str, &str)] = &[(
    "transport: codec boots/s retention vs direct",
    "transport_codec_retention",
    "transport_codec_retention_floor",
)];

/// Measured-value keys checked between the `recovery_sweep` summary and
/// `BENCH_8.json`. Survivor identity is a correctness property — its
/// floor is exactly 1.0 and the baseline records 1.0, so any lost or
/// corrupted snapshot trips the gate. The margin (bound ÷ slowest
/// recovery) is a wall-clock absolute, so the baseline clamps its
/// recorded value to the floor: the gate only requires recoveries to
/// finish inside the bound, never to match a fast runner's timing.
const RECOVERY_CHECKS: &[(&str, &str, &str)] = &[
    (
        "recovery: acknowledged snapshots byte-identical after kill -9",
        "recovery_survivor_identity",
        "recovery_survivor_identity_floor",
    ),
    (
        "recovery: restart-time margin under the bound",
        "recovery_margin",
        "recovery_margin_floor",
    ),
];

/// Measured-value keys checked between the `load_sweep --durable all`
/// summary and `BENCH_9.json`. Both gated metrics are ratios over the
/// identical in-process-socket workload, so runner speed cancels:
/// `durable_retention` (group-commit durable boots/s ÷ non-durable
/// boots/s — how much throughput surviving kill -9 costs) and
/// `acks_per_fsync` (the batching claim itself: under concurrent load
/// one leader fsync must cover more than one acked mutation; the
/// per-ack baseline measures exactly 1.0).
const DURABLE_CHECKS: &[(&str, &str, &str)] = &[
    (
        "durable: group-commit boots/s retention vs non-durable socket",
        "durable_retention",
        "durable_retention_floor",
    ),
    (
        "durable: acked mutations per fsync under concurrency",
        "acks_per_fsync",
        "acks_per_fsync_floor",
    ),
];

/// Measured-value keys checked between the `dedup_sweep` GC-cost
/// summary and `BENCH_13.json`: what one single-version delete reads to
/// find its dead leaves, per-root full walks ÷ the joint pruned descent,
/// as metadata rounds and as tree nodes asked of the `NodeIo`. Both are
/// counts on a fixed in-memory fixture, so they repeat exactly and the
/// baseline's tolerance is zero.
const GC_COST_CHECKS: &[(&str, &str, &str)] = &[
    (
        "snapshot GC: metadata rounds per delete, per-root walks ÷ joint descent",
        "gc_fetch_rounds_reduction",
        "gc_fetch_rounds_reduction_floor",
    ),
    (
        "snapshot GC: tree nodes fetched per delete, per-root walks ÷ joint descent",
        "gc_nodes_fetched_reduction",
        "gc_nodes_fetched_reduction_floor",
    ),
];

/// Measured-value keys checked between the `load_sweep --transport all`
/// scatter-gather fixture and `BENCH_14.json`: request frames per wait
/// on a cold single-client boot, per server role — how many of the
/// per-destination waits of a protocol step the pipelined exchange
/// folds into one. Counts on a fixed single-thread schedule, so they
/// repeat exactly and the baseline's tolerance is zero.
const PIPELINE_CHECKS: &[(&str, &str, &str)] = &[
    (
        "pipeline: provider Fetch frames per round trip (cold boot read plan)",
        "pipeline_provider_frames_per_round_trip",
        "pipeline_provider_frames_per_round_trip_floor",
    ),
    (
        "pipeline: metadata ReadNodes frames per round trip (one wait per descent level)",
        "pipeline_meta_frames_per_round_trip",
        "pipeline_meta_frames_per_round_trip_floor",
    ),
];

/// Measured-value keys checked between the same fixture's diff boot and
/// `BENCH_15.json`: the node that booted the base boots a snapshot three
/// chunks off it through a fresh handle. The ratio is the cold boot's
/// `ReadNodes` frames ÷ the diff boot's — exact counts, tolerance zero.
/// (That the boot sends the version manager at most one frame is
/// asserted by the sweep itself, like its one-wait-per-level bound.)
const DIFF_BOOT_CHECKS: &[(&str, &str, &str)] = &[(
    "diff boot: metadata frames, cold boot ÷ boot of a snapshot of a known base",
    "diff_boot_meta_reduction",
    "diff_boot_meta_reduction_floor",
)];

/// Measured-value keys checked between a prefetch summary and
/// `BENCH_4.json`.
const PREFETCH_CHECKS: &[(&str, &str, &str)] = &[
    (
        "prefetch: cold concurrent boot throughput, on ÷ off",
        "prefetch_boot_speedup",
        "prefetch_boot_floor",
    ),
    (
        "prefetch: read-ahead hit rate",
        "prefetch_hit_rate",
        "prefetch_hit_rate_floor",
    ),
    (
        "prefetch: boot network bytes, off ÷ on",
        "prefetch_network_reduction",
        "prefetch_network_floor",
    ),
    (
        "chain: batched ÷ pipelined commit latency",
        "chain_pipeline_speedup",
        "chain_pipeline_floor",
    ),
];

/// One tripped check, carrying everything the failure report needs.
struct Failure {
    /// The summary's metric key (what you would grep for).
    metric: String,
    /// Measured value, `None` when the key was missing entirely.
    current: Option<f64>,
    recorded: f64,
    floor: f64,
    threshold: f64,
    baseline_path: String,
}

impl Failure {
    fn describe(&self) -> String {
        match self.current {
            Some(v) => format!(
                "metric {} = {v:.3} tripped threshold {:.3} \
                 (floor {:.3}, recorded {:.3} in {})",
                self.metric, self.threshold, self.floor, self.recorded, self.baseline_path
            ),
            None => format!(
                "metric {} missing from results (baseline {})",
                self.metric, self.baseline_path
            ),
        }
    }
}

/// Gate a flat summary against a baseline's recorded values + floors,
/// returning every tripped check.
fn check_summary(
    label: &str,
    checks: &[(&str, &str, &str)],
    summary: &str,
    baseline: &str,
    baseline_path: &str,
) -> Vec<Failure> {
    let tolerance = json_number(baseline, "regression_tolerance").unwrap_or(0.25);
    let mut failures = Vec::new();
    println!("{label} gate vs {baseline_path} (tolerance {tolerance})");
    for (name, key, floor_key) in checks {
        let recorded =
            json_number(baseline, key).unwrap_or_else(|| panic!("baseline missing {key}"));
        let floor = json_number(baseline, floor_key)
            .unwrap_or_else(|| panic!("baseline missing {floor_key}"));
        let threshold = (recorded * (1.0 - tolerance)).max(floor);
        let Some(current) = json_number(summary, key) else {
            println!("FAIL {name}: {key} missing from summary");
            failures.push(Failure {
                metric: key.to_string(),
                current: None,
                recorded,
                floor,
                threshold,
                baseline_path: baseline_path.to_string(),
            });
            continue;
        };
        let ok = current >= threshold;
        println!(
            "{} {name}: {current:.2} (baseline {recorded:.2}, threshold {threshold:.2}, floor {floor:.2})",
            if ok { "ok  " } else { "FAIL" },
        );
        if !ok {
            failures.push(Failure {
                metric: key.to_string(),
                current: Some(current),
                recorded,
                floor,
                threshold,
                baseline_path: baseline_path.to_string(),
            });
        }
    }
    failures
}

/// Print the final failure report: one line per tripped metric naming
/// the key, measured value, and the floor/threshold that tripped.
fn report_failures(failures: &[Failure]) -> ExitCode {
    if failures.is_empty() {
        println!("all gated metrics within tolerance");
        return ExitCode::SUCCESS;
    }
    println!("\nFAILED METRICS ({}):", failures.len());
    for f in failures {
        println!("  {}", f.describe());
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut results: Vec<String> = Vec::new();
    let mut baseline_path = String::from("BENCH_2.json");
    let mut dedup_results: Option<String> = None;
    let mut dedup_baseline = String::from("BENCH_3.json");
    let mut prefetch_results: Option<String> = None;
    let mut prefetch_baseline = String::from("BENCH_4.json");
    let mut cluster_results: Option<String> = None;
    let mut cluster_baseline = String::from("BENCH_5.json");
    let mut loadgen_results: Option<String> = None;
    let mut loadgen_baseline = String::from("BENCH_6.json");
    let mut transport_results: Option<String> = None;
    let mut transport_baseline = String::from("BENCH_7.json");
    let mut recovery_results: Option<String> = None;
    let mut recovery_baseline = String::from("BENCH_8.json");
    let mut durable_results: Option<String> = None;
    let mut durable_baseline = String::from("BENCH_9.json");
    let mut gc_results: Option<String> = None;
    let mut gc_baseline = String::from("BENCH_13.json");
    let mut pipeline_results: Option<String> = None;
    let mut pipeline_baseline = String::from("BENCH_14.json");
    let mut diff_boot_baseline = String::from("BENCH_15.json");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--results" => {
                let path = args.next().expect("--results needs a path");
                let text =
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
                results.extend(text.lines().map(str::to_string));
            }
            "--baseline" => baseline_path = args.next().expect("--baseline needs a path"),
            "--dedup-results" => {
                let path = args.next().expect("--dedup-results needs a path");
                dedup_results = Some(
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}")),
                );
            }
            "--dedup-baseline" => {
                dedup_baseline = args.next().expect("--dedup-baseline needs a path")
            }
            "--prefetch-results" => {
                let path = args.next().expect("--prefetch-results needs a path");
                prefetch_results = Some(
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}")),
                );
            }
            "--prefetch-baseline" => {
                prefetch_baseline = args.next().expect("--prefetch-baseline needs a path")
            }
            "--cluster-results" => {
                let path = args.next().expect("--cluster-results needs a path");
                cluster_results = Some(
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}")),
                );
            }
            "--cluster-baseline" => {
                cluster_baseline = args.next().expect("--cluster-baseline needs a path")
            }
            "--loadgen-results" => {
                let path = args.next().expect("--loadgen-results needs a path");
                loadgen_results = Some(
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}")),
                );
            }
            "--loadgen-baseline" => {
                loadgen_baseline = args.next().expect("--loadgen-baseline needs a path")
            }
            "--transport-results" => {
                let path = args.next().expect("--transport-results needs a path");
                transport_results = Some(
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}")),
                );
            }
            "--transport-baseline" => {
                transport_baseline = args.next().expect("--transport-baseline needs a path")
            }
            "--recovery-results" => {
                let path = args.next().expect("--recovery-results needs a path");
                recovery_results = Some(
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}")),
                );
            }
            "--recovery-baseline" => {
                recovery_baseline = args.next().expect("--recovery-baseline needs a path")
            }
            "--durable-results" => {
                let path = args.next().expect("--durable-results needs a path");
                durable_results = Some(
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}")),
                );
            }
            "--durable-baseline" => {
                durable_baseline = args.next().expect("--durable-baseline needs a path")
            }
            "--gc-results" => {
                let path = args.next().expect("--gc-results needs a path");
                gc_results = Some(
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}")),
                );
            }
            "--gc-baseline" => gc_baseline = args.next().expect("--gc-baseline needs a path"),
            "--pipeline-results" => {
                let path = args.next().expect("--pipeline-results needs a path");
                pipeline_results = Some(
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}")),
                );
            }
            "--pipeline-baseline" => {
                pipeline_baseline = args.next().expect("--pipeline-baseline needs a path")
            }
            "--diff-boot-baseline" => {
                diff_boot_baseline = args.next().expect("--diff-boot-baseline needs a path")
            }
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(
        !results.is_empty()
            || dedup_results.is_some()
            || prefetch_results.is_some()
            || cluster_results.is_some()
            || loadgen_results.is_some()
            || transport_results.is_some()
            || recovery_results.is_some()
            || durable_results.is_some()
            || gc_results.is_some()
            || pipeline_results.is_some(),
        "no --results, --dedup-results, --prefetch-results, --cluster-results, \
         --loadgen-results, --transport-results, --recovery-results, \
         --durable-results, --gc-results or --pipeline-results provided"
    );
    let mut failures: Vec<Failure> = Vec::new();
    if let Some(summary) = &dedup_results {
        let baseline = std::fs::read_to_string(&dedup_baseline)
            .unwrap_or_else(|e| panic!("read baseline {dedup_baseline}: {e}"));
        failures.extend(check_summary(
            "dedup-sweep",
            DEDUP_CHECKS,
            summary,
            &baseline,
            &dedup_baseline,
        ));
    }
    if let Some(summary) = &prefetch_results {
        let baseline = std::fs::read_to_string(&prefetch_baseline)
            .unwrap_or_else(|e| panic!("read baseline {prefetch_baseline}: {e}"));
        failures.extend(check_summary(
            "prefetch-sweep",
            PREFETCH_CHECKS,
            summary,
            &baseline,
            &prefetch_baseline,
        ));
    }
    if let Some(summary) = &cluster_results {
        let baseline = std::fs::read_to_string(&cluster_baseline)
            .unwrap_or_else(|e| panic!("read baseline {cluster_baseline}: {e}"));
        failures.extend(check_summary(
            "cluster-dedup",
            CLUSTER_CHECKS,
            summary,
            &baseline,
            &cluster_baseline,
        ));
        // The confidence-filter metrics live in the prefetch summary
        // but are gated by the same BENCH_5 baseline as the rest of
        // this PR's floors.
        if let Some(prefetch) = &prefetch_results {
            failures.extend(check_summary(
                "prefetch-confidence",
                CONFIDENCE_CHECKS,
                prefetch,
                &baseline,
                &cluster_baseline,
            ));
        }
    }
    if let Some(summary) = &loadgen_results {
        let baseline = std::fs::read_to_string(&loadgen_baseline)
            .unwrap_or_else(|e| panic!("read baseline {loadgen_baseline}: {e}"));
        failures.extend(check_summary(
            "load-sweep",
            LOADGEN_CHECKS,
            summary,
            &baseline,
            &loadgen_baseline,
        ));
    }
    if let Some(summary) = &transport_results {
        let baseline = std::fs::read_to_string(&transport_baseline)
            .unwrap_or_else(|e| panic!("read baseline {transport_baseline}: {e}"));
        failures.extend(check_summary(
            "transport-sweep",
            TRANSPORT_CHECKS,
            summary,
            &baseline,
            &transport_baseline,
        ));
    }
    if let Some(summary) = &recovery_results {
        let baseline = std::fs::read_to_string(&recovery_baseline)
            .unwrap_or_else(|e| panic!("read baseline {recovery_baseline}: {e}"));
        failures.extend(check_summary(
            "recovery-sweep",
            RECOVERY_CHECKS,
            summary,
            &baseline,
            &recovery_baseline,
        ));
    }
    if let Some(summary) = &durable_results {
        let baseline = std::fs::read_to_string(&durable_baseline)
            .unwrap_or_else(|e| panic!("read baseline {durable_baseline}: {e}"));
        failures.extend(check_summary(
            "durable-sweep",
            DURABLE_CHECKS,
            summary,
            &baseline,
            &durable_baseline,
        ));
    }
    if let Some(summary) = &gc_results {
        let baseline = std::fs::read_to_string(&gc_baseline)
            .unwrap_or_else(|e| panic!("read baseline {gc_baseline}: {e}"));
        failures.extend(check_summary(
            "gc-cost",
            GC_COST_CHECKS,
            summary,
            &baseline,
            &gc_baseline,
        ));
    }
    if let Some(summary) = &pipeline_results {
        let baseline = std::fs::read_to_string(&pipeline_baseline)
            .unwrap_or_else(|e| panic!("read baseline {pipeline_baseline}: {e}"));
        failures.extend(check_summary(
            "pipeline",
            PIPELINE_CHECKS,
            summary,
            &baseline,
            &pipeline_baseline,
        ));
        // The same fixture's diff boot, against its own baseline.
        let baseline = std::fs::read_to_string(&diff_boot_baseline)
            .unwrap_or_else(|e| panic!("read baseline {diff_boot_baseline}: {e}"));
        failures.extend(check_summary(
            "diff-boot",
            DIFF_BOOT_CHECKS,
            summary,
            &baseline,
            &diff_boot_baseline,
        ));
    }
    if !results.is_empty() {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let tolerance = json_number(&baseline, "regression_tolerance").unwrap_or(0.25);
        println!("perf-regression gate vs {baseline_path} (tolerance {tolerance})");
        for check in CHECKS {
            let recorded = json_number(&baseline, check.baseline_key)
                .unwrap_or_else(|| panic!("baseline missing {}", check.baseline_key));
            let floor = json_number(&baseline, check.floor_key)
                .unwrap_or_else(|| panic!("baseline missing {}", check.floor_key));
            let threshold = (recorded * (1.0 - tolerance)).max(floor);
            let (Some(refr), Some(pipe)) = (
                min_ns(&results, check.reference),
                min_ns(&results, check.pipeline),
            ) else {
                println!("FAIL {}: benches missing from results", check.name);
                failures.push(Failure {
                    metric: check.baseline_key.to_string(),
                    current: None,
                    recorded,
                    floor,
                    threshold,
                    baseline_path: baseline_path.clone(),
                });
                continue;
            };
            let current = refr / pipe;
            let ok = current >= threshold;
            println!(
                "{} {}: {:.2}x (baseline {recorded:.2}x, threshold {threshold:.2}x, floor {floor:.2}x)",
                if ok { "ok  " } else { "FAIL" },
                check.name,
                current,
            );
            if !ok {
                failures.push(Failure {
                    metric: check.baseline_key.to_string(),
                    current: Some(current),
                    recorded,
                    floor,
                    threshold,
                    baseline_path: baseline_path.clone(),
                });
            }
        }
    }
    report_failures(&failures)
}
