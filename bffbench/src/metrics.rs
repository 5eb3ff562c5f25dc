//! The metric tables: every name the benchmark prints, with its unit,
//! its direction and — for end-to-end metrics — the bound by which it
//! may worsen. `BENCHMARK.json` is generated from these tables
//! (`bffbench manifest`) and a test keeps the two identical.

use crate::json::Json;
use crate::workloads::Workload;
use bff_net::transport::Role;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// What a user of the system sees. Every workload reports every one of
/// them, so they are stated per *cycle* — one closed-loop iteration of a
/// client: a boot in `deploy_cold`, write + snapshot + delete in
/// `snapshot_durable`, a boot (every third time followed by a snapshot
/// and a GC) in the rotate workloads. Latencies of the single operation
/// kinds are per-layer metrics (`cloud.*`), because not every workload
/// has every kind.
pub fn end_to_end() -> Vec<MetricDef> {
    let def = |name: &str, unit, better, bound| MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        // Deploy + upload + warm-up: the untimed part, median of three
        // set-ups per run. The widest bound: it is short and does the
        // least repeated work.
        def("setup_s", "s", Better::Lower, 0.25),
        // Each bound is at least three times the widest interquartile
        // spread seen over ten seeds on any workload (README,
        // "Steadiness"). `snapshot_durable` sets them: its fsync-bound
        // cycles are the noisiest on a 2-core virtual machine.
        def("cycles_per_s", "1/s", Better::Higher, 0.25),
        def("cycle_p50_ms", "ms", Better::Lower, 0.20),
        // The highest percentile with ten samples beyond it in every
        // slice of every workload; p99 is per-layer.
        def("cycle_p95_ms", "ms", Better::Lower, 0.25),
        def("net_mb_per_cycle", "MB", Better::Lower, 0.15),
    ]
}

/// Single-layer metrics from the traced run, layer = crate name. A
/// metric a workload has no use for (a `durable.*` one without a disk, a
/// `net.call.*` one without a transport) reads 0 there.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut defs: Vec<MetricDef> = Vec::new();
    let mut def = |name: String, unit, better| {
        defs.push(MetricDef {
            name,
            unit,
            better,
            bound: None,
        })
    };
    // cloud: spans around the benchmark's own calls.
    for kind in ["boot", "snapshot", "gc"] {
        def(format!("cloud.{kind}.self_us_p50"), "us", Lower);
    }
    def("cloud.client_self_share".into(), "ratio", Lower);
    def("cloud.boots_per_s".into(), "1/s", Higher);
    def("cloud.snapshots_per_s".into(), "1/s", Higher);
    def("cloud.boot_p50_ms".into(), "ms", Lower);
    def("cloud.boot_p99_ms".into(), "ms", Lower);
    def("cloud.snapshot_p50_ms".into(), "ms", Lower);
    def("cloud.snapshot_p95_ms".into(), "ms", Lower);
    def("cloud.gc_p50_ms".into(), "ms", Lower);
    def("cloud.gc_p95_ms".into(), "ms", Lower);
    def("cloud.cycle_p99_ms".into(), "ms", Lower);
    // core: MirrorStats counts.
    def("core.remote_bytes_per_boot".into(), "bytes", Lower);
    def("core.deduped_bytes_frac".into(), "ratio", Higher);
    // blobseer client: node-context counters, GC reports, call counts.
    def("blobseer.desc_hit_ratio".into(), "ratio", Higher);
    def("blobseer.chunk_cache_hit_ratio".into(), "ratio", Higher);
    def("blobseer.prefetch_waste_ratio".into(), "ratio", Lower);
    def("blobseer.dedup_reused_bytes_frac".into(), "ratio", Higher);
    def("blobseer.meta_calls_per_boot".into(), "count", Lower);
    def("blobseer.meta_calls_per_gc".into(), "count", Lower);
    def("blobseer.provider_calls_per_boot".into(), "count", Lower);
    def("blobseer.gc.dead_leaves_per_gc".into(), "count", Higher);
    def("blobseer.gc.freed_mb".into(), "MB", Higher);
    def("blobseer.history_slowdown".into(), "ratio", Lower);
    def("blobseer.stored_mb".into(), "MB", Lower);
    // blobseer server: the handler wrapper.
    for role in Role::ALL {
        let r = role.name();
        def(format!("blobseer.server.{r}.handle_us_p50"), "us", Lower);
        def(format!("blobseer.server.{r}.handle_us_p99"), "us", Lower);
        def(format!("blobseer.server.{r}.busy_ms"), "ms", Lower);
    }
    def("blobseer.server.handle_share".into(), "ratio", Lower);
    // durable: durability counters, /proc/self/io, the data directory.
    def("durable.fsyncs_per_snapshot".into(), "count", Lower);
    def("durable.acks_per_fsync".into(), "ratio", Higher);
    def("durable.max_ticket_wait_us".into(), "us", Lower);
    def(
        "durable.disk_write_bytes_per_user_byte".into(),
        "ratio",
        Lower,
    );
    def("durable.disk_mb_end".into(), "MB", Lower);
    def("durable.recover_ms".into(), "ms", Lower);
    def("durable.recovered_identity".into(), "ratio", Higher);
    // wire: serialized bytes.
    def("wire.bytes_sent_per_call".into(), "bytes", Lower);
    def("wire.bytes_received_per_call".into(), "bytes", Lower);
    def("wire.mb_per_boot".into(), "MB", Lower);
    def("wire.mb_per_snapshot".into(), "MB", Lower);
    // net: the transport wrapper and the fabric's counters.
    def("net.calls_per_boot".into(), "count", Lower);
    def("net.calls_per_snapshot".into(), "count", Lower);
    def("net.calls_per_gc".into(), "count", Lower);
    for role in Role::ALL {
        let r = role.name();
        def(format!("net.call.{r}.count"), "count", Lower);
        def(format!("net.call.{r}.busy_ms"), "ms", Lower);
        def(format!("net.call.{r}.p50_us"), "us", Lower);
        def(format!("net.call.{r}.p99_us"), "us", Lower);
    }
    def("net.call.self_us_p50".into(), "us", Lower);
    def("net.call.self_share".into(), "ratio", Lower);
    def("net.fabric_rpcs_per_op".into(), "count", Lower);
    // data: content digests.
    def("data.digest_mb_per_s".into(), "MB/s", Higher);
    // process, environment, and the trace itself.
    def("proc.peak_rss_mb".into(), "MB", Lower);
    def("proc.cpu_s_per_wall_s".into(), "ratio", Lower);
    def("env.nproc".into(), "count", Higher);
    def("env.fsync_us_p50".into(), "us", Lower);
    def("trace.unattributed_frac".into(), "ratio", Lower);
    def("trace.spans".into(), "count", Lower);
    def("trace.unmatched_handler_spans".into(), "count", Lower);
    defs
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let metric = |d: &MetricDef| {
        let mut fields = vec![
            ("name", Json::str(d.name.clone())),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.name())),
        ];
        if let Some(b) = d.bound {
            fields.push(("bound", Json::Num(b)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "bffbench/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("bffbench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .to_vec(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn tables_meet_the_manifest_limits() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layer.len()),
            "{} per-layer",
            layer.len()
        );
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let mut seen = HashSet::new();
        for d in e2e.iter().chain(&layer) {
            assert!(seen.insert(d.name.clone()), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for d in &e2e {
            let b = d.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25 && b <= setup.bound.unwrap());
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 << 10);
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `bffbench manifest > BENCHMARK.json`"
        );
    }
}
