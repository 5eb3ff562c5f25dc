//! One run of one workload: set up (timed), measure for `--seconds`,
//! verify every live snapshot, and turn what was recorded into metrics.

use crate::deploy::{DeployKind, CHUNK, CHUNKS_PER_IMG, IMG, NODES};
use crate::env;
use crate::stats::{median, percentile, steady};
use crate::trace::{call_name, handle_name, self_time, Span, Tracer};
use crate::workloads::{
    self, ClientLog, OpKind, Snap, Stage, Until, Workload, CLIENTS, ROTATE_DIRTY, ROTATION,
};
use bff_data::{Payload, Sha256Digest};
use bff_net::transport::Role;
use bff_net::NodeId;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct RunParams {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub traced: bool,
    /// Tiny sizes, one set-up: for the end-to-end test.
    pub smoke: bool,
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The timed window is cut into this many slices. Throughput and the
/// latency percentiles are computed per slice and combined by
/// [`steady`]: the slowest and the fastest slice are dropped and the rest
/// averaged. Dropping the extremes keeps a stall (a log compaction, the
/// odd first seconds after set-up) out of the result; averaging the rest,
/// rather than taking their median, keeps the result steady when the two
/// closed-loop clients drift between phase relations in which a round
/// trip costs more or less (a bimodal mixture, whose median jumps).
const SLICES: usize = 10;

pub struct RunOutput {
    pub params: RunParams,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, when it is not.
    pub problems: Vec<String>,
    /// `(name, value)` for every end-to-end metric (untraced run) or
    /// every per-layer metric (traced run).
    pub metrics: Vec<(String, f64)>,
    /// Sample counts and per-kind latencies, for the report.
    pub detail: Vec<(String, f64)>,
    /// The traced run's spans.
    pub spans: Vec<Span>,
}

/// Counters of the program and the process, read before and after the
/// window; metrics use the differences.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    desc_hits: u64,
    desc_misses: u64,
    dedup_reused_bytes: u64,
    cache_hits: u64,
    prefetched_chunks: u64,
    wasted_chunks: u64,
    wire_calls: u64,
    wire_sent: u64,
    wire_received: u64,
    fsyncs: u64,
    acks: u64,
    /// A maximum since deployment, not a sum: it cannot be differenced,
    /// so the reported wait covers set-up too.
    max_wait_us: u64,
    net_bytes: u64,
    fabric_rpcs: u64,
    disk_write_bytes: u64,
    cpu_s: f64,
}

impl Counters {
    fn read(stage: &Stage) -> Self {
        let dep = &stage.dep;
        let mut c = Counters::default();
        for node in (0..=NODES).map(NodeId) {
            let ctx = dep.cloud.node_context(node);
            let s = ctx.stats();
            c.desc_hits += s.desc_hits;
            c.desc_misses += s.desc_misses;
            c.dedup_reused_bytes += s.dedup_reused_bytes;
            let p = ctx.prefetch_stats();
            c.cache_hits += p.cache_hits;
            c.prefetched_chunks += p.prefetched_chunks;
            c.wasted_chunks += p.wasted_chunks;
        }
        let wire = dep.wire_stats();
        c.wire_calls = wire.calls;
        c.wire_sent = wire.bytes_sent;
        c.wire_received = wire.bytes_received;
        let d = dep.durability();
        c.fsyncs = d.fsyncs;
        c.acks = d.acks;
        c.max_wait_us = d.max_wait_us;
        let traffic = bff_net::Fabric::stats(&*dep.fabric);
        c.net_bytes = traffic.total_network_bytes();
        c.fabric_rpcs = traffic.rpc_count();
        c.disk_write_bytes = env::disk_write_bytes();
        c.cpu_s = env::cpu_seconds();
        c
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Re-read every live snapshot through `cloud` and compare its SHA-256
/// with the expected one. Returns `(checked, mismatched)`.
fn verify(
    cloud: &bff_cloud::Cloud,
    live: &[(Snap, Sha256Digest)],
    what: &str,
    problems: &mut Vec<String>,
) -> (u64, u64) {
    let mut bad = 0;
    for ((blob, version), expected) in live {
        let ok = match cloud.download_image(*blob, *version) {
            Ok(got) => got.digest_sha256() == *expected,
            Err(e) => {
                problems.push(format!("{what}: {blob:?} {version:?} unreadable: {e}"));
                false
            }
        };
        if !ok {
            bad += 1;
            problems.push(format!(
                "{what}: {blob:?} {version:?} differs from its expected content"
            ));
        }
    }
    (live.len() as u64, bad)
}

pub fn run(params: RunParams, out_dir: &Path) -> RunOutput {
    let RunParams {
        workload,
        seed,
        seconds,
        traced,
        smoke,
    } = params;
    let data_dir = out_dir
        .join("data")
        .join(format!("{}-{}", workload.name(), std::process::id()));
    let tracer = traced.then(Tracer::new);
    let images = workloads::images(workload, seed, smoke);

    // Set-up, several times: the metric is the median, the last one is
    // measured. A traced run sets up once; it does not report setup_s.
    let repeats = if traced || smoke { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut stage = None;
    for _ in 0..repeats {
        drop(stage.take());
        let clock = Instant::now();
        stage = Some(Stage::set_up(
            workload,
            seed,
            smoke,
            &images,
            &data_dir,
            tracer.clone(),
        ));
        setup_s.push(clock.elapsed().as_secs_f64());
    }
    let mut stage = stage.expect("at least one set-up");

    // The timed window.
    let before = Counters::read(&stage);
    if let Some(t) = &tracer {
        t.enable(true);
    }
    let window = Duration::from_secs_f64(seconds);
    let epoch = Instant::now();
    let logs = stage.run_clients(Until::Deadline(epoch + window), tracer.as_deref(), epoch);
    let wall_s = epoch.elapsed().as_secs_f64();
    if let Some(t) = &tracer {
        t.enable(false);
    }
    let after = Counters::read(&stage);
    let spans = tracer.as_ref().map(|t| t.drain()).unwrap_or_default();

    // Verification, outside every timer.
    let mut problems = Vec::new();
    let mut attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let mut failed: u64 = logs.iter().map(|l| l.failed).sum();
    for log in &logs {
        problems.extend(log.first_error.clone());
    }
    let live = stage.live_snapshots();
    let expected: Vec<(Snap, Sha256Digest)> = live
        .iter()
        .map(|(snap, content)| (*snap, content.digest_sha256()))
        .collect();
    let (checked, bad) = match stage.dep.fresh_cloud() {
        Some(fresh) => verify(&fresh, &expected, "fresh client", &mut problems),
        None => verify(&stage.dep.cloud, &expected, "service client", &mut problems),
    };
    attempted += checked;
    failed += bad;

    let mut layer = LayerExtras::default();
    if workload == Workload::RotateDirect {
        // Nothing deleted may stay stored: the live set is the base
        // image plus the dirty state of each rotation entry.
        let stored = stage.dep.cloud.store().total_stored_bytes();
        let live_set = IMG + ROTATION as u64 * ROTATE_DIRTY;
        layer.stored_mb = stored as f64 / 1e6;
        if stored > 2 * live_set {
            problems.push(format!(
                "stored {stored} bytes, more than twice the live set of {live_set}"
            ));
        }
    }
    if let Some(dir) = stage.dep.data_dir() {
        layer.disk_mb_end = env::dir_bytes(dir) as f64 / 1e6;
        layer.durable = true;
    }
    if traced && workload.deploy_kind() == DeployKind::Durable {
        // What one fsync-before-ack costs here, beside the live logs.
        let dir = stage.dep.data_dir().expect("durable has a directory");
        layer.fsync_us_p50 =
            env::fsync_us_p50(&dir.join("probe"), if smoke { 20 } else { 200 }).unwrap_or(0.0);
    }
    if workload.deploy_kind() == DeployKind::Durable {
        // Crash-recovery identity: drop the server state, recover it
        // from the same directory, and verify again.
        let mut recover_s = 0.0;
        let mut chunk_bytes = 0;
        stage = stage.map_deployment(|dep| {
            let (dep, s, report) = dep.recover();
            recover_s = s;
            chunk_bytes = report.chunk_bytes;
            dep
        });
        let (checked, bad) = verify(&stage.dep.cloud, &expected, "after recovery", &mut problems);
        attempted += checked;
        failed += bad;
        layer.recover_ms = recover_s * 1e3;
        layer.recovered_identity = ratio((checked - bad) as f64, checked as f64);
        layer.stored_mb = chunk_bytes as f64 / 1e6;
    }
    layer.digest_mb_per_s = digest_rate(&live);
    drop(stage);

    let window_data = Window {
        logs: &logs,
        slices: Window::slice(&logs, seconds),
        wall_s,
        before,
        after,
    };
    let mut detail = Vec::new();
    let metrics = if traced {
        per_layer_metrics(&window_data, &spans, tracer.as_deref(), &layer, &mut detail)
    } else {
        end_to_end_metrics(&window_data, median(&setup_s), &mut detail)
    };
    let correct = failed == 0 && problems.is_empty();
    RunOutput {
        params,
        correct,
        attempted: attempted.max(1),
        failed,
        problems,
        metrics,
        detail,
        spans,
    }
}

/// Per-layer values measured outside the window.
#[derive(Default)]
struct LayerExtras {
    durable: bool,
    stored_mb: f64,
    disk_mb_end: f64,
    recover_ms: f64,
    recovered_identity: f64,
    fsync_us_p50: f64,
    digest_mb_per_s: f64,
}

/// MB/s of `Payload::content_digest` (the dedup key) over the chunks of
/// the run's live snapshots, up to 64 MiB of them.
fn digest_rate(live: &[(Snap, Payload)]) -> f64 {
    let mut bytes = 0u64;
    let clock = Instant::now();
    'all: for (_, content) in live {
        for at in (0..content.len()).step_by(CHUNK as usize) {
            let chunk = content.slice(at, (at + CHUNK).min(content.len()));
            std::hint::black_box(chunk.content_digest(false));
            bytes += chunk.len();
            if bytes >= 64 << 20 {
                break 'all;
            }
        }
    }
    ratio(bytes as f64 / 1e6, clock.elapsed().as_secs_f64())
}

struct Window<'a> {
    logs: &'a [ClientLog],
    /// See [`Window::slice`].
    slices: Vec<Vec<(u64, u64)>>,
    /// Until the last client returned.
    wall_s: f64,
    before: Counters,
    after: Counters,
}

impl Window<'_> {
    /// Sorted durations of the operations of `kind`.
    fn op_durs(&self, kind: OpKind) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .logs
            .iter()
            .flat_map(|l| &l.ops)
            .filter(|o| o.kind == kind)
            .map(|o| o.dur)
            .collect();
        d.sort_unstable();
        d
    }

    /// The cycles that ended inside the window of `seconds` as
    /// `(end, duration)`, in order of completion (both clients together),
    /// cut into `SLICES` consecutive slices of equal *count*. Too few
    /// cycles to cut (smoke scale) give one slice.
    fn slice(logs: &[ClientLog], seconds: f64) -> Vec<Vec<(u64, u64)>> {
        let window_ns = (seconds * 1e9) as u64;
        let mut done: Vec<(u64, u64)> = logs
            .iter()
            .flat_map(|l| &l.cycles)
            .map(|&(start, dur)| (start + dur, dur))
            .filter(|&(end, _)| end <= window_ns)
            .collect();
        done.sort_unstable();
        let per_slice = done.len() / SLICES;
        if per_slice == 0 {
            return vec![done];
        }
        done.chunks_exact(per_slice)
            .take(SLICES)
            .map(<[_]>::to_vec)
            .collect()
    }

    /// Cycles per second in each slice: its count over the time it took,
    /// so a rate is as finely resolved as the clock, not quantized to
    /// whole cycles per second.
    fn slice_rates(&self) -> Vec<f64> {
        let mut from = 0u64;
        self.slices
            .iter()
            .map(|slice| {
                let to = slice.last().map_or(from, |c| c.0);
                let rate = ratio(slice.len() as f64, (to - from) as f64 / 1e9);
                from = to;
                rate
            })
            .collect()
    }

    /// The `p`-th percentile of cycle latency in each slice, ms.
    fn slice_percentiles(&self, p: f64) -> Vec<f64> {
        self.slices
            .iter()
            .map(|slice| {
                let mut durs: Vec<u64> = slice.iter().map(|c| c.1).collect();
                durs.sort_unstable();
                ms(percentile(&durs, p))
            })
            .collect()
    }

    fn cycles(&self) -> u64 {
        self.logs.iter().map(|l| l.cycles.len() as u64).sum()
    }

    fn sum(&self, f: impl Fn(&ClientLog) -> u64) -> f64 {
        self.logs.iter().map(f).sum::<u64>() as f64
    }
}

fn end_to_end_metrics(
    w: &Window<'_>,
    setup_s: f64,
    detail: &mut Vec<(String, f64)>,
) -> Vec<(String, f64)> {
    let net_mb = (w.after.net_bytes - w.before.net_bytes) as f64 / 1e6;
    detail.push(("cycles.samples".into(), w.cycles() as f64));
    for kind in OpKind::ALL {
        let d = w.op_durs(kind);
        detail.push((format!("{}.samples", kind.name()), d.len() as f64));
        detail.push((format!("{}_p50_ms", kind.name()), ms(percentile(&d, 50.0))));
        let (tail, p) = if kind == OpKind::Boot {
            ("p99", 99.0)
        } else {
            ("p95", 95.0)
        };
        detail.push((format!("{}_{tail}_ms", kind.name()), ms(percentile(&d, p))));
        detail.push((
            format!("{}s_per_s", kind.name()),
            ratio(d.len() as f64, w.wall_s),
        ));
    }
    vec![
        ("setup_s".into(), setup_s),
        ("cycles_per_s".into(), steady(&w.slice_rates())),
        ("cycle_p50_ms".into(), steady(&w.slice_percentiles(50.0))),
        ("cycle_p95_ms".into(), steady(&w.slice_percentiles(95.0))),
        ("net_mb_per_cycle".into(), ratio(net_mb, w.cycles() as f64)),
    ]
}

/// The trace, indexed for attribution.
struct Attribution<'a> {
    /// Root spans (`op.*`).
    roots: Vec<&'a Span>,
    children: HashMap<u64, Vec<&'a Span>>,
    kind_of_op: HashMap<u64, OpKind>,
}

impl<'a> Attribution<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
        let mut roots = Vec::new();
        let mut kind_of_op = HashMap::new();
        for s in spans {
            if let Some(kind) = OpKind::ALL.into_iter().find(|k| k.span_name() == s.name) {
                roots.push(s);
                kind_of_op.insert(s.id, kind);
            } else if s.parent != 0 {
                children.entry(s.parent).or_default().push(s);
            }
        }
        Self {
            roots,
            children,
            kind_of_op,
        }
    }

    fn children(&self, id: u64) -> &[&'a Span] {
        self.children.get(&id).map_or(&[], Vec::as_slice)
    }
}

fn per_layer_metrics(
    w: &Window<'_>,
    spans: &[Span],
    tracer: Option<&Tracer>,
    extra: &LayerExtras,
    detail: &mut Vec<(String, f64)>,
) -> Vec<(String, f64)> {
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| m.push((name.to_string(), value));
    let at = Attribution::new(spans);
    let (b, a) = (&w.before, &w.after);

    // Walk every operation: root -> cloud.* -> net.call.* -> handler.
    let mut busy = 0u64; // sum of root spans: the clients' busy time
    let mut root_self = 0u64; // root time outside any cloud.* span
    let mut client_self = 0u64; // cloud.* time outside any net.call
    let mut call_self = 0u64; // net.call time outside its handler
    let mut handler = 0u64; // matched handler time
    let mut op_self: HashMap<OpKind, Vec<u64>> = HashMap::new();
    let mut calls_of: HashMap<OpKind, u64> = HashMap::new();
    let mut bytes_of: HashMap<OpKind, u64> = HashMap::new();
    let mut role_calls_of: HashMap<(OpKind, &str), u64> = HashMap::new();
    let mut call_selfs: Vec<u64> = Vec::new();
    for root in &at.roots {
        let kind = at.kind_of_op[&root.id];
        let clouds = at.children(root.id);
        busy += root.dur();
        let own = self_time(root, clouds.iter().copied());
        root_self += own;
        let mut software = own;
        for cloud in clouds {
            let calls = at.children(cloud.id);
            let own = self_time(cloud, calls.iter().copied());
            client_self += own;
            software += own;
            for call in calls {
                let served: u64 = at.children(call.id).iter().map(|h| h.dur()).sum();
                let served = served.min(call.dur());
                handler += served;
                call_self += call.dur() - served;
                call_selfs.push(call.dur() - served);
                *calls_of.entry(kind).or_default() += 1;
                *bytes_of.entry(kind).or_default() += call.bytes;
                *role_calls_of.entry((kind, call.name)).or_default() += 1;
            }
        }
        op_self.entry(kind).or_default().push(software);
    }
    call_selfs.sort_unstable();
    let count = |kind: OpKind| {
        at.roots
            .iter()
            .filter(|r| at.kind_of_op[&r.id] == kind)
            .count() as f64
    };
    let (boots, snapshots, gcs) = (
        count(OpKind::Boot),
        count(OpKind::Snapshot),
        count(OpKind::Gc),
    );
    let per = |map: &HashMap<OpKind, u64>, kind: OpKind, n: f64| {
        ratio(map.get(&kind).copied().unwrap_or(0) as f64, n)
    };

    // cloud
    for kind in OpKind::ALL {
        let v = op_self.entry(kind).or_default();
        v.sort_unstable();
        put(
            &format!("cloud.{}.self_us_p50", kind.name()),
            us(percentile(v, 50.0)),
        );
    }
    put(
        "cloud.client_self_share",
        ratio(client_self as f64, busy as f64),
    );
    put("cloud.boots_per_s", ratio(boots, w.wall_s));
    put("cloud.snapshots_per_s", ratio(snapshots, w.wall_s));
    for (kind, tail, p) in [
        (OpKind::Boot, "p99", 99.0),
        (OpKind::Snapshot, "p95", 95.0),
        (OpKind::Gc, "p95", 95.0),
    ] {
        let d = w.op_durs(kind);
        put(
            &format!("cloud.{}_p50_ms", kind.name()),
            ms(percentile(&d, 50.0)),
        );
        put(
            &format!("cloud.{}_{tail}_ms", kind.name()),
            ms(percentile(&d, p)),
        );
        detail.push((format!("{}.samples", kind.name()), d.len() as f64));
    }

    let mut cycle_durs: Vec<u64> = w.logs.iter().flat_map(|l| &l.cycles).map(|c| c.1).collect();
    cycle_durs.sort_unstable();
    put("cloud.cycle_p99_ms", ms(percentile(&cycle_durs, 99.0)));

    // core
    let committed = w.sum(|l| l.committed_bytes);
    put(
        "core.remote_bytes_per_boot",
        ratio(w.sum(|l| l.remote_bytes), boots),
    );
    put(
        "core.deduped_bytes_frac",
        ratio(w.sum(|l| l.deduped_bytes), committed),
    );

    // blobseer, client side
    let lookups = (a.desc_hits - b.desc_hits) + (a.desc_misses - b.desc_misses);
    put(
        "blobseer.desc_hit_ratio",
        ratio((a.desc_hits - b.desc_hits) as f64, lookups as f64),
    );
    put(
        "blobseer.chunk_cache_hit_ratio",
        ratio(
            (a.cache_hits - b.cache_hits) as f64,
            boots * CHUNKS_PER_IMG as f64,
        ),
    );
    put(
        "blobseer.prefetch_waste_ratio",
        ratio(
            (a.wasted_chunks - b.wasted_chunks) as f64,
            (a.prefetched_chunks - b.prefetched_chunks) as f64,
        ),
    );
    put(
        "blobseer.dedup_reused_bytes_frac",
        ratio(
            (a.dedup_reused_bytes - b.dedup_reused_bytes) as f64,
            committed,
        ),
    );
    let role_per = |kind: OpKind, role: Role, n: f64| {
        ratio(
            role_calls_of
                .get(&(kind, call_name(role)))
                .copied()
                .unwrap_or(0) as f64,
            n,
        )
    };
    put(
        "blobseer.meta_calls_per_boot",
        role_per(OpKind::Boot, Role::Meta, boots),
    );
    put(
        "blobseer.meta_calls_per_gc",
        role_per(OpKind::Gc, Role::Meta, gcs),
    );
    put(
        "blobseer.provider_calls_per_boot",
        role_per(OpKind::Boot, Role::Provider, boots),
    );
    put(
        "blobseer.gc.dead_leaves_per_gc",
        ratio(w.sum(|l| l.gc_dead_leaves), gcs),
    );
    put("blobseer.gc.freed_mb", w.sum(|l| l.gc_freed_bytes) / 1e6);
    let rates = w.slice_rates();
    let fifth = (rates.len() / 5).max(1);
    let first: f64 = rates[..fifth].iter().sum();
    let last: f64 = rates[rates.len() - fifth..].iter().sum();
    put("blobseer.history_slowdown", ratio(first, last));
    put("blobseer.stored_mb", extra.stored_mb);

    // blobseer, server side: the handler wrapper
    for role in Role::ALL {
        let mut d: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == handle_name(role))
            .map(Span::dur)
            .collect();
        d.sort_unstable();
        let r = role.name();
        put(
            &format!("blobseer.server.{r}.handle_us_p50"),
            us(percentile(&d, 50.0)),
        );
        put(
            &format!("blobseer.server.{r}.handle_us_p99"),
            us(percentile(&d, 99.0)),
        );
        put(&format!("blobseer.server.{r}.busy_ms"), ms(d.iter().sum()));
    }
    put(
        "blobseer.server.handle_share",
        ratio(handler as f64, busy as f64),
    );

    // durable
    put(
        "durable.fsyncs_per_snapshot",
        ratio((a.fsyncs - b.fsyncs) as f64, snapshots),
    );
    put(
        "durable.acks_per_fsync",
        ratio((a.acks - b.acks) as f64, (a.fsyncs - b.fsyncs) as f64),
    );
    put("durable.max_ticket_wait_us", a.max_wait_us as f64);
    put(
        "durable.disk_write_bytes_per_user_byte",
        if extra.durable {
            ratio((a.disk_write_bytes - b.disk_write_bytes) as f64, committed)
        } else {
            0.0
        },
    );
    put("durable.disk_mb_end", extra.disk_mb_end);
    put("durable.recover_ms", extra.recover_ms);
    put("durable.recovered_identity", extra.recovered_identity);

    // wire
    let wire_calls = (a.wire_calls - b.wire_calls) as f64;
    put(
        "wire.bytes_sent_per_call",
        ratio((a.wire_sent - b.wire_sent) as f64, wire_calls),
    );
    put(
        "wire.bytes_received_per_call",
        ratio((a.wire_received - b.wire_received) as f64, wire_calls),
    );
    put(
        "wire.mb_per_boot",
        per(&bytes_of, OpKind::Boot, boots) / 1e6,
    );
    put(
        "wire.mb_per_snapshot",
        per(&bytes_of, OpKind::Snapshot, snapshots) / 1e6,
    );

    // net
    put("net.calls_per_boot", per(&calls_of, OpKind::Boot, boots));
    put(
        "net.calls_per_snapshot",
        per(&calls_of, OpKind::Snapshot, snapshots),
    );
    put("net.calls_per_gc", per(&calls_of, OpKind::Gc, gcs));
    for role in Role::ALL {
        let mut d: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == call_name(role))
            .map(Span::dur)
            .collect();
        d.sort_unstable();
        let r = role.name();
        put(&format!("net.call.{r}.count"), d.len() as f64);
        put(&format!("net.call.{r}.busy_ms"), ms(d.iter().sum()));
        put(&format!("net.call.{r}.p50_us"), us(percentile(&d, 50.0)));
        put(&format!("net.call.{r}.p99_us"), us(percentile(&d, 99.0)));
    }
    put("net.call.self_us_p50", us(percentile(&call_selfs, 50.0)));
    put("net.call.self_share", ratio(call_self as f64, busy as f64));
    put(
        "net.fabric_rpcs_per_op",
        ratio(
            (a.fabric_rpcs - b.fabric_rpcs) as f64,
            boots + snapshots + gcs,
        ),
    );

    // data, process, environment, trace
    put("data.digest_mb_per_s", extra.digest_mb_per_s);
    put("proc.peak_rss_mb", env::peak_rss_mb());
    put("proc.cpu_s_per_wall_s", ratio(a.cpu_s - b.cpu_s, w.wall_s));
    put("env.nproc", env::nproc() as f64);
    put("env.fsync_us_p50", extra.fsync_us_p50);
    put(
        "trace.unattributed_frac",
        ratio(root_self as f64, busy as f64),
    );
    put("trace.spans", spans.len() as f64);
    put(
        "trace.unmatched_handler_spans",
        tracer.map_or(0, Tracer::unmatched_handler_spans) as f64,
    );
    detail.push(("cycles.samples".into(), w.cycles() as f64));
    detail.push(("cycles_per_s".into(), steady(&w.slice_rates())));
    detail.push(("client_busy_ms".into(), ms(busy)));
    detail.push(("client_threads".into(), CLIENTS as f64));
    m
}
