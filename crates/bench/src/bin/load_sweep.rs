//! Wall-clock serving-mode load generator: hundreds of concurrent
//! boot/snapshot/GC clients hammering one repository deployment on a
//! [`bff_net::ThreadFabric`] — real OS threads, real locks, modelled
//! network/disk costs compressed 20× (`ThreadParams::serving`).
//!
//! The workload is [`bff_bench::storm`], replayed identically under
//! every row of one of two tables of deployments. The table is named on
//! the command line; with neither flag the binary exits with an error
//! naming both (there is no default axis).
//!
//! **`--transport all`** (`transport_summary.json`, `BENCH_7`): the
//! storm over `direct`, `codec`, and `socket` — the last as
//! two real `blob_server` children over loopback TCP, whose server-side
//! counters live in those processes, so only wall clock and wire
//! traffic are comparable.
//!
//! **`--durable all`** (`durable_summary.json`, `BENCH_9`): the storm
//! over the in-process socket transport with in-memory providers
//! (`mem`) and group-commit durable providers (`group`), so the only
//! variable is what happens between an append and its ack.
//!
//! Naming one row instead of `all` runs just that row and writes no
//! summary. `--mini` and `--clients N` size the storm (CI pins the
//! client count so runner core counts don't change the workload).

use bff_bench::storm::{self, Hosting, Outcome, CHUNK, SERVING};
use bff_bench::{arg_value, f1, f3, write_summary, RunScale, Table};
use bff_blobseer::{BlobConfig, DurabilityCounters, TransportMode};
use bff_net::transport::WireStats;

/// Boots per client thread.
const BOOTS: usize = 6;

/// One deployment the storm runs under.
struct Row {
    label: &'static str,
    cfg: BlobConfig,
    hosting: Hosting,
}

/// The full pipeline (dedup + cluster index + prefetch), pinned rather
/// than inherited from the `BFF_*` environment: the BENCH numbers
/// record it under every row.
fn full_pipeline() -> BlobConfig {
    BlobConfig {
        chunk_size: CHUNK,
        dedup: true,
        cluster_dedup: true,
        prefetch: true,
        ..Default::default()
    }
}

fn transport_rows() -> Vec<Row> {
    [
        ("direct", TransportMode::Direct, Hosting::InProcess),
        ("codec", TransportMode::Codec, Hosting::InProcess),
        ("socket", TransportMode::Socket, Hosting::Children),
    ]
    .into_iter()
    .map(|(label, transport, hosting)| Row {
        label,
        cfg: BlobConfig {
            transport,
            ..full_pipeline()
        },
        hosting,
    })
    .collect()
}

fn durable_rows() -> Vec<Row> {
    [("mem", Hosting::InProcess), ("group", Hosting::Durable)]
        .into_iter()
        .map(|(label, hosting)| Row {
            label,
            cfg: BlobConfig {
                transport: TransportMode::Socket,
                ..full_pipeline()
            },
            hosting,
        })
        .collect()
}

/// A row's storm outcome plus every counter any axis reports.
struct Measured {
    label: &'static str,
    storm: Outcome,
    wire: WireStats,
    durability: DurabilityCounters,
}

impl Measured {
    fn wire_mb(&self) -> f64 {
        (self.wire.bytes_sent + self.wire.bytes_received) as f64 / 1e6
    }
}

fn measure(row: Row, clients: usize) -> Measured {
    let deployment = storm::deploy(&SERVING, row.cfg, row.hosting);
    let cloud = &deployment.cloud;
    let out = storm::run(cloud, &SERVING, clients, BOOTS);
    println!(
        "  {:<12} {:>4} boots in {:.2}s -> {:.1} boots/s (p50 {:.2} ms, p99 {:.2} ms)",
        row.label,
        out.boot_us.len(),
        out.wall_s,
        out.boots_per_s(),
        out.percentile_ms(50.0),
        out.percentile_ms(99.0),
    );
    // With `blob_server` children the server-side counters live in
    // those processes; this side only has its wire traffic.
    let store = cloud.store();
    let durability = match row.hosting {
        Hosting::Children => Default::default(),
        Hosting::InProcess | Hosting::Durable => store.durability(),
    };
    Measured {
        label: row.label,
        wire: store.wire_stats(),
        storm: out,
        durability,
    }
}

type Column = (&'static str, fn(&Measured) -> String);
type Summary = Vec<(&'static str, String)>;

/// One sweep axis: its rows, what its table adds to the common
/// columns, and the flat summary its BENCH file gates.
struct Axis {
    table: &'static str,
    rows: fn() -> Vec<Row>,
    extra: &'static [Column],
    summary_file: &'static str,
    summary: fn(&[Measured], usize) -> Summary,
}

const COMMON: &[Column] = &[
    ("row", |m| m.label.to_string()),
    ("boots", |m| m.storm.boot_us.len().to_string()),
    ("wall_s", |m| f3(m.storm.wall_s)),
    ("boots_per_s", |m| f1(m.storm.boots_per_s())),
    ("p50_ms", |m| f3(m.storm.percentile_ms(50.0))),
    ("p99_ms", |m| f3(m.storm.percentile_ms(99.0))),
];

const TRANSPORT: Axis = Axis {
    table: "transport_sweep",
    rows: transport_rows,
    extra: &[
        ("wire_calls", |m| m.wire.calls.to_string()),
        ("wire_mb", |m| f3(m.wire_mb())),
    ],
    summary_file: "transport_summary.json",
    // Only the codec/direct ratio is gated: both run in-process, so it
    // isolates encode/decode overhead from runner speed. The socket
    // numbers ride along as absolutes for the artifact trail.
    summary: |rows, clients| {
        let [direct, codec, socket] = [&rows[0], &rows[1], &rows[2]];
        let bps = |m: &Measured| m.storm.boots_per_s();
        vec![
            (
                "transport_codec_retention",
                f3(bps(codec) / bps(direct).max(1e-9)),
            ),
            ("transport_direct_boots_per_s", f3(bps(direct))),
            ("transport_codec_boots_per_s", f3(bps(codec))),
            ("transport_socket_boots_per_s", f3(bps(socket))),
            (
                "transport_socket_p50_ms",
                f3(socket.storm.percentile_ms(50.0)),
            ),
            (
                "transport_socket_p99_ms",
                f3(socket.storm.percentile_ms(99.0)),
            ),
            ("transport_socket_wire_calls", socket.wire.calls.to_string()),
            ("transport_socket_wire_mb", f3(socket.wire_mb())),
            ("transport_threads", clients.to_string()),
        ]
    },
};

const DURABLE: Axis = Axis {
    table: "durable_sweep",
    rows: durable_rows,
    extra: &[
        ("fsyncs", |m| m.durability.fsyncs.to_string()),
        ("acks", |m| m.durability.acks.to_string()),
        ("acks_per_fsync", |m| f3(m.durability.acks_per_fsync)),
        ("max_wait_us", |m| m.durability.max_wait_us.to_string()),
    ],
    summary_file: "durable_summary.json",
    // Gated: durable_retention (group-commit durable vs non-durable
    // socket — both in-process, so the ratio isolates the durability
    // cost from runner speed) and acks_per_fsync (> 1.0 is the batching
    // claim itself).
    summary: |rows, clients| {
        let [mem, group] = [&rows[0], &rows[1]];
        let bps = |m: &Measured| m.storm.boots_per_s();
        vec![
            ("durable_retention", f3(bps(group) / bps(mem).max(1e-9))),
            ("acks_per_fsync", f3(group.durability.acks_per_fsync)),
            ("durable_group_boots_per_s", f3(bps(group))),
            ("durable_mem_boots_per_s", f3(bps(mem))),
            ("durable_group_fsyncs", group.durability.fsyncs.to_string()),
            ("durable_group_acks", group.durability.acks.to_string()),
            (
                "durable_group_max_wait_us",
                group.durability.max_wait_us.to_string(),
            ),
            ("durable_group_p50_ms", f3(group.storm.percentile_ms(50.0))),
            ("durable_group_p99_ms", f3(group.storm.percentile_ms(99.0))),
            ("durable_threads", clients.to_string()),
        ]
    },
};

fn main() {
    let clients = storm::clients(RunScale::from_args(), 192, 64);
    let (axis, which) = if let Some(which) = arg_value("--transport") {
        (TRANSPORT, which)
    } else if let Some(which) = arg_value("--durable") {
        (DURABLE, which)
    } else {
        eprintln!("load_sweep: name an axis: --transport <row|all> or --durable <row|all>");
        std::process::exit(2);
    };
    let mut rows = (axis.rows)();
    let all = rows.len();
    rows.retain(|r| which == "all" || which == r.label);
    assert!(!rows.is_empty(), "{}: no row named {which:?}", axis.table);
    println!(
        "{} ({which}): {clients} client threads x {BOOTS} boots over {} nodes \
         (ThreadFabric serving profile, 20x time compression)",
        axis.table, SERVING.nodes
    );
    let measured: Vec<Measured> = rows.into_iter().map(|r| measure(r, clients)).collect();

    let columns: Vec<Column> = COMMON.iter().chain(axis.extra).copied().collect();
    let headers: Vec<&str> = columns.iter().map(|(h, _)| *h).collect();
    let mut table = Table::new(axis.table, &headers);
    for m in &measured {
        let cells: Vec<String> = columns.iter().map(|(_, cell)| cell(m)).collect();
        let cells: Vec<&dyn std::fmt::Display> = cells.iter().map(|c| c as _).collect();
        table.row(&cells);
    }
    table.emit();
    if measured.len() == all {
        write_summary(axis.summary_file, &(axis.summary)(&measured, clients));
    }
}
