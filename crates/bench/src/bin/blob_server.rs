//! Standalone server-role host: runs a group of BlobSeer server roles
//! (version manager, provider manager, metadata shards, chunk
//! providers, pattern board, cluster dedup index) as a real OS process
//! serving the typed wire protocol over framed TCP on loopback.
//!
//! One process can host any subset of roles (`--roles vm,pm,...`); a
//! multi-process cluster is several `blob_server`s over the same
//! topology, each serving its slice. The board and cluster roles must
//! be colocated in one process — a board purge evicts freed chunks from
//! the cluster index atomically with dropping the patterns.
//!
//! With `--data-dir DIR` (or `BFF_DATA_DIR`) the process is **durable**:
//! providers store chunks in log-structured segment files and every
//! manager mutation goes through a journal, both fsynced on the acks
//! that promise durability. On start the process replays whatever the
//! directory holds — an empty directory is a cold start, a populated
//! one is crash recovery — and reports what it restored on stderr
//! *before* announcing `READY`, so the parent's recovery-time clock
//! includes the replay. Each process must own its directory
//! exclusively; two writers would truncate each other's live appends.
//!
//! Protocol with the parent (`load_sweep --transport socket`):
//!
//! 1. bind one listener per role, print `<role> <addr>` per line;
//! 2. print `READY` and flush;
//! 3. serve until stdin reaches EOF (the parent dropping the pipe is
//!    the shutdown signal — no orphaned servers if the parent dies).
//!
//! A parent that closes stdout early (crashed or killed mid-handshake)
//! makes the announce writes fail; that is an orderly shutdown signal,
//! not a bug, so the process exits nonzero without unwinding.
//!
//! The server roles are passive state machines: every modelled cost is
//! charged client-side by the parent's fabric, so this process needs no
//! fabric at all — it just holds state and answers frames.

use bff_blobseer::{BlobConfig, BlobTopology, Placement, ServerState};
use bff_net::transport::Role;
use bff_net::NodeId;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::Arc;

struct Args {
    roles: Vec<Role>,
    nodes: u32,
    service: u32,
    chunk_size: u64,
    dedup: bool,
    cluster_dedup: bool,
    prefetch: bool,
    data_dir: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        roles: Vec::new(),
        nodes: 8,
        service: 8,
        chunk_size: 64 << 10,
        dedup: false,
        cluster_dedup: false,
        prefetch: false,
        data_dir: std::env::var_os("BFF_DATA_DIR").map(PathBuf::from),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--roles" => {
                let list = it.next().expect("--roles needs a comma-separated list");
                args.roles = list
                    .split(',')
                    .map(|s| Role::parse(s).unwrap_or_else(|| panic!("unknown role {s}")))
                    .collect();
            }
            "--nodes" => args.nodes = it.next().expect("--nodes N").parse().expect("node count"),
            "--service" => args.service = it.next().expect("--service N").parse().expect("node id"),
            "--chunk-size" => {
                args.chunk_size = it
                    .next()
                    .expect("--chunk-size BYTES")
                    .parse()
                    .expect("chunk size")
            }
            "--data-dir" => args.data_dir = Some(PathBuf::from(it.next().expect("--data-dir DIR"))),
            "--dedup" => args.dedup = true,
            "--cluster-dedup" => args.cluster_dedup = true,
            "--prefetch" => args.prefetch = true,
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(!args.roles.is_empty(), "--roles is required");
    let hosts_board = args.roles.contains(&Role::Board);
    let hosts_cluster = args.roles.contains(&Role::Cluster);
    assert_eq!(
        hosts_board, hosts_cluster,
        "board and cluster must be colocated (a purge touches both)"
    );
    args
}

/// Exit nonzero without unwinding: the parent closed the announcement
/// pipe (it crashed or killed us mid-handshake), so there is nobody to
/// serve — a panic here would just produce a scary backtrace for an
/// orderly condition.
fn announce_failed(what: &str) -> ! {
    eprintln!("blob_server: parent closed stdout before {what}; exiting");
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    let compute: Vec<NodeId> = (0..args.nodes).map(NodeId).collect();
    let topo = BlobTopology::colocated(&compute, NodeId(args.service));
    let cfg = BlobConfig {
        chunk_size: args.chunk_size,
        dedup: args.dedup,
        cluster_dedup: args.cluster_dedup,
        prefetch: args.prefetch,
        ..Default::default()
    };
    let state = match &args.data_dir {
        None => ServerState::new(&cfg, &topo, Placement::RoundRobin),
        Some(dir) => {
            let (state, report) = ServerState::recover(&cfg, &topo, Placement::RoundRobin, dir)
                .unwrap_or_else(|e| {
                    eprintln!("blob_server: cannot recover {}: {e}", dir.display());
                    std::process::exit(1);
                });
            // Stderr, never stdout: the parent parses stdout as exactly
            // `<role> <addr>` lines followed by `READY`.
            eprintln!(
                "blob_server: recovered {} ({} journal records{}, {} chunks / {} bytes{})",
                dir.display(),
                report.journal_records,
                if report.journal_torn {
                    ", torn tail"
                } else {
                    ""
                },
                report.chunks,
                report.chunk_bytes,
                if report.torn_files > 0 {
                    ", torn segment files"
                } else {
                    ""
                },
            );
            state
        }
    };
    let state = Arc::new(state);

    let servers = state.serve(&args.roles).expect("bind loopback listener");
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (role, server) in &servers {
        if writeln!(out, "{} {}", role.name(), server.addr()).is_err() {
            announce_failed("role announcement");
        }
    }
    if writeln!(out, "READY").is_err() || out.flush().is_err() {
        announce_failed("READY");
    }
    drop(out);

    // Serve until the parent closes our stdin (EOF) — the listener
    // threads do the work; this thread just waits for the signal.
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}
