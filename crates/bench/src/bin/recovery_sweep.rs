//! Crash-recovery scenario (BENCH_8): kill -9 and restart real server
//! processes mid-workload, then hard-assert that everything the cluster
//! acknowledged before each crash is still there, byte for byte.
//!
//! The cluster is two durable `blob_server` processes over loopback TCP
//! — one hosting the managers, board and metadata (`vm,pm,board,
//! cluster,meta`), one the chunk providers — each owning a `--data-dir`
//! under `target/paper/recovery_data/`. Client threads run the
//! rotating-snapshot storm (boot latest snapshot, write, snapshot,
//! publish or terminate-for-GC) the whole time; whenever a call dies
//! with the cluster, the client sleeps briefly and retries the round.
//! While the storm runs, the orchestrator:
//!
//! 1. SIGKILLs the provider process, waits out a dead window, respawns
//!    it on the *same* data directory, and times spawn→`READY` — the
//!    child replays its segment files and ref log before announcing, so
//!    that interval is the full recovery time;
//! 2. swaps the new ephemeral addresses into the shared
//!    [`SocketTransport`] via `set_routes` (the pool of dead
//!    connections is dropped with the old table);
//! 3. repeats both steps for the manager process, whose journal replay
//!    rebuilds the version trees, snapshot refcounts and id allocators.
//!
//! Every snapshot whose publish *and* readback were acknowledged is
//! recorded as `(blob, version, sha256)` in a survivor registry. After
//! the storm, a **fresh** client stack (empty caches, new connections)
//! re-downloads every survivor and compares digests; one mismatch or
//! unreadable snapshot fails the run. A final upload/download proves
//! the cluster still accepts writes after both restarts.
//!
//! Local dedup is pinned on and the cluster dedup index off on both
//! sides: the index is a soft-state cache the servers do not journal,
//! and its traffic would only add noise to the dead windows.
//!
//! Emits `target/paper/recovery_summary.json`, gated against
//! `BENCH_8.json` by `bench_regression`. The gated metrics are survivor
//! identity (floor 1.0 — recovery is correctness, not a ratio to tune)
//! and the recovery-time margin against [`BOUND_S`]. `--mini` shrinks
//! the storm for CI smoke runs; `--clients N` pins the client count.

use bff_bench::storm::{self, Rng, Rotation, CHUNK, RECOVERY};
use bff_bench::{output_dir, write_summary, RunScale};
use bff_blobseer::{BlobConfig, BlobId, TransportMode, Version};
use bff_cloud::backend::BackendError;
use bff_cloud::middleware::Cloud;
use bff_data::{Payload, Sha256Digest};
use bff_net::transport::{RouteTable, SocketTransport};
use bff_net::LocalFabric;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard recovery-time bound, seconds: spawn→READY of a respawned
/// process, including its full replay. Generous on purpose — the gate
/// is "recovery is bounded", not a latency benchmark.
const BOUND_S: f64 = 20.0;

/// Client back-off between retries while the cluster is (partly) dead.
const RETRY_SLEEP: Duration = Duration::from_millis(25);

/// A client failing for this long means the cluster never came back.
const FAIL_DEADLINE: Duration = Duration::from_secs(30);

/// Storm pacing per scale.
struct Phases {
    /// Storm time before the first kill (also bounded by the
    /// wait-for-published-snapshots loop).
    warmup: Duration,
    /// How long a killed process stays dead (clients fail into retries).
    dead: Duration,
    /// Storm time between the provider and manager restarts.
    mid: Duration,
    /// Storm time after the last restart before the storm stops.
    settle: Duration,
}

fn phases(scale: RunScale) -> Phases {
    match scale {
        RunScale::Paper => Phases {
            warmup: Duration::from_millis(2000),
            dead: Duration::from_millis(400),
            mid: Duration::from_millis(2000),
            settle: Duration::from_millis(1000),
        },
        RunScale::Mini => Phases {
            warmup: Duration::from_millis(800),
            dead: Duration::from_millis(250),
            mid: Duration::from_millis(800),
            settle: Duration::from_millis(600),
        },
    }
}

/// Acknowledged snapshots the cluster must still serve byte-identically
/// after every crash: `(blob, version, sha256 at publish time)`.
type Registry = Mutex<Vec<(BlobId, Version, Sha256Digest)>>;

#[derive(Default)]
struct Tally {
    boots: usize,
    published: usize,
    terminated: usize,
    retries: usize,
}

/// One client's storm loop: rounds until `stop`, retrying after any
/// error (a dead window looks like a burst of retries). A snapshot is
/// exposed to other clients only once its bytes have been read back and
/// fingerprinted into the survivor registry.
fn run_client(
    cloud: &Cloud,
    rotation: &Rotation,
    registry: &Registry,
    stop: &AtomicBool,
    worker: usize,
) -> Tally {
    let mut rng = Rng::for_worker(worker);
    let mut tally = Tally::default();
    let mut failing_since: Option<Instant> = None;
    let mut round = 0;
    while !stop.load(Ordering::Relaxed) {
        let mut attempt = || -> Result<bool, BackendError> {
            let source = rotation.pick(&mut rng);
            let (_, snap) = storm::round(cloud, &RECOVERY, source, worker, round)?;
            let Some(snap) = snap else { return Ok(false) };
            let img = cloud.download_image(snap.0, snap.1)?;
            registry.lock().push((snap.0, snap.1, img.digest_sha256()));
            rotation.publish(snap);
            Ok(true)
        };
        match attempt() {
            Ok(published) => {
                failing_since = None;
                round += 1;
                tally.boots += 1;
                tally.published += published as usize;
                tally.terminated += !published as usize;
            }
            Err(e) => {
                let since = *failing_since.get_or_insert_with(Instant::now);
                assert!(
                    since.elapsed() < FAIL_DEADLINE,
                    "client {worker} failing for {:?}: cluster never recovered ({e:?})",
                    since.elapsed(),
                );
                tally.retries += 1;
                std::thread::sleep(RETRY_SLEEP);
            }
        }
    }
    tally
}

fn blob_cfg() -> BlobConfig {
    BlobConfig {
        chunk_size: CHUNK,
        dedup: true,
        cluster_dedup: false,
        transport: TransportMode::Socket,
        ..Default::default()
    }
}

fn main() {
    let scale = RunScale::from_args();
    let workers = storm::clients(scale, 12, 6);
    let ph = phases(scale);
    let data_root = output_dir().join("recovery_data");
    let _ = std::fs::remove_dir_all(&data_root);
    std::fs::create_dir_all(&data_root).expect("create recovery data root");

    // Each process owns its directory exclusively; a respawn reuses it.
    let [mut mgr_spec, mut prov_spec] = storm::server_specs(&RECOVERY, &blob_cfg());
    mgr_spec.data_dir = Some(data_root.join("managers"));
    prov_spec.data_dir = Some(data_root.join("provider"));

    println!(
        "recovery_sweep: {workers} client threads over {} nodes; \
         kill -9 + restart of the provider and manager processes mid-storm \
         (bound {BOUND_S}s per recovery)",
        RECOVERY.nodes
    );
    let (mgr, mut addrs) = mgr_spec.spawn();
    let (prov, prov_addrs) = prov_spec.spawn();
    addrs.extend(prov_addrs);
    let mut mgr_proc = Some(mgr);
    let mut prov_proc = Some(prov);

    let fabric = LocalFabric::new(RECOVERY.nodes as usize + 1);
    let connect = |addrs: &_| {
        let table = RouteTable::from_roles(addrs).expect("every role announced");
        let transport = Arc::new(SocketTransport::new(table));
        let cloud = storm::attach(&RECOVERY, fabric.clone(), blob_cfg(), transport.clone());
        (cloud, transport)
    };
    let (cloud, transport) = connect(&addrs);

    let base_image = RECOVERY.base_image();
    let base = cloud.upload_image(base_image.clone()).expect("upload base");
    let registry: Registry = Mutex::new(vec![(base.0, base.1, base_image.digest_sha256())]);
    let rotation = Rotation::new(base, RECOVERY.rotation);
    let stop = AtomicBool::new(false);

    let mut provider_recovery_s = 0.0f64;
    let mut manager_recovery_s = 0.0f64;
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (cloud, rotation, registry, stop) = (&cloud, &rotation, &registry, &stop);
                scope.spawn(move || run_client(cloud, rotation, registry, stop, worker))
            })
            .collect();

        // Let the storm build a population of published snapshots before
        // the first crash — otherwise there is nothing to survive.
        std::thread::sleep(ph.warmup);
        let waiting = Instant::now();
        while registry.lock().len() < 4 {
            assert!(
                waiting.elapsed() < Duration::from_secs(60),
                "storm published no snapshots in 60s"
            );
            std::thread::sleep(Duration::from_millis(50));
        }

        let survivors_at_kill = registry.lock().len();
        println!("  kill -9 provider process ({survivors_at_kill} snapshots published)");
        prov_proc.take().expect("provider alive").kill9();
        std::thread::sleep(ph.dead);
        let clock = Instant::now();
        let (proc_, new_addrs) = prov_spec.spawn();
        provider_recovery_s = clock.elapsed().as_secs_f64();
        prov_proc = Some(proc_);
        addrs.extend(new_addrs);
        transport.set_routes(RouteTable::from_roles(&addrs).expect("provider re-announced"));
        println!("  provider recovered in {provider_recovery_s:.3}s");

        std::thread::sleep(ph.mid);

        let survivors_at_kill = registry.lock().len();
        println!("  kill -9 manager process ({survivors_at_kill} snapshots published)");
        mgr_proc.take().expect("managers alive").kill9();
        std::thread::sleep(ph.dead);
        let clock = Instant::now();
        let (proc_, new_addrs) = mgr_spec.spawn();
        manager_recovery_s = clock.elapsed().as_secs_f64();
        mgr_proc = Some(proc_);
        addrs.extend(new_addrs);
        transport.set_routes(RouteTable::from_roles(&addrs).expect("managers re-announced"));
        println!("  managers recovered in {manager_recovery_s:.3}s");

        std::thread::sleep(ph.settle);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let t = h.join().expect("client thread");
            tally.boots += t.boots;
            tally.published += t.published;
            tally.terminated += t.terminated;
            tally.retries += t.retries;
        }
    });

    // Post-restart write liveness: the recovered cluster must still
    // accept and serve brand-new data.
    let live_image = Payload::synth(0xA11CE, 0, RECOVERY.image);
    let live = cloud
        .upload_image(live_image.clone())
        .expect("post-recovery upload");
    registry
        .lock()
        .push((live.0, live.1, live_image.digest_sha256()));

    // Survivor verification through a *fresh* client stack: new
    // connections, empty descriptor/chunk caches — every byte comes off
    // the recovered processes, not from anything this process cached.
    let (verify_cloud, _) = connect(&addrs);
    let snapshots = registry.into_inner();
    let mut matched = 0usize;
    for &(blob, version, want) in &snapshots {
        let img = verify_cloud
            .download_image(blob, version)
            .unwrap_or_else(|e| {
                panic!("survivor {blob:?} v{version:?} unreadable after recovery: {e:?}")
            });
        if img.digest_sha256() == want {
            matched += 1;
        } else {
            eprintln!("survivor {blob:?} v{version:?} content diverged after recovery");
        }
    }
    let identity = matched as f64 / snapshots.len() as f64;
    let slowest = provider_recovery_s.max(manager_recovery_s);
    let margin = BOUND_S / slowest.max(1e-9);
    println!(
        "\n{} boots ({} published, {} terminated, {} retried rounds); \
         {}/{} survivors byte-identical; recovery provider {:.3}s / managers {:.3}s \
         (bound {BOUND_S}s, margin {:.1}x)",
        tally.boots,
        tally.published,
        tally.terminated,
        tally.retries,
        matched,
        snapshots.len(),
        provider_recovery_s,
        manager_recovery_s,
        margin,
    );

    write_summary(
        "recovery_summary.json",
        &[
            ("recovery_survivor_identity", format!("{identity:.4}")),
            ("recovery_snapshots", snapshots.len().to_string()),
            ("recovery_provider_s", format!("{provider_recovery_s:.3}")),
            ("recovery_manager_s", format!("{manager_recovery_s:.3}")),
            ("recovery_margin", format!("{margin:.3}")),
            ("recovery_bound_s", BOUND_S.to_string()),
            ("recovery_boots", tally.boots.to_string()),
            ("recovery_retries", tally.retries.to_string()),
            ("recovery_threads", workers.to_string()),
        ],
    );

    // Hard asserts: recovery is a correctness property, not a trend.
    assert_eq!(
        matched,
        snapshots.len(),
        "every acknowledged snapshot must survive byte-identically"
    );
    assert!(
        slowest <= BOUND_S,
        "recovery took {slowest:.3}s, bound is {BOUND_S}s"
    );
    drop(prov_proc);
    drop(mgr_proc);
}
