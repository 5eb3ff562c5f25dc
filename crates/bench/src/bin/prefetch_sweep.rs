//! Prefetch sweep: cold concurrent multideployment boot with the
//! adaptive cross-VM prefetching pipeline off vs on (± the confidence
//! filter), gated by `bench_regression` against `BENCH_4.json` and
//! `BENCH_5.json`.
//!
//! The §3.2 "dynamically adding compute nodes" shape: a
//! small seed wave boots the image first (cold, on demand — with
//! prefetching on it also publishes its first-touch chunk order to the
//! cluster `PatternBoard`); then the main wave — two co-located VMs per
//! node across the whole cluster — boots concurrently. With
//! `BFF_PREFETCH=0` every main-wave chunk is fetched strictly on
//! demand, serial with the guest's compute bursts. With prefetching on,
//! the main wave pulls the cohort's predicted window as *background*
//! read-ahead during guest CPU bursts, so transfers hide behind
//! compute, and co-located VMs share each other's fetched chunks
//! through the node cache. The headline number is the main wave's *cold
//! concurrent boot throughput*: instances per simulated second of mean
//! per-instance boot time under full concurrency — the Fig. 4(a)
//! metric, which averages over the per-instance noise (each VM's
//! private cold reads) that a makespan would max over. Target ≥ 1.5×
//! over on-demand; the wave makespan is reported alongside.
//!
//! Emits `target/paper/prefetch_sweep.{csv,json}` and
//! `target/paper/prefetch_summary.json` — the flat file the CI gate
//! compares against the `BENCH_4.json` floors.
//!
//! CI-sized by default (seconds); `--mini` is accepted for symmetry
//! with the figure binaries and changes nothing.

use bff_bench::{f3, write_summary, Table};
use bff_blobseer::{BlobConfig, BlobStore, BlobTopology, Client as BlobClient};
use bff_cloud::backend::MirrorBackend;
use bff_cloud::params::Calibration;
use bff_cloud::vm::run_vm_trace;
use bff_data::Payload;
use bff_net::{Fabric, NodeId};
use bff_sim::SimCluster;
use bff_workloads::boottrace::BootProfile;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const NODES: u32 = 8;
const VMS_PER_NODE: usize = 2; // the co-located multideployment pattern
const SEED_VMS: usize = 2; // wave 1: the cohort that publishes the pattern
const IMG: u64 = 8 << 20;
const CHUNK: u64 = 64 << 10;
const RUN_SEED: u64 = 0xB007;
/// Main-wave start: well after the seed wave finished booting.
const WAVE2_AT_US: u64 = 1_500_000;
/// Main-wave hypervisor start skew: one middleware command launches the
/// wave, so instances start within a few tens of ms (§3.1.3 puts the
/// boot-sector access skew at the 100 ms order *including* the boot
/// path; the launch skew itself is smaller).
const WAVE2_SKEW_US: u64 = 25_000;

/// The sweep's boot profile. `BootProfile::scaled` shrinks a 2 GB boot
/// to the mini image but keeps the full 9.5 s of guest CPU scaled to
/// 50 ms — far more CPU per fetched byte than the paper-scale regime,
/// where 110 instances over shared GbE make boots I/O-bound (Fig. 4a:
/// ~10 s local vs ~25 s+ concurrent mirror boots). A 16-instance mini
/// sweep must keep that I/O:CPU ratio representative, so this profile
/// touches ~25% of the image per instance against a 25 ms CPU budget.
fn sweep_profile() -> BootProfile {
    BootProfile {
        image_len: IMG,
        kernel_bytes: 512 << 10,
        kernel_read: 16 << 10,
        random_read_bytes: 2 << 20,
        random_read_size: (512, 8 << 10),
        hot_fraction: 0.35,
        write_bytes: 8 << 10,
        write_size: (256, 1024),
        cpu_total_us: 20_000,
        shared_fraction: 0.95,
    }
}

#[derive(Debug, Clone, Copy)]
struct BootOutcome {
    /// Main-wave window: first instance start → last instance done,
    /// seconds (virtual).
    wave_s: f64,
    /// Mean per-instance main-wave boot time, seconds.
    avg_boot_s: f64,
    /// Cold concurrent boot throughput of the main wave: instances per
    /// second of mean concurrent boot time (`main_vms / avg_boot_s` ÷
    /// `main_vms` = `1 / avg_boot_s`, scaled to the wave size).
    boots_per_s: f64,
    /// Total network traffic, MB (both waves).
    network_mb: f64,
    /// Prefetched chunks that served a demand read.
    hits: u64,
    /// Prefetched chunks evicted unused.
    wasted: u64,
    /// Chunks prefetched in total.
    prefetched: u64,
}

fn run_boot(prefetch: bool, min_publishers: usize) -> BootOutcome {
    let cal = Calibration::default();
    let n = NODES as usize;
    let cluster = SimCluster::new(cal.cluster(n));
    let fabric: Arc<dyn Fabric> = cluster.fabric();
    let compute: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let service = NodeId(NODES);
    let cfg = BlobConfig {
        chunk_size: CHUNK,
        prefetch,
        // A wide in-flight budget: one background step pulls the whole
        // predicted pattern as per-provider batches, outrunning the
        // guest's demand stream instead of racing it chunk for chunk.
        prefetch_window: 32,
        // The confidence filter under test: chunks reported by fewer
        // distinct publishers are not read ahead (1 = filter off).
        prefetch_min_publishers: min_publishers,
        ..Default::default()
    };
    let topo = BlobTopology::colocated(&compute, service);
    let store = BlobStore::new(cfg, topo, Arc::clone(&fabric));
    let uploader = BlobClient::new(Arc::clone(&store), service);
    let (blob, version) = uploader
        .upload(Payload::synth(0x1A6E, 0, IMG))
        .expect("pre-staging upload");
    store.drop_provider_caches(); // image staged long before; caches cold
    fabric.stats().reset();

    let profile = sweep_profile();
    let boot = |vm: usize, node: NodeId, start_base: u64, skew: u64| {
        let store = Arc::clone(&store);
        let fabric = Arc::clone(&fabric);
        move |env: &bff_sim::Env| {
            let mut rng =
                SmallRng::seed_from_u64(RUN_SEED ^ (vm as u64).wrapping_mul(0x9e3779b97f4a7c15));
            // The middleware attaches the instance's image at the wave
            // launch (Cloud::deploy opens every backend up front); the
            // hypervisor then starts within the launch skew. Deploy-time
            // read-ahead uses exactly that gap.
            env.sleep_us(start_base);
            let client = BlobClient::new(store, node);
            let cal = Calibration::default();
            let mut backend =
                MirrorBackend::open(client, blob, version, &cal).expect("open mirror");
            env.sleep_us(rng.gen_range(0..skew.max(1)));
            let start = env.now_us();
            let ops = profile.generate(RUN_SEED ^ vm as u64);
            run_vm_trace(&fabric, node, &mut backend, vm as u64, &ops).expect("vm trace");
            (start, env.now_us())
        }
    };

    // Wave 1: the seed cohort boots cold and (with prefetching on)
    // publishes its first-touch order to the board.
    for vm in 0..SEED_VMS {
        let node = NodeId((vm % n) as u32);
        let run = boot(vm, node, 0, cal.start_skew_us);
        cluster.sim().spawn(format!("seed{vm}"), move |env| {
            run(&env);
        });
    }
    // Wave 2: the main deployment joins the running application.
    let main_vms = n * VMS_PER_NODE;
    let spans: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(vec![(0, 0); main_vms]));
    for vm in 0..main_vms {
        let node = NodeId((vm % n) as u32);
        let run = boot(SEED_VMS + vm, node, WAVE2_AT_US, WAVE2_SKEW_US);
        let spans = Arc::clone(&spans);
        cluster.sim().spawn(format!("vm{vm}"), move |env| {
            spans.lock()[vm] = run(&env);
        });
    }
    cluster.run();

    let spans = spans.lock();
    let per_vm_s: Vec<f64> = spans.iter().map(|(s, e)| (e - s) as f64 / 1e6).collect();
    let first = spans.iter().map(|(s, _)| *s).min().unwrap_or(0);
    let last = spans.iter().map(|(_, e)| *e).max().unwrap_or(0);
    let wave_s = (last - first) as f64 / 1e6;
    if std::env::var("DEBUG_SPANS").is_ok() {
        let mut v: Vec<(usize, u64, u64)> = spans
            .iter()
            .enumerate()
            .map(|(i, (s, e))| (i, *s, *e))
            .collect();
        v.sort_by_key(|&(_, _, e)| e);
        for (i, s, e) in v {
            eprintln!(
                "vm{i:02} node{} start {s:>7} end {e:>7} boot {:>6}us",
                i % 8,
                e - s
            );
        }
    } // DEBUG_SPANS
    let (mut hits, mut wasted, mut prefetched) = (0u64, 0u64, 0u64);
    for &node in &compute {
        let s = store.node_context(node).prefetch_stats();
        hits += s.hits;
        wasted += s.wasted_chunks;
        prefetched += s.prefetched_chunks;
    }
    let avg_boot_s = per_vm_s.iter().sum::<f64>() / per_vm_s.len() as f64;
    BootOutcome {
        wave_s,
        avg_boot_s,
        boots_per_s: main_vms as f64 / avg_boot_s.max(1e-9),
        network_mb: fabric.stats().total_network_bytes() as f64 / 1e6,
        hits,
        wasted,
        prefetched,
    }
}

fn main() {
    let off = run_boot(false, 1);
    // The shipping default: cohort-confirmed chunks only (min 2
    // publishers once ≥2 exist). The unfiltered run isolates what the
    // confidence filter saves in wasted read-ahead.
    let on = run_boot(true, 2);
    let on_unfiltered = run_boot(true, 1);

    let mut t = Table::new(
        "prefetch_sweep",
        &[
            "prefetch",
            "wave_s",
            "avg_boot_s",
            "boots_per_s",
            "network_mb",
            "prefetched_chunks",
            "hits",
            "wasted",
        ],
    );
    for (label, m) in [("off", off), ("on", on), ("on_unfiltered", on_unfiltered)] {
        t.row(&[
            &label,
            &f3(m.wave_s),
            &f3(m.avg_boot_s),
            &f3(m.boots_per_s),
            &f3(m.network_mb),
            &m.prefetched,
            &m.hits,
            &m.wasted,
        ]);
    }
    t.emit();

    let boot_speedup = on.boots_per_s / off.boots_per_s.max(1e-9);
    let hit_rate = if on.prefetched == 0 {
        0.0
    } else {
        on.hits as f64 / on.prefetched as f64
    };

    // Waste = read-ahead transfers no demand read ever consumed
    // (`prefetched − hits`; the evicted-unused counter alone misses
    // unused chunks still parked in the cache). The confidence filter's
    // value is the drop in that number between the unfiltered and the
    // default (cohort-confirmed) run.
    let unused = |m: &BootOutcome| m.prefetched.saturating_sub(m.hits);
    let waste_saved = unused(&on_unfiltered).saturating_sub(unused(&on));
    println!(
        "\ncold concurrent boot wave: {:.2}s -> {:.2}s ({boot_speedup:.2}x throughput); \
         prefetch hit rate {:.0}% ({} hits / {} wasted of {} prefetched); \
         confidence filter saved {waste_saved} unused read-aheads \
         ({} unfiltered -> {})",
        off.wave_s,
        on.wave_s,
        100.0 * hit_rate,
        on.hits,
        on.wasted,
        on.prefetched,
        unused(&on_unfiltered),
        unused(&on),
    );

    let network_reduction = off.network_mb / on.network_mb.max(1e-9);
    write_summary(
        "prefetch_summary.json",
        &[
            ("prefetch_boot_speedup", f3(boot_speedup)),
            ("prefetch_hit_rate", f3(hit_rate)),
            ("prefetch_network_reduction", f3(network_reduction)),
            ("prefetch_network_mb", f3(on.network_mb)),
            ("confidence_waste_saved", waste_saved.to_string()),
            ("confidence_unused_filtered", unused(&on).to_string()),
            (
                "confidence_unused_unfiltered",
                unused(&on_unfiltered).to_string(),
            ),
            ("prefetch_boot_wave_s", f3(on.wave_s)),
        ],
    );
}
