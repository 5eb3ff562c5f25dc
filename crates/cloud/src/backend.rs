//! The three image backends compared in the evaluation.
//!
//! | Backend | Deployment | Reads | Writes | Snapshot |
//! |---|---|---|---|---|
//! | [`MirrorBackend`] | lazy (none) | on-demand chunk fetch | local mmap write-back | CLONE + COMMIT of dirty chunks |
//! | [`RawLocalBackend`] | full prepropagation | local page cache | hypervisor default path | unsupported (infeasible, §5.3) |
//! | [`QcowPvfsBackend`] | qcow2 shell (instant) | backing reads from PVFS, exact ranges | CoW cluster allocation | copy the qcow2 file to PVFS |

use crate::params::Calibration;
use bff_blobseer::{BlobError, BlobId, Client as BlobClient, Version};
use bff_core::{MemStore, MirrorConfig, MirroredImage};
use bff_data::extent::ExtentPiece;
use bff_data::{ByteRange, ExtentMap, Payload};
use bff_net::{Fabric, NetError, NodeId};
use bff_pvfs::{FileId, PvfsClient, PvfsError};
use bff_qcow2::{Backing, BlockDev, MemBlockDev, Qcow2Error, Qcow2Image};
use std::fmt;
use std::sync::Arc;

/// Unified backend error.
#[derive(Debug)]
pub enum BackendError {
    /// Repository failure (mirror backend).
    Blob(BlobError),
    /// PVFS failure (qcow2 backend).
    Pvfs(PvfsError),
    /// Image-format failure (qcow2 backend).
    Qcow(Qcow2Error),
    /// Transport failure.
    Net(NetError),
    /// The backend cannot perform this operation (e.g. snapshotting a
    /// prepropagated raw image: the paper deems it infeasible, §5.3).
    Unsupported(&'static str),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Blob(e) => write!(f, "repository: {e}"),
            BackendError::Pvfs(e) => write!(f, "pvfs: {e}"),
            BackendError::Qcow(e) => write!(f, "qcow2: {e}"),
            BackendError::Net(e) => write!(f, "network: {e}"),
            BackendError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<BlobError> for BackendError {
    fn from(e: BlobError) -> Self {
        BackendError::Blob(e)
    }
}
impl From<PvfsError> for BackendError {
    fn from(e: PvfsError) -> Self {
        BackendError::Pvfs(e)
    }
}
impl From<Qcow2Error> for BackendError {
    fn from(e: Qcow2Error) -> Self {
        BackendError::Qcow(e)
    }
}
impl From<NetError> for BackendError {
    fn from(e: NetError) -> Self {
        BackendError::Net(e)
    }
}

/// What a hypervisor needs from a VM image.
pub trait ImageBackend: Send {
    /// Virtual disk size.
    fn len(&self) -> u64;
    /// Whether the image is zero-length.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Read a range of the image.
    fn read(&mut self, range: ByteRange) -> Result<Payload, BackendError>;
    /// Read several ranges as one vectored request, one payload per
    /// range — how a hypervisor submits its queued reads in one batch.
    /// Backends with a remote data plane override this to batch their
    /// transfers; the default is a per-range loop.
    fn read_multi(&mut self, ranges: &[ByteRange]) -> Result<Vec<Payload>, BackendError> {
        ranges.iter().map(|r| self.read(r.clone())).collect()
    }
    /// Notification that the guest is entering a compute burst of `us`
    /// microseconds. A backend with background work (the mirror's
    /// adaptive prefetcher) uses it to kick *detached* read-ahead; the
    /// hypervisor always charges the compute itself afterwards. On the
    /// simulator the read-ahead's transfers hide behind the burst; on
    /// `LocalFabric` detached work runs inline, so the step completes
    /// on the guest's thread before this returns. The default does
    /// nothing.
    fn idle(&mut self, _us: u64) -> Result<(), BackendError> {
        Ok(())
    }
    /// Write into the image.
    fn write(&mut self, offset: u64, data: Payload) -> Result<(), BackendError>;
    /// Persist the VM's local modifications; returns the bytes moved to
    /// persistent storage.
    fn snapshot(&mut self) -> Result<u64, BackendError>;
    /// Identity of the persistent snapshot lineage, if any (blob id for
    /// the mirror backend, PVFS file for qcow2 copies).
    fn snapshot_ref(&self) -> Option<u64> {
        None
    }
}

// ---------------------------------------------------------------------
// Mirror backend (our approach)
// ---------------------------------------------------------------------

/// The paper's approach: a [`MirroredImage`] with CLONE-then-COMMIT
/// snapshotting.
pub struct MirrorBackend {
    img: MirroredImage,
    cloned: bool,
}

impl MirrorBackend {
    /// Open `(blob, version)` for the VM on `client.node()`.
    pub fn open(
        client: BlobClient,
        blob: BlobId,
        version: Version,
        cal: &Calibration,
    ) -> Result<Self, BackendError> {
        let size = client.snapshot_size(blob, version)?;
        let cfg = MirrorConfig {
            fuse_op_overhead_us: cal.fuse_op_us(),
            read_syscall_us: cal.syscall_us,
            read_bw: cal.page_read_bw,
            ..MirrorConfig::default()
        };
        let mut img =
            MirroredImage::open(client, blob, version, Box::new(MemStore::new(size)), cfg)?;
        // Deploy-time read-ahead: the middleware attaches images before
        // the hypervisors launch (§3.2), so the module starts pulling
        // the cohort's predicted window the moment the image exists —
        // the guest's first faults then hit a warming cache instead of
        // a cold one. No-op without a published pattern or with
        // prefetching off.
        img.poke_prefetch();
        Ok(Self { img, cloned: false })
    }

    /// Access the underlying mirror (stats, chunk map).
    pub fn image(&self) -> &MirroredImage {
        &self.img
    }

    /// Kick one background read-ahead step (see
    /// [`MirroredImage::poke_prefetch`]); returns whether a step was
    /// started. Test/bench pumps loop this on cost-free fabrics, where
    /// detached steps run inline.
    pub fn poke_prefetch(&mut self) -> bool {
        self.img.poke_prefetch()
    }

    /// The blob currently backing the VM.
    pub fn blob(&self) -> BlobId {
        self.img.blob()
    }

    /// Whether this instance has diverged into its own snapshot lineage
    /// (CLONE happened: [`MirrorBackend::blob`] is a clone private to
    /// this VM, not the deployed image). The middleware uses this at
    /// termination: a diverged instance's snapshots die with it.
    pub fn diverged(&self) -> bool {
        self.cloned
    }

    /// The snapshot version the mirror is based on.
    pub fn version(&self) -> Version {
        self.img.base_version()
    }
}

impl ImageBackend for MirrorBackend {
    fn len(&self) -> u64 {
        self.img.len()
    }

    fn read(&mut self, range: ByteRange) -> Result<Payload, BackendError> {
        Ok(self.img.read(range)?)
    }

    fn read_multi(&mut self, ranges: &[ByteRange]) -> Result<Vec<Payload>, BackendError> {
        Ok(self.img.read_multi(ranges)?)
    }

    fn idle(&mut self, _us: u64) -> Result<(), BackendError> {
        // Kick one read-ahead step (the §3.1.3 adaptive-prefetch
        // overlap). On the simulator it runs detached and its transfers
        // hide behind the compute burst the hypervisor charges next; on
        // `LocalFabric` it runs inline, before this returns. A burst
        // polls the board only after a demand read missed the pattern.
        self.img.poke_prefetch();
        Ok(())
    }

    fn write(&mut self, offset: u64, data: Payload) -> Result<(), BackendError> {
        Ok(self.img.write(offset, data)?)
    }

    fn snapshot(&mut self) -> Result<u64, BackendError> {
        // First global snapshot: CLONE then COMMIT; afterwards COMMIT
        // only (§3.2).
        if !self.cloned {
            self.img.clone_image()?;
            self.cloned = true;
        }
        let before = self.img.stats().committed_bytes;
        self.img.commit()?;
        Ok(self.img.stats().committed_bytes - before)
    }

    fn snapshot_ref(&self) -> Option<u64> {
        Some(self.img.blob().0)
    }
}

// ---------------------------------------------------------------------
// Prepropagated raw local image
// ---------------------------------------------------------------------

/// The prepropagation baseline after broadcast: the full image sits on
/// the local disk (hot in the page cache — it just arrived), the
/// hypervisor reads and writes it directly.
pub struct RawLocalBackend {
    node: NodeId,
    fabric: Arc<dyn Fabric>,
    base: Payload,
    overlay: ExtentMap<Payload>,
    cal: Calibration,
}

impl RawLocalBackend {
    /// Wrap the broadcast copy of `base` on `node`.
    pub fn new(node: NodeId, fabric: Arc<dyn Fabric>, base: Payload, cal: Calibration) -> Self {
        Self {
            node,
            fabric,
            base,
            overlay: ExtentMap::new(),
            cal,
        }
    }
}

impl ImageBackend for RawLocalBackend {
    fn len(&self) -> u64 {
        self.base.len()
    }

    fn read(&mut self, range: ByteRange) -> Result<Payload, BackendError> {
        let copy = ((range.end - range.start) as f64 / self.cal.page_read_bw).ceil() as u64;
        self.fabric.compute(self.node, self.cal.syscall_us + copy);
        let mut out = Payload::empty();
        for piece in self.overlay.read(&range) {
            match piece {
                ExtentPiece::Data(_, p) => out.append(p),
                ExtentPiece::Gap(g) => out.append(self.base.slice(g.start, g.end)),
            }
        }
        Ok(out)
    }

    fn write(&mut self, offset: u64, data: Payload) -> Result<(), BackendError> {
        self.fabric.compute(self.node, self.cal.syscall_us);
        let len = data.len();
        if len == 0 {
            return Ok(());
        }
        self.overlay.insert(offset..offset + len, data);
        // The hypervisor's default write path: page-cache absorb plus the
        // less efficient flush behaviour the paper observed (Fig. 6).
        self.fabric.disk_write_cached(self.node, len)?;
        self.fabric.compute(
            self.node,
            (len as f64 / self.cal.hyp_write_bw).ceil() as u64,
        );
        Ok(())
    }

    fn snapshot(&mut self) -> Result<u64, BackendError> {
        Err(BackendError::Unsupported(
            "copying full raw images back to storage is infeasible (paper §5.3)",
        ))
    }
}

// ---------------------------------------------------------------------
// qcow2 over PVFS
// ---------------------------------------------------------------------

/// Local block device of the qcow2 file: contents in memory (the file is
/// page-cache hot while the VM runs), writes charged to the node's disk
/// as write-back.
struct ChargedDev {
    inner: MemBlockDev,
    node: NodeId,
    fabric: Arc<dyn Fabric>,
}

impl BlockDev for ChargedDev {
    fn read_at(&self, range: ByteRange) -> Payload {
        self.inner.read_at(range)
    }

    fn write_at(&mut self, offset: u64, data: &Payload) {
        // Failures here mean the node died mid-write; costs stop accruing.
        let _ = self.fabric.disk_write_cached(self.node, data.len());
        self.inner.write_at(offset, data);
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

/// Backing image stored in PVFS: reads are exact-range network reads (no
/// prefetching — the key behavioural difference from the mirror, §5.2).
struct PvfsBacking {
    client: PvfsClient,
    file: FileId,
    size: u64,
}

impl Backing for PvfsBacking {
    fn len(&self) -> u64 {
        self.size
    }

    fn read_at(&self, range: ByteRange) -> Payload {
        self.client
            .read(self.file, range)
            .expect("backing image read failed (fail-stop)")
    }

    fn read_multi(&self, ranges: &[ByteRange]) -> Vec<Payload> {
        self.client
            .read_multi(self.file, ranges)
            .expect("backing image read failed (fail-stop)")
    }
}

/// The qcow2-over-PVFS baseline.
pub struct QcowPvfsBackend {
    img: Qcow2Image<ChargedDev>,
    pvfs: PvfsClient,
    node: NodeId,
    fabric: Arc<dyn Fabric>,
    cal: Calibration,
    snapshot_file: Option<FileId>,
}

impl QcowPvfsBackend {
    /// Create the per-VM qcow2 shell on `node`, backed by the base image
    /// `base_file` stored in PVFS (the baseline's "first initialization
    /// phase", §5.2 — a quick local file creation).
    pub fn create(
        pvfs: PvfsClient,
        base_file: FileId,
        node: NodeId,
        fabric: Arc<dyn Fabric>,
        cal: Calibration,
    ) -> Result<Self, BackendError> {
        let size = pvfs.size(base_file)?;
        let dev = ChargedDev {
            inner: MemBlockDev::new(),
            node,
            fabric: Arc::clone(&fabric),
        };
        let backing = Box::new(PvfsBacking {
            client: pvfs.clone(),
            file: base_file,
            size,
        });
        let img = Qcow2Image::create(dev, size, cal.qcow2_cluster_bits, Some(backing))?;
        Ok(Self {
            img,
            pvfs,
            node,
            fabric,
            cal,
            snapshot_file: None,
        })
    }

    /// Reopen a snapshot copy previously pushed to PVFS: download the
    /// qcow2 file to the local disk of `node`, then open it backed by the
    /// original base image (the chain-of-files manageability cost the
    /// paper criticizes in §3.1.4).
    pub fn resume_from_snapshot(
        pvfs: PvfsClient,
        base_file: FileId,
        snapshot_file: FileId,
        node: NodeId,
        fabric: Arc<dyn Fabric>,
        cal: Calibration,
    ) -> Result<Self, BackendError> {
        let qcow_bytes = pvfs.size(snapshot_file)?;
        let contents = pvfs.read(snapshot_file, 0..qcow_bytes)?;
        fabric.disk_write_cached(node, qcow_bytes)?;
        let dev = ChargedDev {
            inner: MemBlockDev::from_payload(contents),
            node,
            fabric: Arc::clone(&fabric),
        };
        let size = pvfs.size(base_file)?;
        let backing = Box::new(PvfsBacking {
            client: pvfs.clone(),
            file: base_file,
            size,
        });
        let img = Qcow2Image::open(dev, Some(backing))?;
        Ok(Self {
            img,
            pvfs,
            node,
            fabric,
            cal,
            snapshot_file: Some(snapshot_file),
        })
    }

    /// Bytes the qcow2 file occupies locally.
    pub fn file_len(&self) -> u64 {
        self.img.file_len()
    }
}

impl ImageBackend for QcowPvfsBackend {
    fn len(&self) -> u64 {
        self.img.virtual_size()
    }

    fn read(&mut self, range: ByteRange) -> Result<Payload, BackendError> {
        let copy = ((range.end - range.start) as f64 / self.cal.page_read_bw).ceil() as u64;
        self.fabric.compute(self.node, self.cal.syscall_us + copy);
        Ok(self.img.read(range)?)
    }

    fn read_multi(&mut self, ranges: &[ByteRange]) -> Result<Vec<Payload>, BackendError> {
        for range in ranges {
            let copy = ((range.end - range.start) as f64 / self.cal.page_read_bw).ceil() as u64;
            self.fabric.compute(self.node, self.cal.syscall_us + copy);
        }
        Ok(self.img.read_multi(ranges)?)
    }

    fn write(&mut self, offset: u64, data: Payload) -> Result<(), BackendError> {
        self.fabric.compute(self.node, self.cal.syscall_us);
        let len = data.len();
        self.img.write(offset, data)?;
        // Hypervisor default write path penalty (same as raw local).
        self.fabric.compute(
            self.node,
            (len as f64 / self.cal.hyp_write_bw).ceil() as u64,
        );
        Ok(())
    }

    fn snapshot(&mut self) -> Result<u64, BackendError> {
        // §5.3: "the snapshot is taken by concurrently copying the set of
        // qcow2 files locally available on the compute nodes back to
        // PVFS". The local file is page-cache hot, so the cost is the
        // network push plus the PVFS servers' disks.
        let bytes = self.img.file_len();
        let contents = self.img.device().read_at(0..bytes);
        let file = self.pvfs.create(bytes)?;
        self.pvfs.write(file, 0, contents)?;
        self.snapshot_file = Some(file);
        Ok(bytes)
    }

    fn snapshot_ref(&self) -> Option<u64> {
        self.snapshot_file.map(|f| f.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bff_blobseer::{BlobConfig, BlobStore, BlobTopology};
    use bff_net::LocalFabric;
    use bff_pvfs::{Pvfs, PvfsConfig};

    const IMG: u64 = 1 << 20;

    fn calibration() -> Calibration {
        Calibration::default()
    }

    fn image() -> Payload {
        Payload::synth(0x11A6E, 0, IMG)
    }

    fn mirror_backend() -> MirrorBackend {
        let fabric = LocalFabric::new(5);
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(4));
        let cfg = BlobConfig {
            chunk_size: 64 << 10,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric as Arc<dyn Fabric>);
        let client = BlobClient::new(store, NodeId(0));
        let (blob, v) = client.upload(image()).unwrap();
        MirrorBackend::open(client, blob, v, &calibration()).unwrap()
    }

    fn qcow_backend() -> QcowPvfsBackend {
        let fabric: Arc<dyn Fabric> = LocalFabric::new(5);
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let pvfs = Pvfs::new(
            PvfsConfig {
                stripe_size: 64 << 10,
                ..Default::default()
            },
            nodes,
            Arc::clone(&fabric),
        );
        let client = PvfsClient::new(pvfs, NodeId(0));
        let base = client.create(IMG).unwrap();
        client.write(base, 0, image()).unwrap();
        QcowPvfsBackend::create(client, base, NodeId(0), fabric, calibration()).unwrap()
    }

    fn exercise_backend(b: &mut dyn ImageBackend) {
        assert_eq!(b.len(), IMG);
        // Cold read returns base content.
        let got = b.read(1000..5000).unwrap();
        assert!(got.content_eq(&image().slice(1000, 5000)));
        // Read-your-writes.
        b.write(2000, Payload::from(vec![7u8; 100])).unwrap();
        let got = b.read(1990..2110).unwrap();
        let expect = image()
            .slice(1990, 2110)
            .overwrite(10, Payload::from(vec![7u8; 100]));
        assert!(got.content_eq(&expect));
    }

    #[test]
    fn mirror_backend_semantics() {
        let mut b = mirror_backend();
        exercise_backend(&mut b);
        let bytes = b.snapshot().unwrap();
        assert!(bytes >= 100, "committed at least the dirty chunk: {bytes}");
        assert!(b.snapshot_ref().is_some());
    }

    #[test]
    fn raw_local_backend_semantics() {
        let fabric: Arc<dyn Fabric> = LocalFabric::new(1);
        let mut b = RawLocalBackend::new(NodeId(0), fabric, image(), calibration());
        exercise_backend(&mut b);
        assert!(matches!(b.snapshot(), Err(BackendError::Unsupported(_))));
    }

    #[test]
    fn qcow_backend_semantics() {
        let mut b = qcow_backend();
        exercise_backend(&mut b);
        // Snapshot pushes the qcow2 file (metadata + one cluster at least).
        let bytes = b.snapshot().unwrap();
        assert!(bytes >= 64 << 10, "snapshot moved {bytes} bytes");
        assert!(b.snapshot_ref().is_some());
    }

    #[test]
    fn qcow_snapshot_roundtrips_through_pvfs() {
        let mut b = qcow_backend();
        b.write(10_000, Payload::from(vec![9u8; 500])).unwrap();
        b.snapshot().unwrap();
        let snap = FileId(b.snapshot_ref().unwrap());
        // Resume on a different node from the PVFS copy.
        let pvfs = b.pvfs.clone();
        let fabric = Arc::clone(&b.fabric);
        let mut resumed = QcowPvfsBackend::resume_from_snapshot(
            pvfs,
            FileId(1),
            snap,
            NodeId(2),
            fabric,
            calibration(),
        )
        .unwrap();
        let got = resumed.read(9_900..10_600).unwrap();
        let expect = image()
            .slice(9_900, 10_600)
            .overwrite(100, Payload::from(vec![9u8; 500]));
        assert!(got.content_eq(&expect));
    }

    #[test]
    fn mirror_and_qcow_agree_on_content() {
        // Cross-baseline equivalence: the same write sequence produces
        // byte-identical images through both stacks.
        let mut m = mirror_backend();
        let mut q = qcow_backend();
        let writes = [
            (100u64, 50usize),
            (70_000, 200),
            (65_530, 20),
            (IMG - 300, 300),
        ];
        for (i, (off, len)) in writes.into_iter().enumerate() {
            let data = Payload::synth(i as u64 + 50, 0, len as u64);
            m.write(off, data.clone()).unwrap();
            q.write(off, data).unwrap();
        }
        let a = m.read(0..IMG).unwrap();
        let b = q.read(0..IMG).unwrap();
        assert!(a.content_eq(&b));
    }
}
