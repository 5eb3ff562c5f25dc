//! A POSIX-like façade over mirrored images, mimicking the paper's FUSE
//! module interface (§4.2): each BLOB appears as a directory and its
//! snapshots as raw image files inside it; `CLONE` and `COMMIT` are
//! exposed as ioctl-style controls on open file handles.
//!
//! This layer is what a hypervisor (or the cloud middleware's control
//! agent) talks to; everything below it — chunk maps, lazy fetches,
//! shadowed commits — is [`crate::mirror::MirroredImage`].

use crate::localstore::{LocalStore, MemStore};
use crate::mirror::{MirrorConfig, MirroredImage, SavedMirror};
use bff_blobseer::{BlobError, BlobId, Client, Version};
use bff_data::Payload;
use std::collections::HashMap;
use std::fmt;

/// File-handle identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub u64);

/// Control operations trapped by the FUSE module (§4.2: "we had to
/// implement the CLONE and COMMIT primitives as ioctl system calls").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ioctl {
    /// Rebind the open image to a fresh clone blob.
    Clone,
    /// Publish local modifications as a new snapshot.
    Commit,
}

/// Result of an ioctl.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoctlReply {
    /// CLONE produced this blob.
    Cloned(BlobId),
    /// COMMIT published this version.
    Committed(Version),
}

/// VFS errors.
#[derive(Debug)]
pub enum VfsError {
    /// Unknown file handle.
    BadFd(Fd),
    /// Bad path syntax (expected `/blob<N>/snapshot-<V>`).
    BadPath(String),
    /// Storage-layer failure.
    Blob(BlobError),
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::BadFd(fd) => write!(f, "bad file descriptor {fd:?}"),
            VfsError::BadPath(p) => write!(f, "bad path: {p}"),
            VfsError::Blob(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for VfsError {}

impl From<BlobError> for VfsError {
    fn from(e: BlobError) -> Self {
        VfsError::Blob(e)
    }
}

/// The snapshot-file path for `(blob, version)`.
pub fn snapshot_path(blob: BlobId, version: Version) -> String {
    format!("/blob{}/snapshot-{}", blob.0, version.0)
}

/// Parse a `/blob<N>/snapshot-<V>` path.
pub fn parse_path(path: &str) -> Result<(BlobId, Version), VfsError> {
    let bad = || VfsError::BadPath(path.to_string());
    let rest = path.strip_prefix("/blob").ok_or_else(bad)?;
    let (blob_s, snap) = rest.split_once('/').ok_or_else(bad)?;
    let ver_s = snap.strip_prefix("snapshot-").ok_or_else(bad)?;
    let blob = blob_s.parse::<u64>().map_err(|_| bad())?;
    let ver = ver_s.parse::<u64>().map_err(|_| bad())?;
    Ok((BlobId(blob), Version(ver)))
}

/// A per-node virtual file system instance.
pub struct VirtualFs {
    client: Client,
    cfg: MirrorConfig,
    next_fd: u64,
    open: HashMap<Fd, MirroredImage>,
    /// Saved mirrors by blob id, restored on re-open (§4.2).
    saved: HashMap<BlobId, (SavedMirror, Box<dyn LocalStore>)>,
}

impl VirtualFs {
    /// Mount the VFS for a node's repository client.
    pub fn new(client: Client, cfg: MirrorConfig) -> Self {
        Self {
            client,
            cfg,
            next_fd: 3,
            open: HashMap::new(),
            saved: HashMap::new(),
        }
    }

    /// Open a snapshot file by path, creating an in-memory mirror store.
    pub fn open(&mut self, path: &str) -> Result<Fd, VfsError> {
        let (blob, version) = parse_path(path)?;
        self.open_blob(blob, version)
    }

    /// Open `(blob, version)` directly. If this blob was closed earlier on
    /// this node, its local mirror state is restored.
    pub fn open_blob(&mut self, blob: BlobId, version: Version) -> Result<Fd, VfsError> {
        let img = match self.saved.remove(&blob) {
            Some((meta, store)) if meta.base == version => {
                MirroredImage::reopen(self.client.clone(), store, self.cfg, &meta)?
            }
            other => {
                // Stale or absent local state: start a fresh sparse mirror.
                drop(other);
                let size = self.client.snapshot_size(blob, version)?;
                MirroredImage::open(
                    self.client.clone(),
                    blob,
                    version,
                    Box::new(MemStore::new(size)),
                    self.cfg,
                )?
            }
        };
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.open.insert(fd, img);
        Ok(fd)
    }

    fn image(&mut self, fd: Fd) -> Result<&mut MirroredImage, VfsError> {
        self.open.get_mut(&fd).ok_or(VfsError::BadFd(fd))
    }

    /// `pread(2)` equivalent.
    pub fn read(&mut self, fd: Fd, offset: u64, len: u64) -> Result<Payload, VfsError> {
        Ok(self.image(fd)?.read(offset..offset + len)?)
    }

    /// `pwrite(2)` equivalent.
    pub fn write(&mut self, fd: Fd, offset: u64, data: Payload) -> Result<(), VfsError> {
        Ok(self.image(fd)?.write(offset, data)?)
    }

    /// File size (`fstat` equivalent).
    pub fn size(&mut self, fd: Fd) -> Result<u64, VfsError> {
        Ok(self.image(fd)?.len())
    }

    /// Trapped control call.
    pub fn ioctl(&mut self, fd: Fd, op: Ioctl) -> Result<IoctlReply, VfsError> {
        let img = self.image(fd)?;
        match op {
            Ioctl::Clone => Ok(IoctlReply::Cloned(img.clone_image()?)),
            Ioctl::Commit => Ok(IoctlReply::Committed(img.commit()?)),
        }
    }

    /// Close a handle, persisting the mirror metadata for later re-open.
    pub fn close(&mut self, fd: Fd) -> Result<(), VfsError> {
        let img = self.open.remove(&fd).ok_or(VfsError::BadFd(fd))?;
        let blob = img.blob();
        let (meta, store) = img.close();
        self.saved.insert(blob, (meta, store));
        Ok(())
    }

    /// Number of open handles.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bff_blobseer::{BlobConfig, BlobStore, BlobTopology};
    use bff_net::{Fabric, LocalFabric, NodeId};
    use std::sync::Arc;

    fn vfs_with_image() -> (VirtualFs, BlobId, Payload) {
        let fabric = LocalFabric::new(3);
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let topo = BlobTopology::colocated(&nodes, NodeId(2));
        let cfg = BlobConfig {
            chunk_size: 64,
            ..Default::default()
        };
        let store = BlobStore::new(cfg, topo, fabric as Arc<dyn Fabric>);
        let client = Client::new(store, NodeId(0));
        let image = Payload::synth(3, 0, 512);
        let (blob, _) = client.upload(image.clone()).unwrap();
        (VirtualFs::new(client, MirrorConfig::default()), blob, image)
    }

    #[test]
    fn path_roundtrip() {
        let p = snapshot_path(BlobId(7), Version(3));
        assert_eq!(p, "/blob7/snapshot-3");
        assert_eq!(parse_path(&p).unwrap(), (BlobId(7), Version(3)));
        assert!(parse_path("/weird").is_err());
        assert!(parse_path("/blob7/other-3").is_err());
        assert!(parse_path("/blobX/snapshot-3").is_err());
    }

    #[test]
    fn open_read_write_close() {
        let (mut vfs, blob, image) = vfs_with_image();
        let fd = vfs.open(&snapshot_path(blob, Version(1))).unwrap();
        assert_eq!(vfs.size(fd).unwrap(), 512);
        let got = vfs.read(fd, 0, 100).unwrap();
        assert!(got.content_eq(&image.slice(0, 100)));
        vfs.write(fd, 10, Payload::from(vec![1u8; 5])).unwrap();
        let got = vfs.read(fd, 10, 5).unwrap();
        assert!(got.content_eq(&Payload::from(vec![1u8; 5])));
        vfs.close(fd).unwrap();
        assert_eq!(vfs.open_count(), 0);
        assert!(vfs.read(fd, 0, 1).is_err(), "closed fd rejected");
    }

    #[test]
    fn ioctl_clone_commit_cycle() {
        let (mut vfs, blob, _image) = vfs_with_image();
        let fd = vfs.open_blob(blob, Version(1)).unwrap();
        vfs.write(fd, 0, Payload::from(vec![9u8; 8])).unwrap();
        let IoctlReply::Cloned(new_blob) = vfs.ioctl(fd, Ioctl::Clone).unwrap() else {
            panic!("expected clone reply")
        };
        assert_ne!(new_blob, blob);
        let IoctlReply::Committed(v) = vfs.ioctl(fd, Ioctl::Commit).unwrap() else {
            panic!("expected commit reply")
        };
        assert_eq!(v, Version(2));
    }

    #[test]
    fn close_and_reopen_restores_local_state() {
        let (mut vfs, blob, _image) = vfs_with_image();
        let fd = vfs.open_blob(blob, Version(1)).unwrap();
        vfs.write(fd, 100, Payload::from(vec![4u8; 10])).unwrap();
        vfs.close(fd).unwrap();
        let fd2 = vfs.open_blob(blob, Version(1)).unwrap();
        let got = vfs.read(fd2, 100, 10).unwrap();
        assert!(got.content_eq(&Payload::from(vec![4u8; 10])));
        // Dirty state survived too: commit publishes it.
        let IoctlReply::Committed(v) = vfs.ioctl(fd2, Ioctl::Commit).unwrap() else {
            panic!()
        };
        assert_eq!(v, Version(2));
    }

    #[test]
    fn multiple_open_images() {
        let (mut vfs, blob, image) = vfs_with_image();
        let fd1 = vfs.open_blob(blob, Version(1)).unwrap();
        let fd2 = vfs.open_blob(blob, Version(1)).unwrap();
        vfs.write(fd1, 0, Payload::from(vec![1u8; 4])).unwrap();
        // fd2's mirror is independent.
        let got = vfs.read(fd2, 0, 4).unwrap();
        assert!(got.content_eq(&image.slice(0, 4)));
        assert_eq!(vfs.open_count(), 2);
    }
}
