//! The append-only payload log: variable-length byte values behind the
//! hash index.
//!
//! The paper's model stores one-word items, so the tables above this
//! crate map `u64 → u64`. Real data does not fit in a word; the standard
//! production shape (simd-r-drive's DataStore, the buffer-tree
//! dictionaries of Conway et al.) keeps the hash table as an **index**
//! and the payloads in an append-only data log. [`BlobLog`] is that log:
//!
//! * every record is one length-framed, checksummed
//!   [`crate::frame`] frame, so a torn tail can never be mistaken for
//!   data;
//! * [`BlobLog::append`] returns `(offset, len)`; the caller stores
//!   `BLOB_TAG | offset` as the index word (see [`crate::BLOB_TAG`]);
//! * [`BlobLog::get`] is **zero-copy**: a borrowed `&[u8]` view over the
//!   log's in-memory region, one O(1) bounds check, no per-read
//!   checksum or copy (integrity is established once, at open, when the
//!   committed prefix is verified frame by frame). On platforms with
//!   `mmap` the region could be a file mapping; this workspace forbids
//!   `unsafe`, so the region is a cached read of the committed prefix
//!   plus the appends made through this handle — the same zero-copy
//!   read path, populated by `read(2)` instead of a page fault;
//! * durability is the caller's ordering obligation: appends are
//!   volatile until [`BlobLog::sync`], and the `dxh-dura` rule
//!   `blob-sync-before-index-commit` demands the sync precede any index
//!   commit that references the new offsets.
//!
//! The storage seam is [`BlobFile`]: a real file ([`FileBlob`]) or a
//! byte file of the crash simulator (`SimBlob` in `sim_disk`), so every
//! torture sweep covers torn appends with the same code path. The same
//! handle serves every other durable byte file of the stack — manifest,
//! commit log, markers — whose protocols `dxh-core` writes once above
//! it.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::error::{ExtMemError, Result};
use crate::frame::{self, FRAME_HEADER};
use crate::item::MAX_BLOB_OFFSET;

/// An open byte file: append-only writes with explicit sync — what a
/// [`BlobLog`] runs on, and the file handle under every durable-file
/// protocol in `dxh-core`. Implementations: [`FileBlob`] (a real file)
/// and the simulator's `SimBlob` (volatile until sync, torn-tail lottery
/// at a power cycle). The handle follows the file, not its name: a
/// rename or unlink does not redirect it.
pub trait BlobFile {
    /// Appends `bytes` at the end of the file (volatile until
    /// [`BlobFile::sync`]).
    fn append(&mut self, bytes: &[u8]) -> Result<()>;
    /// `fdatasync`: makes every prior append durable.
    fn sync(&mut self) -> Result<()>;
    /// Current file length in bytes (appends included).
    fn len(&self) -> u64;
    /// Whether the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Reads the whole file (the open-time region load).
    fn read_all(&mut self) -> Result<Vec<u8>>;
    /// Truncates to `len` bytes — recovery's crash-tail discard.
    fn truncate(&mut self, len: u64) -> Result<()>;
}

/// A [`BlobFile`] over a real file: buffered appends, `sync_data`
/// durability — the blob twin of `FileDisk`.
pub struct FileBlob {
    file: File,
    len: u64,
    /// Where the descriptor's cursor is known to sit (`None` after a
    /// failed write) — lets an append skip the seek when it is already
    /// at the end.
    cursor: Option<u64>,
}

impl FileBlob {
    /// Creates (truncating) the blob file at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(FileBlob { file, len: 0, cursor: Some(0) })
    }

    /// Opens the existing blob file at `path` without truncating.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.seek(SeekFrom::End(0))?;
        Ok(FileBlob { file, len, cursor: Some(len) })
    }
}

impl BlobFile for FileBlob {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        if self.cursor != Some(self.len) {
            self.file.seek(SeekFrom::Start(self.len))?;
        }
        self.cursor = None;
        self.file.write_all(bytes)?;
        self.len += bytes.len() as u64;
        self.cursor = Some(self.len);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        self.cursor = None;
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::with_capacity(self.len as usize);
        self.file.read_to_end(&mut buf)?;
        self.cursor = Some(buf.len() as u64);
        Ok(buf)
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        self.len = len;
        Ok(())
    }
}

/// The append-only, length-framed, checksummed payload log (module
/// docs above). Generic over its [`BlobFile`] so the real store and the
/// crash simulator share the exact recovery path.
pub struct BlobLog<F: BlobFile> {
    file: F,
    /// The in-memory region every [`BlobLog::get`] borrows from: the
    /// verified committed prefix loaded at open, plus every append made
    /// through this handle (a process reads its own writes).
    region: Vec<u8>,
    /// Bytes appended since the last [`BlobLog::sync`].
    unsynced: u64,
}

impl<F: BlobFile> BlobLog<F> {
    /// Wraps a freshly created (empty) [`BlobFile`].
    pub fn create(file: F) -> Result<Self> {
        if !file.is_empty() {
            return Err(ExtMemError::BadConfig(
                "BlobLog::create expects an empty file (use open to recover)".into(),
            ));
        }
        Ok(BlobLog { file, region: Vec::new(), unsynced: 0 })
    }

    /// Opens an existing log, recovering around `committed_len` — the
    /// length the caller's last index commit covers (a manifest field).
    /// The committed prefix is verified frame by frame (length framing
    /// and checksum), so every offset the committed index holds reads
    /// back intact — or the open fails with [`ExtMemError::Corrupt`]
    /// instead of serving bad bytes. Bytes **past** the commit point
    /// are a crash tail: whole checksum-valid frames there are *kept*
    /// (a durable append whose index commit hadn't landed yet — the
    /// index's own blocks can survive a crash ahead of the manifest
    /// and legitimately reference them), and the log is truncated at
    /// the first torn or corrupt frame.
    pub fn open(mut file: F, committed_len: u64) -> Result<Self> {
        if file.len() < committed_len {
            return Err(ExtMemError::Corrupt(format!(
                "blob log holds {} bytes, index commit covers {committed_len}",
                file.len()
            )));
        }
        let mut region = file.read_all()?;
        if (region.len() as u64) < committed_len {
            return Err(ExtMemError::Corrupt(format!(
                "blob log read {} bytes, index commit covers {committed_len}",
                region.len()
            )));
        }
        let committed = committed_len as usize;
        let intact = frame::valid_prefix(&region[..committed]);
        if intact < committed {
            return Err(ExtMemError::Corrupt(format!(
                "blob log's committed prefix has a torn or corrupt record at offset {intact}"
            )));
        }
        let keep = committed + frame::valid_prefix(&region[committed..]);
        if keep < region.len() {
            file.truncate(keep as u64)?;
            region.truncate(keep);
        }
        Ok(BlobLog { file, region, unsynced: 0 })
    }

    /// Appends `payload` as one framed record; returns `(offset, len)` —
    /// the offset to store (tagged) in the index word and the framed
    /// length on disk. Volatile until [`BlobLog::sync`].
    pub fn append(&mut self, payload: &[u8]) -> Result<(u64, u32)> {
        let frame_len = FRAME_HEADER
            .checked_add(payload.len())
            .filter(|&n| n <= u32::MAX as usize)
            .ok_or_else(|| {
                ExtMemError::BadConfig("payload exceeds the 4 GiB frame bound".into())
            })?;
        let offset = self.region.len() as u64;
        if offset + frame_len as u64 > MAX_BLOB_OFFSET {
            // Offsets must stay below the index word's tag bit headroom.
            return Err(ExtMemError::BadConfig("blob log exceeds the offset bound".into()));
        }
        let mut frame = Vec::new();
        frame::push_frame(&mut frame, payload);
        self.file.append(&frame)?;
        self.region.extend_from_slice(&frame);
        self.unsynced += frame_len as u64;
        Ok((offset, frame_len as u32))
    }

    /// The zero-copy read path: a borrowed view of the payload at
    /// `offset`, straight out of the mapped region — one bounds check,
    /// no copy, no per-read checksum (the committed prefix was verified
    /// at open; appends made through this handle are the process's own
    /// bytes). Errors on an offset that does not frame a record.
    pub fn get(&self, offset: u64) -> Result<&[u8]> {
        let payload =
            usize::try_from(offset).ok().and_then(|at| frame::payload_at(&self.region, at));
        payload.ok_or_else(|| {
            ExtMemError::Corrupt(format!("blob offset {offset} frames no record inside the log"))
        })
    }

    /// The copying read path: re-verifies the record's checksum and
    /// returns an owned copy — what a caller crossing a thread or
    /// trust boundary uses, and the `exp_blob` bench's comparison arm.
    pub fn get_verified(&self, offset: u64) -> Result<Vec<u8>> {
        self.get(offset)?;
        match frame::Frames::new(&self.region[offset as usize..]).next() {
            Some((_, payload)) => Ok(payload.to_vec()),
            None => Err(ExtMemError::Corrupt(format!(
                "blob record at offset {offset} fails its checksum"
            ))),
        }
    }

    /// `fdatasync`: every append so far becomes durable. The caller's
    /// index commit may reference the new offsets only after this
    /// returns (`blob-sync-before-index-commit`).
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Total log length in bytes (what an index commit after a
    /// [`BlobLog::sync`] records as the committed length).
    pub fn len(&self) -> u64 {
        self.region.len() as u64
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }

    /// Bytes appended since the last [`BlobLog::sync`].
    pub fn unsynced_bytes(&self) -> u64 {
        self.unsynced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dxh-blob-{tag}-{}", std::process::id()))
    }

    /// An in-memory BlobFile for unit tests (the crash-faithful twin is
    /// SimBlob in sim_disk).
    #[derive(Default)]
    struct MemBlob {
        bytes: Vec<u8>,
    }

    impl BlobFile for MemBlob {
        fn append(&mut self, bytes: &[u8]) -> Result<()> {
            self.bytes.extend_from_slice(bytes);
            Ok(())
        }
        fn sync(&mut self) -> Result<()> {
            Ok(())
        }
        fn len(&self) -> u64 {
            self.bytes.len() as u64
        }
        fn read_all(&mut self) -> Result<Vec<u8>> {
            Ok(self.bytes.clone())
        }
        fn truncate(&mut self, len: u64) -> Result<()> {
            self.bytes.truncate(len as usize);
            Ok(())
        }
    }

    #[test]
    fn append_get_round_trip_zero_copy_and_verified() {
        let mut log = BlobLog::create(MemBlob::default()).unwrap();
        let (o1, l1) = log.append(b"hello").unwrap();
        let (o2, _) = log.append(b"").unwrap();
        let (o3, _) = log.append(&[0xFF; 8]).unwrap();
        assert_eq!(o1, 0);
        assert_eq!(l1 as usize, FRAME_HEADER + 5);
        assert_eq!(o2, l1 as u64);
        assert_eq!(log.get(o1).unwrap(), b"hello");
        assert_eq!(log.get(o2).unwrap(), b"");
        assert_eq!(log.get(o3).unwrap(), &[0xFF; 8], "u64::MAX-image payload is storable");
        assert_eq!(log.get_verified(o1).unwrap(), b"hello".to_vec());
    }

    #[test]
    fn get_rejects_non_frame_offsets() {
        let mut log = BlobLog::create(MemBlob::default()).unwrap();
        let (o, _) = log.append(b"abcdefgh").unwrap();
        assert!(log.get(o + 1).is_ok() || log.get(o + 1).is_err()); // never panics
        assert!(log.get(10_000).is_err(), "past the end");
        assert!(log.get_verified(o + 3).is_err(), "misaligned offset fails the checksum");
    }

    /// A whole valid frame past the commit point survives recovery: the
    /// index's own blocks can durably outrun the manifest, so the
    /// offsets they hold must stay servable. A torn frame *after* it is
    /// still cut.
    #[test]
    fn open_keeps_valid_frames_past_the_commitment() {
        let (mut file, committed, tail_off) = {
            let mut log = BlobLog::create(MemBlob::default()).unwrap();
            let _ = log.append(b"committed").unwrap();
            let committed = log.len();
            let (tail_off, _) = log.append(b"durable but uncommitted").unwrap();
            (MemBlob { bytes: log.region.clone() }, committed, tail_off)
        };
        file.append(&[44, 0, 0, 0, 7]).unwrap(); // torn half-append after it
        let log = BlobLog::open(file, committed).unwrap();
        assert_eq!(log.get(tail_off).unwrap(), b"durable but uncommitted");
        assert_eq!(
            log.len(),
            tail_off + (FRAME_HEADER + b"durable but uncommitted".len()) as u64,
            "the torn half-append is cut, the valid frame kept"
        );
    }

    #[test]
    fn open_rejects_corruption_inside_the_committed_prefix() {
        let mut good = BlobLog::create(MemBlob::default()).unwrap();
        let _ = good.append(b"payload").unwrap();
        let mut bytes = good.region.clone();
        let committed = bytes.len() as u64;
        *bytes.last_mut().unwrap() ^= 0xFF; // flip a payload byte
        let r = BlobLog::open(MemBlob { bytes }, committed);
        assert!(matches!(r, Err(ExtMemError::Corrupt(_))), "checksum rejects the record");
        // And a log shorter than the commitment is corruption, not recovery.
        let r = BlobLog::open(MemBlob::default(), committed);
        assert!(matches!(r, Err(ExtMemError::Corrupt(_))));
    }

    #[test]
    fn unsynced_accounting_tracks_appends_and_sync() {
        let mut log = BlobLog::create(MemBlob::default()).unwrap();
        assert_eq!(log.unsynced_bytes(), 0);
        let (_, l) = log.append(b"x").unwrap();
        assert_eq!(log.unsynced_bytes(), l as u64);
        log.sync().unwrap();
        assert_eq!(log.unsynced_bytes(), 0);
        assert_eq!(log.len(), l as u64);
    }

    #[test]
    fn file_blob_round_trips_across_reopen() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let committed;
        {
            let mut log = BlobLog::create(FileBlob::create(&path).unwrap()).unwrap();
            let (o, _) = log.append(b"durable bytes").unwrap();
            assert_eq!(o, 0);
            log.sync().unwrap();
            committed = log.len();
        }
        let log = BlobLog::open(FileBlob::open(&path).unwrap(), committed).unwrap();
        assert_eq!(log.get(0).unwrap(), b"durable bytes");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_blob_open_discards_a_torn_tail_past_the_commitment() {
        let path = tmp("tail");
        let _ = std::fs::remove_file(&path);
        let committed;
        {
            let mut log = BlobLog::create(FileBlob::create(&path).unwrap()).unwrap();
            let _ = log.append(b"kept").unwrap();
            log.sync().unwrap();
            committed = log.len();
            // A torn append: header promising more bytes than exist.
            log.file.append(&[99, 0, 0, 0, 1, 2, 3]).unwrap();
        }
        let log = BlobLog::open(FileBlob::open(&path).unwrap(), committed).unwrap();
        assert_eq!(log.len(), committed);
        assert!(log.get(committed).is_err(), "the discarded tail is unreachable");
        let _ = std::fs::remove_file(&path);
    }

    proptest::proptest! {
        /// Any file image at any claimed commit length opens to an
        /// error or to a log no longer than the image — never a panic.
        #[test]
        fn open_is_total(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..120),
            committed in 0u64..140,
        ) {
            if let Ok(log) = BlobLog::open(MemBlob { bytes: bytes.clone() }, committed) {
                proptest::prop_assert!(committed <= log.len() && log.len() <= bytes.len() as u64);
            }
        }
    }
}
