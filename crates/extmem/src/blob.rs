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
//! * **payloads live on disk.** The handle keeps the log's length and
//!   one reusable record buffer ([`crate::frame::FrameBuf`]) — memory of
//!   one record, whatever the log holds, which is what keeps payload
//!   mode inside the paper's `m`. [`BlobLog::get`] fetches the record at
//!   an offset by position (one read for a record no longer than the
//!   last one read, two otherwise), bounds its announced length by the
//!   log, verifies its checksum and lends the payload out of the
//!   buffer: an offset that is not a record boundary, or a record that
//!   rotted since open, is [`ExtMemError::Corrupt`], never bytes. The
//!   fetch is a real I/O, counted by [`BlobLog::reads`] — a payload
//!   lookup costs the index's `tq` plus one;
//! * durability is the caller's ordering obligation: appends are
//!   volatile until [`BlobLog::sync`], and the `dxh-dura` rule
//!   `blob-sync-before-index-commit` demands the sync precede any index
//!   commit that references the new offsets.
//!
//! The storage seam is [`BlobFile`]: a real file ([`FileBlob`]), a
//! file of the crash simulator ([`crate::SimBlob`]) or a byte vector
//! ([`MemBlob`]), so every torture sweep covers torn appends with the
//! same code path. The same seam is the only file seam of the stack: it
//! serves every other durable file — manifest, commit log, markers,
//! whose protocols `dxh-core` writes once above it — and, through
//! [`crate::BlockFile`], the level files too.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::error::{ExtMemError, Result};
use crate::frame::{FrameBuf, FRAME_HEADER};
use crate::item::MAX_BLOB_OFFSET;

/// An open byte file: writes and reads by position, a length, and an
/// explicit sync — what a [`BlobLog`] and a [`crate::BlockFile`] run on,
/// and the file handle under every durable-file protocol in `dxh-core`.
/// Implementations: [`FileBlob`] (a real file), the simulator's
/// [`crate::SimBlob`] (volatile until sync, write-survival lottery at a
/// power cycle) and [`MemBlob`] (a byte vector). The handle follows the
/// file, not its name: a rename or unlink does not redirect it.
pub trait BlobFile {
    /// Writes `bytes` at `offset`, growing the file when they run past
    /// its end; a gap before `offset` reads as zeros. Volatile until
    /// [`BlobFile::sync`].
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> Result<()>;
    /// Fills `buf` with the bytes at `offset..offset + buf.len()` — the
    /// handle's own unsynced writes included (a process reads its own
    /// writes). Errors when the range runs past the end of the file.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;
    /// Cuts the file to `len` bytes or extends it with zeros —
    /// recovery's crash-tail discard, and a block file's growth.
    fn set_len(&mut self, len: u64) -> Result<()>;
    /// `fdatasync`: makes every prior write durable.
    fn sync(&mut self) -> Result<()>;
    /// Current file length in bytes (unsynced writes included).
    fn len(&self) -> u64;
    /// Whether the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Writes `bytes` at the end of the file.
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.write_at(self.len(), bytes)
    }
}

/// A [`BlobFile`] over a real file: each write is one `pwrite(2)`, each
/// read one `pread(2)`, durability is `sync_data`.
pub struct FileBlob {
    file: File,
    len: u64,
}

impl FileBlob {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(FileBlob { file, len: 0 })
    }

    /// Opens the existing file at `path` without truncating.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(FileBlob { file, len })
    }
}

impl BlobFile for FileBlob {
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> Result<()> {
        self.file.write_all_at(bytes, offset)?;
        self.len = self.len.max(offset + bytes.len() as u64);
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        Ok(self.file.read_exact_at(buf, offset)?)
    }

    fn set_len(&mut self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        self.len = len;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// The append-only, length-framed, checksummed payload log (module
/// docs above). Generic over its [`BlobFile`] so the real store and the
/// crash simulator share the exact recovery path.
pub struct BlobLog<F: BlobFile> {
    file: F,
    /// The log's length: the end of its last whole record.
    len: u64,
    /// The one record buffer every read and append goes through.
    buf: FrameBuf,
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
        Ok(BlobLog { file, len: 0, buf: FrameBuf::default(), unsynced: 0 })
    }

    /// Opens an existing log, recovering around `committed_len` — the
    /// length the caller's last index commit covers (a manifest field).
    /// The committed prefix is verified frame by frame (length framing
    /// and checksum), one record in memory at a time, so every offset
    /// the committed index holds reads back intact — or the open fails
    /// with [`ExtMemError::Corrupt`] instead of serving bad bytes. Bytes
    /// **past** the commit point are a crash tail: whole checksum-valid
    /// frames there are *kept* (a durable append whose index commit
    /// hadn't landed yet — the index's own blocks can survive a crash
    /// ahead of the manifest and legitimately reference them), and the
    /// log is truncated at the first torn or corrupt frame.
    pub fn open(file: F, committed_len: u64) -> Result<Self> {
        let file_len = file.len();
        if file_len < committed_len {
            return Err(ExtMemError::Corrupt(format!(
                "blob log holds {file_len} bytes, index commit covers {committed_len}"
            )));
        }
        let mut log = BlobLog { file, len: 0, buf: FrameBuf::default(), unsynced: 0 };
        while log.len < file_len {
            // Committed frames tile the commitment exactly; the tail's
            // may run to the end of the file.
            let committed = log.len < committed_len;
            let end = if committed { committed_len } else { file_len };
            match log.buf.read_at(&log.file, end, log.len)? {
                Some(payload) => log.len += (FRAME_HEADER + payload.len()) as u64,
                None if committed => {
                    return Err(ExtMemError::Corrupt(format!(
                        "blob log's committed prefix has a torn or corrupt record at offset {}",
                        log.len
                    )))
                }
                None => break,
            }
        }
        if log.len < file_len {
            log.file.set_len(log.len)?;
        }
        Ok(log)
    }

    /// Appends `payload` as one framed record — framed in the record
    /// buffer, written once; returns `(offset, len)`: the offset to
    /// store (tagged) in the index word and the framed length on disk.
    /// Volatile until [`BlobLog::sync`], readable through this handle at
    /// once.
    pub fn append(&mut self, payload: &[u8]) -> Result<(u64, u32)> {
        let frame_len = self.frame_len(payload)?;
        let offset = self.len;
        self.file.append(self.buf.frame(payload))?;
        self.len += u64::from(frame_len);
        self.unsynced += u64::from(frame_len);
        Ok((offset, frame_len))
    }

    /// The framed length [`BlobLog::append`] would write for `payload`,
    /// or the `BadConfig` it refuses `payload` with: the frame bound, or
    /// the offset bound at the log's current length. Writes nothing.
    pub fn frame_len(&self, payload: &[u8]) -> Result<u32> {
        let frame_len = FRAME_HEADER
            .checked_add(payload.len())
            .filter(|&n| n <= u32::MAX as usize)
            .ok_or_else(|| {
                ExtMemError::BadConfig("payload exceeds the 4 GiB frame bound".into())
            })?;
        if self.len + frame_len as u64 > MAX_BLOB_OFFSET {
            // Offsets must stay below the index word's tag bit headroom.
            return Err(ExtMemError::BadConfig("blob log exceeds the offset bound".into()));
        }
        Ok(frame_len as u32)
    }

    /// The read path: fetches the record at `offset` into the record
    /// buffer, verifies its checksum and lends its payload out until the
    /// next call. `offset` is an index word's — input as far as this log
    /// is concerned: one that frames no whole, checksum-valid record
    /// inside the log is [`ExtMemError::Corrupt`].
    pub fn get(&mut self, offset: u64) -> Result<&[u8]> {
        self.buf.read_at(&self.file, self.len, offset)?.ok_or_else(|| {
            ExtMemError::Corrupt(format!(
                "blob offset {offset} frames no checksum-valid record inside the log"
            ))
        })
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
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes appended since the last [`BlobLog::sync`].
    #[cfg(test)]
    fn unsynced_bytes(&self) -> u64 {
        self.unsynced
    }

    /// Positional reads this handle has issued, the open-time
    /// verification walk included, and the bytes they asked for:
    /// `(count, bytes)`. The block I/O counters of the index above do
    /// not see these.
    pub fn reads(&self) -> (u64, u64) {
        self.buf.reads()
    }
}

/// An in-memory [`BlobFile`]: a growable byte vector — the file under
/// [`crate::MemDisk`]. It never faults and its sync is a no-op; the
/// crash-faithful twin is [`crate::SimBlob`].
#[derive(Default)]
pub struct MemBlob {
    pub(crate) bytes: Vec<u8>,
}

impl BlobFile for MemBlob {
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> Result<()> {
        crate::sim_disk::put(&mut self.bytes, offset, bytes);
        Ok(())
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        crate::sim_disk::get(&self.bytes, offset, buf)
    }
    fn set_len(&mut self, len: u64) -> Result<()> {
        self.bytes.resize(len as usize, 0);
        Ok(())
    }
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::push_frame;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dxh-blob-{tag}-{}", std::process::id()))
    }

    #[test]
    fn append_get_round_trip() {
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
        assert_eq!(log.get(o1).unwrap(), b"hello", "the one buffer serves any order");
    }

    /// An offset that is not a record boundary is corruption, not
    /// whatever bytes happen to frame there.
    #[test]
    fn get_rejects_non_frame_offsets() {
        let mut log = BlobLog::create(MemBlob::default()).unwrap();
        // A payload that itself holds a well-formed frame header: only
        // the checksum tells `o + FRAME_HEADER` from a record boundary.
        let mut inner = Vec::new();
        inner.extend_from_slice(&3u32.to_le_bytes());
        inner.extend_from_slice(&[0; 8]);
        inner.extend_from_slice(b"xyzw");
        let (o, _) = log.append(&inner).unwrap();
        for bad in [o + 1, o + 3, o + FRAME_HEADER as u64, log.len(), 10_000, u64::MAX] {
            assert!(matches!(log.get(bad), Err(ExtMemError::Corrupt(_))), "offset {bad}");
        }
        assert_eq!(log.get(o).unwrap(), &inner[..]);
    }

    /// A record that rots after open is caught by the read that meets
    /// it; its neighbours keep reading.
    #[test]
    fn get_verifies_the_checksum_on_every_read() {
        let mut log = BlobLog::create(MemBlob::default()).unwrap();
        let (a, _) = log.append(b"first").unwrap();
        let (b, _) = log.append(b"second").unwrap();
        assert_eq!(log.get(b).unwrap(), b"second");
        *log.file.bytes.last_mut().unwrap() ^= 0x10;
        assert!(matches!(log.get(b), Err(ExtMemError::Corrupt(_))));
        assert_eq!(log.get(a).unwrap(), b"first");
    }

    /// Reads are counted — open's verification walk, then one per `get`
    /// of a record no longer than the last.
    #[test]
    fn reads_count_positional_reads_and_their_bytes() {
        let mut log = BlobLog::create(MemBlob::default()).unwrap();
        let offsets: Vec<u64> = (0..4u8).map(|i| log.append(&[i; 100]).unwrap().0).collect();
        assert_eq!(log.reads(), (0, 0), "appends read nothing");
        let frame = (FRAME_HEADER + 100) as u64;
        for (i, &o) in offsets.iter().enumerate() {
            assert_eq!(log.get(o).unwrap(), &[i as u8; 100]);
            assert_eq!(log.reads(), (i as u64 + 1, frame * (i as u64 + 1)), "get {i}");
        }
        let (file, committed) = (MemBlob { bytes: log.file.bytes.clone() }, log.len());
        let reopened = BlobLog::open(file, committed).unwrap();
        assert_eq!(reopened.reads(), (5, 4 * frame), "cold header read, then one per frame");
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
            (log.file, committed, tail_off)
        };
        file.append(&[44, 0, 0, 0, 7]).unwrap(); // torn half-append after it
        let mut log = BlobLog::open(file, committed).unwrap();
        assert_eq!(log.get(tail_off).unwrap(), b"durable but uncommitted");
        assert_eq!(
            log.len(),
            tail_off + (FRAME_HEADER + b"durable but uncommitted".len()) as u64,
            "the torn half-append is cut, the valid frame kept"
        );
        assert_eq!(log.file.len(), log.len(), "cut in the file, not only in the handle");
    }

    #[test]
    fn open_rejects_corruption_inside_the_committed_prefix() {
        let mut good = BlobLog::create(MemBlob::default()).unwrap();
        let _ = good.append(b"payload").unwrap();
        let mut bytes = good.file.bytes.clone();
        let committed = bytes.len() as u64;
        *bytes.last_mut().unwrap() ^= 0xFF; // flip a payload byte
        let r = BlobLog::open(MemBlob { bytes }, committed);
        assert!(matches!(r, Err(ExtMemError::Corrupt(_))), "checksum rejects the record");
        // And a log shorter than the commitment is corruption, not recovery.
        let r = BlobLog::open(MemBlob::default(), committed);
        assert!(matches!(r, Err(ExtMemError::Corrupt(_))));
        // So is a commitment that ends inside a record: committed frames
        // tile it exactly.
        let _ = good.append(b"next").unwrap();
        let r = BlobLog::open(MemBlob { bytes: good.file.bytes.clone() }, committed + 5);
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
            assert_eq!(log.get(o).unwrap(), b"durable bytes", "readable before its sync");
            let (o2, _) = log.append(b"after a read").unwrap();
            assert_eq!(log.get(o2).unwrap(), b"after a read", "a read does not move the append");
            log.sync().unwrap();
            committed = log.len();
        }
        let mut log = BlobLog::open(FileBlob::open(&path).unwrap(), committed).unwrap();
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
        let mut log = BlobLog::open(FileBlob::open(&path).unwrap(), committed).unwrap();
        assert_eq!(log.len(), committed);
        assert!(log.get(committed).is_err(), "the discarded tail is unreachable");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        let _ = std::fs::remove_file(&path);
    }

    /// The byte seam's contract past the end of a file, one answer on
    /// every impl: a growing `set_len` zero-fills, a write past the end
    /// leaves a zero hole behind it, a shrinking one cuts, and what was
    /// cut reads back as zeros once the file grows again.
    #[test]
    fn every_byte_file_grows_writes_and_shrinks_alike() {
        fn drive(f: &mut impl BlobFile) -> (u64, Vec<u8>) {
            f.append(b"head").unwrap();
            f.set_len(12).unwrap();
            f.write_at(8, b"mid").unwrap();
            f.write_at(20, b"tail").unwrap();
            f.set_len(21).unwrap();
            f.set_len(22).unwrap();
            assert!(f.read_at(20, &mut [0; 3]).is_err(), "a read past the end");
            let mut image = vec![0; f.len() as usize];
            f.read_at(0, &mut image).unwrap();
            (f.len(), image)
        }
        let path = tmp("seam");
        let file = drive(&mut FileBlob::create(&path).unwrap());
        let _ = std::fs::remove_file(&path);
        let sim = drive(&mut crate::SimEnv::new().create_file("seam").unwrap());
        let mem = drive(&mut MemBlob::default());
        let expect = [&b"head"[..], &[0; 4], b"mid", &[0; 9], b"t", &[0]].concat();
        assert_eq!(file, (22, expect), "FileBlob");
        assert_eq!(sim, file, "SimBlob");
        assert_eq!(mem, file, "MemBlob");
    }

    #[test]
    fn file_blob_read_past_the_end_is_an_error() {
        let path = tmp("eof");
        let mut file = FileBlob::create(&path).unwrap();
        file.append(b"abcdef").unwrap();
        let mut buf = [0u8; 4];
        file.read_at(2, &mut buf).unwrap();
        assert_eq!(&buf, b"cdef");
        assert!(file.read_at(3, &mut buf).is_err());
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

        /// `get` is total: over arbitrary file bytes — with real frames
        /// planted among them so both outcomes occur — at arbitrary
        /// offsets it errors or lends out a payload whose frame, header
        /// and checksum included, sits at that offset. Never a panic.
        #[test]
        fn get_is_total(
            chunks in proptest::collection::vec(
                (proptest::prelude::any::<bool>(),
                 proptest::collection::vec(proptest::prelude::any::<u8>(), 0..40)), 0..6),
            offset in 0u64..300,
            far in proptest::prelude::any::<u64>(),
        ) {
            let mut bytes = Vec::new();
            for (framed, chunk) in &chunks {
                if *framed { push_frame(&mut bytes, chunk) } else { bytes.extend_from_slice(chunk) }
            }
            let len = bytes.len() as u64;
            let file = MemBlob { bytes: bytes.clone() };
            let mut log = BlobLog { file, len, buf: FrameBuf::default(), unsynced: 0 };
            for at in [offset, far] {
                if let Ok(payload) = log.get(at) {
                    let mut frame = Vec::new();
                    push_frame(&mut frame, payload);
                    let at = at as usize;
                    proptest::prop_assert_eq!(&bytes[at..at + frame.len()], &frame[..]);
                }
            }
        }
    }
}
