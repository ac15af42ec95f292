//! The one frame codec under every durable append-only log in the
//! workspace: the service's `COMMITLOG` and the payload
//! [`crate::BlobLog`].
//!
//! A frame is `len: u32 LE | sum: u64 LE | payload`, where `sum` is
//! FNV-1a 64 over the log's [`Salt`] and then the payload (plain
//! `fnv1a64(payload)` for an unsalted log). The checksum makes a torn
//! tail (a crash mid-append) detectable and a record indivisible: a
//! reader takes a frame wholly or not at all. The salt names a log's
//! record layout, so a reader that meets frames of another layout tells
//! them from a torn tail by the salt they do check under.
//! What a payload *means* is each log's own business; how it is framed,
//! checked and walked is defined here and nowhere else — over an image
//! already in memory ([`Frames`]) and over a file, one record at a time
//! ([`FrameBuf`]).

use crate::blob::BlobFile;
use crate::error::Result;

/// Bytes of framing before each payload.
pub const FRAME_HEADER: usize = 12;

/// FNV-1a 64's state before any byte.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 continued from the state `h` over `bytes`.
const fn fnv1a64_from(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    h
}

/// FNV-1a 64 over `bytes`: the unsalted frame checksum, and the content
/// fold of the simulator's trace fingerprints (exported so downstream
/// fingerprints stay comparable to the trace's).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_BASIS, bytes)
}

/// The bytes a log's frame checksums start from: a frame checks under
/// the salt it was written with and, but for a 2⁻⁶⁴ chance, under no
/// other. A log whose record layout changes changes its salt, so a
/// frame of the older layout fails the new check and passes the old one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Salt(u64);

impl Salt {
    /// No salt: the checksum is `fnv1a64(payload)`.
    pub const NONE: Salt = Salt(FNV_BASIS);

    /// The salt `bytes`.
    pub const fn new(bytes: &[u8]) -> Salt {
        Salt(fnv1a64_from(FNV_BASIS, bytes))
    }

    fn sum(self, payload: &[u8]) -> u64 {
        fnv1a64_from(self.0, payload)
    }
}

impl Default for Salt {
    fn default() -> Self {
        Salt::NONE
    }
}

/// Appends `payload` to `out` as one unsalted frame. The caller bounds
/// the payload below 4 GiB (the length field is a `u32`).
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    push_frame_with(out, Salt::NONE, |out| out.extend_from_slice(payload));
}

/// Appends one frame salted with `salt` to `out`, its payload written
/// in place by `write` — no payload buffer of its own. `write` only
/// appends, and keeps the payload below 4 GiB.
pub fn push_frame_with(out: &mut Vec<u8>, salt: Salt, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    write(out);
    let payload = &out[start + FRAME_HEADER..];
    let (len, sum) = (payload.len() as u32, salt.sum(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&sum.to_le_bytes());
}

/// The payload length and checksum a frame header announces.
fn parse_header(header: &[u8]) -> (usize, u64) {
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 header bytes")) as usize;
    let sum = u64::from_le_bytes(header[4..FRAME_HEADER].try_into().expect("8 header bytes"));
    (len, sum)
}

/// The recorded checksum and payload of the frame starting at
/// `bytes[at..]`; `None` when the header or the payload it announces
/// runs past the end.
fn split_at(bytes: &[u8], at: usize) -> Option<(u64, &[u8])> {
    let start = at.checked_add(FRAME_HEADER)?;
    let (len, sum) = parse_header(bytes.get(at..start)?);
    Some((sum, bytes.get(start..start.checked_add(len)?)?))
}

/// Walks a log image frame by frame, yielding `(offset, payload)` and
/// stopping for good at the first short, overrunning or
/// checksum-failing frame. Total: any byte string is a valid input.
pub struct Frames<'a> {
    bytes: &'a [u8],
    at: usize,
    salt: Salt,
}

impl<'a> Frames<'a> {
    /// A scanner over the frames of `bytes` salted with `salt`; `bytes`
    /// must start at a frame boundary.
    pub fn new(bytes: &'a [u8], salt: Salt) -> Self {
        Frames { bytes, at: 0, salt }
    }

    /// Bytes covered by the frames yielded so far — once the scanner is
    /// exhausted, the length of the longest intact prefix.
    #[cfg(test)]
    fn valid_len(&self) -> usize {
        self.at
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = (usize, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let (sum, payload) = split_at(self.bytes, self.at)?;
        if self.salt.sum(payload) != sum {
            return None;
        }
        let offset = self.at;
        self.at += FRAME_HEADER + payload.len();
        Some((offset, payload))
    }
}

/// The one record buffer a log handle reads and writes through: frames
/// of a [`BlobFile`] are fetched by position into it, verified, and lent
/// out — so a log of any length is served, scanned and replayed in
/// memory of **one record**. Reused across calls; it grows to the
/// largest record it has held and never with the log.
#[derive(Default)]
pub struct FrameBuf {
    /// The last frame read or framed (header included) — whose length
    /// is also the next read's guess.
    bytes: Vec<u8>,
    reads: u64,
    read_bytes: u64,
    salt: Salt,
}

impl FrameBuf {
    /// A buffer over frames salted with `salt` (`default()` is
    /// unsalted).
    pub fn salted(salt: Salt) -> Self {
        FrameBuf { salt, ..Default::default() }
    }

    /// Frames `payload` into the buffer and lends the frame out, ready
    /// for one append. The caller bounds the payload below 4 GiB.
    pub fn frame(&mut self, payload: &[u8]) -> &[u8] {
        self.bytes.clear();
        push_frame_with(&mut self.bytes, self.salt, |out| out.extend_from_slice(payload));
        &self.bytes
    }

    /// Reads the frame at `offset` of `file`, whose frames end at `end`
    /// (the log's length, or a commitment inside it), and lends out its
    /// payload. `Ok(None)` when no whole, checksum-valid frame lies in
    /// `offset..end` — a torn tail, a corrupt record, an offset that is
    /// no record boundary; `Err` only when the read itself fails.
    ///
    /// Logs mostly hold records of like size, so the read asks for as
    /// many bytes as the previous frame had: one positional read brings
    /// in header and payload together, and only a longer record costs a
    /// second read for its remainder. The announced length is input —
    /// it is bounded by `end` **before** anything is reserved for it.
    pub fn read_at<F: BlobFile>(
        &mut self,
        file: &F,
        end: u64,
        offset: u64,
    ) -> Result<Option<&[u8]>> {
        let Some(room) = end.checked_sub(offset).filter(|&r| r >= FRAME_HEADER as u64) else {
            return Ok(None);
        };
        let guess = (self.bytes.len().max(FRAME_HEADER) as u64).min(room) as usize;
        self.bytes.resize(guess, 0);
        self.fill(file, offset, 0)?;
        let (len, sum) = parse_header(&self.bytes);
        if len as u64 > room - FRAME_HEADER as u64 {
            return Ok(None);
        }
        let frame_len = FRAME_HEADER + len;
        self.bytes.resize(frame_len, 0);
        if frame_len > guess {
            self.fill(file, offset, guess)?;
        }
        let payload = &self.bytes[FRAME_HEADER..];
        Ok((self.salt.sum(payload) == sum).then_some(payload))
    }

    /// One positional read: fills `bytes[from..]` from `offset + from`.
    fn fill<F: BlobFile>(&mut self, file: &F, offset: u64, from: usize) -> Result<()> {
        let dst = &mut self.bytes[from..];
        self.reads += 1;
        self.read_bytes += dst.len() as u64;
        file.read_at(offset + from as u64, dst)
    }

    /// Positional reads issued through this buffer and the bytes they
    /// asked for: `(count, bytes)`.
    pub fn reads(&self) -> (u64, u64) {
        (self.reads, self.read_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blob::MemBlob;
    use proptest::prelude::*;

    /// The on-disk format, pinned: a refactor that moves a byte fails
    /// here, not at some later reopen of an old directory.
    #[test]
    fn frame_bytes_are_pinned() {
        let mut out = Vec::new();
        push_frame(&mut out, b"hello");
        let golden = [
            0x05, 0x00, 0x00, 0x00, 0x0b, 0xbd, 0xaa, 0x80, 0x46, 0xd8, 0x30, 0xa4, b'h', b'e',
            b'l', b'l', b'o',
        ];
        assert_eq!(out, golden);
        assert_eq!(Frames::new(&out, Salt::NONE).collect::<Vec<_>>(), vec![(0, &b"hello"[..])]);
    }

    /// A salted frame checks under its own salt and no other, in the
    /// image scan and in the positional read alike; salting moves no
    /// byte but the checksum's.
    #[test]
    fn a_frame_checks_under_its_own_salt_only() {
        let salt = Salt::new(b"layout 2");
        let mut salted = Vec::new();
        push_frame_with(&mut salted, salt, |out| out.extend_from_slice(b"hello"));
        let mut plain = Vec::new();
        push_frame(&mut plain, b"hello");
        assert_eq!((&salted[..4], &salted[FRAME_HEADER..]), (&plain[..4], &plain[FRAME_HEADER..]));
        assert_ne!(salted[4..FRAME_HEADER], plain[4..FRAME_HEADER]);
        for (image, own) in [(&salted, salt), (&plain, Salt::NONE)] {
            let other = if own == salt { Salt::NONE } else { salt };
            assert_eq!(Frames::new(image, own).count(), 1);
            assert_eq!(Frames::new(image, other).count(), 0);
            let file = MemBlob { bytes: image.clone() };
            let end = image.len() as u64;
            let read = |s| FrameBuf::salted(s).read_at(&file, end, 0).unwrap().map(<[u8]>::to_vec);
            assert_eq!(read(own), Some(b"hello".to_vec()));
            assert_eq!(read(other), None);
        }
        assert_eq!(FrameBuf::salted(salt).frame(b"hello"), &salted[..]);
    }

    /// Every frame of `bytes` a [`FrameBuf`] yields walking from 0, and
    /// where the walk stopped.
    fn walk(bytes: &[u8], buf: &mut FrameBuf) -> (Vec<Vec<u8>>, usize) {
        let file = MemBlob { bytes: bytes.to_vec() };
        let (mut yielded, mut at) = (Vec::new(), 0usize);
        while let Some(payload) = buf.read_at(&file, bytes.len() as u64, at as u64).unwrap() {
            at += FRAME_HEADER + payload.len();
            yielded.push(payload.to_vec());
        }
        assert!(buf.bytes.len() <= bytes.len(), "sized past the file");
        (yielded, at)
    }

    /// A read by position verifies what it lends out: a frame whose
    /// checksum fails, an offset inside a record and an offset past the
    /// end are all `None`, never bytes.
    #[test]
    fn positional_read_rejects_what_does_not_frame() {
        let mut log = Vec::new();
        push_frame(&mut log, b"abc");
        push_frame(&mut log, b"");
        let file = MemBlob { bytes: log.clone() };
        let (end, second) = (log.len() as u64, (FRAME_HEADER + 3) as u64);
        let mut buf = FrameBuf::default();
        assert_eq!(buf.read_at(&file, end, 0).unwrap(), Some(&b"abc"[..]));
        assert_eq!(buf.read_at(&file, end, second).unwrap(), Some(&b""[..]));
        assert_eq!(buf.read_at(&file, end, 1).unwrap(), None, "inside a record");
        assert_eq!(buf.read_at(&file, end, end - 2).unwrap(), None, "header overruns");
        assert_eq!(buf.read_at(&file, end, u64::MAX).unwrap(), None, "past the end");
        assert_eq!(buf.read_at(&file, end - 1, second).unwrap(), None, "frame overruns `end`");
        *log.last_mut().unwrap() ^= 1; // inside frame 1's checksum
        let file = MemBlob { bytes: log };
        assert_eq!(buf.read_at(&file, end, second).unwrap(), None, "checksum fails");
        assert_eq!(buf.read_at(&file, end, 0).unwrap(), Some(&b"abc"[..]));
    }

    /// The read-size guess: records of like size cost one positional
    /// read each, a longer one a second read for its remainder, and no
    /// read asks for more than the previous frame's length.
    #[test]
    fn one_read_per_record_no_longer_than_the_last() {
        let log = encode(&[vec![1; 100], vec![2; 100], vec![3; 100], vec![4; 300], vec![5; 10]]);
        let mut buf = FrameBuf::default();
        let file = MemBlob { bytes: log.clone() };
        let frame = |n: usize| (FRAME_HEADER + n) as u64;
        let mut at = 0;
        let mut expect = (0u64, 0u64);
        for (len, reads, bytes) in [
            (100, 2, frame(100)), // cold: header, then the rest
            (100, 1, frame(100)), // like size: one read
            (100, 1, frame(100)),
            (300, 2, frame(300)), // longer: a second read for the remainder
            (10, 1, frame(10)),   // shorter: one read, clipped to the log's end
        ] {
            assert_eq!(
                buf.read_at(&file, log.len() as u64, at).unwrap().map(<[u8]>::len),
                Some(len)
            );
            at += frame(len);
            expect = (expect.0 + reads, expect.1 + bytes);
            assert_eq!(buf.reads(), expect, "after the {len}-byte record");
        }
    }

    fn encode(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut log = Vec::new();
        payloads.iter().for_each(|p| push_frame(&mut log, p));
        log
    }

    /// Everything the scanner promises, checked on one input: no panic,
    /// `valid_len` within bounds, and the yielded payloads re-encode to
    /// exactly the prefix it reports.
    fn scan_checked(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut frames = Frames::new(bytes, Salt::NONE);
        let yielded: Vec<Vec<u8>> = frames.by_ref().map(|(_, p)| p.to_vec()).collect();
        assert!(frames.valid_len() <= bytes.len());
        assert_eq!(encode(&yielded), bytes[..frames.valid_len()]);
        // The positional reader sees exactly what the image scanner sees,
        // whatever it read last.
        let mut buf = FrameBuf::default();
        assert_eq!(walk(bytes, &mut buf), (yielded.clone(), frames.valid_len()));
        assert_eq!(walk(bytes, &mut buf), (yielded.clone(), frames.valid_len()));
        yielded
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            scan_checked(&bytes);
        }

        #[test]
        fn damage_inside_frame_k_yields_exactly_frames_before_k(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..40), 1..8),
            pos in any::<usize>(),
            bit in 0u8..8,
        ) {
            let log = encode(&payloads);
            let pos = pos % log.len();
            // The frame `pos` falls in: whole frames end at these offsets.
            let ends: Vec<usize> = payloads
                .iter()
                .scan(0, |end, p| { *end += FRAME_HEADER + p.len(); Some(*end) })
                .collect();
            let k = ends.iter().position(|&end| pos < end).unwrap();
            prop_assert_eq!(scan_checked(&log[..pos]), payloads[..k].to_vec());
            let mut flipped = log.clone();
            flipped[pos] ^= 1 << bit;
            prop_assert_eq!(scan_checked(&flipped), payloads[..k].to_vec());
        }
    }
}
