//! The one frame codec under every durable append-only log in the
//! workspace: the service's `COMMITLOG` and the payload
//! [`crate::BlobLog`] — and the format of the store's legacy
//! `MANIFEST.DELTA` chain, which is read (once, at reopen) but no longer
//! written.
//!
//! A frame is `len: u32 LE | fnv1a64(payload): u64 LE | payload`. The
//! checksum makes a torn tail (a crash mid-append) detectable and a
//! record indivisible: a reader takes a frame wholly or not at all.
//! What a payload *means* is each log's own business; how it is framed,
//! checked and walked is defined here and nowhere else.

/// Bytes of framing before each payload.
pub const FRAME_HEADER: usize = 12;

/// FNV-1a 64 over `bytes`: the frame checksum, and the content fold of
/// the simulator's trace fingerprints (exported so downstream
/// fingerprints stay comparable to the trace's).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends `payload` to `out` as one frame. The caller bounds the
/// payload below 4 GiB (the length field is a `u32`).
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The recorded checksum and payload of the frame starting at
/// `bytes[at..]`; `None` when the header or the payload it announces
/// runs past the end.
fn split_at(bytes: &[u8], at: usize) -> Option<(u64, &[u8])> {
    let start = at.checked_add(FRAME_HEADER)?;
    let header = bytes.get(at..start)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 header bytes")) as usize;
    let sum = u64::from_le_bytes(header[4..].try_into().expect("8 header bytes"));
    Some((sum, bytes.get(start..start.checked_add(len)?)?))
}

/// The payload of the frame at `bytes[at..]`, bounds-checked only — for
/// bytes whose checksums were already verified (or were written by this
/// process).
pub fn payload_at(bytes: &[u8], at: usize) -> Option<&[u8]> {
    split_at(bytes, at).map(|(_, payload)| payload)
}

/// Walks a log image frame by frame, yielding `(offset, payload)` and
/// stopping for good at the first short, overrunning or
/// checksum-failing frame. Total: any byte string is a valid input.
pub struct Frames<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Frames<'a> {
    /// A scanner over `bytes`, which must start at a frame boundary.
    pub fn new(bytes: &'a [u8]) -> Self {
        Frames { bytes, at: 0 }
    }

    /// Bytes covered by the frames yielded so far — once the scanner is
    /// exhausted, the length of the longest intact prefix.
    pub fn valid_len(&self) -> usize {
        self.at
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = (usize, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let (sum, payload) = split_at(self.bytes, self.at)?;
        if fnv1a64(payload) != sum {
            return None;
        }
        let offset = self.at;
        self.at += FRAME_HEADER + payload.len();
        Some((offset, payload))
    }
}

/// Length of the longest prefix of `bytes` made of whole,
/// checksum-valid frames.
pub fn valid_prefix(bytes: &[u8]) -> usize {
    let mut frames = Frames::new(bytes);
    frames.by_ref().for_each(drop);
    frames.valid_len()
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(Frames::new(&out).collect::<Vec<_>>(), vec![(0, &b"hello"[..])]);
    }

    #[test]
    fn unchecked_read_is_bounds_checked_only() {
        let mut log = Vec::new();
        push_frame(&mut log, b"abc");
        push_frame(&mut log, b"");
        *log.last_mut().unwrap() ^= 1; // inside frame 1's checksum
        assert_eq!(payload_at(&log, FRAME_HEADER + 3), Some(&b""[..]));
        assert_eq!(Frames::new(&log).count(), 1, "the scanner does check");
        assert_eq!(payload_at(&log, log.len() - 2), None, "header overruns");
        assert_eq!(payload_at(&log, usize::MAX), None, "offset overflow is a miss");
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
        let mut frames = Frames::new(bytes);
        let yielded: Vec<Vec<u8>> = frames.by_ref().map(|(_, p)| p.to_vec()).collect();
        assert!(frames.valid_len() <= bytes.len());
        assert_eq!(encode(&yielded), bytes[..frames.valid_len()]);
        assert_eq!(valid_prefix(bytes), frames.valid_len());
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
