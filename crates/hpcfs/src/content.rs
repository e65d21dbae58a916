//! Sparse file content.
//!
//! H5bench-scale experiments move terabytes of synthetic payload through the
//! I/O path; storing those bytes would exhaust host memory for data whose
//! values never matter to provenance. `FileContent` therefore separates the
//! *size* of a file from the bytes it *materializes*: real writes (metadata
//! blocks, provenance Turtle, small headers) are stored; synthetic writes
//! only extend the file and charge modeled transfer time. Reads return
//! stored bytes where present and zeros elsewhere — the same observable
//! behavior as a sparse file on a real file system.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Size of the shared zero block backing fully-sparse reads (64 MiB, the
/// largest request size the workflows issue).
const ZERO_BLOCK_LEN: usize = 64 << 20;

fn zero_block() -> &'static Bytes {
    static ZEROS: OnceLock<Bytes> = OnceLock::new();
    ZEROS.get_or_init(|| Bytes::from(vec![0u8; ZERO_BLOCK_LEN]))
}

/// Sparse byte content of a regular file.
///
/// Segments are immutable [`Bytes`] windows: a write that overlaps no
/// segment adopts the writer's buffer — an append abutting written bytes
/// too, so appending never copies what is there — a read inside one
/// segment and a truncate narrow a window, and only a write over written
/// bytes merges them into one copy. Readers hold snapshots.
#[derive(Debug, Clone, Default)]
pub struct FileContent {
    /// Materialized segments: offset → bytes. Invariant: segments are
    /// non-empty and non-overlapping (maintained by `write`).
    segments: BTreeMap<u64, Bytes>,
    /// Logical file size (may exceed the materialized extent).
    size: u64,
}

impl FileContent {
    pub fn new() -> Self {
        FileContent::default()
    }

    /// Logical size in bytes.
    pub fn len(&self) -> u64 {
        self.size
    }

    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Bytes actually materialized in memory.
    pub fn resident_bytes(&self) -> u64 {
        self.segments.values().map(|v| v.len() as u64).sum()
    }

    /// Write real bytes at `offset`, extending the file if needed.
    pub fn write(&mut self, offset: u64, data: impl Into<Bytes>) {
        let data = data.into();
        if data.is_empty() {
            return;
        }
        let end = offset + data.len() as u64;
        self.size = self.size.max(end);

        // Every segment that overlaps [offset, end): segment ends grow with
        // their starts, so walk back from `end` until one ends at or before
        // `offset`.
        let touching: Vec<u64> = self
            .segments
            .range(..end)
            .rev()
            .take_while(|(&start, seg)| start + seg.len() as u64 > offset)
            .map(|(&start, _)| start)
            .collect();
        let (Some(&first), Some(&last)) = (touching.last(), touching.first()) else {
            self.segments.insert(offset, data);
            return;
        };
        let merged_start = offset.min(first);
        let merged_end = end.max(last + self.segments[&last].len() as u64);
        let mut merged = vec![0u8; (merged_end - merged_start) as usize];
        for s in touching {
            let seg = self.segments.remove(&s).expect("collected above");
            let rel = (s - merged_start) as usize;
            merged[rel..rel + seg.len()].copy_from_slice(&seg);
        }
        let rel = (offset - merged_start) as usize;
        merged[rel..rel + data.len()].copy_from_slice(&data);
        self.segments.insert(merged_start, Bytes::from(merged));
    }

    /// Extend the file by `len` synthetic (all-zero, unmaterialized) bytes
    /// at `offset`. Overlapping materialized bytes are left in place — the
    /// caller models "we wrote simulation output here" without storing it.
    pub fn write_synthetic(&mut self, offset: u64, len: u64) {
        self.size = self.size.max(offset + len);
    }

    /// Read up to `len` bytes at `offset`. Returns fewer bytes at EOF.
    pub fn read(&self, offset: u64, len: u64) -> Bytes {
        if offset >= self.size {
            return Bytes::new();
        }
        let len = len.min(self.size - offset) as usize;
        let end = offset + len as u64;
        // Inside one segment: a window on it, no copy.
        if let Some((&s, seg)) = self.segments.range(..=offset).next_back() {
            if end <= s + seg.len() as u64 {
                return seg.slice((offset - s) as usize..(end - s) as usize);
            }
        }
        // A fully sparse window is a slice of one shared zero block —
        // multi-GB synthetic reads cost no memset.
        if !self.is_materialized(offset, len as u64) && len <= ZERO_BLOCK_LEN {
            return zero_block().slice(..len);
        }
        let mut out = vec![0u8; len];
        for (&start, seg) in self.segments.range(..end) {
            let seg_end = start + seg.len() as u64;
            if seg_end <= offset {
                continue;
            }
            let copy_start = offset.max(start);
            let copy_end = end.min(seg_end);
            let dst = (copy_start - offset) as usize;
            let src = (copy_start - start) as usize;
            let n = (copy_end - copy_start) as usize;
            out[dst..dst + n].copy_from_slice(&seg[src..src + n]);
        }
        Bytes::from(out)
    }

    /// Does the window `[offset, offset+len)` overlap any materialized
    /// (real-byte) segment?
    pub(crate) fn is_materialized(&self, offset: u64, len: u64) -> bool {
        if len == 0 {
            return false;
        }
        let end = offset.saturating_add(len);
        self.segments
            .range(..end)
            .next_back()
            .is_some_and(|(&s, seg)| s + seg.len() as u64 > offset)
    }

    /// Truncate (or extend with zeros) to `size`. Only the last segment
    /// left can reach past `size`; it keeps a narrower window.
    pub fn truncate(&mut self, size: u64) {
        if size < self.size {
            self.segments.split_off(&size);
            if let Some((&k, seg)) = self.segments.iter_mut().next_back() {
                if k + seg.len() as u64 > size {
                    *seg = seg.slice(..(size - k) as usize);
                }
            }
        }
        self.size = size;
    }

    /// Full materialized view (zeros where sparse). For small files only.
    pub fn to_vec(&self) -> Vec<u8> {
        self.read(0, self.size).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trip() {
        let mut c = FileContent::new();
        c.write(0, b"hello world");
        assert_eq!(c.len(), 11);
        assert_eq!(&c.read(0, 11)[..], b"hello world");
        assert_eq!(&c.read(6, 5)[..], b"world");
    }

    #[test]
    fn read_past_eof_truncates() {
        let mut c = FileContent::new();
        c.write(0, b"abc");
        assert_eq!(&c.read(1, 100)[..], b"bc");
        assert!(c.read(3, 10).is_empty());
        assert!(c.read(100, 10).is_empty());
    }

    #[test]
    fn sparse_holes_read_as_zeros() {
        let mut c = FileContent::new();
        c.write(10, b"xy");
        assert_eq!(c.len(), 12);
        let r = c.read(0, 12);
        assert_eq!(&r[..10], &[0u8; 10]);
        assert_eq!(&r[10..], b"xy");
    }

    #[test]
    fn overlapping_writes_merge() {
        let mut c = FileContent::new();
        c.write(0, b"aaaa");
        c.write(2, b"bbbb");
        assert_eq!(&c.read(0, 6)[..], b"aabbbb");
        // Internal invariant: one coalesced segment.
        assert_eq!(c.segments.len(), 1);
    }

    #[test]
    fn abutting_writes_keep_their_buffers() {
        // An append that abuts written bytes adopts its own buffer, so it
        // copies nothing already written; a read inside either write is a
        // window on the buffer it wrote, and a read across both copies.
        let mut c = FileContent::new();
        let (ab, cd, xy) = (Bytes::from(b"ab".to_vec()), Bytes::from(b"cd".to_vec()), Bytes::from(b"xy".to_vec()));
        c.write(2, cd.clone());
        c.write(0, ab.clone());
        c.write(4, xy.clone());
        assert_eq!(c.segments.len(), 3);
        for (offset, buf) in [(0, &ab), (2, &cd), (4, &xy)] {
            assert_eq!(c.read(offset, 2).as_ptr(), buf.as_ptr());
        }
        assert_eq!(&c.read(1, 4)[..], b"bcdx");
        assert_eq!((c.len(), c.resident_bytes()), (6, 6));
    }

    #[test]
    fn disjoint_writes_stay_separate() {
        let mut c = FileContent::new();
        c.write(0, b"ab");
        c.write(100, b"cd");
        assert_eq!(c.segments.len(), 2);
        assert_eq!(c.resident_bytes(), 4);
        assert_eq!(c.len(), 102);
    }

    #[test]
    fn synthetic_write_extends_without_memory() {
        let mut c = FileContent::new();
        c.write_synthetic(0, 1 << 40); // 1 TiB
        assert_eq!(c.len(), 1 << 40);
        assert_eq!(c.resident_bytes(), 0);
        // Reads are zeros.
        assert_eq!(&c.read(1 << 39, 4)[..], &[0, 0, 0, 0]);
    }

    #[test]
    fn synthetic_then_real_overlay() {
        let mut c = FileContent::new();
        c.write_synthetic(0, 1000);
        c.write(500, b"MARK");
        assert_eq!(c.len(), 1000);
        assert_eq!(&c.read(500, 4)[..], b"MARK");
        assert_eq!(&c.read(498, 2)[..], &[0, 0]);
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut c = FileContent::new();
        c.write(0, b"abcdef");
        c.truncate(3);
        assert_eq!(c.len(), 3);
        assert_eq!(&c.read(0, 10)[..], b"abc");
        c.truncate(5);
        assert_eq!(c.len(), 5);
        assert_eq!(&c.read(0, 5)[..], &[b'a', b'b', b'c', 0, 0]);
    }

    #[test]
    fn truncate_mid_segment() {
        let mut c = FileContent::new();
        c.write(10, b"abcdef");
        c.truncate(12);
        assert_eq!(&c.read(10, 10)[..], b"ab");
        c.truncate(10);
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn to_vec_matches_reads() {
        let mut c = FileContent::new();
        c.write(3, b"xyz");
        assert_eq!(c.to_vec(), vec![0, 0, 0, b'x', b'y', b'z']);
    }
}
