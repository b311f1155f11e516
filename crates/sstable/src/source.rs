//! Data sources: where SSTable bytes live.
//!
//! A table reader is generic over [`DataSource`] so the *same* reader code
//! serves three situations with very different costs:
//!
//! * the compute node reading remote memory through a queue pair (each
//!   `read` is an RDMA read paying the network cost) — dLSM wires this up
//!   with its thread-local queue pairs;
//! * the memory node reading its own DRAM during near-data compaction
//!   ([`RegionSource`], zero network cost);
//! * plain in-memory buffers in tests ([`SliceSource`]).

use std::sync::Arc;

use rdma_sim::MemoryRegion;

use crate::{Result, SstError};

/// Random-access byte source backing one SSTable.
///
/// `read` must fill `dst` entirely from `offset`. Implementations may be
/// called from the thread that owns them only (`&self`, but no `Sync`
/// requirement — dLSM readers are thread-local).
pub trait DataSource {
    /// Fill `dst` with the bytes at `offset..offset + dst.len()`.
    fn read(&self, offset: u64, dst: &mut [u8]) -> Result<()>;

    /// Total length of the table in bytes.
    fn len(&self) -> u64;

    /// True if the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// First refill size of a table iterator after a seek.
pub(crate) const READAHEAD_INITIAL: usize = 4 << 10;

/// Sequential readahead window shared by both table iterators: the first
/// refill after a seek reads [`READAHEAD_INITIAL`] bytes and every further
/// refill doubles the window, up to `cap`. A short scan thus reads
/// kilobytes, while a long one reaches `cap`-sized chunks (the paper's
/// multi-MB scan prefetch, Sec. VI) after a handful of refills.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Readahead {
    window: usize,
    cap: usize,
}

impl Readahead {
    /// A window reset to its initial size, growing to at most `cap` bytes.
    pub(crate) fn new(cap: usize) -> Readahead {
        let cap = cap.max(1);
        Readahead { window: READAHEAD_INITIAL.min(cap), cap }
    }

    /// Shrink back to the initial window (on `seek` / `seek_to_first`).
    pub(crate) fn reset(&mut self) {
        self.window = READAHEAD_INITIAL.min(self.cap);
    }

    /// Size of the next refill — at least `min`, so one record or block
    /// always fits — and double the window for the refill after it.
    pub(crate) fn next_len(&mut self, min: usize) -> usize {
        let len = self.window.max(min);
        self.window = self.window.saturating_mul(2).min(self.cap);
        len
    }
}

/// Read `len` bytes at `offset` into `buf`, resized to `len`. A buffer too
/// small is replaced rather than grown: growing in place would first copy
/// the old bytes the read is about to overwrite (a ramping readahead window
/// would pay that on every doubling).
pub(crate) fn read_into<S: DataSource>(source: &S, offset: u64, len: usize, buf: &mut Vec<u8>) -> Result<()> {
    if len > buf.capacity() {
        *buf = vec![0; len];
    } else {
        buf.resize(len, 0);
    }
    source.read(offset, buf)
}

/// A table fully resident in a local byte slice.
#[derive(Debug, Clone)]
pub struct SliceSource<T: AsRef<[u8]>>(pub T);

impl<T: AsRef<[u8]>> DataSource for SliceSource<T> {
    fn read(&self, offset: u64, dst: &mut [u8]) -> Result<()> {
        let data = self.0.as_ref();
        let start = offset as usize;
        let end = start + dst.len();
        let src = data
            .get(start..end)
            .ok_or_else(|| SstError::Source(format!("slice read [{start}, {end}) beyond {}", data.len())))?;
        dst.copy_from_slice(src);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.0.as_ref().len() as u64
    }
}

/// A table stored in a registered memory region **owned by the reading
/// node** — local DRAM access, zero network cost. This is what a memory
/// node's compaction workers use to scan input SSTables in place.
#[derive(Debug, Clone)]
pub struct RegionSource {
    region: Arc<MemoryRegion>,
    base: u64,
    len: u64,
}

impl RegionSource {
    /// View `len` bytes of `region` starting at `base` as a table.
    pub fn new(region: Arc<MemoryRegion>, base: u64, len: u64) -> RegionSource {
        RegionSource { region, base, len }
    }
}

impl DataSource for RegionSource {
    fn read(&self, offset: u64, dst: &mut [u8]) -> Result<()> {
        if offset + dst.len() as u64 > self.len {
            return Err(SstError::Source(format!(
                "region read [{offset}, +{}) beyond table length {}",
                dst.len(),
                self.len
            )));
        }
        self.region
            .local_read(self.base + offset, dst)
            .map_err(|e| SstError::Source(e.to_string()))
    }

    fn len(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::ForwardIter;
    use rdma_sim::{Fabric, NetworkProfile};

    #[test]
    fn slice_source_reads() {
        let s = SliceSource(b"0123456789".to_vec());
        let mut buf = [0u8; 4];
        s.read(3, &mut buf).unwrap();
        assert_eq!(&buf, b"3456");
        assert_eq!(s.len(), 10);
        assert!(s.read(8, &mut buf).is_err());
    }

    /// A slice source that logs the length of every read it serves.
    #[derive(Clone)]
    struct CountingSource {
        data: Arc<Vec<u8>>,
        reads: std::rc::Rc<std::cell::RefCell<Vec<usize>>>,
    }

    impl CountingSource {
        fn new(data: Vec<u8>) -> CountingSource {
            CountingSource { data: Arc::new(data), reads: Default::default() }
        }

        fn take_reads(&self) -> Vec<usize> {
            std::mem::take(&mut *self.reads.borrow_mut())
        }
    }

    impl DataSource for CountingSource {
        fn read(&self, offset: u64, dst: &mut [u8]) -> Result<()> {
            self.reads.borrow_mut().push(dst.len());
            SliceSource(self.data.as_slice()).read(offset, dst)
        }

        fn len(&self) -> u64 {
            self.data.len() as u64
        }
    }

    fn ikey(i: usize) -> Vec<u8> {
        crate::InternalKey::new(format!("key{i:06}").as_bytes(), 7, crate::ValueType::Value).into_bytes()
    }

    /// 2,000 records of about 120 bytes each.
    fn byte_addr_table() -> (Vec<u8>, Arc<crate::byte_addr::TableMeta>) {
        let mut b = crate::byte_addr::ByteAddrBuilder::new(Vec::new(), 10);
        for i in 0..2000 {
            b.add(&ikey(i), &[b'v'; 100]).unwrap();
        }
        let (data, meta) = b.finish();
        (data, Arc::new(meta))
    }

    /// The same records in ~1 KiB blocks, behind a counting source.
    fn block_table() -> (CountingSource, crate::block::BlockMetaCache) {
        let mut b = crate::block::BlockTableBuilder::new(Vec::new(), 1024, 10);
        for i in 0..2000 {
            b.add(&ikey(i), &[b'v'; 100]).unwrap();
        }
        let src = CountingSource::new(b.finish().unwrap().0);
        let meta = crate::block::BlockTableReader::open(src.clone()).unwrap().meta_cache();
        src.take_reads();
        (src, meta)
    }

    fn drain(it: &mut impl ForwardIter) -> usize {
        let mut n = 0;
        while it.valid() {
            n += 1;
            it.next().unwrap();
        }
        n
    }

    #[test]
    fn readahead_doubles_to_cap_and_resets() {
        let mut ra = Readahead::new(64 << 10);
        let got: Vec<usize> = (0..6).map(|_| ra.next_len(0)).collect();
        assert_eq!(got, [4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 64 << 10]);
        ra.reset();
        assert_eq!(ra.next_len(0), READAHEAD_INITIAL);
        // A record or block larger than the window is still read whole.
        assert_eq!(ra.next_len(100 << 10), 100 << 10);
        // A cap below the initial window wins from the first refill.
        let mut tiny = Readahead::new(97);
        assert_eq!((tiny.next_len(0), tiny.next_len(0), tiny.next_len(300)), (97, 97, 300));
    }

    #[test]
    fn byte_addr_iter_window_doubles_and_seek_resets_it() {
        let (data, meta) = byte_addr_table();
        let src = CountingSource::new(data);
        let cap = 32 << 10;
        let mut it = crate::byte_addr::ByteAddrIter::from_parts(Arc::clone(&meta), src.clone(), cap);
        it.seek_to_first().unwrap();
        assert_eq!(drain(&mut it), 2000);
        let reads = src.take_reads();
        assert_eq!(reads[..5], [4 << 10, 8 << 10, 16 << 10, 32 << 10, 32 << 10]);
        assert!(reads[4..reads.len() - 1].iter().all(|&r| r == cap), "{reads:?}");
        // Refills start at a record, so each re-reads at most the one record
        // the previous refill cut off.
        let reread = reads.iter().sum::<usize>() - meta.data_len as usize;
        assert!(reread < reads.len() * 119, "{reread} B re-read over {} refills", reads.len());

        // A seek far from the buffer starts over at the initial window.
        it.seek(&ikey(1000)).unwrap();
        assert_eq!(src.take_reads(), [READAHEAD_INITIAL]);
        while src.reads.borrow().is_empty() {
            it.next().unwrap();
        }
        assert_eq!(src.take_reads(), [8 << 10]);
    }

    #[test]
    fn block_iter_window_doubles_and_seek_resets_it() {
        let (src, meta) = block_table();
        let cap = 32 << 10;
        let reader = crate::block::BlockTableReader::from_cache(src.clone(), meta);
        let mut it = reader.iter(cap);
        it.seek_to_first().unwrap();
        assert_eq!(drain(&mut it), 2000);
        let reads = src.take_reads();
        // Each refill takes whole ~1 KiB blocks up to its window: it fits in
        // the window and leaves less than one block of it unused.
        let block_max = 1300;
        for (k, &r) in reads.iter().enumerate() {
            let window = (READAHEAD_INITIAL << k.min(3)).min(cap);
            assert!(r <= window, "read {k} of {r} B exceeds window {window}");
            if k + 1 < reads.len() {
                assert!(r + block_max > window, "read {k} of {r} B under-fills window {window}");
            }
        }

        it.seek(&ikey(1000)).unwrap();
        let reads = src.take_reads();
        assert_eq!(reads.len(), 1);
        assert!(reads[0] <= READAHEAD_INITIAL && reads[0] + block_max > READAHEAD_INITIAL);
    }

    #[test]
    fn cap_below_one_record_or_block_still_makes_progress() {
        let (data, meta) = byte_addr_table();
        let src = CountingSource::new(data);
        let mut it = crate::byte_addr::ByteAddrIter::from_parts(meta, src.clone(), 16);
        it.seek_to_first().unwrap();
        assert_eq!(drain(&mut it), 2000);
        // One read per record, each exactly one record long.
        let reads = src.take_reads();
        assert_eq!(reads.len(), 2000);
        assert!(reads.iter().all(|&r| r > 16 && r < 200));

        let (src, meta) = block_table();
        let reader = crate::block::BlockTableReader::from_cache(src.clone(), meta);
        let mut it = reader.iter(16);
        it.seek_to_first().unwrap();
        assert_eq!(drain(&mut it), 2000);
        // One read per block.
        assert_eq!(src.take_reads().len(), reader.block_count());
    }

    #[test]
    fn region_source_reads_within_window() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let node = fabric.add_node();
        let region = node.register_region(256);
        region.local_write(64, b"table-bytes").unwrap();
        let src = RegionSource::new(region, 64, 11);
        let mut buf = [0u8; 5];
        src.read(6, &mut buf).unwrap();
        assert_eq!(&buf, b"bytes");
        // Reads beyond the table window fail even though the region is big.
        assert!(src.read(7, &mut buf).is_err());
    }
}
