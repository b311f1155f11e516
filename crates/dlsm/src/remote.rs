//! Reading remote SSTables from the compute node.
//!
//! A [`RemoteSource`] is a [`DataSource`] over a [`ReadChannel`]:
//!
//! * [`ReadChannel::OneSided`] — dLSM's path: each `read` is a synchronous
//!   one-sided RDMA read on a thread-local queue pair (Sec. X-B).
//! * [`ReadChannel::TwoSided`] — the Nova-LSM-style tmpfs path: each `read`
//!   is an RPC; the memory node copies the bytes into the reply buffer and
//!   the requester copies them out — the longer path with the extra memory
//!   copy the paper blames for Nova-LSM's read performance (Sec. XI-C2).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use dlsm_cache::ReadCache;
use dlsm_memnode::RpcClient;
use dlsm_sstable::block::{BlockFetcher, BlockTableReader};
use dlsm_sstable::byte_addr::{ByteAddrIter, ByteAddrReader, Locate, TableGet};
use dlsm_sstable::iter::ForwardIter;
use dlsm_sstable::key::SeqNo;
use dlsm_sstable::source::{CachedSource, DataSource, SliceSource};
use dlsm_sstable::SstError;
use rdma_sim::QueuePair;

use crate::handle::{MetaKind, TableHandle};
use crate::Result;

/// A thread-local queue pair shared by a reader's table sources.
pub type SharedQp = Rc<RefCell<QueuePair>>;

/// A thread-local RPC client shared by a reader's table sources.
pub type SharedRpc = Rc<RefCell<RpcClient>>;

/// How table bytes are fetched from the memory node.
#[derive(Clone)]
pub enum ReadChannel {
    /// One-sided RDMA reads (dLSM and the RocksDB-RDMA baselines).
    OneSided(SharedQp),
    /// Two-sided RPC reads through the memory node's CPU (Nova-LSM style).
    TwoSided(SharedRpc),
}

impl ReadChannel {
    /// Wrap a queue pair.
    pub fn one_sided(qp: QueuePair) -> ReadChannel {
        ReadChannel::OneSided(Rc::new(RefCell::new(qp)))
    }

    /// Wrap an RPC client.
    pub fn two_sided(client: RpcClient) -> ReadChannel {
        ReadChannel::TwoSided(Rc::new(RefCell::new(client)))
    }

    /// Lifetime RDMA traffic carried by this channel — what this reader's
    /// fetches cost the fabric, attributable per operation via deltas.
    pub fn traffic(&self) -> rdma_sim::StatsSnapshot {
        match self {
            ReadChannel::OneSided(qp) => qp.borrow().traffic(),
            ReadChannel::TwoSided(client) => client.borrow().traffic(),
        }
    }
}

/// [`DataSource`] over one remote table extent.
#[derive(Clone)]
pub struct RemoteSource {
    channel: ReadChannel,
    base: rdma_sim::RemoteAddr,
    len: u64,
}

impl RemoteSource {
    /// View `len` bytes at `base` as a table.
    pub fn new(channel: ReadChannel, base: rdma_sim::RemoteAddr, len: u64) -> RemoteSource {
        RemoteSource { channel, base, len }
    }

    /// Source for `handle`'s extent.
    pub fn for_table(channel: &ReadChannel, handle: &TableHandle) -> RemoteSource {
        RemoteSource {
            channel: channel.clone(),
            base: handle.home.addr(handle.extent.offset),
            len: handle.extent.len,
        }
    }
}

impl DataSource for RemoteSource {
    fn read(&self, offset: u64, dst: &mut [u8]) -> dlsm_sstable::Result<()> {
        if offset + dst.len() as u64 > self.len {
            return Err(SstError::Source(format!(
                "remote read [{offset}, +{}) beyond table length {}",
                dst.len(),
                self.len
            )));
        }
        match &self.channel {
            ReadChannel::OneSided(qp) => qp
                .borrow_mut()
                .read_sync(self.base.add(offset), dst)
                .map_err(|e| SstError::Source(e.to_string())),
            ReadChannel::TwoSided(client) => {
                // RPC reads are bounded by the reply buffer; chunk as needed.
                let mut client = client.borrow_mut();
                let mut pos = 0usize;
                while pos < dst.len() {
                    let chunk = (dst.len() - pos).min(client.max_read_len());
                    let bytes = client
                        .read_file(
                            self.base.offset + offset + pos as u64,
                            chunk as u32,
                            Duration::from_secs(10),
                        )
                        .map_err(|e| SstError::Source(e.to_string()))?;
                    if bytes.len() != chunk {
                        return Err(SstError::Source("short RPC read".into()));
                    }
                    // The extra copy of the tmpfs path.
                    dst[pos..pos + chunk].copy_from_slice(&bytes);
                    pos += chunk;
                }
                Ok(())
            }
        }
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// `Arc<Vec<u8>>` viewed as a byte slice (for [`dlsm_sstable::source::SliceSource`] over a cached
/// local table image).
#[derive(Clone)]
pub struct ArcBytes(pub Arc<Vec<u8>>);

impl AsRef<[u8]> for ArcBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Binds the shared [`ReadCache`] to one table, at the [`BlockFetcher`]
/// granularity the sstable readers understand: data blocks for the block
/// format, single records for the byte-addressable format — both keyed
/// `(table id, offset)` in the cache's block pool.
pub struct TableFetcher {
    cache: Arc<ReadCache>,
    table: u64,
}

impl TableFetcher {
    /// A fetcher for `table`'s objects in `cache`.
    pub fn new(cache: &Arc<ReadCache>, table: u64) -> Arc<TableFetcher> {
        Arc::new(TableFetcher { cache: Arc::clone(cache), table })
    }
}

impl BlockFetcher for TableFetcher {
    fn fetch(&self, offset: u64) -> Option<Arc<Vec<u8>>> {
        self.cache.block_get(self.table, offset)
    }

    fn admit(&self, offset: u64, data: &Arc<Vec<u8>>) {
        self.cache.block_admit(self.table, offset, data);
    }
}

/// Fetch `handle`'s whole extent in one fabric read (the on-demand
/// promotion path: a table that keeps missing earns a single large read so
/// every later probe is local).
pub(crate) fn fetch_extent_image(
    channel: &ReadChannel,
    handle: &TableHandle,
) -> Result<Arc<Vec<u8>>> {
    let source = RemoteSource::for_table(channel, handle);
    let mut buf = vec![0u8; handle.extent.len as usize];
    source.read(0, &mut buf)?;
    Ok(Arc::new(buf))
}

/// If the extent pool holds an image of `handle`, serve probes from it.
/// Counts the hit and the record bytes the image saved (exact, via a local
/// index lookup — no fabric traffic either way).
fn image_get(
    cache: &Arc<ReadCache>,
    image: Arc<Vec<u8>>,
    handle: &TableHandle,
    user_key: &[u8],
    seq: SeqNo,
    count_saved: bool,
) -> Result<TableGet> {
    if count_saved {
        if let MetaKind::ByteAddr(meta) = &handle.meta {
            if let Locate::Record { len, .. } = meta.locate(user_key, seq) {
                cache.note_saved(len as u64);
            }
        }
    }
    let source = SliceSource(ArcBytes(image));
    match &handle.meta {
        MetaKind::ByteAddr(meta) => {
            Ok(ByteAddrReader::new(Arc::clone(meta), source).get(user_key, seq)?)
        }
        MetaKind::Block(bmc, _) => {
            Ok(BlockTableReader::from_cache(source, bmc.clone()).get(user_key, seq)?)
        }
    }
}

/// Point lookup against one table handle. One bloom probe + one read of a
/// single record for byte-addressable tables; a whole-block read for block
/// tables. With a [`ReadCache`], reads go cache-first: a hot-extent image
/// serves the probe with zero fabric traffic, otherwise the record/block
/// fetch consults the block pool and admits its miss.
pub fn table_get(
    channel: &ReadChannel,
    handle: &TableHandle,
    user_key: &[u8],
    seq: SeqNo,
    cache: Option<&Arc<ReadCache>>,
) -> Result<TableGet> {
    if let Some(c) = cache {
        if let Some(image) = c.extent_get(handle.id) {
            return image_get(c, image, handle, user_key, seq, true);
        }
        match &handle.meta {
            MetaKind::ByteAddr(meta) => {
                // Decide from local metadata first: bloom/index negatives
                // cost nothing and must not count as cache traffic (or
                // extent-promotion heat).
                match meta.locate(user_key, seq) {
                    Locate::NotFound => return Ok(TableGet::NotFound),
                    Locate::Deleted => return Ok(TableGet::Deleted),
                    Locate::Record { .. } => {}
                }
                if c.note_extent_miss(handle.id, handle.extent.len) {
                    if let Ok(image) = fetch_extent_image(channel, handle) {
                        c.extent_admit(handle.id, Arc::clone(&image));
                        // The promotion read just paid for this probe — no
                        // saved bytes to claim until the next one.
                        return image_get(c, image, handle, user_key, seq, false);
                    }
                }
                let source = CachedSource::new(
                    RemoteSource::for_table(channel, handle),
                    TableFetcher::new(c, handle.id),
                );
                return Ok(ByteAddrReader::new(Arc::clone(meta), source).get(user_key, seq)?);
            }
            MetaKind::Block(bmc, _) => {
                let source = RemoteSource::for_table(channel, handle);
                let reader = BlockTableReader::from_cache(source, bmc.clone())
                    .with_fetcher(TableFetcher::new(c, handle.id));
                return Ok(reader.get(user_key, seq)?);
            }
        }
    }
    let source = RemoteSource::for_table(channel, handle);
    match &handle.meta {
        MetaKind::ByteAddr(meta) => {
            let reader = ByteAddrReader::new(Arc::clone(meta), source);
            Ok(reader.get(user_key, seq)?)
        }
        MetaKind::Block(bmc, _) => {
            let reader = BlockTableReader::from_cache(source, bmc.clone());
            Ok(reader.get(user_key, seq)?)
        }
    }
}

/// Build an owning iterator over one table handle whose readahead window
/// grows up to `prefetch` bytes. Scans only *peek* at the extent pool (a resident image is free
/// to use) — they never admit, bump frequencies, or touch the block pool,
/// so sequential sweeps cannot displace the point-read working set.
pub fn table_iter(
    channel: &ReadChannel,
    handle: &TableHandle,
    prefetch: usize,
    cache: Option<&Arc<ReadCache>>,
) -> Box<dyn ForwardIter> {
    if let Some(image) = cache.and_then(|c| c.extent_peek(handle.id)) {
        let source = SliceSource(ArcBytes(image));
        return match &handle.meta {
            MetaKind::ByteAddr(meta) => {
                Box::new(ByteAddrIter::from_parts(Arc::clone(meta), source, prefetch))
            }
            MetaKind::Block(bmc, _) => {
                Box::new(BlockTableReader::from_cache(source, bmc.clone()).iter(prefetch))
            }
        };
    }
    let source = RemoteSource::for_table(channel, handle);
    match &handle.meta {
        MetaKind::ByteAddr(meta) => {
            Box::new(ByteAddrIter::from_parts(Arc::clone(meta), source, prefetch))
        }
        MetaKind::Block(bmc, _) => {
            let reader = BlockTableReader::from_cache(source, bmc.clone());
            Box::new(reader.iter(prefetch))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsm_sstable::byte_addr::ByteAddrBuilder;
    use dlsm_sstable::key::{InternalKey, ValueType};
    use rdma_sim::{Fabric, NetworkProfile, Verb};

    #[test]
    fn remote_source_reads_over_fabric() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let compute = fabric.add_node();
        let memory = fabric.add_node();
        let region = memory.register_region(1 << 16);
        region.local_write(128, b"remote-table-bytes").unwrap();
        let channel =
            ReadChannel::one_sided(fabric.create_qp(compute.id(), memory.id()).unwrap());
        let src = RemoteSource::new(channel, region.addr(128), 18);
        let mut buf = [0u8; 5];
        src.read(7, &mut buf).unwrap();
        assert_eq!(&buf, b"table");
        assert!(src.read(15, &mut [0u8; 8]).is_err());
        assert_eq!(fabric.stats().ops(Verb::Read), 1);
    }

    #[test]
    fn point_get_issues_single_record_read() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let compute = fabric.add_node();
        let memory = fabric.add_node();
        let region = memory.register_region(1 << 20);

        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        for i in 0..100 {
            b.add(
                InternalKey::new(format!("key{i:04}").as_bytes(), 7, ValueType::Value).as_bytes(),
                format!("val{i}").as_bytes(),
            )
            .unwrap();
        }
        let (data, meta) = b.finish();
        region.local_write(0, &data).unwrap();

        let handle = crate::handle::TableHandle::new(
            1,
            crate::context::RemoteRegion::of(&region),
            crate::handle::Extent { offset: 0, len: data.len() as u64 },
            crate::handle::Origin::External,
            MetaKind::ByteAddr(Arc::new(meta)),
            InternalKey::new(b"key0000", 7, ValueType::Value).into_bytes(),
            InternalKey::new(b"key0099", 7, ValueType::Value).into_bytes(),
            100,
            None,
        );
        let channel =
            ReadChannel::one_sided(fabric.create_qp(compute.id(), memory.id()).unwrap());
        let before = fabric.stats().snapshot();
        let got = table_get(&channel, &handle, b"key0042", 100, None).unwrap();
        assert_eq!(got, TableGet::Found(b"val42".to_vec()));
        let d = fabric.stats().snapshot().delta(&before);
        // Exactly one RDMA read, sized as one record (not a block).
        assert_eq!(d.ops(Verb::Read), 1);
        assert!(d.bytes(Verb::Read) < 64, "read {} bytes", d.bytes(Verb::Read));
        // A bloom miss costs zero network reads.
        let before = fabric.stats().snapshot();
        let got = table_get(&channel, &handle, b"nope", 100, None).unwrap();
        assert_eq!(got, TableGet::NotFound);
        assert_eq!(fabric.stats().snapshot().delta(&before).ops(Verb::Read), 0);
    }

    #[test]
    fn two_sided_channel_reads_through_rpc() {
        use dlsm_memnode::{MemServer, MemServerConfig};
        let fabric = Fabric::new(NetworkProfile::instant());
        let compute = fabric.add_node();
        let server = MemServer::start(
            &fabric,
            MemServerConfig { region_size: 1 << 20, flush_zone: 1 << 19, compaction_workers: 1, dispatchers: 1 },
        );
        server.region().local_write(256, b"tmpfs-table").unwrap();
        let client = RpcClient::new(&fabric, &compute, server.node_id(), 4096).unwrap();
        let channel = ReadChannel::two_sided(client);
        let src = RemoteSource::new(channel, server.region().addr(256), 11);
        let mut buf = [0u8; 11];
        src.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"tmpfs-table");
        // No one-sided reads were used by the client data path itself (the
        // server-side reply write is one-sided, but the requester never
        // posted an RDMA read).
        server.shutdown();
    }
}
