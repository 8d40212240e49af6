//! Kernel NFS client model.
//!
//! Models the compute server's in-kernel NFS client, the layer the paper
//! deliberately leaves unmodified:
//!
//! * a bounded **memory buffer cache** (the "memory file system buffer" of
//!   Figure 2, step 1) holding real data blocks — capacity misses on
//!   multi-GB VM state are exactly the behaviour that motivates GVFS's
//!   proxy *disk* caches;
//! * an **attribute cache** and a **dentry cache** with timeouts, giving
//!   close-to-open consistency semantics;
//! * **write staging**: writes dirty cache blocks and are pushed with
//!   UNSTABLE WRITE RPCs (bounded in-flight parallelism, like `nfsd`
//!   request slots), with a dirty-limit back-pressure and a flush +
//!   COMMIT on close — "staging writes for a limited time in kernel
//!   memory buffers" (paper §3.2.1);
//! * **read gathering**: a large application read issues its missing
//!   blocks as parallel READ RPCs, modelling kernel readahead pipelining.
//!
//! It implements [`vfs::FileIo`], so the VM monitor and the workloads are
//! oblivious to whether they run on a local disk or an NFS mount that may
//! have a chain of GVFS proxies behind it.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::telemetry::Counter;
use simnet::{Env, SimDuration};
use vfs::{Attr, FileIo, FileType, Handle, IoError, IoResult, LruMap};
use xdr::Bytes;

use crate::client::{Nfs3Client, NfsError};
use crate::proto::{StableHow, Status};

/// `(block, data)` results shared between read-gathering workers.
type SharedBlockList = Arc<Mutex<Vec<(u64, Bytes)>>>;
/// Pending `(block, data)` writes shared between write-staging workers.
type SharedBlockQueue = Arc<Mutex<VecDeque<(u64, Bytes)>>>;

/// Kernel client tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// READ transfer size (bytes per READ RPC).
    pub rsize: u32,
    /// WRITE transfer size.
    pub wsize: u32,
    /// Buffer cache capacity in bytes.
    pub cache_bytes: u64,
    /// Dirty bytes allowed before writers block on writeback.
    pub dirty_limit_bytes: u64,
    /// Maximum concurrent RPCs for read gathering / write flushing.
    pub max_inflight: usize,
    /// CPU cost of serving one block from the buffer cache.
    pub hit_cost: SimDuration,
    /// Attribute/dentry cache lifetime.
    pub attr_timeout: SimDuration,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            rsize: 32 * 1024,
            wsize: 32 * 1024,
            cache_bytes: 256 * 1024 * 1024,
            dirty_limit_bytes: 16 * 1024 * 1024,
            max_inflight: 8,
            hit_cost: SimDuration::from_micros(25),
            attr_timeout: SimDuration::from_secs(30),
        }
    }
}

/// RPC/cache counters for reports and tests.
///
/// A point-in-time view over the telemetry registry: the client updates
/// the shared `nfs3/<instance>.*` counters, and [`KernelClient::stats`]
/// reads them back into this struct.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelStats {
    /// READ RPCs issued.
    pub read_rpcs: u64,
    /// WRITE RPCs issued.
    pub write_rpcs: u64,
    /// Metadata RPCs (lookup/getattr/readdir/...).
    pub meta_rpcs: u64,
    /// Buffer cache block hits.
    pub cache_hits: u64,
    /// Buffer cache block misses.
    pub cache_misses: u64,
    /// Payload bytes fetched by READ RPCs.
    pub bytes_read: u64,
    /// Payload bytes pushed by WRITE RPCs.
    pub bytes_written: u64,
}

/// One cached block. `data` is a refcounted view, shared with `read`
/// results and in-flight write-backs rather than copied; it is shorter
/// than the block when the READ reply was short at EOF, and the rest
/// reads as zeros. Writes go through [`block_mut`], which copies a
/// shared or short block first.
struct Block {
    data: Bytes,
    dirty: bool,
    /// Generation of the handle that cached or last wrote the block, so
    /// write-back can rebuild the file's handle from the block alone.
    generation: u64,
}

struct KcState {
    cache: LruMap<(u64, u64), Block>,
    dirty_bytes: u64,
    dcache: BTreeMap<String, (Handle, u64)>, // path -> (handle, expires_ns)
    acache: BTreeMap<Handle, (Attr, u64)>,
    local_size: HashMap<u64, u64>, // fileid -> size as seen through our writes
}

/// Telemetry counters backing [`KernelStats`]; registered once at mount.
struct KcTel {
    read_rpcs: Counter,
    write_rpcs: Counter,
    meta_rpcs: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
}

impl KcTel {
    fn register(env: &Env) -> Self {
        let tel = env.telemetry();
        let inst = tel.instance_name("kernel-client");
        let c = |name: &str| tel.counter("nfs3", format!("{inst}.{name}"));
        KcTel {
            read_rpcs: c("read_rpcs"),
            write_rpcs: c("write_rpcs"),
            meta_rpcs: c("meta_rpcs"),
            cache_hits: c("buffer_cache.hits"),
            cache_misses: c("buffer_cache.misses"),
            bytes_read: c("bytes_read"),
            bytes_written: c("bytes_written"),
        }
    }
}

/// The kernel NFS client for one mount.
pub struct KernelClient {
    nfs: Nfs3Client,
    root: Handle,
    cfg: KernelConfig,
    state: Mutex<KcState>,
    tel: KcTel,
}

impl KernelClient {
    /// Mount `export` through `nfs` and return the client.
    pub fn mount(
        env: &Env,
        nfs: Nfs3Client,
        export: &str,
        cfg: KernelConfig,
    ) -> IoResult<Arc<Self>> {
        let root = nfs.mount(env, export).map_err(map_err)?;
        Ok(Arc::new(KernelClient {
            nfs,
            root,
            cfg,
            state: Mutex::new(KcState {
                cache: LruMap::new(((cfg.cache_bytes / cfg.rsize as u64) as usize).max(1)),
                dirty_bytes: 0,
                dcache: BTreeMap::new(),
                acache: BTreeMap::new(),
                local_size: HashMap::new(),
            }),
            tel: KcTel::register(env),
        }))
    }

    /// The mount's root handle.
    pub fn root(&self) -> Handle {
        self.root
    }

    /// Counter snapshot (a view over the telemetry registry).
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            read_rpcs: self.tel.read_rpcs.get(),
            write_rpcs: self.tel.write_rpcs.get(),
            meta_rpcs: self.tel.meta_rpcs.get(),
            cache_hits: self.tel.cache_hits.get(),
            cache_misses: self.tel.cache_misses.get(),
            bytes_read: self.tel.bytes_read.get(),
            bytes_written: self.tel.bytes_written.get(),
        }
    }

    /// Reset counters.
    pub fn reset_stats(&self) {
        self.tel.read_rpcs.reset();
        self.tel.write_rpcs.reset();
        self.tel.meta_rpcs.reset();
        self.tel.cache_hits.reset();
        self.tel.cache_misses.reset();
        self.tel.bytes_read.reset();
        self.tel.bytes_written.reset();
    }

    /// Drop all cached data and metadata, as a umount/mount cycle does.
    /// Benchmarks call this to start a phase with cold kernel caches
    /// (the paper: "initially setup with cold caches by un-mounting and
    /// mounting the virtual file system").
    pub fn invalidate_caches(&self) {
        let mut st = self.state.lock();
        assert_eq!(st.dirty_bytes, 0, "invalidate with dirty data pending");
        st.cache.clear();
        st.dcache.clear();
        st.acache.clear();
        st.local_size.clear();
    }

    fn bs(&self) -> u64 {
        self.cfg.rsize as u64
    }

    fn cached_attr(&self, env: &Env, h: Handle) -> IoResult<Attr> {
        let now = env.now().as_nanos();
        {
            let st = self.state.lock();
            if let Some((attr, exp)) = st.acache.get(&h) {
                if *exp > now {
                    let mut a = attr.clone();
                    // Our dirty writes may have grown the file past the
                    // server-reported size.
                    if let Some(sz) = st.local_size.get(&h.fileid) {
                        a.size = a.size.max(*sz);
                    }
                    return Ok(a);
                }
            }
        }
        let attr = self.nfs.getattr(env, h).map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        let mut st = self.state.lock();
        let exp = now + self.cfg.attr_timeout.as_nanos();
        st.acache.insert(h, (attr.clone(), exp));
        let mut a = attr;
        if let Some(sz) = st.local_size.get(&h.fileid) {
            a.size = a.size.max(*sz);
        }
        Ok(a)
    }

    /// Fetch the given blocks with bounded parallelism; returns (block,
    /// data) pairs, the data a view into each READ reply (short at EOF).
    fn fetch_blocks(&self, env: &Env, h: Handle, blocks: Vec<u64>) -> IoResult<Vec<(u64, Bytes)>> {
        if blocks.is_empty() {
            return Ok(Vec::new());
        }
        let bs = self.bs();
        let n = blocks.len();
        let results: SharedBlockList = Arc::new(Mutex::new(Vec::with_capacity(n)));
        let queue: Arc<Mutex<VecDeque<u64>>> = Arc::new(Mutex::new(blocks.into_iter().collect()));
        let workers = self.cfg.max_inflight.min(n).max(1);
        if workers == 1 {
            // Fast path: no helper processes.
            while let Some(b) = {
                let q = queue.lock().pop_front();
                q
            } {
                let res = self.nfs.read(env, h, b * bs, bs as u32).map_err(map_err)?;
                results.lock().push((b, res.data));
            }
        } else {
            let mut joins = Vec::with_capacity(workers);
            for w in 0..workers {
                let queue = queue.clone();
                let results = results.clone();
                let nfs = self.nfs.clone();
                let bs_w = bs;
                joins.push(env.spawn(format!("nfs-read-{w}"), move |env| loop {
                    let b = match queue.lock().pop_front() {
                        Some(b) => b,
                        None => return,
                    };
                    match nfs.read(&env, h, b * bs_w, bs_w as u32) {
                        Ok(res) => results.lock().push((b, res.data)),
                        Err(_) => return, // surfaces as a short result below
                    }
                }));
            }
            for j in joins {
                j.join(env);
            }
        }
        let mut out = Arc::try_unwrap(results)
            .map_err(|_| IoError::Io("read worker leak".into()))?
            .into_inner();
        if out.len() != n {
            return Err(IoError::Io("read RPC failed".into()));
        }
        self.tel.read_rpcs.add(n as u64);
        self.tel.bytes_read.add(n as u64 * bs);
        out.sort_unstable_by_key(|(b, _)| *b);
        Ok(out)
    }

    /// Push dirty blocks with bounded parallelism and COMMIT.
    fn write_blocks(&self, env: &Env, h: Handle, blocks: Vec<(u64, Bytes)>) -> IoResult<()> {
        if blocks.is_empty() {
            return Ok(());
        }
        let bs = self.bs();
        let n = blocks.len();
        // Do not write past the file's logical size: the tail block may
        // extend beyond EOF.
        let size = {
            let st = self.state.lock();
            st.local_size.get(&h.fileid).copied()
        };
        let queue: SharedBlockQueue = Arc::new(Mutex::new(blocks.into_iter().collect()));
        let failures = Arc::new(Mutex::new(0usize));
        let workers = self.cfg.max_inflight.min(n).max(1);
        if workers == 1 {
            while let Some((b, data)) = {
                let q = queue.lock().pop_front();
                q
            } {
                let (off, data) = clip_to_size(b, data, bs, size);
                if data.is_empty() {
                    continue;
                }
                self.nfs
                    .write(env, h, off, data.to_vec(), StableHow::Unstable)
                    .map_err(map_err)?;
            }
        } else {
            let mut joins = Vec::with_capacity(workers);
            for w in 0..workers {
                let queue = queue.clone();
                let failures = failures.clone();
                let nfs = self.nfs.clone();
                joins.push(env.spawn(format!("nfs-write-{w}"), move |env| loop {
                    let (b, data) = match queue.lock().pop_front() {
                        Some(t) => t,
                        None => return,
                    };
                    let (off, data) = clip_to_size(b, data, bs, size);
                    if data.is_empty() {
                        continue;
                    }
                    if nfs
                        .write(&env, h, off, data.to_vec(), StableHow::Unstable)
                        .is_err()
                    {
                        *failures.lock() += 1;
                        return;
                    }
                }));
            }
            for j in joins {
                j.join(env);
            }
        }
        if *failures.lock() > 0 {
            return Err(IoError::Io("write RPC failed".into()));
        }
        self.nfs.commit(env, h).map_err(map_err)?;
        self.tel.write_rpcs.add(n as u64);
        self.tel.bytes_written.add(n as u64 * bs);
        self.tel.meta_rpcs.inc(); // the COMMIT
        Ok(())
    }

    /// Take `fileid`'s dirty blocks out of the cache's dirty set,
    /// returning handles on them for writeback. Blocks stay cached clean.
    fn collect_dirty(&self, fileid: u64) -> Vec<(u64, Bytes)> {
        let mut st = self.state.lock();
        let keys: Vec<(u64, u64)> = st
            .cache
            .iter_mru()
            .filter(|((f, _), blk)| blk.dirty && *f == fileid)
            .map(|(k, _)| *k)
            .collect();
        let mut out = Vec::with_capacity(keys.len());
        for k in keys {
            if let Some(blk) = st.cache.get_mut(&k) {
                blk.dirty = false;
                out.push((k.1, blk.data.clone()));
            }
        }
        st.dirty_bytes = st.dirty_bytes.saturating_sub(out.len() as u64 * self.bs());
        out.sort_unstable_by_key(|(b, _)| *b);
        out
    }

    fn flush_file(&self, env: &Env, h: Handle) -> IoResult<()> {
        let dirty = self.collect_dirty(h.fileid);
        self.write_blocks(env, h, dirty)
    }

    /// Handle eviction results: a dirty block falling out of the LRU
    /// triggers a batched write-back of its file's dirty set (the kernel
    /// coalesces write-back rather than dribbling single pages). Each
    /// block carries its handle's generation, so the evicted dirty blocks
    /// of every file are written back, not only the file being accessed.
    fn writeback_evicted(&self, env: &Env, evicted: Vec<((u64, u64), Block)>) -> IoResult<()> {
        // BTreeMap: files are written back in handle order (lint: determinism).
        let mut stragglers: BTreeMap<Handle, Vec<(u64, Bytes)>> = BTreeMap::new();
        let mut evicted_dirty = 0u64;
        for ((fileid, b), blk) in evicted {
            if blk.dirty {
                let h = Handle {
                    fileid,
                    generation: blk.generation,
                };
                stragglers.entry(h).or_default().push((b, blk.data));
                evicted_dirty += 1;
            }
        }
        if evicted_dirty == 0 {
            return Ok(());
        }
        {
            let mut st = self.state.lock();
            st.dirty_bytes = st.dirty_bytes.saturating_sub(evicted_dirty * self.bs());
        }
        for (h, evicted_blocks) in stragglers {
            // The evicted blocks themselves plus everything else dirty in
            // the file, in one pipelined batch.
            let mut batch = self.collect_dirty(h.fileid);
            batch.extend(evicted_blocks);
            batch.sort_unstable_by_key(|(b, _)| *b);
            batch.dedup_by_key(|(b, _)| *b);
            self.write_blocks(env, h, batch)?;
        }
        Ok(())
    }
}

/// Writable bytes of a cached block: a block shared with a `read` result
/// or an in-flight write-back, or short at EOF, is copied (and padded
/// with zeros) first, so no other holder sees the write.
fn block_mut(data: &mut Bytes, bs: usize) -> &mut [u8] {
    if data.len() < bs {
        let mut full = Vec::with_capacity(bs);
        full.extend_from_slice(data);
        full.resize(bs, 0);
        *data = Bytes::from_vec(full);
    }
    data.make_mut()
}

fn clip_to_size(b: u64, data: Bytes, bs: u64, size: Option<u64>) -> (u64, Bytes) {
    let off = b * bs;
    match size {
        Some(sz) if off >= sz => (off, Bytes::new()),
        Some(sz) => {
            let max = ((sz - off).min(bs) as usize).min(data.len());
            (off, data.slice(0, max))
        }
        None => (off, data),
    }
}

fn map_err(e: NfsError) -> IoError {
    match e {
        NfsError::Status(Status::NoEnt) => IoError::NotFound,
        NfsError::Status(Status::Exist) => IoError::Exists,
        NfsError::Status(Status::NotDir) => IoError::NotDir,
        NfsError::Status(Status::IsDir) => IoError::IsDir,
        NfsError::Status(Status::NotEmpty) => IoError::NotEmpty,
        NfsError::Status(Status::Stale) => IoError::Stale,
        NfsError::Status(Status::Inval) => IoError::InvalidName,
        other => IoError::Io(other.to_string()),
    }
}

impl FileIo for KernelClient {
    fn lookup_path(&self, env: &Env, path: &str) -> IoResult<Handle> {
        let now = env.now().as_nanos();
        let key = path.trim_matches('/').to_string();
        {
            let st = self.state.lock();
            if let Some((h, exp)) = st.dcache.get(&key) {
                if *exp > now {
                    return Ok(*h);
                }
            }
        }
        // Walk components, one LOOKUP RPC each (dentry-cache miss path).
        let mut h = self.root;
        let mut rpcs = 0u64;
        for comp in key.split('/').filter(|c| !c.is_empty()) {
            let (next, _) = self.nfs.lookup(env, h, comp).map_err(map_err)?;
            rpcs += 1;
            h = next;
        }
        self.tel.meta_rpcs.add(rpcs);
        let mut st = self.state.lock();
        let exp = now + self.cfg.attr_timeout.as_nanos();
        st.dcache.insert(key, (h, exp));
        Ok(h)
    }

    fn getattr(&self, env: &Env, h: Handle) -> IoResult<Attr> {
        self.cached_attr(env, h)
    }

    fn read(&self, env: &Env, h: Handle, offset: u64, len: u32) -> IoResult<Vec<u8>> {
        let attr = self.cached_attr(env, h)?;
        if attr.ftype != FileType::Regular {
            return Err(IoError::BadType);
        }
        if offset >= attr.size {
            return Ok(Vec::new());
        }
        let len = (len as u64).min(attr.size - offset) as usize;
        if len == 0 {
            return Ok(Vec::new());
        }
        let bs = self.bs();
        let first = offset / bs;
        let last = (offset + len as u64 - 1) / bs;

        // Scan the cache: take handles on hits, collect misses.
        let mut blocks: Vec<Option<Bytes>> = vec![None; (last - first + 1) as usize];
        let mut misses = Vec::new();
        {
            let mut st = self.state.lock();
            for b in first..=last {
                if let Some(blk) = st.cache.get(&(h.fileid, b)) {
                    blocks[(b - first) as usize] = Some(blk.data.clone());
                    self.tel.cache_hits.inc();
                } else {
                    misses.push(b);
                    self.tel.cache_misses.inc();
                }
            }
        }
        for _ in first..=last {
            env.sleep(self.cfg.hit_cost);
        }
        if !misses.is_empty() {
            let fetched = self.fetch_blocks(env, h, misses)?;
            let mut evicted_all = Vec::new();
            {
                let mut st = self.state.lock();
                for (b, data) in &fetched {
                    let blk = Block {
                        data: data.clone(),
                        dirty: false,
                        generation: h.generation,
                    };
                    if let Some(ev) = st.cache.insert((h.fileid, *b), blk) {
                        evicted_all.push(ev);
                    }
                }
            }
            self.writeback_evicted(env, evicted_all)?;
            for (b, data) in fetched {
                blocks[(b - first) as usize] = Some(data);
            }
        }
        // Assemble the byte range; bytes past a short block read as zeros.
        let mut out = Vec::with_capacity(len);
        let end = offset + len as u64;
        for (b, data) in (first..=last).zip(&blocks) {
            let block_start = b * bs;
            let from = (offset.max(block_start) - block_start) as usize;
            let to = (end.min(block_start + bs) - block_start) as usize;
            let target = out.len() + (to - from);
            let data = data.as_deref().unwrap_or_default();
            out.extend_from_slice(data.get(from..to.min(data.len())).unwrap_or_default());
            out.resize(target, 0);
        }
        Ok(out)
    }

    fn write(&self, env: &Env, h: Handle, offset: u64, data: &[u8]) -> IoResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        let bs = self.bs();
        let first = offset / bs;
        let last = (offset + data.len() as u64 - 1) / bs;
        let size_now = self.cached_attr(env, h)?.size;

        // Read-modify-write: partially-overwritten blocks that exist on
        // the server and are not cached must be fetched first.
        let mut rmw = Vec::new();
        {
            let st = self.state.lock();
            for b in [first, last] {
                let bstart = b * bs;
                let bend = bstart + bs;
                let fully_covered = offset <= bstart && (offset + data.len() as u64) >= bend;
                let exists = bstart < size_now;
                if !fully_covered
                    && exists
                    && !st.cache.contains(&(h.fileid, b))
                    && !rmw.contains(&b)
                {
                    rmw.push(b);
                }
            }
        }
        // A block fetched here can evict another file's dirty block, which
        // is written back below with this write's own evictions.
        let mut evicted_all = Vec::new();
        if !rmw.is_empty() {
            let fetched = self.fetch_blocks(env, h, rmw)?;
            let mut st = self.state.lock();
            for (b, d) in fetched {
                let blk = Block {
                    data: d,
                    dirty: false,
                    generation: h.generation,
                };
                if let Some(ev) = st.cache.insert((h.fileid, b), blk) {
                    evicted_all.push(ev);
                }
            }
        }

        // Apply the write into cache blocks, marking dirty.
        {
            let mut st = self.state.lock();
            for b in first..=last {
                let bstart = b * bs;
                let from = offset.max(bstart);
                let to = (offset + data.len() as u64).min(bstart + bs);
                let src = &data[(from - offset) as usize..(to - offset) as usize];
                let was_dirty = match st.cache.get_mut(&(h.fileid, b)) {
                    Some(blk) => {
                        let was = blk.dirty;
                        block_mut(&mut blk.data, bs as usize)
                            [(from - bstart) as usize..(to - bstart) as usize]
                            .copy_from_slice(src);
                        blk.dirty = true;
                        blk.generation = h.generation;
                        Some(was)
                    }
                    None => None,
                };
                match was_dirty {
                    Some(true) => {}
                    Some(false) => st.dirty_bytes += bs,
                    None => {
                        let mut block = vec![0u8; bs as usize];
                        block[(from - bstart) as usize..(to - bstart) as usize]
                            .copy_from_slice(src);
                        if let Some(ev) = st.cache.insert(
                            (h.fileid, b),
                            Block {
                                data: Bytes::from_vec(block),
                                dirty: true,
                                generation: h.generation,
                            },
                        ) {
                            evicted_all.push(ev);
                        }
                        st.dirty_bytes += bs;
                    }
                }
            }
            let end = offset + data.len() as u64;
            let e = st.local_size.entry(h.fileid).or_insert(size_now);
            *e = (*e).max(end);
            // Keep the attribute cache's size fresh for subsequent reads.
            if let Some((attr, _)) = st.acache.get_mut(&h) {
                attr.size = attr.size.max(end);
            }
        }
        for _ in first..=last {
            env.sleep(self.cfg.hit_cost);
        }
        self.writeback_evicted(env, evicted_all)?;

        // Back-pressure: too much dirty data forces a synchronous flush,
        // like the kernel's dirty-ratio writeback.
        let over_limit = { self.state.lock().dirty_bytes > self.cfg.dirty_limit_bytes };
        if over_limit {
            self.flush_file(env, h)?;
        }
        Ok(())
    }

    fn create_path(&self, env: &Env, path: &str) -> IoResult<Handle> {
        let (parent, name) = vfs::io::split_path(path)?;
        let dir = self.lookup_path(env, parent)?;
        let h = self.nfs.create(env, dir, name).map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        let now = env.now().as_nanos();
        let mut st = self.state.lock();
        st.dcache.insert(
            path.trim_matches('/').to_string(),
            (h, now + self.cfg.attr_timeout.as_nanos()),
        );
        st.local_size.insert(h.fileid, 0);
        Ok(h)
    }

    fn mkdir_path(&self, env: &Env, path: &str) -> IoResult<Handle> {
        let (parent, name) = vfs::io::split_path(path)?;
        let dir = self.lookup_path(env, parent)?;
        let h = self.nfs.mkdir(env, dir, name).map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        Ok(h)
    }

    fn symlink_path(&self, env: &Env, path: &str, target: &str) -> IoResult<()> {
        let (parent, name) = vfs::io::split_path(path)?;
        let dir = self.lookup_path(env, parent)?;
        self.nfs.symlink(env, dir, name, target).map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        Ok(())
    }

    fn readlink(&self, env: &Env, h: Handle) -> IoResult<String> {
        let t = self.nfs.readlink(env, h).map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        Ok(t)
    }

    fn readdir_path(&self, env: &Env, path: &str) -> IoResult<Vec<String>> {
        let dir = self.lookup_path(env, path)?;
        let entries = self.nfs.readdir(env, dir).map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        Ok(entries.into_iter().map(|e| e.name).collect())
    }

    fn remove_path(&self, env: &Env, path: &str) -> IoResult<()> {
        let (parent, name) = vfs::io::split_path(path)?;
        let dir = self.lookup_path(env, parent)?;
        let res = match self.nfs.remove(env, dir, name) {
            Ok(()) => Ok(()),
            Err(NfsError::Status(Status::IsDir)) => self.nfs.rmdir(env, dir, name),
            Err(e) => Err(e),
        };
        res.map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        let mut st = self.state.lock();
        st.dcache.remove(path.trim_matches('/'));
        Ok(())
    }

    fn set_size(&self, env: &Env, h: Handle, size: u64) -> IoResult<()> {
        self.nfs
            .setattr(env, h, Some(size), None)
            .map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        let mut st = self.state.lock();
        st.local_size.insert(h.fileid, size);
        if let Some((attr, _)) = st.acache.get_mut(&h) {
            attr.size = size;
        }
        Ok(())
    }

    fn close(&self, env: &Env, h: Handle) -> IoResult<()> {
        // Close-to-open consistency: flush dirty data and drop the
        // attribute cache entry so the next open revalidates.
        self.flush_file(env, h)?;
        self.state.lock().acache.remove(&h);
        Ok(())
    }

    fn sync(&self, env: &Env) -> IoResult<()> {
        // Flush every file with dirty blocks; each block carries its
        // handle's generation.
        loop {
            let next = {
                let st = self.state.lock();
                let h = st
                    .cache
                    .iter_mru()
                    .find(|(_, blk)| blk.dirty)
                    .map(|((fileid, _), blk)| Handle {
                        fileid: *fileid,
                        generation: blk.generation,
                    });
                h
            };
            match next {
                Some(h) => self.flush_file(env, h)?,
                None => break,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MountServer, Nfs3Server, ServerConfig};
    use oncrpc::{AuthSys, Dispatcher, OpaqueAuth, RpcClient, WireSpec};
    use simnet::{Link, Simulation};
    use vfs::{Disk, DiskModel};

    #[test]
    fn write_to_a_block_shared_with_a_read_copies_it_first() {
        let sim = Simulation::new();
        let h = sim.handle();
        let disk = Disk::new(&h, DiskModel::server_array());
        let (fs, server) = Nfs3Server::with_new_fs(&h, disk, ServerConfig::default());
        let mount = MountServer::new(fs.clone(), vec!["/".to_string()]);
        let lat = SimDuration::from_micros(100);
        let ep = oncrpc::endpoint(
            &h,
            Link::from_mbps(&h, "up", 1000.0, lat),
            Link::from_mbps(&h, "down", 1000.0, lat),
            WireSpec::plain(),
        );
        let handler = Dispatcher::new()
            .register(server)
            .register(mount)
            .into_handler();
        ep.listener.serve("nfsd", handler, 2);
        let rpc = RpcClient::new(ep.channel, OpaqueAuth::sys(&AuthSys::new("t", 1, 1)));
        let nfs = Nfs3Client::new(rpc);
        sim.spawn("client", move |env: Env| {
            let file = {
                let mut fs = fs.lock();
                let root = fs.root();
                let f = fs.create(root, "f", 0o644, 0).unwrap();
                fs.write(f, 0, &[7u8; 1000], 0).unwrap();
                f
            };
            let kc = KernelClient::mount(&env, nfs, "/", KernelConfig::default()).unwrap();
            assert_eq!(kc.read(&env, file, 0, 1000).unwrap(), vec![7u8; 1000]);
            // An earlier read's handle on the cached block, as `read`
            // takes one on a hit.
            let held = kc
                .state
                .lock()
                .cache
                .get(&(file.fileid, 0))
                .unwrap()
                .data
                .clone();
            kc.write(&env, file, 10, b"new").unwrap();
            assert_eq!(&*held, &[7u8; 1000][..], "the held view must not change");
            let got = kc.read(&env, file, 0, 1000).unwrap();
            assert_eq!(&got[10..13], b"new");
            assert!(got[..10].iter().chain(&got[13..]).all(|&b| b == 7));
            // Write-back hands out handles too: a write while one is held
            // leaves the handle's bytes alone.
            let dirty = kc.collect_dirty(file.fileid);
            assert_eq!(dirty.len(), 1);
            kc.write(&env, file, 10, b"NEW").unwrap();
            assert_eq!(&dirty[0].1[10..13], b"new");
            kc.close(&env, file).unwrap();
            let (on_server, _) = fs.lock().read(file, 0, 2000, 0).unwrap();
            assert_eq!(on_server.len(), 1000);
            assert_eq!(&on_server[10..13], b"NEW");
        });
        sim.run();
    }
}
