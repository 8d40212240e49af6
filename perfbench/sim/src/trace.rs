//! Layer tracing from outside the program: wrappers around the two public
//! layer boundaries, `vfs::FileIo` (the VMM's calls into the kernel NFS
//! client mount) and `oncrpc::RpcHandler` (each proxy tier and the server
//! dispatcher, wrapped before `Listener::serve`).
//!
//! A wrapper reads the virtual clock before and after the call it forwards
//! and appends a span to a host-side list. It never sleeps, spawns, sends
//! or touches the simulation's telemetry registry, so a traced run keeps
//! the untraced run's timeline and counters exactly.

use std::collections::HashMap;
use std::sync::Arc;

use oncrpc::transport::RpcHandler;
use oncrpc::{OpaqueAuth, RpcMessage};
use parking_lot::Mutex;
use simnet::Env;
use vfs::{Attr, FileIo, Handle, IoResult};
use xdr::Bytes;

/// A wrapped boundary, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// `FileIo` calls into a compute host's kernel NFS client.
    Kernel,
    /// RPCs served by a compute host's client proxy.
    ClientProxy,
    /// RPCs served by a site's shard proxy (fleet only).
    ShardProxy,
    /// RPCs served by the image server's proxy.
    ServerProxy,
    /// RPCs served by the image server's dispatcher (NFS, MOUNT, channel).
    Server,
}

impl Layer {
    /// The next wrapped boundary outwards (towards the VMM).
    fn outer(self, has_shards: bool) -> Option<Layer> {
        match self {
            Layer::Kernel => None,
            Layer::ClientProxy => Some(Layer::Kernel),
            Layer::ShardProxy => Some(Layer::ClientProxy),
            Layer::ServerProxy if has_shards => Some(Layer::ShardProxy),
            Layer::ServerProxy => Some(Layer::ClientProxy),
            Layer::Server => Some(Layer::ServerProxy),
        }
    }
}

/// What a kernel span did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `FileIo::read`.
    Read,
    /// `FileIo::write`.
    Write,
    /// Any other `FileIo` call, or an RPC.
    Other,
}

/// One call through a wrapped boundary, in virtual nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary the call crossed.
    pub layer: Layer,
    /// Kernel operation kind (`Other` for RPC spans).
    pub op: Op,
    /// Virtual start.
    pub start: u64,
    /// Virtual end.
    pub end: u64,
    /// Key a child span on the next inner boundary must carry as its
    /// `key_up` to be enclosed by this span: the credential this layer
    /// calls upstream with (0 where children are not told apart).
    pub key_down: u64,
    /// Key of the caller: the credential the request carried (0 for
    /// kernel spans, and where callers are not told apart).
    pub key_up: u64,
    /// Index of the enclosing span on the next outer boundary, filled in
    /// when the spans are taken (see [`Tracer::take_spans`]).
    pub parent: Option<u32>,
}

impl Span {
    /// Span length in virtual nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Bytes one compute host read from a golden `.vmss` through its kernel
/// mount: `(image file name, offset, length, FNV-1a of the bytes)`.
pub type VmssRead = (String, u64, u64, u64);

/// Host-side span and byte recorder shared by every wrapper of one run.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
    vmss_reads: Mutex<Vec<VmssRead>>,
}

impl Tracer {
    fn push(&self, span: Span) {
        self.spans.lock().push(span);
    }

    /// Every span recorded, with parents linked.
    pub fn take_spans(&self, has_shards: bool) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock());
        link_parents(&mut spans, has_shards);
        spans
    }

    /// Every `.vmss` read recorded through a kernel wrapper.
    pub fn take_vmss_reads(&self) -> Vec<VmssRead> {
        std::mem::take(&mut *self.vmss_reads.lock())
    }
}

/// Link each span to the span that encloses it on the next outer boundary:
/// among the outer spans with the same key whose interval contains the
/// child's, the one that started last. Spans with no such outer span
/// (read-ahead and write-back that outlive the call that started them)
/// stay unlinked.
fn link_parents(spans: &mut [Span], has_shards: bool) {
    let mut by_layer: HashMap<(Layer, u64), Vec<u32>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_layer
            .entry((s.layer, s.key_down))
            .or_default()
            .push(i as u32);
    }
    for list in by_layer.values_mut() {
        list.sort_by_key(|&i| (spans[i as usize].start, i));
    }
    for i in 0..spans.len() {
        let child = spans[i];
        let Some(outer) = child.layer.outer(has_shards) else {
            continue;
        };
        let Some(cands) = by_layer.get(&(outer, child.key_up)) else {
            continue;
        };
        // Last candidate starting no later than the child, then walk back
        // to the first one that also ends no earlier.
        let upto = cands.partition_point(|&c| spans[c as usize].start <= child.start);
        spans[i].parent = cands[..upto]
            .iter()
            .rev()
            .take(256)
            .find(|&&c| spans[c as usize].end >= child.end)
            .copied();
    }
}

/// FNV-1a over a byte slice.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Span key of a credential: a digest of its body.
pub fn cred_key(cred: &OpaqueAuth) -> u64 {
    fnv(&cred.body)
}

/// `RpcHandler` wrapper: one span per request served.
pub struct TracedRpc {
    inner: Arc<dyn RpcHandler>,
    tracer: Arc<Tracer>,
    layer: Layer,
    key_down: u64,
    keyed: bool,
}

impl TracedRpc {
    /// Wrap `inner` as boundary `layer`. `upstream` is the credential the
    /// layer calls upstream with (`None`: its children are not told
    /// apart); `keyed` tells callers apart by the request's credential.
    pub fn wrap(
        inner: Arc<dyn RpcHandler>,
        tracer: &Arc<Tracer>,
        layer: Layer,
        upstream: Option<&OpaqueAuth>,
        keyed: bool,
    ) -> Arc<dyn RpcHandler> {
        Arc::new(TracedRpc {
            inner,
            tracer: tracer.clone(),
            layer,
            key_down: upstream.map_or(0, cred_key),
            keyed,
        })
    }
}

impl RpcHandler for TracedRpc {
    fn handle(&self, env: &Env, request: &Bytes) -> Bytes {
        let start = env.now().as_nanos();
        let reply = self.inner.handle(env, request);
        let key_up = match RpcMessage::decode_shared(request) {
            Ok(RpcMessage::Call { header, .. }) if self.keyed => cred_key(&header.cred),
            _ => 0,
        };
        self.tracer.push(Span {
            layer: self.layer,
            op: Op::Other,
            start,
            end: env.now().as_nanos(),
            key_down: self.key_down,
            key_up,
            parent: None,
        });
        reply
    }
}

/// `FileIo` wrapper over a kernel NFS client mount: one span per call,
/// plus a digest of every read of a `.vmss` file.
pub struct TracedIo {
    inner: Arc<dyn FileIo>,
    tracer: Arc<Tracer>,
    key_down: u64,
    vmss: Mutex<HashMap<Handle, String>>,
}

impl TracedIo {
    /// Wrap a kernel mount that calls its proxy as `cred`.
    pub fn wrap(
        inner: Arc<dyn FileIo>,
        tracer: &Arc<Tracer>,
        cred: &OpaqueAuth,
    ) -> Arc<dyn FileIo> {
        Arc::new(TracedIo {
            inner,
            tracer: tracer.clone(),
            key_down: cred_key(cred),
            vmss: Mutex::new(HashMap::new()),
        })
    }

    fn timed<R>(&self, env: &Env, op: Op, f: impl FnOnce() -> R) -> R {
        let start = env.now().as_nanos();
        let out = f();
        self.tracer.push(Span {
            layer: Layer::Kernel,
            op,
            start,
            end: env.now().as_nanos(),
            key_down: self.key_down,
            key_up: 0,
            parent: None,
        });
        out
    }
}

impl FileIo for TracedIo {
    fn lookup_path(&self, env: &Env, path: &str) -> IoResult<Handle> {
        let h = self.timed(env, Op::Other, || self.inner.lookup_path(env, path))?;
        if path.ends_with(".vmss") {
            let name = path.rsplit('/').next().unwrap_or(path).to_string();
            self.vmss.lock().insert(h, name);
        }
        Ok(h)
    }
    fn getattr(&self, env: &Env, h: Handle) -> IoResult<Attr> {
        self.timed(env, Op::Other, || self.inner.getattr(env, h))
    }
    fn read(&self, env: &Env, h: Handle, offset: u64, len: u32) -> IoResult<Vec<u8>> {
        let data = self.timed(env, Op::Read, || self.inner.read(env, h, offset, len))?;
        let name = self.vmss.lock().get(&h).cloned();
        if let Some(name) = name {
            let rec = (name, offset, data.len() as u64, fnv(&data));
            self.tracer.vmss_reads.lock().push(rec);
        }
        Ok(data)
    }
    fn write(&self, env: &Env, h: Handle, offset: u64, data: &[u8]) -> IoResult<()> {
        self.timed(env, Op::Write, || self.inner.write(env, h, offset, data))
    }
    fn create_path(&self, env: &Env, path: &str) -> IoResult<Handle> {
        self.timed(env, Op::Other, || self.inner.create_path(env, path))
    }
    fn mkdir_path(&self, env: &Env, path: &str) -> IoResult<Handle> {
        self.timed(env, Op::Other, || self.inner.mkdir_path(env, path))
    }
    fn symlink_path(&self, env: &Env, path: &str, target: &str) -> IoResult<()> {
        self.timed(env, Op::Other, || {
            self.inner.symlink_path(env, path, target)
        })
    }
    fn readlink(&self, env: &Env, h: Handle) -> IoResult<String> {
        self.timed(env, Op::Other, || self.inner.readlink(env, h))
    }
    fn readdir_path(&self, env: &Env, path: &str) -> IoResult<Vec<String>> {
        self.timed(env, Op::Other, || self.inner.readdir_path(env, path))
    }
    fn remove_path(&self, env: &Env, path: &str) -> IoResult<()> {
        self.timed(env, Op::Other, || self.inner.remove_path(env, path))
    }
    fn set_size(&self, env: &Env, h: Handle, size: u64) -> IoResult<()> {
        self.timed(env, Op::Other, || self.inner.set_size(env, h, size))
    }
    fn close(&self, env: &Env, h: Handle) -> IoResult<()> {
        self.timed(env, Op::Other, || self.inner.close(env, h))
    }
    fn sync(&self, env: &Env) -> IoResult<()> {
        self.timed(env, Op::Other, || self.inner.sync(env))
    }
}

/// Write spans as tab-separated lines: index, layer, op, virtual start
/// and end (ns), and the index of the enclosing span (`-` if none).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "span\tlayer\top\tstart_ns\tend_ns\tparent")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{i}\t{:?}\t{:?}\t{}\t{}\t{parent}",
            s.layer, s.op, s.start, s.end
        )?;
    }
    f.flush()
}

/// Per-boundary aggregate of a run's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStats {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span lengths, virtual seconds.
    pub busy_s: f64,
    /// Sum of (span − union of its linked child spans), virtual seconds.
    pub self_s: f64,
    /// Median span length, virtual ms.
    pub p50_ms: f64,
    /// 99th-percentile span length, virtual ms.
    pub p99_ms: f64,
}

/// Exact nearest-rank quantile of sorted values.
pub fn rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let k = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[k - 1]
}

/// Aggregate the spans matching `pick`; self time is computed only when
/// `with_self` (sequential hops, where the child attribution is exact).
pub fn layer_stats(spans: &[Span], pick: impl Fn(&Span) -> bool, with_self: bool) -> LayerStats {
    let idx: Vec<usize> = (0..spans.len()).filter(|&i| pick(&spans[i])).collect();
    let mut durs: Vec<u64> = idx.iter().map(|&i| spans[i].dur()).collect();
    durs.sort_unstable();
    let busy: u64 = durs.iter().sum();
    let mut self_ns = 0u64;
    if with_self {
        let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        for &i in &idx {
            let s = &spans[i];
            let covered = children
                .get_mut(&(i as u32))
                .map_or(0, |c| union_len(c, s.start, s.end));
            self_ns += s.dur() - covered.min(s.dur());
        }
    }
    LayerStats {
        calls: durs.len() as u64,
        busy_s: busy as f64 / 1e9,
        self_s: self_ns as f64 / 1e9,
        p50_ms: rank(&durs, 0.50) as f64 / 1e6,
        p99_ms: rank(&durs, 0.99) as f64 / 1e6,
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64) -> Span {
        Span {
            layer,
            op: Op::Other,
            start,
            end,
            key_down: 0,
            key_up: 0,
            parent: None,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let mut spans = vec![
            span(Layer::Kernel, 0, 100),
            span(Layer::ClientProxy, 10, 40),
            span(Layer::ClientProxy, 30, 60),
            span(Layer::ClientProxy, 150, 160),
        ];
        link_parents(&mut spans, false);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        let k = layer_stats(&spans, |s| s.layer == Layer::Kernel, true);
        assert_eq!(k.self_s, 50e-9);
    }

    #[test]
    fn nearest_rank_is_an_order_statistic() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(rank(&v, 0.50), 50);
        assert_eq!(rank(&v, 0.99), 99);
        assert_eq!(rank(&v[..1], 0.99), 1);
    }
}
