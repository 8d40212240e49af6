//! Sparse byte storage for large, mostly-empty files.
//!
//! VM state files are huge but sparse: a 1.6 GB virtual disk whose guest
//! filesystem holds a few hundred megabytes, or a 512 MB memory image that
//! is overwhelmingly zero-filled after boot (the paper's zero-block
//! filtering removes 60,452 of 65,750 reads when resuming such a VM).
//! Storing them densely would make the reproduction needlessly heavy, so
//! file contents live in fixed-size chunks allocated on first write;
//! reads of unwritten ranges yield zeros, exactly like holes in a real
//! filesystem.
//!
//! Chunks are shared, copy-on-write buffers. A full-chunk write of
//! nonzero data goes through one process-wide chunk pool, so the
//! hundreds of local `.vmss` copies a fleet makes of one golden image
//! hold one buffer per distinct chunk instead of one each. A partial
//! overwrite of a shared chunk copies that one chunk first.

use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

/// Chunk granularity for sparse allocation (64 KB).
pub const CHUNK_SIZE: usize = 64 * 1024;

/// A shared chunk. The bytes sit in a `Box` of their own rather than
/// inline in the `Arc` (`Arc<[u8]>`): the pool's `Weak` handles then pin
/// only the small `Arc` header once the last file drops a chunk, and
/// `Arc::make_mut` on a chunk only the pool still sees moves the `Box`
/// instead of copying 64 KB.
type Chunk = Arc<Box<[u8]>>;

/// A sparse, growable byte array.
#[derive(Debug, Clone, Default)]
pub struct SparseBytes {
    len: u64,
    chunks: BTreeMap<u64, Chunk>,
}

impl SparseBytes {
    /// Empty storage.
    pub fn new() -> Self {
        SparseBytes::default()
    }

    /// Logical length in bytes (includes trailing holes).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes actually allocated (the "used" attribute NFS reports). A
    /// chunk shared with other files still counts in full for each.
    pub fn allocated(&self) -> u64 {
        self.chunks.len() as u64 * CHUNK_SIZE as u64
    }

    /// Set the logical length; shrinking drops whole chunks beyond the new
    /// end and zeroes the tail of the boundary chunk.
    pub fn truncate(&mut self, new_len: u64) {
        if new_len < self.len {
            let first_dead_chunk = new_len.div_ceil(CHUNK_SIZE as u64);
            self.chunks.retain(|&idx, _| idx < first_dead_chunk);
            // Zero the tail of the boundary chunk so a later re-extend
            // reads zeros there (a shared chunk is copied only if its
            // tail holds data).
            let boundary = new_len / CHUNK_SIZE as u64;
            let within = (new_len % CHUNK_SIZE as u64) as usize;
            if within > 0 {
                if let Some(chunk) = self.chunks.get_mut(&boundary) {
                    if !is_zero(&chunk[within..]) {
                        Arc::make_mut(chunk)[within..].fill(0);
                    }
                }
            }
        }
        self.len = new_len;
    }

    /// Read a range as a fresh vector (short at EOF); holes read as
    /// zeros. Only holes are zero-filled: data is copied straight in.
    pub fn read_range(&self, offset: u64, len: usize) -> Vec<u8> {
        let n = if offset >= self.len {
            0
        } else {
            len.min((self.len - offset) as usize)
        };
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let abs = offset + out.len() as u64;
            let chunk_idx = abs / CHUNK_SIZE as u64;
            let within = (abs % CHUNK_SIZE as u64) as usize;
            let take = (CHUNK_SIZE - within).min(n - out.len());
            match self.chunks.get(&chunk_idx) {
                Some(chunk) => out.extend_from_slice(&chunk[within..within + take]),
                None => out.resize(out.len() + take, 0),
            }
        }
        out
    }

    /// Write `data` at `offset`, extending the logical length if needed.
    /// Writing all-zero data into a hole does not allocate a chunk. A
    /// zero-length write still extends the file to `offset` (it behaves
    /// like the degenerate end of a write ending at `offset`), matching
    /// the dense reference model the property tests check against.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) {
        let end = offset + data.len() as u64;
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let chunk_idx = abs / CHUNK_SIZE as u64;
            let within = (abs % CHUNK_SIZE as u64) as usize;
            let take = (CHUNK_SIZE - within).min(data.len() - pos);
            let src = &data[pos..pos + take];
            if take == CHUNK_SIZE {
                let shared = POOL.lock().intern(src);
                match shared {
                    Some(shared) => {
                        self.chunks.insert(chunk_idx, shared);
                    }
                    // All zero: a hole stays a hole, an allocated chunk
                    // stays allocated (and reads zero).
                    None => {
                        if let Some(chunk) = self.chunks.get_mut(&chunk_idx) {
                            if !is_zero(chunk) {
                                Arc::make_mut(chunk).fill(0);
                            }
                        }
                    }
                }
            } else {
                match self.chunks.get_mut(&chunk_idx) {
                    Some(chunk) => Arc::make_mut(chunk)[within..within + take].copy_from_slice(src),
                    None => {
                        if !is_zero(src) {
                            let mut chunk = vec![0u8; CHUNK_SIZE].into_boxed_slice();
                            chunk[within..within + take].copy_from_slice(src);
                            self.chunks.insert(chunk_idx, Arc::new(chunk));
                        }
                    }
                }
            }
            pos += take;
        }
        self.len = self.len.max(end);
    }

    /// Whether the given range contains only zeros (holes count as zero).
    pub fn is_zero_range(&self, offset: u64, len: usize) -> bool {
        if len == 0 {
            return true;
        }
        let end = offset + len as u64;
        let first = offset / CHUNK_SIZE as u64;
        let last = (end - 1) / CHUNK_SIZE as u64;
        for (idx, chunk) in self.chunks.range(first..=last) {
            let chunk_start = idx * CHUNK_SIZE as u64;
            let lo = offset.saturating_sub(chunk_start).min(CHUNK_SIZE as u64) as usize;
            let hi = (end - chunk_start).min(CHUNK_SIZE as u64) as usize;
            if !is_zero(&chunk[lo..hi]) {
                return false;
            }
        }
        true
    }
}

fn is_zero(bytes: &[u8]) -> bool {
    bytes.iter().all(|&b| b == 0)
}

/// The process-wide pool every full-chunk write goes through. Its lock is
/// a leaf: nothing is called and no other lock is taken while it is held.
static POOL: Mutex<ChunkPool> = Mutex::new(ChunkPool::new());

/// The pool never sweeps while it holds fewer handles than this.
const MIN_SWEEP: usize = 1024;

/// Interning table for full chunks of nonzero data.
///
/// Keys are a few words sampled from the chunk; a hit is confirmed by a
/// full byte compare, so a key collision costs a compare and never
/// decides what bytes a file holds. The pool holds only `Weak` handles:
/// files own their chunks, and a chunk dies with the last file that
/// holds it. Dead handles (each pinning a small `Arc` header) are shed
/// when their key is next inserted and by an amortised sweep whenever
/// the pool has doubled since the last.
struct ChunkPool {
    entries: BTreeMap<u64, Vec<Weak<Box<[u8]>>>>,
    /// Handles held, live or dead.
    handles: usize,
    /// Sweep once `handles` reaches this.
    sweep_at: usize,
}

impl ChunkPool {
    const fn new() -> Self {
        ChunkPool {
            entries: BTreeMap::new(),
            handles: 0,
            sweep_at: MIN_SWEEP,
        }
    }

    /// A shared chunk holding `chunk`'s bytes (one full chunk), or `None`
    /// when they are all zero. The pool is consulted before the zero
    /// scan, so a hit costs one compare and no scan.
    fn intern(&mut self, chunk: &[u8]) -> Option<Chunk> {
        let key = sample_key(chunk);
        if let Some(hit) = self
            .entries
            .get(&key)
            .into_iter()
            .flatten()
            .filter_map(Weak::upgrade)
            .find(|c| c[..] == *chunk)
        {
            return Some(hit);
        }
        if is_zero(chunk) {
            return None;
        }
        let fresh: Chunk = Arc::new(Box::from(chunk));
        let bucket = self.entries.entry(key).or_default();
        let before = bucket.len();
        bucket.retain(|w| w.strong_count() > 0);
        bucket.push(Arc::downgrade(&fresh));
        self.handles = self.handles - before + bucket.len();
        if self.handles >= self.sweep_at {
            self.sweep();
        }
        Some(fresh)
    }

    /// Drop every dead handle and empty key.
    fn sweep(&mut self) {
        self.entries.retain(|_, bucket| {
            bucket.retain(|w| w.strong_count() > 0);
            !bucket.is_empty()
        });
        self.handles = self.entries.values().map(Vec::len).sum();
        self.sweep_at = (2 * self.handles).max(MIN_SWEEP);
    }
}

/// Pool key: eight words sampled across the chunk. Pages inside a chunk
/// differ in content, so words from different pages keep distinct chunks
/// apart; the full compare on a hit keeps this from mattering.
fn sample_key(chunk: &[u8]) -> u64 {
    const SAMPLES: usize = 8;
    const STRIDE: usize = CHUNK_SIZE / SAMPLES;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..SAMPLES {
        // Offsets step through each stride so they do not all sit at
        // page starts.
        let at = i * STRIDE + (i * 1096) % (STRIDE - 8);
        let mut word = [0u8; 8];
        word.copy_from_slice(&chunk[at..at + 8]);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(0x1000_0000_01b3);
        h ^= h >> 29;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_from_empty_are_empty() {
        let s = SparseBytes::new();
        assert_eq!(s.read_range(0, 16), Vec::<u8>::new());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = SparseBytes::new();
        s.write_at(10, b"hello");
        assert_eq!(s.len(), 15);
        assert_eq!(s.read_range(10, 5), b"hello");
        // The hole before the write reads as zeros.
        assert_eq!(s.read_range(0, 10), vec![0u8; 10]);
    }

    #[test]
    fn cross_chunk_writes_work() {
        let mut s = SparseBytes::new();
        let data: Vec<u8> = (0..=255u8).cycle().take(CHUNK_SIZE + 100).collect();
        let off = CHUNK_SIZE as u64 - 50;
        s.write_at(off, &data);
        assert_eq!(s.read_range(off, data.len()), data);
    }

    #[test]
    fn zero_writes_into_holes_do_not_allocate() {
        let mut s = SparseBytes::new();
        s.write_at(0, &vec![0u8; 4 * CHUNK_SIZE]);
        assert_eq!(s.len(), 4 * CHUNK_SIZE as u64);
        assert_eq!(s.allocated(), 0);
        // But nonzero writes do.
        s.write_at(0, &[1]);
        assert_eq!(s.allocated(), CHUNK_SIZE as u64);
    }

    #[test]
    fn truncate_shrinks_and_zeroes_boundary() {
        let mut s = SparseBytes::new();
        s.write_at(0, &vec![0xAB; 2 * CHUNK_SIZE]);
        s.truncate(100);
        assert_eq!(s.len(), 100);
        // Re-extend: bytes past 100 must read zero even inside the kept chunk.
        s.truncate(200);
        let r = s.read_range(0, 200);
        assert!(r[..100].iter().all(|&b| b == 0xAB));
        assert!(r[100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn is_zero_range_sees_holes_and_data() {
        let mut s = SparseBytes::new();
        s.write_at(CHUNK_SIZE as u64 * 2, &[7]);
        s.truncate(CHUNK_SIZE as u64 * 4);
        assert!(s.is_zero_range(0, CHUNK_SIZE * 2));
        assert!(!s.is_zero_range(CHUNK_SIZE as u64 * 2, 1));
        assert!(s.is_zero_range(CHUNK_SIZE as u64 * 2 + 1, CHUNK_SIZE));
    }

    /// One chunk of nonzero bytes unique to `seed`.
    fn pattern(seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..CHUNK_SIZE)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8 | 1
            })
            .collect()
    }

    #[test]
    fn identical_full_chunks_share_one_buffer() {
        let chunk = pattern(0x5eed_0001);
        let copies: Vec<SparseBytes> = (0..64)
            .map(|i| {
                let mut s = SparseBytes::new();
                s.write_at(i * CHUNK_SIZE as u64, &chunk);
                s
            })
            .collect();
        let first = &copies[0].chunks[&0];
        for (i, s) in copies.iter().enumerate() {
            assert!(Arc::ptr_eq(first, &s.chunks[&(i as u64)]), "copy {i}");
            assert_eq!(s.allocated(), CHUNK_SIZE as u64);
        }
        assert_eq!(Arc::strong_count(first), 64);
    }

    #[test]
    fn writes_to_a_shared_chunk_copy_it_first() {
        let chunk = pattern(0x5eed_0002);
        let mut a = SparseBytes::new();
        let mut b = SparseBytes::new();
        a.write_at(0, &chunk);
        b.write_at(0, &chunk);
        assert!(Arc::ptr_eq(&a.chunks[&0], &b.chunks[&0]));
        a.write_at(5, b"\0\0\0");
        assert!(!Arc::ptr_eq(&a.chunks[&0], &b.chunks[&0]));
        assert_eq!(a.read_range(4, 5), [chunk[4], 0, 0, 0, chunk[8]]);
        assert_eq!(b.read_range(0, CHUNK_SIZE), chunk);
        // Truncating into a shared chunk leaves the other file alone.
        let mut c = b.clone();
        c.truncate(100);
        c.truncate(CHUNK_SIZE as u64);
        assert_eq!(b.read_range(0, CHUNK_SIZE), chunk);
        assert!(c.read_range(100, 10).iter().all(|&x| x == 0));
        // An all-zero full-chunk write keeps the chunk allocated, zeroed,
        // and leaves the sharer alone.
        let mut d = b.clone();
        d.write_at(0, &vec![0u8; CHUNK_SIZE]);
        assert_eq!(d.allocated(), CHUNK_SIZE as u64);
        assert!(d.is_zero_range(0, CHUNK_SIZE));
        assert_eq!(b.read_range(0, CHUNK_SIZE), chunk);
    }

    #[test]
    fn pool_sweeps_dead_handles_amortised() {
        let mut pool = ChunkPool::new();
        let x = pattern(0x5eed_0003);
        let held: Vec<Chunk> = (0..64).map(|_| pool.intern(&x).unwrap()).collect();
        assert!(held.iter().all(|c| Arc::ptr_eq(c, &held[0])));
        assert_eq!(pool.handles, 1);
        assert_eq!(pool.intern(&vec![0u8; CHUNK_SIZE]), None);
        drop(held);
        // Each insertion is amortised O(1): the sweep runs once the pool
        // has grown to `sweep_at`, and sheds the dead handle of `x`.
        let live: Vec<Chunk> = (0..MIN_SWEEP as u64)
            .map(|i| pool.intern(&pattern(i)).unwrap())
            .collect();
        assert!(!pool.entries.contains_key(&sample_key(&x)));
        assert_eq!(pool.handles, live.len());
        // The next sweep waits for the pool to double again.
        assert!(pool.sweep_at >= 2 * (live.len() - 1));
        // A re-interned chunk after its last holder died is a fresh buffer.
        let again = pool.intern(&x).unwrap();
        assert_eq!(again[..], x[..]);
    }

    #[test]
    fn key_collisions_are_settled_by_the_byte_compare() {
        let mut pool = ChunkPool::new();
        let x = pattern(0x5eed_0005);
        let mut y = x.clone();
        y[100] ^= 1; // outside every sampled word
        assert_eq!(sample_key(&x), sample_key(&y));
        let cx = pool.intern(&x).unwrap();
        let cy = pool.intern(&y).unwrap();
        assert!(!Arc::ptr_eq(&cx, &cy));
        assert_eq!((&cx[..], &cy[..]), (&x[..], &y[..]));
        assert!(Arc::ptr_eq(&pool.intern(&y).unwrap(), &cy));
    }

    #[test]
    fn removed_files_leave_only_dead_handles_in_the_global_pool() {
        let x = pattern(0x5eed_0004);
        let key = sample_key(&x);
        let files: Vec<SparseBytes> = (0..8)
            .map(|_| {
                let mut s = SparseBytes::new();
                s.write_at(0, &x);
                s
            })
            .collect();
        drop(files);
        let mut pool = POOL.lock();
        assert!(pool.entries[&key].iter().all(|w| w.strong_count() == 0));
        pool.sweep();
        assert!(!pool.entries.contains_key(&key));
    }

    #[test]
    fn short_read_at_eof() {
        let mut s = SparseBytes::new();
        s.write_at(0, b"abc");
        assert_eq!(s.read_range(1, 100), b"bc");
        assert_eq!(s.read_range(3, 100), b"");
    }
}
