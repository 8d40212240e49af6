//! Property-based invariants for the filesystem substrate.

use std::collections::BTreeSet;

use proptest::prelude::*;
use vfs::{Fs, LruMap, SparseBytes, CHUNK_SIZE};

/// The chunk contents the shared-chunk property draws on: zeros, two
/// patterns, and the first pattern with one byte changed.
fn chunk_contents() -> Vec<Vec<u8>> {
    let pattern = |seed: u64| -> Vec<u8> {
        let mut x = seed;
        (0..CHUNK_SIZE)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 59) as u8
            })
            .collect()
    };
    let mut near = pattern(1);
    near[CHUNK_SIZE / 2 + 3] ^= 0x80;
    vec![vec![0u8; CHUNK_SIZE], pattern(1), pattern(2), near]
}

/// A file as a dense byte vector plus the chunks unshared sparse storage
/// would have allocated: a chunk is allocated when a nonzero byte lands
/// in it, and freed only by a truncate below it.
#[derive(Default)]
struct DenseFile {
    bytes: Vec<u8>,
    allocated: BTreeSet<u64>,
}

impl DenseFile {
    fn write(&mut self, off: u64, data: &[u8]) {
        let end = off as usize + data.len();
        if self.bytes.len() < end {
            self.bytes.resize(end, 0);
        }
        self.bytes[off as usize..end].copy_from_slice(data);
        for (i, &b) in data.iter().enumerate() {
            if b != 0 {
                self.allocated.insert((off + i as u64) / CHUNK_SIZE as u64);
            }
        }
    }

    fn truncate(&mut self, len: u64) {
        if len < self.bytes.len() as u64 {
            let first_dead = len.div_ceil(CHUNK_SIZE as u64);
            self.allocated.retain(|&c| c < first_dead);
        }
        self.bytes.resize(len as usize, 0);
    }
}

proptest! {
    /// SparseBytes matches a dense reference model under arbitrary
    /// write/truncate/read sequences.
    #[test]
    fn sparse_bytes_matches_dense_model(
        ops in proptest::collection::vec(
            prop_oneof![
                // (offset, data) write
                (0u64..300_000, proptest::collection::vec(any::<u8>(), 0..5_000)).prop_map(|(o, d)| (0u8, o, d)),
                // truncate
                (0u64..300_000).prop_map(|n| (1u8, n, Vec::new())),
            ],
            1..25
        )
    ) {
        let mut sparse = SparseBytes::new();
        let mut dense: Vec<u8> = Vec::new();
        for (kind, off, data) in ops {
            match kind {
                0 => {
                    sparse.write_at(off, &data);
                    let end = off as usize + data.len();
                    if dense.len() < end {
                        dense.resize(end, 0);
                    }
                    dense[off as usize..end].copy_from_slice(&data);
                }
                _ => {
                    sparse.truncate(off);
                    dense.resize(off as usize, 0);
                }
            }
            prop_assert_eq!(sparse.len(), dense.len() as u64);
        }
        // Full-content equality.
        prop_assert_eq!(sparse.read_range(0, dense.len()), dense.clone());
        // Random window equality.
        if !dense.is_empty() {
            let mid = dense.len() / 2;
            prop_assert_eq!(sparse.read_range(mid as u64, 1000),
                dense[mid..(mid + 1000).min(dense.len())].to_vec());
        }
        // is_zero_range agrees with the dense model.
        let probe = dense.len() / 3;
        let window = 700.min(dense.len().saturating_sub(probe));
        let dense_zero = dense[probe..probe + window].iter().all(|&b| b == 0);
        prop_assert_eq!(sparse.is_zero_range(probe as u64, window), dense_zero);
    }

    /// Files whose full chunks come from a small set of contents (so the
    /// chunk pool shares their buffers) each match their own dense model
    /// under full-chunk, partial and zero writes, chunk copies between
    /// files and truncates: a write to one file never shows in another,
    /// and `allocated()` follows the rule of unshared storage.
    #[test]
    fn shared_chunks_match_dense_models_across_files(
        ops in proptest::collection::vec(
            ((0usize..3, 0u8..4), (0usize..4, 0u64..400_000, 0usize..3_000)),
            1..40
        )
    ) {
        let contents = chunk_contents();
        let mut files: Vec<SparseBytes> = (0..3).map(|_| SparseBytes::new()).collect();
        let mut dense: Vec<DenseFile> = (0..3).map(|_| DenseFile::default()).collect();
        for ((f, kind), (c, off, len)) in ops {
            let aligned = off / CHUNK_SIZE as u64 * CHUNK_SIZE as u64;
            match kind {
                // Full-chunk write.
                0 => {
                    files[f].write_at(aligned, &contents[c]);
                    dense[f].write(aligned, &contents[c]);
                }
                // Partial write (zeros when `c` is 0).
                1 => {
                    let data = &contents[c][..len];
                    files[f].write_at(off, data);
                    dense[f].write(off, data);
                }
                // Copy two chunks from file `c % 3` into file `f`, as a
                // clone copies a state file.
                2 => {
                    let src = c % 3;
                    let data = files[src].read_range(aligned, 2 * CHUNK_SIZE);
                    files[f].write_at(aligned, &data);
                    dense[f].write(aligned, &data);
                }
                _ => {
                    files[f].truncate(off);
                    dense[f].truncate(off);
                }
            }
            for (s, d) in files.iter().zip(&dense) {
                prop_assert_eq!(s.len(), d.bytes.len() as u64);
                prop_assert_eq!(s.allocated(), d.allocated.len() as u64 * CHUNK_SIZE as u64);
            }
        }
        for (s, d) in files.iter().zip(&dense) {
            prop_assert!(s.read_range(0, d.bytes.len() + 1) == d.bytes);
        }
    }

    /// The LRU map never exceeds capacity, and membership matches a
    /// naive model.
    #[test]
    fn lru_matches_naive_model(
        cap in 1usize..20,
        ops in proptest::collection::vec((0u32..40, any::<bool>()), 1..200)
    ) {
        let mut lru = LruMap::new(cap);
        let mut model: Vec<u32> = Vec::new(); // MRU-first
        for (key, is_insert) in ops {
            if is_insert {
                lru.insert(key, ());
                model.retain(|&k| k != key);
                model.insert(0, key);
                model.truncate(cap);
            } else {
                let hit = lru.get(&key).is_some();
                let model_hit = model.contains(&key);
                prop_assert_eq!(hit, model_hit);
                if model_hit {
                    model.retain(|&k| k != key);
                    model.insert(0, key);
                }
            }
            prop_assert!(lru.len() <= cap);
            prop_assert_eq!(lru.len(), model.len());
        }
        let order: Vec<u32> = lru.iter_mru().map(|(k, _)| *k).collect();
        prop_assert_eq!(order, model);
    }

    /// Filesystem namespace operations keep lookup/readdir consistent.
    #[test]
    fn fs_namespace_stays_consistent(names in proptest::collection::vec("[a-z]{1,8}", 1..20)) {
        let mut fs = Fs::new(0);
        let root = fs.root();
        let mut expect: Vec<String> = Vec::new();
        for n in &names {
            match fs.create(root, n, 0o644, 0) {
                Ok(_) => expect.push(n.clone()),
                Err(vfs::FsError::Exists) => {}
                Err(e) => return Err(TestCaseError::fail(format!("{e:?}"))),
            }
        }
        expect.sort();
        expect.dedup();
        let listed: Vec<String> = fs.readdir(root).unwrap().into_iter().map(|(n, _)| n).collect();
        prop_assert_eq!(&listed, &expect);
        for n in &expect {
            prop_assert!(fs.lookup(root, n).is_ok());
        }
        // Remove half, verify again.
        let (gone, kept) = expect.split_at(expect.len() / 2);
        for n in gone {
            fs.remove(root, n, 1).unwrap();
        }
        for n in gone {
            prop_assert!(fs.lookup(root, n).is_err());
        }
        for n in kept {
            prop_assert!(fs.lookup(root, n).is_ok());
        }
    }

    /// File writes through Fs read back exactly (offset reads included).
    #[test]
    fn fs_file_io_round_trips(
        writes in proptest::collection::vec((0u64..100_000, proptest::collection::vec(any::<u8>(), 1..2_000)), 1..10)
    ) {
        let mut fs = Fs::new(0);
        let root = fs.root();
        let f = fs.create(root, "f", 0o644, 0).unwrap();
        let mut dense: Vec<u8> = Vec::new();
        for (off, data) in &writes {
            fs.write(f, *off, data, 0).unwrap();
            let end = *off as usize + data.len();
            if dense.len() < end {
                dense.resize(end, 0);
            }
            dense[*off as usize..end].copy_from_slice(data);
        }
        let (back, eof) = fs.read(f, 0, dense.len() + 10, 0).unwrap();
        prop_assert_eq!(back, dense.clone());
        prop_assert!(eof);
        prop_assert_eq!(fs.size(f).unwrap(), dense.len() as u64);
    }
}
