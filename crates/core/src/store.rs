//! The package store: multiple randomized packages per (region, bucket),
//! held as a content-addressed chunk pool.
//!
//! §VI-A.2: "Instead of having a single seeder server for each data center
//! and semantic partition, we actually have several. ... A consumer
//! randomly picks a profile-data package for its corresponding data center
//! and semantic partition each time it restarts."
//!
//! Two scale mechanisms on top of the paper's design:
//!
//! * **Chunk dedup** ([`PackageStore::publish_chunked`]): packages are
//!   stored as [`crate::chunk`] manifests over a per-cell pool, so the N
//!   randomized packages of a cell — and consecutive pushes of churned
//!   releases — share the bytes of every identical function record. The
//!   per-publish [`PublishReceipt`] reports how many chunk bytes were
//!   actually new, which is what a seeder→store delta upload would send.
//! * **Shared handles**: lookups return `Arc<StoredPackage>`, so a fleet
//!   orchestrator fanning one cell's packages out to thousands of
//!   consumers never deep-copies package state per server.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::chunk::{chunk_package, ChunkPool, Manifest};
use crate::package::{PackageMeta, ProfilePackage};

/// A published package: serialized bytes plus a meta summary and the
/// chunk manifest.
#[derive(Clone, Debug)]
pub struct StoredPackage {
    /// Store-assigned id.
    pub id: u64,
    /// Serialized (sealed) package bytes.
    pub bytes: Bytes,
    /// Meta summary (as published; the authoritative copy is in `bytes`).
    pub meta: PackageMeta,
    /// Chunk manifest. Consumers with a warm chunk cache use it for delta
    /// fetch and lazy decode; `None` (after [`PackageStore::corrupt`])
    /// means the package is only available monolithically.
    pub manifest: Option<Arc<Manifest>>,
}

/// What one [`PackageStore::publish_chunked`] call actually stored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PublishReceipt {
    /// Chunks in the package.
    pub chunks_total: usize,
    /// Chunks not previously pooled in this cell (bytes retained).
    pub chunks_new: usize,
    /// Total payload bytes across the package's chunks.
    pub bytes_total: u64,
    /// Payload bytes actually added to the pool.
    pub bytes_new: u64,
    /// Encoded manifest size.
    pub manifest_bytes: u64,
}

impl PublishReceipt {
    /// Bytes a seeder→store delta upload would send: manifest plus the
    /// chunks the store lacked.
    pub fn wire_bytes(&self) -> u64 {
        self.manifest_bytes + self.bytes_new
    }
}

/// Cumulative dedup accounting for one (region, bucket) cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellDedup {
    /// Chunk-published packages.
    pub published: u64,
    /// Chunks across all publishes (with repetition).
    pub chunks_total: u64,
    /// Distinct chunks retained.
    pub chunks_new: u64,
    /// Payload bytes across all publishes (with repetition).
    pub bytes_total: u64,
    /// Distinct payload bytes retained.
    pub bytes_new: u64,
}

impl CellDedup {
    /// Fraction of published bytes the pool did **not** have to retain
    /// (0.0 = every chunk unique, higher = more sharing).
    pub fn dedup_ratio(&self) -> f64 {
        if self.bytes_total == 0 {
            return 0.0;
        }
        1.0 - self.bytes_new as f64 / self.bytes_total as f64
    }
}

/// One (region, bucket) cell: its packages plus the shared chunk pool.
#[derive(Debug, Default)]
struct Cell {
    packages: Vec<Arc<StoredPackage>>,
    pool: ChunkPool,
    dedup: CellDedup,
}

type Cells = HashMap<(u32, u32), Cell>;

/// Thread-safe store keyed by (region, bucket).
#[derive(Debug, Default)]
pub struct PackageStore {
    inner: RwLock<Cells>,
    next_id: AtomicU64,
}

impl PackageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    // Every update leaves the map valid at every step, so a lock poisoned
    // by a panicking holder is still safe to take.
    fn read(&self) -> RwLockReadGuard<'_, Cells> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Cells> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes a package as content-addressed chunks, deduplicating
    /// against the cell's pool. Returns the package id and what the
    /// publish actually stored.
    ///
    /// `repo_funcs` is the function count of the release the profile was
    /// collected against ([`crate::Manifest::repo_funcs`]).
    pub fn publish_chunked(
        &self,
        pkg: &ProfilePackage,
        repo_funcs: usize,
    ) -> (u64, PublishReceipt) {
        let cp = chunk_package(pkg, repo_funcs);
        let mut receipt = PublishReceipt {
            chunks_total: cp.chunks.len(),
            manifest_bytes: cp.manifest.wire_len() as u64,
            ..Default::default()
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.write();
        let cell = inner.entry((pkg.meta.region, pkg.meta.bucket)).or_default();
        for c in &cp.chunks {
            receipt.bytes_total += c.bytes.len() as u64;
            if cell.pool.insert(c) {
                receipt.chunks_new += 1;
                receipt.bytes_new += c.bytes.len() as u64;
            }
        }
        cell.dedup.published += 1;
        cell.dedup.chunks_total += receipt.chunks_total as u64;
        cell.dedup.chunks_new += receipt.chunks_new as u64;
        cell.dedup.bytes_total += receipt.bytes_total;
        cell.dedup.bytes_new += receipt.bytes_new;
        cell.packages.push(Arc::new(StoredPackage {
            id,
            bytes: cp.sealed,
            meta: pkg.meta,
            manifest: Some(Arc::new(cp.manifest)),
        }));
        (id, receipt)
    }

    /// Picks a random package for (region, bucket), if any.
    pub fn pick_random(
        &self,
        region: u32,
        bucket: u32,
        rng: &mut SmallRng,
    ) -> Option<Arc<StoredPackage>> {
        let inner = self.read();
        let list = &inner.get(&(region, bucket))?.packages;
        if list.is_empty() {
            return None;
        }
        Some(Arc::clone(&list[rng.gen_range(0..list.len())]))
    }

    /// Number of packages available for (region, bucket).
    pub fn count(&self, region: u32, bucket: u32) -> usize {
        self.read()
            .get(&(region, bucket))
            .map_or(0, |c| c.packages.len())
    }

    /// Every package published for (region, bucket), in publish order.
    ///
    /// Lets a fleet orchestrator decode each cell's packages once and
    /// share them read-only across thousands of consumers. The handles
    /// are `Arc`-shared — fan-out to 2000+ servers clones pointers, not
    /// package state.
    pub fn cell_packages(&self, region: u32, bucket: u32) -> Vec<Arc<StoredPackage>> {
        self.read()
            .get(&(region, bucket))
            .map(|c| c.packages.clone())
            .unwrap_or_default()
    }

    /// A snapshot of the cell's chunk pool (cheap: the chunk bytes are
    /// reference-counted views). This is what a consumer's chunk cache
    /// warms from.
    pub fn cell_pool(&self, region: u32, bucket: u32) -> ChunkPool {
        self.read()
            .get(&(region, bucket))
            .map(|c| c.pool.clone())
            .unwrap_or_default()
    }

    /// Cumulative chunk-dedup accounting for the cell.
    pub fn dedup_stats(&self, region: u32, bucket: u32) -> CellDedup {
        self.read()
            .get(&(region, bucket))
            .map(|c| c.dedup)
            .unwrap_or_default()
    }

    /// Removes a package by id (e.g. pulled after incident response).
    /// The cell's chunk pool is left untouched — other packages may
    /// share the chunks.
    pub fn remove(&self, id: u64) -> bool {
        let mut inner = self.write();
        for cell in inner.values_mut() {
            if let Some(i) = cell.packages.iter().position(|p| p.id == id) {
                cell.packages.remove(i);
                return true;
            }
        }
        false
    }

    /// Corrupts one byte of a stored package (fault injection for the
    /// §VI-A.3 "package itself gets corrupted" scenario). Drops the
    /// package's manifest: the corruption model targets the monolithic
    /// bytes, and a manifest describing bytes the package no longer has
    /// would be a lie.
    pub fn corrupt(&self, id: u64, byte: usize) -> bool {
        let mut inner = self.write();
        for cell in inner.values_mut() {
            if let Some(p) = cell.packages.iter_mut().find(|p| p.id == id) {
                if p.bytes.is_empty() {
                    return false;
                }
                let pkg = Arc::make_mut(p);
                let mut v = pkg.bytes.to_vec();
                let i = byte % v.len();
                v[i] ^= 0xa5;
                pkg.bytes = Bytes::from(v);
                pkg.manifest = None;
                return true;
            }
        }
        false
    }

    /// Drops everything (a new release invalidates old profiles).
    pub fn clear(&self) {
        self.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn pkg(region: u32, bucket: u32, seeder: u64) -> ProfilePackage {
        ProfilePackage {
            meta: PackageMeta {
                region,
                bucket,
                seeder_id: seeder,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn publish_and_pick() {
        let store = PackageStore::new();
        assert_eq!(store.count(0, 0), 0);
        store.publish_chunked(&pkg(0, 0, 1), 0);
        store.publish_chunked(&pkg(0, 0, 2), 0);
        store.publish_chunked(&pkg(1, 0, 3), 0);
        assert_eq!(store.count(0, 0), 2);
        assert_eq!(store.count(1, 0), 1);
        let mut rng = SmallRng::seed_from_u64(0);
        let p = store.pick_random(0, 0, &mut rng).unwrap();
        assert!(p.meta.seeder_id == 1 || p.meta.seeder_id == 2);
        assert!(store.pick_random(9, 9, &mut rng).is_none());
    }

    #[test]
    fn random_pick_covers_all_packages() {
        let store = PackageStore::new();
        for s in 0..4 {
            store.publish_chunked(&pkg(0, 0, s), 0);
        }
        let mut rng = SmallRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(store.pick_random(0, 0, &mut rng).unwrap().meta.seeder_id);
        }
        assert_eq!(seen.len(), 4, "randomized selection should spread load");
    }

    #[test]
    fn remove_by_id() {
        let store = PackageStore::new();
        let (id, _) = store.publish_chunked(&pkg(0, 1, 1), 0);
        assert!(store.remove(id));
        assert!(!store.remove(id));
        assert_eq!(store.count(0, 1), 0);
    }

    #[test]
    fn corrupt_flips_a_byte_and_drops_the_manifest() {
        let store = PackageStore::new();
        let (id, _) = store.publish_chunked(&pkg(0, 0, 1), 0);
        let mut rng = SmallRng::seed_from_u64(0);
        let clean = store.pick_random(0, 0, &mut rng).unwrap();
        assert!(clean.manifest.is_some());
        assert!(store.corrupt(id, 1));
        let p = store.pick_random(0, 0, &mut rng).unwrap();
        assert_ne!(p.bytes, clean.bytes);
        assert!(p.manifest.is_none());
        // The pre-corruption handle is unaffected (copy-on-write).
        assert!(clean.manifest.is_some());
    }

    #[test]
    fn clear_empties_the_store() {
        let store = PackageStore::new();
        store.publish_chunked(&pkg(0, 0, 1), 0);
        store.clear();
        assert_eq!(store.count(0, 0), 0);
    }

    #[test]
    fn chunked_republish_stores_no_new_bytes() {
        let store = PackageStore::new();
        let p = pkg(2, 3, 1);
        let (_, first) = store.publish_chunked(&p, 0);
        assert_eq!(first.chunks_new, first.chunks_total);
        assert_eq!(first.bytes_new, first.bytes_total);
        // Same content from another seeder: everything dedups.
        let mut p2 = p.clone();
        p2.meta.seeder_id = 2;
        let (_, second) = store.publish_chunked(&p2, 0);
        // Only the head chunk (it holds the seeder id) differs; every
        // other chunk shares pool bytes.
        assert_eq!(second.chunks_new, 1);
        assert!(second.bytes_new < second.bytes_total);
        let d = store.dedup_stats(2, 3);
        assert_eq!(d.published, 2);
        assert!(d.dedup_ratio() > 0.0);
        // Different cell, separate pool.
        assert_eq!(store.dedup_stats(0, 0), CellDedup::default());
    }

    #[test]
    fn cell_pool_reassembles_published_packages() {
        let store = PackageStore::new();
        let p = pkg(1, 1, 9);
        store.publish_chunked(&p, 0);
        let pool = store.cell_pool(1, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        let sp = store.pick_random(1, 1, &mut rng).unwrap();
        let man = sp.manifest.as_ref().unwrap();
        let sealed = crate::chunk::reassemble(man, &pool).unwrap();
        assert_eq!(sealed, sp.bytes);
        assert_eq!(sealed, p.serialize());
    }

    #[test]
    fn cell_fanout_shares_handles() {
        let store = PackageStore::new();
        store.publish_chunked(&pkg(0, 0, 1), 0);
        let a = store.cell_packages(0, 0);
        let b = store.cell_packages(0, 0);
        assert!(Arc::ptr_eq(&a[0], &b[0]), "fan-out clones pointers only");
    }
}
