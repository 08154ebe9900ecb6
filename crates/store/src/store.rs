//! The single-level store: snapshots, recovery, and synchronous updates.
//!
//! On bootup the entire system state is restored from the most recent
//! on-disk snapshot (§3).  All kernel objects are written to disk at each
//! snapshot and can be evicted from memory once stably stored.  Synchronous
//! operations (the Unix library's `fsync`) either append to the write-ahead
//! log or checkpoint the entire system state, and the paper's "group sync"
//! mode checkpoints once at the end of a batch of operations (§7.1).

use crate::bptree::BPlusTree;
use crate::codec::{frame, unframe, Decoder, Encoder};
use crate::extent::{Extent, ExtentAllocator};
use crate::wal::{LogRecord, WriteAheadLog};
use histar_obs::{Recorder, Span};
use histar_sim::disk::BLOCK_SIZE;
use histar_sim::{DiskConfig, SimClock, SimDisk};
use std::collections::{BTreeMap, BTreeSet};

/// How synchronous updates are made durable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Updates stay in memory until an explicit checkpoint (or the periodic
    /// snapshot).  This is the "async" row of the LFS benchmarks, and with
    /// one [`SingleLevelStore::checkpoint`] per batch the paper's "group
    /// sync" mode.
    Async,
    /// Every synchronous operation appends to the write-ahead log, which is
    /// applied in batches.  This is HiStar's per-file `fsync` behaviour.
    PerOperation,
}

/// How recovery rebuilds state from the checkpoint and the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayMode {
    /// Read the log in large chunks, bulk-load the B+-trees bottom-up,
    /// preload the live data region in one read, and fold the replayed
    /// records per object.  The default.
    Batched,
    /// Read the whole log region in one I/O and rebuild the trees with one
    /// point insert per entry — the legacy strategy, kept so the
    /// equivalence harness can prove both paths recover identical state.
    RecordByRecord,
}

/// Configuration of the store.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Configuration of the underlying simulated disk.
    pub disk: DiskConfig,
    /// Bytes reserved at the start of the disk for the superblock.
    pub superblock_len: u64,
    /// Bytes reserved for the write-ahead log region.  Kept small: the log
    /// only needs to cover the window between checkpoints, and recovery
    /// cost is bounded by how much log can accumulate, so a short region
    /// keeps `recover` fast (pre-apply + checkpoint-on-full keep it from
    /// overflowing under sustained sync load).
    pub log_region_len: u64,
    /// Apply (fold into a checkpoint) the log after this many pending
    /// records, modelling the paper's observation of one application per
    /// ~1,000 synchronous operations.
    pub apply_batch: usize,
    /// Synchronous-update policy.
    pub sync_policy: SyncPolicy,
    /// Recovery replay strategy.
    pub replay_mode: ReplayMode,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            disk: DiskConfig::default(),
            superblock_len: 4096,
            log_region_len: 128 * 1024,
            apply_batch: 1000,
            sync_policy: SyncPolicy::Async,
            replay_mode: ReplayMode::Batched,
        }
    }
}

/// Statistics describing store activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Objects written to their home location.
    pub objects_written: u64,
    /// Objects read from disk (cache misses).
    pub objects_read: u64,
    /// Full checkpoints taken.
    pub checkpoints: u64,
    /// Log applications triggered by batching.
    pub log_applications: u64,
    /// In-place page flushes (large-file sync writes).
    pub inplace_flushes: u64,
    /// Objects loaded into the cache by recovery's single preload read of
    /// the live data region (instead of one random read each on demand).
    pub objects_preloaded: u64,
}

impl histar_obs::MetricSource for StoreStats {
    fn export(&self, set: &mut histar_obs::MetricSet) {
        set.counter("store.objects_written", self.objects_written);
        set.counter("store.objects_read", self.objects_read);
        set.counter("store.checkpoints", self.checkpoints);
        set.counter("store.log_applications", self.log_applications);
        set.counter("store.inplace_flushes", self.inplace_flushes);
        set.counter("store.objects_preloaded", self.objects_preloaded);
    }
}

/// Errors from store operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The object is not present in memory or on disk.
    NoSuchObject(u64),
    /// The disk is out of space for the requested allocation.
    OutOfSpace,
    /// The on-disk state is corrupt and cannot be recovered.
    Corrupt(&'static str),
    /// The operation cannot be applied to this object in its current state
    /// (e.g. an in-place flush of an object whose size has changed).
    InvalidOperation(&'static str),
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::NoSuchObject(id) => write!(f, "no such object: {id}"),
            StoreError::OutOfSpace => write!(f, "out of disk space"),
            StoreError::Corrupt(what) => write!(f, "corrupt on-disk state: {what}"),
            StoreError::InvalidOperation(what) => write!(f, "invalid store operation: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Header bytes preceding an object's body in its home-location record:
/// 8 bytes of object ID plus the 8-byte body length prefix.
const RECORD_HEADER: u64 = 16;

/// The single-level store.
///
/// The store holds the authoritative serialized form of every kernel object.
/// Objects live in an in-memory cache (the machine's RAM) and are written to
/// disk by checkpoints, by the write-ahead log, or by in-place page flushes.
#[derive(Debug)]
pub struct SingleLevelStore {
    config: StoreConfig,
    disk: SimDisk,
    wal: WriteAheadLog,
    alloc: ExtentAllocator,
    /// Object ID → home-location offset on disk.
    object_loc: BPlusTree,
    /// Object ID → allocated extent length at the home location.
    object_extent_len: BPlusTree,
    /// Object ID → body length as last written to the home location.
    object_body_len: BPlusTree,
    /// In-memory object cache.
    cache: BTreeMap<u64, Vec<u8>>,
    /// Objects modified since they were last written to disk.
    dirty: BTreeSet<u64>,
    /// Objects deleted since the last checkpoint.
    deleted: BTreeSet<u64>,
    /// Extent holding the metadata blob of the most recent checkpoint; it is
    /// released only once the *next* checkpoint's superblock is durable, so
    /// a crash between checkpoints always finds intact metadata.
    prev_meta: Option<Extent>,
    /// Monotonic checkpoint sequence number.
    sequence: u64,
    /// Group-commit staging: while `Some`, synchronous log appends are
    /// buffered here and flushed as ONE multi-record frame when the group
    /// closes (see [`SingleLevelStore::begin_sync_group`]).
    staged: Option<Vec<LogRecord>>,
    /// How many of the WAL's pending records have already been written to
    /// their home locations by incremental pre-apply (pipelined
    /// checkpointing); reset when the log truncates.
    preapplied: usize,
    stats: StoreStats,
    /// Flight recorder for WAL/checkpoint/recovery spans (disabled by
    /// default; the kernel hands its own recorder down on attach).
    recorder: Recorder,
}

/// Magic number identifying a formatted superblock ("HISTAR!!").
const SUPERBLOCK_MAGIC: u64 = 0x4849_5354_4152_2121;

impl SingleLevelStore {
    /// Creates a fresh store (equivalent to formatting the disk).
    pub fn format(config: StoreConfig, clock: SimClock) -> SingleLevelStore {
        let disk = SimDisk::new(config.disk, clock);
        let data_start = config.superblock_len + config.log_region_len;
        SingleLevelStore {
            wal: WriteAheadLog::new(config.superblock_len, config.log_region_len),
            alloc: ExtentAllocator::new(data_start, config.disk.capacity),
            object_loc: BPlusTree::new(),
            object_extent_len: BPlusTree::new(),
            object_body_len: BPlusTree::new(),
            cache: BTreeMap::new(),
            dirty: BTreeSet::new(),
            deleted: BTreeSet::new(),
            prev_meta: None,
            sequence: 0,
            staged: None,
            preapplied: 0,
            stats: StoreStats::default(),
            recorder: Recorder::disabled(),
            config,
            disk,
        }
    }

    /// Installs the flight recorder WAL appends, log applications,
    /// checkpoints and recovery replays emit spans into.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Simulated time as seen by the store's disk clock, in nanoseconds.
    fn tick(&self) -> u64 {
        self.disk.clock().now().as_nanos()
    }

    /// Records a store-side span from `start` to now (no-op when the
    /// recorder is disabled; never advances simulated time).
    fn span(&self, cat: &'static str, name: &'static str, start: u64) {
        self.recorder.record(Span {
            cat,
            name,
            start,
            end: self.tick(),
            tid: 0,
            seq: self.sequence,
        });
    }

    /// The current synchronous-update policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.config.sync_policy
    }

    /// Changes the synchronous-update policy (used by the benchmarks to run
    /// the same workload under different durability modes).
    pub fn set_sync_policy(&mut self, policy: SyncPolicy) {
        self.config.sync_policy = policy;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// A reference to the underlying simulated disk (for its statistics).
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// The underlying disk's operation counters.
    pub fn disk_stats(&self) -> histar_sim::disk::DiskStats {
        self.disk.stats()
    }

    /// The write-ahead log's counters.
    pub fn wal_stats(&self) -> crate::wal::WalStats {
        self.wal.stats()
    }

    /// Bytes of write-ahead-log space used since the last application —
    /// the crash-recovery harness truncates the on-disk log at every
    /// record boundary up to this point.
    pub fn wal_used(&self) -> u64 {
        self.wal.used()
    }

    /// The latest checkpoint sequence number.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Number of objects currently resident in the in-memory cache.
    pub fn cached_objects(&self) -> usize {
        self.cache.len()
    }

    /// Drops clean objects from the in-memory cache (memory pressure); they
    /// can be re-read from their home locations on demand.
    pub fn evict_clean(&mut self) {
        let dirty = &self.dirty;
        self.cache.retain(|id, _| dirty.contains(id));
    }

    /// Stores (creates or overwrites) an object's serialized bytes.
    pub fn put(&mut self, id: u64, data: Vec<u8>) {
        self.cache.insert(id, data);
        self.dirty.insert(id);
        self.deleted.remove(&id);
        if self.config.sync_policy == SyncPolicy::PerOperation {
            self.sync_object(id);
        }
    }

    /// Reads an object's serialized bytes, from cache or disk.
    pub fn get(&mut self, id: u64) -> Result<Vec<u8>, StoreError> {
        if let Some(data) = self.cache.get(&id) {
            return Ok(data.clone());
        }
        if self.deleted.contains(&id) {
            return Err(StoreError::NoSuchObject(id));
        }
        let offset = self
            .object_loc
            .get(id)
            .ok_or(StoreError::NoSuchObject(id))?;
        let body_len = self
            .object_body_len
            .get(id)
            .ok_or(StoreError::Corrupt("object map missing body length"))?;
        let raw = self.disk.read(offset, RECORD_HEADER + body_len);
        let mut d = Decoder::new(&raw);
        let stored_id = d.get_u64().map_err(|_| StoreError::Corrupt("object id"))?;
        if stored_id != id {
            return Err(StoreError::Corrupt("object id mismatch"));
        }
        let data = d
            .get_bytes()
            .map_err(|_| StoreError::Corrupt("object body"))?;
        self.stats.objects_read += 1;
        self.cache.insert(id, data.clone());
        Ok(data)
    }

    /// Returns true if an object exists (in memory or on disk).
    pub fn contains(&self, id: u64) -> bool {
        if self.deleted.contains(&id) {
            return false;
        }
        self.cache.contains_key(&id) || self.object_loc.contains(id)
    }

    /// Deletes an object.
    pub fn delete(&mut self, id: u64) {
        self.cache.remove(&id);
        self.dirty.remove(&id);
        self.deleted.insert(id);
        self.drop_home(id);
        if self.config.sync_policy == SyncPolicy::PerOperation {
            self.append_log(LogRecord::DeleteObject(id));
        }
    }

    fn drop_home(&mut self, id: u64) {
        if let (Some(off), Some(len)) = (self.object_loc.get(id), self.object_extent_len.get(id)) {
            self.alloc.free(Extent::new(off, len));
            self.object_loc.remove(id);
            self.object_extent_len.remove(id);
            self.object_body_len.remove(id);
        }
    }

    /// Synchronously logs the current contents of one object (the HiStar
    /// per-file `fsync` path): an append to the sequential write-ahead log,
    /// with the log applied in batches.
    pub fn sync_object(&mut self, id: u64) {
        if let Some(data) = self.cache.get(&id).cloned() {
            self.append_log(LogRecord::PutObject(id, data));
        }
    }

    /// Synchronously logs the *deletion* of an object: the durable
    /// counterpart of [`SingleLevelStore::delete`] under the async policy,
    /// used when an unlink must survive a crash without waiting for the
    /// next checkpoint.
    pub fn sync_delete(&mut self, id: u64) {
        self.append_log(LogRecord::DeleteObject(id));
    }

    /// All keys currently present in `[lo, hi)` — the union of the
    /// on-disk object map and the in-memory cache, minus deletions.  This
    /// is the range-scan entry point the persistent filesystem's readdir
    /// and extent walks use; the key layout in [`crate::records`] makes
    /// one directory (or one file) a contiguous key range.
    pub fn keys_in_range(&self, lo: u64, hi: u64) -> Vec<u64> {
        if lo >= hi {
            return Vec::new();
        }
        let mut keys: BTreeSet<u64> = self
            .object_loc
            .range(lo, hi)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        keys.extend(self.cache.range(lo..hi).map(|(k, _)| *k));
        for id in self.deleted.range(lo..hi) {
            keys.remove(id);
        }
        keys.into_iter().collect()
    }

    /// Structural consistency check used by the crash-recovery gate: the
    /// three object-map B+-trees satisfy their tree invariants and agree
    /// on exactly which objects have home locations, and no two home
    /// extents overlap.  Returns the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.object_loc
            .check_invariants()
            .map_err(|e| format!("object_loc: {e}"))?;
        self.object_extent_len
            .check_invariants()
            .map_err(|e| format!("object_extent_len: {e}"))?;
        self.object_body_len
            .check_invariants()
            .map_err(|e| format!("object_body_len: {e}"))?;
        let locs = self.object_loc.iter();
        let extent_lens = self.object_extent_len.iter();
        let body_lens = self.object_body_len.iter();
        if locs.len() != extent_lens.len() || locs.len() != body_lens.len() {
            return Err(format!(
                "object maps disagree: {} locations, {} extent lengths, {} body lengths",
                locs.len(),
                extent_lens.len(),
                body_lens.len()
            ));
        }
        let mut extents: Vec<(u64, u64)> = Vec::with_capacity(locs.len());
        for (((id, off), (id2, elen)), (id3, blen)) in
            locs.iter().zip(extent_lens.iter()).zip(body_lens.iter())
        {
            if id != id2 || id != id3 {
                return Err(format!(
                    "object maps key mismatch: {id:#x}/{id2:#x}/{id3:#x}"
                ));
            }
            if blen + RECORD_HEADER > *elen {
                return Err(format!(
                    "object {id:#x}: body length {blen} does not fit extent {elen}"
                ));
            }
            extents.push((*off, *elen));
        }
        extents.sort_unstable();
        for w in extents.windows(2) {
            if w[0].0 + w[0].1 > w[1].0 {
                return Err(format!(
                    "home extents overlap: [{:#x}+{:#x}) and [{:#x}+{:#x})",
                    w[0].0, w[0].1, w[1].0, w[1].1
                ));
            }
        }
        Ok(())
    }

    /// Opens a group-commit window: until [`SingleLevelStore::end_sync_group`],
    /// synchronous log appends are staged in memory instead of each paying
    /// for its own disk write and flush.  Idempotent; the kernel brackets
    /// every syscall batch with this pair, so all syncs submitted in one
    /// batch share one WAL frame (§5's group sync).
    pub fn begin_sync_group(&mut self) {
        if self.staged.is_none() {
            self.staged = Some(Vec::new());
        }
    }

    /// Closes the group-commit window, flushing every staged record as ONE
    /// multi-record frame.  Nothing staged in the window is durable — or
    /// acknowledged to callers — until this returns.
    pub fn end_sync_group(&mut self) {
        if let Some(staged) = self.staged.take() {
            if !staged.is_empty() {
                self.flush_records(staged);
            }
        }
    }

    fn append_log(&mut self, record: LogRecord) {
        if let Some(staged) = self.staged.as_mut() {
            staged.push(record);
            return;
        }
        self.flush_records(vec![record]);
    }

    /// Writes a batch of records as one WAL frame: one disk write plus one
    /// flush, regardless of how many records the frame carries — the cost
    /// model charges per flushed frame, not per logical record.
    fn flush_records(&mut self, records: Vec<LogRecord>) {
        let framed_len = 16 + records.iter().map(LogRecord::encoded_len).sum::<u64>();
        // A frame that could never fit the region, even empty (a huge
        // record or a huge group): the records are already reflected in
        // the cache, so fold them into a full checkpoint instead — a
        // strictly stronger durability point than the log append.
        if framed_len + 64 > self.config.log_region_len {
            self.checkpoint();
            return;
        }
        if self.wal.needs_application(framed_len)
            || self.wal.pending_records() >= self.config.apply_batch
        {
            self.apply_log();
        }
        let start = self.tick();
        self.wal.append_frame(&mut self.disk, records);
        self.disk.flush();
        self.span("wal", "append", start);
        self.maybe_preapply();
    }

    /// Folds every pending log record into a full checkpoint, truncating
    /// the log.  (Historically this wrote pending objects home and reset
    /// the log head while the B+-trees lived only in memory — a crash
    /// after truncation then lost the maps that located the freshly homed
    /// records.  A checkpoint makes the fold itself durable.)
    pub fn apply_log(&mut self) {
        if self.wal.pending_records() == 0 {
            return;
        }
        let start = self.tick();
        self.stats.log_applications += 1;
        self.checkpoint();
        self.span("wal", "apply", start);
    }

    /// Incremental ("pipelined") checkpointing: once the log region is
    /// three-quarters full, each append also writes a few of the oldest
    /// pending records to their home locations.  The eventual checkpoint
    /// then has little left to do, so the stop-the-world pause stays short
    /// even under sustained sync load.  Crash-safe because pre-applied
    /// records remain in the log: replay masks their home copies until the
    /// next checkpoint commits the maps.  Only records that fit their
    /// object's existing extent are written — allocating here could reuse
    /// space freed by a not-yet-durable delete and clobber state an
    /// earlier checkpoint still owns.
    fn maybe_preapply(&mut self) {
        const PREAPPLY_CHUNK: usize = 4;
        const PREAPPLY_SCAN: usize = 64;
        if self.wal.used() * 4 <= self.wal.region_len() * 3 {
            return;
        }
        let start = self.tick();
        let mut written = 0;
        let mut examined = 0;
        while written < PREAPPLY_CHUNK
            && examined < PREAPPLY_SCAN
            && self.preapplied < self.wal.pending_records()
        {
            let idx = self.preapplied;
            self.preapplied += 1;
            examined += 1;
            let LogRecord::PutObject(id, data) = self.wal.pending()[idx].clone() else {
                continue;
            };
            // Skip records superseded later in the log: fsync-heavy
            // workloads re-sync the same objects, and only the newest
            // version is worth homing.
            let superseded = self.wal.pending()[idx + 1..].iter().any(|r| {
                matches!(r, LogRecord::PutObject(i, _) if *i == id)
                    || matches!(r, LogRecord::DeleteObject(i) if *i == id)
            });
            if superseded {
                continue;
            }
            let fits = match (self.object_loc.get(id), self.object_extent_len.get(id)) {
                (Some(_), Some(elen)) => elen >= RECORD_HEADER + data.len() as u64,
                _ => false,
            };
            if !fits {
                continue;
            }
            self.write_home(id, &data);
            // The home copy is current, so the eventual checkpoint can
            // skip this object — unless the cache has moved on since.
            if self.cache.get(&id).is_some_and(|cached| *cached == data) {
                self.dirty.remove(&id);
            }
            written += 1;
        }
        if written > 0 {
            self.span("wal", "preapply", start);
        }
    }

    /// Writes one object record to a (possibly new) home location.
    ///
    /// Record layout: `object id (8) || body length (8) || body`.
    fn write_home(&mut self, id: u64, data: &[u8]) {
        let mut e = Encoder::new();
        e.put_u64(id).put_bytes(data);
        let record = e.finish();
        let need = record.len() as u64;

        // Reuse the existing extent if the new record still fits; otherwise
        // allocate a fresh one (delayed allocation).
        let reuse = match (self.object_loc.get(id), self.object_extent_len.get(id)) {
            (Some(off), Some(len)) if len >= need => Some(Extent::new(off, len)),
            (Some(off), Some(len)) => {
                self.alloc.free(Extent::new(off, len));
                self.object_loc.remove(id);
                self.object_extent_len.remove(id);
                self.object_body_len.remove(id);
                None
            }
            _ => None,
        };
        let extent = reuse.unwrap_or_else(|| {
            self.alloc
                .alloc(need.max(BLOCK_SIZE))
                .expect("simulated disk out of space")
        });
        self.disk.write(extent.offset, &record);
        self.object_loc.insert(id, extent.offset);
        self.object_extent_len.insert(id, extent.len);
        self.object_body_len.insert(id, data.len() as u64);
        self.stats.objects_written += 1;
    }

    /// Flushes specific pages of an already-persistent object in place,
    /// without checkpointing the entire system state (the LFS large-file
    /// random-write path, §7.1).
    ///
    /// `pages` are `BLOCK_SIZE` pages of a region that starts `base` bytes
    /// into the object's data: a file's page 0 starts after the encoded
    /// object header that precedes its bytes.
    ///
    /// The object's size must not have changed since it was last written to
    /// its home location; otherwise the caller must fall back to
    /// [`SingleLevelStore::sync_object`] or a checkpoint.
    pub fn sync_pages_in_place(
        &mut self,
        id: u64,
        base: u64,
        pages: &[u64],
    ) -> Result<usize, StoreError> {
        let data = self.cache.get(&id).ok_or(StoreError::NoSuchObject(id))?;
        let off = self
            .object_loc
            .get(id)
            .ok_or(StoreError::NoSuchObject(id))?;
        let body_len = self
            .object_body_len
            .get(id)
            .ok_or(StoreError::NoSuchObject(id))?;
        if body_len != data.len() as u64 {
            return Err(StoreError::InvalidOperation(
                "object size changed since last home write",
            ));
        }
        let mut written = 0;
        for &page in pages {
            let start = base + page * BLOCK_SIZE;
            if start >= body_len {
                continue;
            }
            let end = (start + BLOCK_SIZE).min(body_len);
            self.disk.write(
                off + RECORD_HEADER + start,
                &data[start as usize..end as usize],
            );
            written += 1;
        }
        self.disk.flush();
        self.stats.inplace_flushes += 1;
        // The home copy now reflects the cached pages the caller flushed.
        self.dirty.remove(&id);
        Ok(written)
    }

    /// Takes a full checkpoint: every dirty object is written to its home
    /// location, the object map and free list are serialized, and the
    /// superblock is updated.  After a checkpoint the system can recover to
    /// exactly this state.
    pub fn checkpoint(&mut self) {
        let start = self.tick();
        // 0. The metadata blob from the previous checkpoint can be recycled
        //    now; the superblock will be rewritten before this call returns.
        if let Some(prev) = self.prev_meta.take() {
            self.alloc.free(prev);
        }

        // 1. Write dirty objects and drop records of deleted objects.
        let dirty: Vec<u64> = self.dirty.iter().copied().collect();
        for id in dirty {
            if let Some(data) = self.cache.get(&id).cloned() {
                self.write_home(id, &data);
            }
        }
        self.dirty.clear();
        self.deleted.clear();

        // 2. Serialize metadata (object maps + free list) into a fresh
        //    extent.  The serialized free list must already EXCLUDE the
        //    extent the blob itself occupies — otherwise a recovered
        //    allocator believes the metadata region is free and the next
        //    checkpoint's `free(prev_meta)` double-frees it.  The blob's
        //    size depends on the free list, so serialize twice: once to
        //    measure, then (after allocating, which changes the free list
        //    by at most one entry) with the final free list.
        let loc_bytes = self.object_loc.serialize();
        let extent_len_bytes = self.object_extent_len.serialize();
        let body_len_bytes = self.object_body_len.serialize();
        let build_blob = |alloc: &ExtentAllocator| {
            let free_list = alloc.free_list();
            let mut free_enc = Encoder::new();
            free_enc.put_u64(free_list.len() as u64);
            for e in &free_list {
                free_enc.put_u64(e.offset).put_u64(e.len);
            }
            let mut e = Encoder::new();
            e.put_bytes(&loc_bytes)
                .put_bytes(&extent_len_bytes)
                .put_bytes(&body_len_bytes)
                .put_bytes(&free_enc.finish());
            frame(&e.finish())
        };
        let probe_len = build_blob(&self.alloc).len() as u64;
        let meta_extent = self
            .alloc
            .alloc((probe_len + 64).max(BLOCK_SIZE))
            .expect("disk out of space for checkpoint metadata");
        let meta_blob = build_blob(&self.alloc);
        assert!(
            meta_blob.len() as u64 <= meta_extent.len,
            "checkpoint metadata outgrew its extent"
        );
        self.disk.write(meta_extent.offset, &meta_blob);

        // 3. Superblock points at the metadata blob.  It also records the
        //    allocator's high-water mark (computed after the metadata
        //    allocation, so it covers the blob): everything live sits
        //    below it, letting recovery preload the whole data region in
        //    one sequential read.
        self.sequence += 1;
        let mut sb = Encoder::new();
        sb.put_u64(SUPERBLOCK_MAGIC)
            .put_u64(self.sequence)
            .put_u64(meta_extent.offset)
            .put_u64(meta_blob.len() as u64)
            .put_u64(meta_extent.len)
            .put_u64(self.alloc.high_water());
        self.disk.write(0, &frame(&sb.finish()));
        self.disk.flush();

        // 4. The log contents are now folded into the checkpoint.
        let _ = self.wal.take_pending();
        self.preapplied = 0;
        self.wal.append(
            &mut self.disk,
            LogRecord::CheckpointMarker {
                sequence: self.sequence,
            },
        );
        self.prev_meta = Some(meta_extent);
        self.stats.checkpoints += 1;
        self.span("wal", "checkpoint", start);
    }

    /// Restores a store from the most recent on-disk snapshot plus any log
    /// records appended after it.  This is what "bootup" means in HiStar —
    /// there are no boot scripts, the entire system state simply reappears.
    pub fn recover(config: StoreConfig, disk: SimDisk) -> Result<SingleLevelStore, StoreError> {
        SingleLevelStore::recover_traced(config, disk, Recorder::disabled())
    }

    /// [`SingleLevelStore::recover`] with per-phase flight recording: each
    /// recovery phase (superblock read, data-region preload, B+-tree
    /// rebuild, WAL replay) emits a `recover` span into `recorder`, and
    /// the recorder stays installed on the recovered store.
    pub fn recover_traced(
        config: StoreConfig,
        mut disk: SimDisk,
        recorder: Recorder,
    ) -> Result<SingleLevelStore, StoreError> {
        // Cap on the preload read: a data region bigger than this is
        // cheaper to fault in on demand than to stream in full.
        const PRELOAD_MAX: u64 = 1024 * 1024;
        let phase = |recorder: &Recorder, name: &'static str, start: u64, end: u64| {
            recorder.record(Span {
                cat: "recover",
                name,
                start,
                end,
                tid: 0,
                seq: 0,
            });
        };
        let t0 = disk.clock().now().as_nanos();
        let raw_sb = disk.read(0, config.superblock_len.min(4096));
        let (sb_payload, _) =
            unframe(&raw_sb).map_err(|_| StoreError::Corrupt("superblock frame"))?;
        let mut d = Decoder::new(&sb_payload);
        let magic = d.get_u64().map_err(|_| StoreError::Corrupt("superblock"))?;
        if magic != SUPERBLOCK_MAGIC {
            return Err(StoreError::Corrupt("superblock magic"));
        }
        let sequence = d.get_u64().map_err(|_| StoreError::Corrupt("superblock"))?;
        let meta_off = d.get_u64().map_err(|_| StoreError::Corrupt("superblock"))?;
        let meta_len = d.get_u64().map_err(|_| StoreError::Corrupt("superblock"))?;
        let meta_alloc_len = d.get_u64().map_err(|_| StoreError::Corrupt("superblock"))?;
        // High-water mark (absent in superblocks written before it existed:
        // 0 disables the preload).
        let high_water = d.get_u64().unwrap_or(0);
        let t1 = disk.clock().now().as_nanos();
        phase(&recorder, "superblock", t0, t1);

        // Preload: one sequential read covering every live extent, instead
        // of one random read per object later.  The checkpoint metadata is
        // usually inside the span, so it costs no extra I/O either.
        let data_start = config.superblock_len + config.log_region_len;
        let preload: Option<(u64, Vec<u8>)> = if config.replay_mode == ReplayMode::Batched
            && high_water > data_start
            && high_water <= config.disk.capacity
            && high_water - data_start <= PRELOAD_MAX
        {
            Some((data_start, disk.read(data_start, high_water - data_start)))
        } else {
            None
        };
        let t2 = disk.clock().now().as_nanos();
        if preload.is_some() {
            phase(&recorder, "preload", t1, t2);
        }

        let raw_meta: Vec<u8> = match &preload {
            Some((base, buf))
                if meta_off >= *base && meta_off + meta_len <= base + buf.len() as u64 =>
            {
                buf[(meta_off - base) as usize..(meta_off - base + meta_len) as usize].to_vec()
            }
            _ => disk.read(meta_off, meta_len),
        };
        let (meta_payload, _) =
            unframe(&raw_meta).map_err(|_| StoreError::Corrupt("checkpoint metadata"))?;
        let mut d = Decoder::new(&meta_payload);
        let loc_bytes = d
            .get_bytes()
            .map_err(|_| StoreError::Corrupt("object map"))?;
        let extent_len_bytes = d
            .get_bytes()
            .map_err(|_| StoreError::Corrupt("object extent lengths"))?;
        let body_len_bytes = d
            .get_bytes()
            .map_err(|_| StoreError::Corrupt("object body lengths"))?;
        let free_bytes = d
            .get_bytes()
            .map_err(|_| StoreError::Corrupt("free list"))?;

        let (object_loc, object_extent_len, object_body_len) = match config.replay_mode {
            ReplayMode::Batched => (
                BPlusTree::deserialize(&loc_bytes),
                BPlusTree::deserialize(&extent_len_bytes),
                BPlusTree::deserialize(&body_len_bytes),
            ),
            ReplayMode::RecordByRecord => (
                BPlusTree::deserialize_point_inserts(&loc_bytes),
                BPlusTree::deserialize_point_inserts(&extent_len_bytes),
                BPlusTree::deserialize_point_inserts(&body_len_bytes),
            ),
        };
        let mut d = Decoder::new(&free_bytes);
        let n = d.get_u64().map_err(|_| StoreError::Corrupt("free list"))? as usize;
        let mut free = Vec::with_capacity(n);
        for _ in 0..n {
            let off = d.get_u64().map_err(|_| StoreError::Corrupt("free list"))?;
            let len = d.get_u64().map_err(|_| StoreError::Corrupt("free list"))?;
            free.push(Extent::new(off, len));
        }
        let alloc = ExtentAllocator::from_free_list(config.disk.capacity, &free);
        let t3 = disk.clock().now().as_nanos();
        phase(&recorder, "btree_rebuild", t2, t3);

        let wal = WriteAheadLog::new(config.superblock_len, config.log_region_len);
        let mut store = SingleLevelStore {
            config,
            wal,
            alloc,
            object_loc,
            object_extent_len,
            object_body_len,
            cache: BTreeMap::new(),
            dirty: BTreeSet::new(),
            deleted: BTreeSet::new(),
            prev_meta: Some(Extent::new(meta_off, meta_alloc_len)),
            sequence,
            staged: None,
            preapplied: 0,
            stats: StoreStats::default(),
            recorder,
            disk,
        };

        // Populate the cache from the preload buffer (pure memory work —
        // zero simulated time).  Entries are inserted CLEAN; the log
        // replay below overwrites any of them that moved on since the
        // checkpoint, so a pre-applied home record never shadows a newer
        // logged version.
        if let Some((base, buf)) = preload {
            for (id, off) in store.object_loc.iter() {
                let Some(body_len) = store.object_body_len.get(id) else {
                    continue;
                };
                if off < base {
                    continue;
                }
                let lo = (off - base) as usize;
                let Some(hi) = lo.checked_add((RECORD_HEADER + body_len) as usize) else {
                    continue;
                };
                if hi > buf.len() {
                    continue;
                }
                let mut d = Decoder::new(&buf[lo..hi]);
                let Ok(stored_id) = d.get_u64() else { continue };
                if stored_id != id {
                    continue;
                }
                let Ok(body) = d.get_bytes() else { continue };
                store.cache.insert(id, body);
                store.stats.objects_preloaded += 1;
            }
        }

        // Replay any log records appended after the checkpoint marker for
        // this sequence number (records before it are already reflected in
        // the checkpoint).  The log is then RESUMED, not truncated: the
        // surviving frames stay where they are and new appends continue
        // after them, so a mount performs no log writes and a second crash
        // replays the same prefix again.
        let (records, consumed) = match config.replay_mode {
            ReplayMode::Batched => store.wal.recover(&mut store.disk),
            ReplayMode::RecordByRecord => {
                let region = store.wal.region_len();
                store.wal.recover_chunked(&mut store.disk, region)
            }
        };
        let mut after_marker = Vec::new();
        for rec in records {
            match rec {
                LogRecord::CheckpointMarker { sequence: s } if s == sequence => {
                    after_marker.clear();
                }
                other => after_marker.push(other),
            }
        }
        match config.replay_mode {
            ReplayMode::Batched => {
                // Fold to one operation per object.  A DeleteObject's home
                // drop must still happen even when a later put supersedes
                // it — the per-record path frees the extent eagerly, and
                // the allocator state must come out identical.
                let mut fold: BTreeMap<u64, (Option<&Vec<u8>>, bool)> = BTreeMap::new();
                for rec in &after_marker {
                    match rec {
                        LogRecord::PutObject(id, data) => {
                            fold.entry(*id).or_insert((None, false)).0 = Some(data);
                        }
                        LogRecord::DeleteObject(id) => {
                            let slot = fold.entry(*id).or_insert((None, false));
                            slot.0 = None;
                            slot.1 = true;
                        }
                        LogRecord::CheckpointMarker { .. } => {}
                    }
                }
                let folded: Vec<(u64, Option<Vec<u8>>, bool)> = fold
                    .into_iter()
                    .map(|(id, (latest, saw_delete))| (id, latest.cloned(), saw_delete))
                    .collect();
                for (id, latest, saw_delete) in folded {
                    if saw_delete {
                        store.drop_home(id);
                    }
                    match latest {
                        Some(data) => {
                            store.deleted.remove(&id);
                            store.cache.insert(id, data);
                            store.dirty.insert(id);
                        }
                        None => {
                            store.cache.remove(&id);
                            store.deleted.insert(id);
                        }
                    }
                }
            }
            ReplayMode::RecordByRecord => {
                for rec in &after_marker {
                    match rec {
                        LogRecord::PutObject(id, data) => {
                            store.deleted.remove(id);
                            store.cache.insert(*id, data.clone());
                            store.dirty.insert(*id);
                        }
                        LogRecord::DeleteObject(id) => {
                            store.cache.remove(id);
                            store.deleted.insert(*id);
                            store.drop_home(*id);
                        }
                        LogRecord::CheckpointMarker { .. } => {}
                    }
                }
            }
        }
        store.wal.resume(consumed, after_marker);
        store.span("recover", "wal_replay", t3);
        Ok(store)
    }

    /// Consumes the store, returning its disk (for crash/recovery testing).
    pub fn into_disk(self) -> SimDisk {
        self.disk
    }

    /// All object IDs currently known to the store (cached or on disk).
    pub fn object_ids(&self) -> Vec<u64> {
        let mut ids: BTreeSet<u64> = self.cache.keys().copied().collect();
        for (id, _) in self.object_loc.iter() {
            ids.insert(id);
        }
        for id in &self.deleted {
            ids.remove(id);
        }
        ids.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(policy: SyncPolicy) -> SingleLevelStore {
        let config = StoreConfig {
            sync_policy: policy,
            ..StoreConfig::default()
        };
        SingleLevelStore::format(config, SimClock::new())
    }

    #[test]
    fn put_get_delete() {
        let mut s = store(SyncPolicy::Async);
        s.put(1, vec![1, 2, 3]);
        s.put(2, vec![4; 10_000]);
        assert_eq!(s.get(1).unwrap(), vec![1, 2, 3]);
        assert_eq!(s.get(2).unwrap().len(), 10_000);
        assert!(s.contains(1));
        s.delete(1);
        assert!(!s.contains(1));
        assert_eq!(s.get(1), Err(StoreError::NoSuchObject(1)));
    }

    #[test]
    fn checkpoint_and_recover_round_trip() {
        let config = StoreConfig::default();
        let mut s = SingleLevelStore::format(config, SimClock::new());
        for i in 0..200u64 {
            s.put(i, vec![i as u8; (i as usize % 700) + 1]);
        }
        s.delete(3);
        s.checkpoint();
        let disk = s.into_disk();
        let mut r = SingleLevelStore::recover(config, disk).unwrap();
        assert_eq!(r.sequence(), 1);
        for i in 0..200u64 {
            if i == 3 {
                assert!(!r.contains(i));
            } else {
                assert_eq!(r.get(i).unwrap(), vec![i as u8; (i as usize % 700) + 1]);
            }
        }
    }

    #[test]
    fn unsynced_updates_are_lost_on_crash() {
        let config = StoreConfig::default();
        let mut s = SingleLevelStore::format(config, SimClock::new());
        s.put(1, vec![1]);
        s.checkpoint();
        s.put(2, vec![2]); // never synced
        let disk = s.into_disk();
        let mut r = SingleLevelStore::recover(config, disk).unwrap();
        assert!(r.contains(1));
        assert!(!r.contains(2), "unsynced object must not survive the crash");
        assert_eq!(r.get(1).unwrap(), vec![1]);
    }

    #[test]
    fn per_operation_sync_survives_crash_via_log() {
        let config = StoreConfig {
            sync_policy: SyncPolicy::PerOperation,
            ..StoreConfig::default()
        };
        let mut s = SingleLevelStore::format(config, SimClock::new());
        s.checkpoint();
        for i in 0..50u64 {
            s.put(i, vec![i as u8; 100]);
        }
        // No checkpoint after the puts; the log alone must carry them.
        let disk = s.into_disk();
        let mut r = SingleLevelStore::recover(config, disk).unwrap();
        for i in 0..50u64 {
            assert_eq!(r.get(i).unwrap(), vec![i as u8; 100], "object {i}");
        }
    }

    #[test]
    fn synced_updates_survive_two_crashes() {
        // Regression: recovery resets the log head, so records replayed
        // from the log must be folded into a checkpoint before new
        // appends reuse the region — otherwise a second crash loses
        // updates that were durably synced before the first.
        let config = StoreConfig::default();
        let mut s = SingleLevelStore::format(config, SimClock::new());
        s.checkpoint();
        s.put(1, vec![0xa1; 64]);
        s.sync_object(1);
        let mut r1 = SingleLevelStore::recover(config, s.into_disk()).unwrap();
        assert_eq!(r1.get(1).unwrap(), vec![0xa1; 64]);
        // New synced work after the first recovery reuses the log region.
        r1.put(2, vec![0xb2; 64]);
        r1.sync_object(2);
        let mut r2 = SingleLevelStore::recover(config, r1.into_disk()).unwrap();
        assert_eq!(r2.get(1).unwrap(), vec![0xa1; 64], "first-life sync");
        assert_eq!(r2.get(2).unwrap(), vec![0xb2; 64], "second-life sync");
        r2.check_invariants().unwrap();
    }

    #[test]
    fn sync_delete_makes_removal_durable() {
        let config = StoreConfig::default();
        let mut s = SingleLevelStore::format(config, SimClock::new());
        s.put(9, vec![1, 2, 3]);
        s.checkpoint();
        s.delete(9);
        s.sync_delete(9);
        let mut r = SingleLevelStore::recover(config, s.into_disk()).unwrap();
        assert!(!r.contains(9), "durably deleted object must not return");
        assert_eq!(r.get(9), Err(StoreError::NoSuchObject(9)));
    }

    #[test]
    fn keys_in_range_unions_cache_and_disk_minus_deletions() {
        let mut s = store(SyncPolicy::Async);
        s.put(10, vec![1]);
        s.put(20, vec![2]);
        s.checkpoint();
        s.put(15, vec![3]); // cache only
        s.delete(20); // deleted after checkpoint
        assert_eq!(s.keys_in_range(0, 100), vec![10, 15]);
        assert_eq!(s.keys_in_range(11, 16), vec![15]);
        assert_eq!(s.keys_in_range(16, 100), Vec::<u64>::new());
        // Inverted and empty ranges are harmless.
        assert_eq!(s.keys_in_range(50, 10), Vec::<u64>::new());
        assert_eq!(s.keys_in_range(10, 10), Vec::<u64>::new());
    }

    #[test]
    fn log_application_batches() {
        let config = StoreConfig {
            sync_policy: SyncPolicy::PerOperation,
            apply_batch: 10,
            ..StoreConfig::default()
        };
        let mut s = SingleLevelStore::format(config, SimClock::new());
        for i in 0..35u64 {
            s.put(i, vec![0u8; 64]);
        }
        assert!(
            s.stats().log_applications >= 3,
            "expected ~3 applications, got {}",
            s.stats().log_applications
        );
    }

    #[test]
    fn group_sync_writes_nothing_until_checkpoint() {
        let mut s = store(SyncPolicy::Async);
        for i in 0..100u64 {
            s.put(i, vec![7u8; 1024]);
        }
        assert_eq!(s.disk().stats().writes, 0, "group sync defers all writes");
        s.checkpoint();
        assert!(s.disk().stats().writes > 0);
        assert_eq!(s.stats().checkpoints, 1);
    }

    #[test]
    fn eviction_and_reread() {
        let mut s = store(SyncPolicy::Async);
        s.put(42, vec![9u8; 5000]);
        s.checkpoint();
        s.evict_clean();
        assert_eq!(s.cached_objects(), 0);
        assert_eq!(s.get(42).unwrap(), vec![9u8; 5000]);
        assert_eq!(s.stats().objects_read, 1);
    }

    #[test]
    fn in_place_page_sync() {
        let mut s = store(SyncPolicy::Async);
        let big = vec![1u8; 1024 * 1024];
        s.put(7, big.clone());
        s.checkpoint();

        // Modify two pages and flush them in place.
        let mut modified = big;
        modified[0] = 0xaa;
        modified[5000] = 0xbb;
        s.put(7, modified.clone());
        let writes_before = s.disk().stats().writes;
        assert_eq!(s.sync_pages_in_place(7, 0, &[0, 1]).unwrap(), 2);
        assert!(s.disk().stats().writes > writes_before);
        assert_eq!(s.stats().inplace_flushes, 1);

        // After eviction the flushed pages are visible from disk.
        s.evict_clean();
        let read_back = s.get(7).unwrap();
        assert_eq!(read_back[0], 0xaa);
        assert_eq!(read_back[5000], 0xbb);

        // An object with no home location is rejected.
        s.put(8, vec![0u8; 10]);
        assert!(s.sync_pages_in_place(8, 0, &[0]).is_err());

        // A resized object is rejected.
        s.put(7, vec![2u8; 100]);
        assert!(matches!(
            s.sync_pages_in_place(7, 0, &[0]),
            Err(StoreError::InvalidOperation(_))
        ));
    }

    #[test]
    fn in_place_page_sync_offsets_pages_by_base() {
        // A 37-byte header, then two and a half pages of file data.
        let base = 37;
        let page = BLOCK_SIZE as usize;
        let mut s = store(SyncPolicy::Async);
        let old = vec![1u8; base + 2 * page + page / 2];
        s.put(7, old.clone());
        s.checkpoint();

        // Rewrite file page 1 up to 10 bytes before its end: the tail
        // lies past the object's own page 2 boundary.
        let mut new = old;
        new[base + page + 100..base + 2 * page - 10].fill(0xaa);
        s.put(7, new.clone());
        assert_eq!(s.sync_pages_in_place(7, base as u64, &[1]).unwrap(), 1);

        s.evict_clean();
        assert_eq!(s.get(7).unwrap(), new, "every byte of the page lands");
    }

    #[test]
    fn recover_rejects_unformatted_disk() {
        let disk = SimDisk::new(DiskConfig::default(), SimClock::new());
        assert!(matches!(
            SingleLevelStore::recover(StoreConfig::default(), disk),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn object_ids_lists_everything() {
        let mut s = store(SyncPolicy::Async);
        s.put(5, vec![1]);
        s.put(9, vec![2]);
        s.checkpoint();
        s.put(11, vec![3]);
        s.delete(9);
        assert_eq!(s.object_ids(), vec![5, 11]);
    }

    #[test]
    fn multiple_checkpoints_advance_sequence() {
        let mut s = store(SyncPolicy::Async);
        s.put(1, vec![1]);
        s.checkpoint();
        s.put(2, vec![2]);
        s.checkpoint();
        assert_eq!(s.sequence(), 2);
        let disk = s.into_disk();
        let mut r = SingleLevelStore::recover(StoreConfig::default(), disk).unwrap();
        assert_eq!(r.sequence(), 2);
        assert!(r.get(1).is_ok());
        assert!(r.get(2).is_ok());
    }

    #[test]
    fn growing_object_moves_to_new_extent() {
        let mut s = store(SyncPolicy::Async);
        s.put(1, vec![1u8; 100]);
        s.checkpoint();
        let small_extent = s.object_extent_len.get(1).unwrap();
        assert!(small_extent < 100_016);
        s.put(1, vec![2u8; 100_000]);
        s.checkpoint();
        let big_loc = s.object_loc.get(1).unwrap();
        assert!(
            s.object_extent_len.get(1).unwrap() >= 100_016,
            "grown object needs a larger extent"
        );
        s.evict_clean();
        assert_eq!(s.get(1).unwrap(), vec![2u8; 100_000]);
        // Shrinking keeps it in place (the extent is large enough).
        s.put(1, vec![3u8; 50]);
        s.checkpoint();
        assert_eq!(s.object_loc.get(1).unwrap(), big_loc);
        s.evict_clean();
        assert_eq!(s.get(1).unwrap(), vec![3u8; 50]);
    }

    #[test]
    fn delete_then_recreate_after_recovery() {
        let config = StoreConfig {
            sync_policy: SyncPolicy::PerOperation,
            ..StoreConfig::default()
        };
        let mut s = SingleLevelStore::format(config, SimClock::new());
        s.put(1, vec![1]);
        s.checkpoint();
        s.delete(1);
        s.put(1, vec![2]);
        let disk = s.into_disk();
        let mut r = SingleLevelStore::recover(config, disk).unwrap();
        assert_eq!(r.get(1).unwrap(), vec![2]);
    }
}
