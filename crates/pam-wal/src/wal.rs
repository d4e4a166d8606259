//! The segmented append-only write-ahead log.
//!
//! A WAL directory holds numbered segment files:
//!
//! ```text
//! wal-00000000000000000001.seg      <- name = first epoch the segment holds
//! wal-00000000000000004821.seg
//! wal-00000000000000009644.seg      <- the active tail, appended to
//! ```
//!
//! Each segment starts with the 8-byte magic `PAMWAL03` and then a run of
//! checksummed frames (see [`crate::frame`]), one per committed epoch. A
//! frame's payload is `varint(epoch) ++ body` ([`crate::record`]): one
//! epoch of the whole store, so a batch is whole in the log or absent
//! from it. Any other magic — the
//! earlier formats whose version digits are `1` and `2` included — is
//! refused with `InvalidData` before anything is modified.
//!
//! *Rotation*: when the active segment outgrows
//! [`WalConfig::segment_bytes`], it is fsynced, sealed, and a fresh
//! segment named after the next epoch is started. Sealing makes space
//! reclamation trivial: after a checkpoint at epoch `E`,
//! [`Wal::truncate_through`] unlinks every sealed segment whose entire
//! contents are `<= E` — whole-file deletes, no rewriting.
//!
//! *Recovery*: [`Wal::open`] scans the segments in order and returns every
//! valid epoch record. A torn or corrupt frame at the tail of the **last**
//! segment is the expected signature of a crash mid-append: the tail is
//! truncated to the last whole record and appending resumes there.
//! Corruption anywhere earlier is reported as an error — sealed segments
//! were fsynced before rotation, so damage there means the disk lied.
//!
//! The first invalid frame in the *active* segment ends the scan even if
//! valid-looking frames follow (RocksDB's "tolerate corrupted tail
//! records" policy). This is deliberate: page writeback is unordered, so
//! a crash can persist record N+1's page while losing record N's —
//! replaying N+1 across the hole would violate the log's prefix
//! semantics. The cost is that mid-active-segment *bit rot* (as opposed
//! to crash damage) silently discards the records after it; bit rot in
//! the much larger sealed portion of the log is still a hard error.

use crate::files::{sync_dir, Numbered};
use crate::frame::{self, Frame};
use pam_obs::{event, Histogram, Level};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"PAMWAL03";

/// Whether the WAL issues `fsync` for appended epoch records.
///
/// Group commit makes the fsync a *group* fsync: one record (and at
/// most one fsync) covers all writers batched into the epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never fsync from the append path; the OS flushes at its leisure.
    /// An acked write survives a process crash, not a power cut.
    NoSync,
    /// Fsync after every epoch record: an acked write is on stable
    /// storage before the ticket holder wakes.
    SyncEachEpoch,
}

/// Tuning for a [`Wal`].
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Seal the active segment and start a new one once it exceeds this
    /// many bytes.
    pub segment_bytes: u64,
    /// Fsync policy for appends.
    pub sync: SyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 16 << 20,
            sync: SyncPolicy::SyncEachEpoch,
        }
    }
}

/// One recovered epoch record: the epoch number and its body bytes
/// (decode with [`crate::record::decode_epoch_body`]).
#[derive(Debug)]
pub struct EpochRecord {
    /// The epoch this record logged.
    pub epoch: u64,
    /// The serialized epoch body.
    pub body: Vec<u8>,
}

/// Hot-path observability for one [`Wal`]: shared out via [`Wal::obs`]
/// so the durability layer can snapshot append/fsync latency and
/// rotation counts without holding the WAL mutex.
#[derive(Debug, Default)]
pub struct WalObs {
    /// Latency of whole [`Wal::append`] calls, nanoseconds (includes
    /// any rotation and fsync the append performed).
    pub append_nanos: Histogram,
    /// Latency of each `fsync` (`sync_data`) the log issues — after an
    /// append, at a rotation, or in [`Wal::sync`] — nanoseconds. Its
    /// count is the log's fsync count.
    pub fsync_nanos: Histogram,
    /// Segment rotations performed since open.
    pub rotations: AtomicU64,
}

impl WalObs {
    /// Rotations performed since open.
    pub fn rotations(&self) -> u64 {
        // relaxed: monitoring counter; no data is published through it
        self.rotations.load(Ordering::Relaxed)
    }
}

struct Segment {
    first_epoch: u64,
    path: PathBuf,
}

/// The segmented write-ahead log. Not internally synchronized — the
/// store's committer is its only writer (wrap in a mutex to share).
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    /// Sealed (rotation-complete) segments, oldest first.
    sealed: Vec<Segment>,
    /// The active tail: file handle, metadata, current byte size.
    current: Option<(File, Segment, u64)>,
    last_epoch: u64,
    /// Records were written to the active segment since its last fsync.
    unsynced: bool,
    obs: Arc<WalObs>,
}

/// Segment files, named for the first epoch each holds.
pub(crate) const SEGMENTS: Numbered = Numbered {
    prefix: "wal",
    ext: "seg",
};

fn corrupt(msg: &str, path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{msg} in WAL segment {}", path.display()),
    )
}

/// One decoded segment: its records, the byte offset of the first
/// invalid frame (= file length when every frame was valid), and whether
/// the scan stopped at a torn/corrupt tail frame.
struct SegmentScan {
    records: Vec<EpochRecord>,
    pos: usize,
    tail_torn: bool,
}

/// Scan one segment's frames. With `tolerate_torn_tail` (the active
/// segment) the first invalid frame ends the scan and is reported via
/// `tail_torn`; without it (sealed segments, fsynced before rotation)
/// any invalid frame is a hard error — damage there means the disk lied.
/// A segment that does not open with [`SEGMENT_MAGIC`] is refused before
/// any frame is read.
fn scan_segment(path: &Path, tolerate_torn_tail: bool) -> io::Result<SegmentScan> {
    let bytes = fs::read(path)?;
    if bytes.len() < SEGMENT_MAGIC.len() {
        return Err(corrupt("missing magic", path));
    }
    if &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(corrupt("bad magic", path));
    }
    let mut records = Vec::new();
    let mut pos = SEGMENT_MAGIC.len();
    let mut tail_torn = false;
    while pos < bytes.len() {
        match frame::next_frame(&bytes[pos..]) {
            Frame::Ok { payload, consumed } => {
                let mut r = crate::codec::Reader::new(payload);
                let epoch = r.varint().map_err(|_| corrupt("bad epoch field", path))?;
                records.push(EpochRecord {
                    epoch,
                    body: payload[payload.len() - r.remaining()..].to_vec(),
                });
                pos += consumed;
            }
            Frame::Torn | Frame::Corrupt if tolerate_torn_tail => {
                tail_torn = true;
                break;
            }
            Frame::Torn => return Err(corrupt("torn record mid-log", path)),
            Frame::Corrupt => return Err(corrupt("corrupt record mid-log", path)),
        }
    }
    Ok(SegmentScan {
        records,
        pos,
        tail_torn,
    })
}

impl Wal {
    /// Open (or create) the log in `dir`, returning the WAL positioned
    /// for appending plus every valid epoch record, in log order.
    ///
    /// Sealed segments are read and frame-decoded **in parallel** (they
    /// are independent files with independent checksums; order is
    /// restored when the per-segment record lists are concatenated).
    /// Only the active tail — which may legitimately end in a torn
    /// record — is scanned sequentially and truncated to its last whole
    /// record. See the module docs for the recovery contract.
    ///
    /// # Errors
    ///
    /// `InvalidData` for corruption outside the tolerated active-segment
    /// tail (sealed segments were fsynced before rotation — damage there
    /// means the disk lied) and for any segment without
    /// [`SEGMENT_MAGIC`], which is refused before anything is modified;
    /// other kinds pass through from the filesystem.
    pub fn open(dir: impl AsRef<Path>, config: WalConfig) -> io::Result<(Wal, Vec<EpochRecord>)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        let paths = SEGMENTS.list(&dir)?;

        // Every segment but the last is sealed: decode them concurrently.
        let sealed_count = paths.len().saturating_sub(1);
        let scans = parlay::tabulate(sealed_count, |i| scan_segment(&paths[i].1, false));
        let mut records = Vec::new();
        let mut sealed = Vec::new();
        for (scan, (first_epoch, path)) in scans.into_iter().zip(&paths[..sealed_count]) {
            records.extend(scan?.records);
            sealed.push(Segment {
                first_epoch: *first_epoch,
                path: path.clone(),
            });
        }

        // The active tail: scan sequentially, tolerating (and truncating)
        // a torn final record.
        let mut current = None;
        if let Some((first_epoch, path)) = paths.last() {
            if fs::metadata(path)?.len() < SEGMENT_MAGIC.len() as u64 {
                // crash between segment creation and the magic write:
                // the file holds no records, discard it
                fs::remove_file(path)?;
                sync_dir(&dir)?;
            } else {
                let scan = scan_segment(path, true)?;
                records.extend(scan.records);
                let mut file = OpenOptions::new().read(true).write(true).open(path)?;
                if scan.tail_torn {
                    file.set_len(scan.pos as u64)?;
                    file.sync_data()?;
                }
                file.seek(SeekFrom::Start(scan.pos as u64))?;
                current = Some((
                    file,
                    Segment {
                        first_epoch: *first_epoch,
                        path: path.clone(),
                    },
                    scan.pos as u64,
                ));
            }
        }

        let last_epoch = records.iter().map(|r| r.epoch).max().unwrap_or(0);
        Ok((
            Wal {
                dir,
                config,
                sealed,
                current,
                last_epoch,
                unsynced: false,
                obs: Arc::new(WalObs::default()),
            },
            records,
        ))
    }

    /// Append one epoch record and return the bytes it added to the log
    /// (frame included). `epoch` must be greater than every epoch
    /// appended or recovered so far. Applies the configured
    /// [`SyncPolicy`] and rotates segments as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the write, fsync, or rotation.
    /// The caller (the store's committer) treats any failure as
    /// fail-stop.
    pub fn append(&mut self, epoch: u64, body: &[u8]) -> io::Result<u64> {
        debug_assert!(epoch > self.last_epoch, "epochs must be monotone");
        let append_start = Instant::now();
        // Rotate a full active segment *before* the append so a segment
        // never splits an epoch.
        if let Some((file, seg, size)) = self.current.take() {
            if size >= self.config.segment_bytes {
                self.timed_fsync(&file)?; // sealed segments are always durable
                self.unsynced = false;
                // relaxed: monitoring counter; the fsync above is what
                // actually seals the segment
                self.obs.rotations.fetch_add(1, Ordering::Relaxed);
                event!(
                    Level::Info,
                    "pam_wal",
                    "sealed segment {} at {size} bytes",
                    seg.path.display()
                );
                self.sealed.push(seg);
            } else {
                self.current = Some((file, seg, size));
            }
        }
        if self.current.is_none() {
            let seg = Segment {
                first_epoch: epoch,
                path: SEGMENTS.path(&self.dir, epoch),
            };
            let mut file = OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(&seg.path)?;
            file.write_all(SEGMENT_MAGIC)?;
            sync_dir(&self.dir)?;
            self.current = Some((file, seg, SEGMENT_MAGIC.len() as u64));
        }

        let mut buf = Vec::with_capacity(frame::HEADER_LEN + 10 + body.len());
        let record = frame::open_frame(&mut buf, 0);
        crate::codec::put_varint(&mut buf, epoch);
        buf.extend_from_slice(body);
        record.close(&mut buf, &[]);
        let framed = buf.len() as u64;

        // lint: allow(panic) open()/rotate() always leave a segment
        // open before append can run — a missing one is a linked-list
        // bug in this file, not a runtime condition
        let (file, _, size) = self.current.as_mut().expect("active segment");
        file.write_all(&buf)?;
        *size += framed;
        self.last_epoch = epoch;
        self.unsynced = true;
        if self.config.sync == SyncPolicy::SyncEachEpoch {
            self.sync()?;
        }
        self.obs
            .append_nanos
            .record_duration(append_start.elapsed());
        Ok(framed)
    }

    /// Fsync the active segment if records were written to it since its
    /// last fsync (a no-op otherwise).
    ///
    /// # Errors
    ///
    /// Propagates the fsync failure.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some((file, _, _)) = self.current.as_ref().filter(|_| self.unsynced) {
            self.timed_fsync(file)?;
            self.unsynced = false;
        }
        Ok(())
    }

    /// `sync_data` with the latency recorded into the fsync histogram.
    fn timed_fsync(&self, file: &File) -> io::Result<()> {
        let t = Instant::now();
        file.sync_data()?;
        self.obs.fsync_nanos.record_duration(t.elapsed());
        Ok(())
    }

    /// Shared handle to this log's hot-path metrics (append/fsync
    /// latency histograms, rotation count). Cheap to clone and safe to
    /// read while appends are in flight.
    pub fn obs(&self) -> Arc<WalObs> {
        Arc::clone(&self.obs)
    }

    /// Unlink every sealed segment whose contents are entirely covered by
    /// a checkpoint at `epoch` (i.e. all its records have epoch `<=
    /// epoch`). Returns the number of segments removed. The active
    /// segment is never removed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the unlinks or the directory
    /// fsync.
    pub fn truncate_through(&mut self, epoch: u64) -> io::Result<usize> {
        // A sealed segment's coverage ends where its successor begins, so
        // `sealed[i]` is wholly <= epoch iff successor.first_epoch <=
        // epoch + 1.
        let mut removable = 0;
        for i in 0..self.sealed.len() {
            let next_first = self
                .sealed
                .get(i + 1)
                .map(|s| s.first_epoch)
                .or(self.current.as_ref().map(|(_, s, _)| s.first_epoch));
            match next_first {
                Some(f) if f <= epoch + 1 => removable = i + 1,
                _ => break,
            }
        }
        for seg in self.sealed.drain(..removable) {
            fs::remove_file(&seg.path)?;
        }
        if removable > 0 {
            sync_dir(&self.dir)?;
        }
        Ok(removable)
    }

    /// Highest epoch ever appended to (or recovered from) this log.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Number of segment files (sealed + active).
    pub fn segments(&self) -> usize {
        self.sealed.len() + usize::from(self.current.is_some())
    }

    /// Bytes in the active segment (sealed segment sizes live on disk).
    pub fn active_bytes(&self) -> u64 {
        self.current.as_ref().map_or(0, |&(_, _, size)| size)
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Wal {
    /// Best-effort flush so a clean shutdown loses nothing even under
    /// [`SyncPolicy::NoSync`].
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pam-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn body(n: u64) -> Vec<u8> {
        let mut b = Vec::new();
        crate::record::encode_epoch_body(&[(n, n * 10)], &[], &mut b);
        b
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = tmp_dir("roundtrip");
        {
            let (mut wal, recs) = Wal::open(&dir, WalConfig::default()).unwrap();
            assert!(recs.is_empty());
            for e in 1..=5u64 {
                assert!(wal.append(e, &body(e)).unwrap() > 0);
                // the default policy fsyncs each epoch
                assert_eq!(wal.obs().fsync_nanos.count(), e);
            }
            assert_eq!(wal.last_epoch(), 5);
        }
        let (wal, recs) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(
            recs.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        assert_eq!(recs[2].body, body(3));
        assert_eq!(wal.last_epoch(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_truncation() {
        let dir = tmp_dir("rotate");
        let cfg = WalConfig {
            segment_bytes: 64, // force a rotation every couple of epochs
            sync: SyncPolicy::NoSync,
        };
        let (mut wal, _) = Wal::open(&dir, cfg).unwrap();
        for e in 1..=20u64 {
            wal.append(e, &body(e)).unwrap();
        }
        assert!(wal.segments() > 3, "tiny segments must have rotated");
        let before = wal.segments();
        let removed = wal.truncate_through(10).unwrap();
        assert!(removed > 0);
        assert_eq!(wal.segments(), before - removed);
        drop(wal);
        // records > 10 all survive; records <= 10 may survive (segment
        // granularity) but never beyond the active coverage
        let (_, recs) = Wal::open(&dir, cfg).unwrap();
        let epochs: Vec<u64> = recs.iter().map(|r| r.epoch).collect();
        for e in 11..=20 {
            assert!(epochs.contains(&e), "epoch {e} lost by truncation");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let dir = tmp_dir("torn");
        let cfg = WalConfig::default();
        {
            let (mut wal, _) = Wal::open(&dir, cfg).unwrap();
            for e in 1..=3u64 {
                wal.append(e, &body(e)).unwrap();
            }
        }
        // simulate a crash mid-append: a frame header promising more
        // bytes than were written
        let seg = SEGMENTS.path(&dir, 1);
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[200, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3])
            .unwrap();
        drop(f);

        let (mut wal, recs) = Wal::open(&dir, cfg).unwrap();
        assert_eq!(recs.len(), 3, "torn tail must not hide whole records");
        wal.append(4, &body(4)).unwrap();
        drop(wal);
        let (_, recs) = Wal::open(&dir, cfg).unwrap();
        assert_eq!(
            recs.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![1, 2, 3, 4],
            "append after tail truncation must produce a clean log"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_sealed_segment_is_an_error() {
        let dir = tmp_dir("sealed-corrupt");
        let cfg = WalConfig {
            segment_bytes: 32,
            sync: SyncPolicy::NoSync,
        };
        {
            let (mut wal, _) = Wal::open(&dir, cfg).unwrap();
            for e in 1..=10u64 {
                wal.append(e, &body(e)).unwrap();
            }
            assert!(wal.segments() >= 2);
        }
        // flip a byte in the first (sealed) segment's first record
        let seg = SEGMENTS.path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        let idx = SEGMENT_MAGIC.len() + frame::HEADER_LEN + 1;
        bytes[idx] ^= 0xff;
        fs::write(&seg, bytes).unwrap();
        let err = match Wal::open(&dir, cfg) {
            Err(e) => e,
            Ok(_) => panic!("corrupt sealed segment must fail open"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_fsync_is_counted_under_each_policy() {
        for sync in [SyncPolicy::NoSync, SyncPolicy::SyncEachEpoch] {
            let dir = tmp_dir(&format!("fsyncs-{sync:?}"));
            let cfg = WalConfig {
                segment_bytes: 64, // rotate every couple of epochs
                sync,
            };
            let (mut wal, _) = Wal::open(&dir, cfg).unwrap();
            for e in 1..=20u64 {
                wal.append(e, &body(e)).unwrap();
            }
            let obs = wal.obs();
            let rotations = obs.rotations();
            assert!(rotations > 3, "tiny segments must have rotated");
            // a sealed segment is fsynced under either policy
            let appends = if sync == SyncPolicy::SyncEachEpoch {
                20
            } else {
                0
            };
            assert_eq!(obs.fsync_nanos.count(), rotations + appends, "{sync:?}");
            // an explicit sync fsyncs only what no fsync covers yet
            wal.sync().unwrap();
            let pending = u64::from(sync == SyncPolicy::NoSync);
            assert_eq!(obs.fsync_nanos.count(), rotations + appends + pending);
            wal.sync().unwrap();
            assert_eq!(obs.fsync_nanos.count(), rotations + appends + pending);
            drop(wal);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Write a raw segment of an earlier format: the magic with version
    /// digit `version`, then one frame per epoch holding
    /// `varint(epoch) ++ stamp ++ body` — a v1 record has no stamp, a v2
    /// record a cross-shard stamp of two varints.
    fn write_old_segment(path: &Path, version: u8, epochs: &[u64]) {
        let mut bytes = SEGMENT_MAGIC.to_vec();
        bytes[7] = version;
        for &e in epochs {
            let mut payload = Vec::new();
            crate::codec::put_varint(&mut payload, e);
            if version == b'2' {
                crate::codec::put_varint(&mut payload, e); // global epoch
                crate::codec::put_varint(&mut payload, 2); // participants
            }
            payload.extend_from_slice(&body(e));
            frame::put_frame(&mut bytes, &payload);
        }
        fs::write(path, bytes).unwrap();
    }

    /// Every file in `dir` with its bytes, sorted by name.
    fn dir_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let p = e.unwrap().path();
                let b = fs::read(&p).unwrap();
                (p, b)
            })
            .collect();
        files.sort();
        files
    }

    /// `Wal::open` on `dir` fails with `InvalidData` and changes no byte.
    fn assert_refused_untouched(dir: &Path) {
        let before = dir_bytes(dir);
        let err = match Wal::open(dir, WalConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("a segment of an earlier format must fail open"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(dir_bytes(dir), before, "a refused log is not modified");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn v1_sealed_segment_is_refused_and_left_untouched() {
        // a sealed v1 segment followed by a current-format tail
        let dir = tmp_dir("v1-sealed");
        fs::create_dir_all(&dir).unwrap();
        write_old_segment(&SEGMENTS.path(&dir, 1), b'1', &[1, 2, 3]);
        fs::write(SEGMENTS.path(&dir, 4), SEGMENT_MAGIC).unwrap();
        assert_refused_untouched(&dir);
    }

    #[test]
    fn v1_torn_tail_is_refused_and_left_untouched() {
        // a v1 active tail ending in a torn half-record, which a readable
        // tail would have truncated
        let dir = tmp_dir("v1-tail");
        fs::create_dir_all(&dir).unwrap();
        let seg = SEGMENTS.path(&dir, 1);
        write_old_segment(&seg, b'1', &[1, 2]);
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[44, 0, 0, 0, 0xde, 0xad]);
        fs::write(&seg, bytes).unwrap();
        assert_refused_untouched(&dir);
    }

    #[test]
    fn a_v2_segment_is_refused_and_left_untouched() {
        // a v2 log of per-shard slices with cross-shard stamps, ending in
        // a torn half-record that a readable tail would have truncated
        let dir = tmp_dir("v2-tail");
        fs::create_dir_all(&dir).unwrap();
        let seg = SEGMENTS.path(&dir, 1);
        write_old_segment(&seg, b'2', &[1, 2, 3]);
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[44, 0, 0, 0, 0xde, 0xad]);
        fs::write(&seg, bytes).unwrap();
        assert_refused_untouched(&dir);
    }
}
