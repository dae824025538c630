//! Write-ahead log: append-only, checksummed statement log with group
//! commit, crash recovery, and deterministic fault injection.
//!
//! The SQL-dump persistence of [`crate::Engine`] writes the whole catalog
//! at once — a crash mid-import loses every statement since the last dump.
//! The WAL closes that hole: every mutating statement is framed as
//!
//! ```text
//! [ len: u32 LE | seq: u64 LE | crc32: u32 LE | payload (len bytes) ]
//! ```
//!
//! and appended to the log *before* the engine applies it. The CRC covers
//! the sequence number and the payload, so a frame that was torn by a
//! crash, bit-flipped, or mis-positioned never validates. On open,
//! recovery scans the log from the last checkpoint, reads the valid frames
//! as *units* — a statement, or the statements of one marker-framed group:
//! what applies together or not at all — through the one `UnitReader`,
//! and physically truncates the file where its last whole unit ends: a
//! half-written statement or a half-written group is dropped entirely,
//! never half-applied, and nothing is ever appended behind one.
//!
//! Durability cost is tunable per [`SyncPolicy`]: `Always` fsyncs every
//! frame, `Group` batches fsyncs inside a group-commit window (the
//! default), `Off` leaves flushing to the OS. A *checkpoint* writes the
//! ordinary SQL dump (atomically, via tmp + rename) and then compacts the
//! log back to its 16-byte header; sequence numbers keep counting across
//! checkpoints so a stale pre-checkpoint log segment can never be mistaken
//! for a fresh one.
//!
//! The [`IoFailpoint`] hook makes crashes deterministic for tests: a torn
//! write at byte N, a clean crash after k frames, or a short read during
//! recovery. The crash-consistency suite (`tests/wal_crash.rs` and the
//! workspace-level `crash_recovery.rs`) kills imports at randomized points
//! through these failpoints and asserts that the reopened database equals
//! a reference statement prefix.
#![warn(missing_docs)]

use crate::error::DbError;
use crate::sync::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Magic bytes opening every WAL file.
const MAGIC: &[u8; 4] = b"PBWL";
/// On-disk format version.
const VERSION: u32 = 1;
/// Header: magic (4) + version (4) + start_seq (8).
const HEADER_LEN: u64 = 16;
/// Frame header: len (4) + seq (8) + crc (4).
const FRAME_HEADER_LEN: usize = 16;
/// Upper bound on a single frame payload — recovery treats anything larger
/// as a corrupt length field rather than attempting the allocation. (1 MiB
/// under `cfg(test)` so the crate's unit tests can trip it cheaply.)
const MAX_PAYLOAD: u32 = if cfg!(test) { 1 << 20 } else { 256 << 20 };

/// Frame payload opening the frame group of a unit of more than one
/// statement.
///
/// Collision-safe as a payload: [`Wal::append`] and [`Wal::append_batch`]
/// refuse a statement equal to either marker, so only `append_batch`'s own
/// framing emits these exact payloads — and only [`UnitReader`] reads them.
const TXN_BEGIN_MARKER: &str = "--TXN BEGIN";
/// Frame payload sealing a frame group.
const TXN_COMMIT_MARKER: &str = "--TXN COMMIT";

/// The one reader of a log: frames in, whole units out. A unit is what
/// applies together or not at all — one statement, or the statements
/// between a begin and a commit marker. Recovery, replica apply and
/// promotion all read their frames through it; a sequence of frames ends
/// where its last whole unit ends.
#[derive(Debug)]
pub(crate) struct UnitReader<F> {
    /// The statement frames of the open group; `None` outside a group.
    open: Option<Vec<F>>,
    /// Frames read that no unit holds: a stray commit marker, or a group
    /// (with its begin marker) that another begin marker cut short.
    discarded: u64,
}

impl<F> Default for UnitReader<F> {
    fn default() -> Self {
        UnitReader {
            open: None,
            discarded: 0,
        }
    }
}

impl<F: AsRef<str>> UnitReader<F> {
    /// Read the next frame; returns the unit it completes, if it completes
    /// one. A stray commit marker completes a unit of no statements.
    pub(crate) fn push(&mut self, frame: F) -> Option<Vec<F>> {
        match frame.as_ref() {
            TXN_BEGIN_MARKER => {
                // A begin inside an open group: the older group never
                // committed.
                self.abandon();
                self.open = Some(Vec::new());
                None
            }
            TXN_COMMIT_MARKER => Some(self.open.take().unwrap_or_else(|| {
                self.discarded += 1;
                Vec::new()
            })),
            _ => match self.open.as_mut() {
                Some(group) => {
                    group.push(frame);
                    None
                }
                None => Some(vec![frame]),
            },
        }
    }

    /// Give up the open group — its commit marker is not coming. Returns
    /// how many frames this reader has read into no unit, the abandoned
    /// group's (and its begin marker) among them.
    pub(crate) fn abandon(&mut self) -> u64 {
        if let Some(group) = self.open.take() {
            self.discarded += group.len() as u64 + 1;
        }
        self.discarded
    }
}

/// When the log forces its buffered frames to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every appended frame — maximum durability, slowest.
    Always,
    /// Group commit: frames are written immediately but fsync is issued at
    /// most once per window, amortizing the sync cost over every statement
    /// that arrived inside it.
    Group(Duration),
    /// Never fsync explicitly; the OS flushes when it pleases.
    Off,
}

impl SyncPolicy {
    /// The default group-commit window (5 ms).
    pub fn group_default() -> Self {
        SyncPolicy::Group(Duration::from_millis(5))
    }
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy::group_default()
    }
}

/// Options controlling a [`Wal`]'s durability and fault behavior.
#[derive(Debug, Clone, Default)]
pub struct WalOptions {
    /// fsync policy.
    pub sync: SyncPolicy,
    /// Fault-injection hook; [`IoFailpoint::none`] in production.
    pub failpoint: Arc<IoFailpoint>,
}

impl WalOptions {
    /// Options with the given sync policy and no fault injection.
    pub fn with_sync(sync: SyncPolicy) -> Self {
        WalOptions {
            sync,
            failpoint: Arc::new(IoFailpoint::none()),
        }
    }
}

/// Deterministic I/O fault injection for crash-consistency tests.
///
/// A failpoint wraps the log file's reads and writes. Once *tripped* the
/// WAL behaves like a killed process: every further append fails with
/// [`DbError::Io`], and whatever bytes reached the file stay exactly as
/// they were — including a torn, partially-written tail frame.
///
/// Beyond the WAL's own I/O, a failpoint also models *whole-node* death
/// for the replication subsystem ([`crate::repl`]): [`IoFailpoint::kill`]
/// drops a node outright, [`IoFailpoint::arm_ship_kill`] kills a primary
/// in the middle of shipping frames to its replicas, and
/// [`IoFailpoint::arm_promotion_kill`] kills a replica while it replays
/// its unapplied tail during promotion.
#[derive(Debug)]
pub struct IoFailpoint {
    /// Bytes still allowed to reach the file; `u64::MAX` = unlimited.
    write_budget: AtomicU64,
    /// Complete frames still allowed; `u64::MAX` = unlimited.
    frame_budget: AtomicU64,
    /// Bytes recovery is allowed to read back; `u64::MAX` = unlimited
    /// (models a short read of a truncated or still-dirty file).
    read_budget: AtomicU64,
    /// Frames still allowed to ship to replicas; `u64::MAX` = unlimited.
    ship_budget: AtomicU64,
    /// Complete frames until one append *errors without killing the
    /// process* (a failing device, not a crash); `u64::MAX` = never.
    append_error_in: AtomicU64,
    /// Die inside checkpoint, after the dump rename but before the log is
    /// compacted — the window where dump and log both hold every frame.
    compact_crash: AtomicBool,
    /// Die while replaying the unapplied tail during replica promotion.
    promote_crash: AtomicBool,
    /// Tripped: the simulated process is dead.
    crashed: AtomicBool,
    /// The durability steps taken so far, when recording
    /// ([`IoFailpoint::recording`]).
    steps: Mutex<Option<Vec<Durable>>>,
}

/// A step that makes a write durable, as a recording failpoint lists them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Durable {
    /// A dump's temporary file was fsynced.
    DumpSynced,
    /// A dump was renamed into place.
    DumpRenamed,
    /// A new log's header was written and fsynced.
    LogCreated,
    /// The directory was fsynced, so the names in it are durable.
    DirSynced(PathBuf),
    /// The log was compacted to its header.
    LogCompacted,
}

impl Default for IoFailpoint {
    /// Defaults to a failpoint that never fires (unlimited budgets).
    fn default() -> Self {
        IoFailpoint::none()
    }
}

impl IoFailpoint {
    /// A failpoint that never fires.
    pub fn none() -> Self {
        IoFailpoint {
            write_budget: AtomicU64::new(u64::MAX),
            frame_budget: AtomicU64::new(u64::MAX),
            read_budget: AtomicU64::new(u64::MAX),
            ship_budget: AtomicU64::new(u64::MAX),
            append_error_in: AtomicU64::new(u64::MAX),
            compact_crash: AtomicBool::new(false),
            promote_crash: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            steps: Mutex::new(None),
        }
    }

    /// A failpoint that never fires and lists every durability step taken
    /// through it ([`IoFailpoint::steps`]).
    #[cfg(test)]
    pub(crate) fn recording() -> Self {
        let fp = IoFailpoint::none();
        *fp.steps.lock() = Some(Vec::new());
        fp
    }

    /// The durability steps a recording failpoint saw, in order.
    #[cfg(test)]
    pub(crate) fn steps(&self) -> Vec<Durable> {
        self.steps.lock().clone().unwrap_or_default()
    }

    /// Note one durability step (kept only when recording).
    pub(crate) fn record(&self, step: Durable) {
        if let Some(steps) = self.steps.lock().as_mut() {
            steps.push(step);
        }
    }

    /// Crash with a torn write: the append that would push the total bytes
    /// written past `bytes` is cut short mid-frame, then the failpoint
    /// trips.
    pub fn torn_write_after(bytes: u64) -> Self {
        let fp = IoFailpoint::none();
        fp.write_budget.store(bytes, Ordering::SeqCst);
        fp
    }

    /// Crash cleanly after `frames` complete frames have been appended.
    pub fn crash_after_frames(frames: u64) -> Self {
        let fp = IoFailpoint::none();
        fp.frame_budget.store(frames, Ordering::SeqCst);
        if frames == 0 {
            fp.crashed.store(true, Ordering::SeqCst);
        }
        fp
    }

    /// A write error the process survives: after `frames` more complete
    /// frames, the next frame's write delivers half its bytes and fails —
    /// once; the failpoint does not trip and later writes reach the file.
    pub fn append_error_after(frames: u64) -> Self {
        let fp = IoFailpoint::none();
        fp.append_error_in.store(frames, Ordering::SeqCst);
        fp
    }

    /// Make recovery see only the first `bytes` bytes of the log (a short
    /// read); everything past it looks like a torn tail.
    pub fn short_read_after(bytes: u64) -> Self {
        let fp = IoFailpoint::none();
        fp.read_budget.store(bytes, Ordering::SeqCst);
        fp
    }

    /// Crash inside the next checkpoint, after the new dump has been
    /// renamed into place but before the log is compacted — the recovery
    /// path must then *not* replay frames the dump already reflects.
    pub fn crash_before_compact() -> Self {
        let fp = IoFailpoint::none();
        fp.compact_crash.store(true, Ordering::SeqCst);
        fp
    }

    /// Crash cleanly after `frames` more frames have been *shipped* to
    /// replicas — a primary dying mid-shipment, after some replicas got a
    /// frame the rest never saw.
    pub fn kill_after_shipped_frames(frames: u64) -> Self {
        let fp = IoFailpoint::none();
        fp.arm_ship_kill(frames);
        fp
    }

    /// Crash while a promotion replays this node's unapplied tail.
    pub fn crash_during_promotion() -> Self {
        let fp = IoFailpoint::none();
        fp.arm_promotion_kill();
        fp
    }

    /// Arm [`IoFailpoint::crash_after_frames`] on an existing failpoint
    /// (e.g. one already wired into a running cluster node).
    pub fn arm_frame_kill(&self, frames: u64) {
        self.frame_budget.store(frames, Ordering::SeqCst);
        if frames == 0 {
            self.crashed.store(true, Ordering::SeqCst);
        }
    }

    /// Arm [`IoFailpoint::kill_after_shipped_frames`] on an existing
    /// failpoint (e.g. one already wired into a running cluster node).
    pub fn arm_ship_kill(&self, frames: u64) {
        self.ship_budget.store(frames, Ordering::SeqCst);
        if frames == 0 {
            self.crashed.store(true, Ordering::SeqCst);
        }
    }

    /// Arm [`IoFailpoint::crash_during_promotion`] on an existing
    /// failpoint.
    pub fn arm_promotion_kill(&self) {
        self.promote_crash.store(true, Ordering::SeqCst);
    }

    /// Arm [`IoFailpoint::crash_before_compact`] on an existing failpoint
    /// (e.g. one already wired into a running cluster node).
    pub fn arm_compact_kill(&self) {
        self.compact_crash.store(true, Ordering::SeqCst);
    }

    /// Whole-node kill: trip the crash flag immediately. Every path guarded
    /// by this failpoint — appends, shipping, fetches routed through a
    /// cluster that consults it — fails from here on.
    pub fn kill(&self) {
        self.crashed.store(true, Ordering::SeqCst);
    }

    /// Has the simulated crash happened?
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Clear the crash state and all budgets (the "process restart" before
    /// reopening the log in a test).
    pub fn reset(&self) {
        self.write_budget.store(u64::MAX, Ordering::SeqCst);
        self.frame_budget.store(u64::MAX, Ordering::SeqCst);
        self.read_budget.store(u64::MAX, Ordering::SeqCst);
        self.ship_budget.store(u64::MAX, Ordering::SeqCst);
        self.append_error_in.store(u64::MAX, Ordering::SeqCst);
        self.compact_crash.store(false, Ordering::SeqCst);
        self.promote_crash.store(false, Ordering::SeqCst);
        self.crashed.store(false, Ordering::SeqCst);
    }

    pub(crate) fn check_alive(&self) -> Result<(), DbError> {
        if self.is_crashed() {
            return Err(DbError::Io(
                "simulated crash: write-ahead log is gone".into(),
            ));
        }
        Ok(())
    }

    /// Account one frame shipped to replicas; trips the crash flag (and
    /// errors) when the ship budget runs out — the primary dies with the
    /// shipment half delivered.
    pub(crate) fn admit_ship(&self) -> Result<(), DbError> {
        self.check_alive()?;
        let budget = self.ship_budget.load(Ordering::SeqCst);
        if budget == u64::MAX {
            return Ok(());
        }
        if budget == 0 {
            self.crashed.store(true, Ordering::SeqCst);
            return Err(DbError::Io(
                "simulated crash: primary killed mid-shipment".into(),
            ));
        }
        self.ship_budget.store(budget - 1, Ordering::SeqCst);
        Ok(())
    }

    /// Trip the crash flag if a kill was armed for the promotion replay.
    pub(crate) fn admit_promotion(&self) -> Result<(), DbError> {
        self.check_alive()?;
        if self.promote_crash.swap(false, Ordering::SeqCst) {
            self.crashed.store(true, Ordering::SeqCst);
            return Err(DbError::Io(
                "simulated crash: replica killed mid-promotion".into(),
            ));
        }
        Ok(())
    }

    /// How many of `want` bytes the next write may really deliver; trips
    /// the crash flag when the budget is exceeded.
    fn admit_write(&self, want: u64) -> u64 {
        let budget = self.write_budget.load(Ordering::SeqCst);
        if budget == u64::MAX {
            return want;
        }
        let allowed = want.min(budget);
        self.write_budget.store(budget - allowed, Ordering::SeqCst);
        if allowed < want {
            self.crashed.store(true, Ordering::SeqCst);
        }
        allowed
    }

    /// Is this frame write the one [`IoFailpoint::append_error_after`]
    /// fails? Counts down otherwise.
    fn admit_append_error(&self) -> bool {
        match self.append_error_in.load(Ordering::SeqCst) {
            u64::MAX => false,
            0 => {
                self.append_error_in.store(u64::MAX, Ordering::SeqCst);
                true
            }
            n => {
                self.append_error_in.store(n - 1, Ordering::SeqCst);
                false
            }
        }
    }

    /// Account one complete frame; trips the crash flag when the frame
    /// budget is used up.
    fn admit_frame(&self) {
        let budget = self.frame_budget.load(Ordering::SeqCst);
        if budget == u64::MAX {
            return;
        }
        let left = budget.saturating_sub(1);
        self.frame_budget.store(left, Ordering::SeqCst);
        if left == 0 {
            self.crashed.store(true, Ordering::SeqCst);
        }
    }

    /// Trip the crash flag if a kill was armed between the checkpoint's
    /// dump rename and the log compaction.
    fn admit_compact(&self) -> Result<(), DbError> {
        if self.compact_crash.swap(false, Ordering::SeqCst) {
            self.crashed.store(true, Ordering::SeqCst);
            return Err(DbError::Io(
                "simulated crash: killed after checkpoint dump, before log compaction".into(),
            ));
        }
        Ok(())
    }

    /// Clamp a recovery read to the read budget.
    fn clamp_read(&self, len: u64) -> u64 {
        let budget = self.read_budget.load(Ordering::SeqCst);
        if budget == u64::MAX {
            len
        } else {
            len.min(budget)
        }
    }
}

/// What recovery found when the log was opened.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid frames replayed from the log.
    pub frames_replayed: u64,
    /// Valid frames *not* replayed because the checkpoint dump already
    /// reflected them — their sequence number is below the checkpoint
    /// sequence recorded in the dump (a crash between the dump rename and
    /// the log compaction leaves such frames behind).
    pub frames_skipped: u64,
    /// Bytes of torn/corrupt tail physically truncated.
    pub torn_bytes: u64,
    /// Replayed statements that failed to execute: frames of a log written
    /// before rejected statements stopped being logged. They failed
    /// identically in the original run — replay reproduces the engine state
    /// exactly.
    pub replay_errors: u64,
    /// Frames discarded by the unit reader: statements (and their begin
    /// marker) belonging to a transaction whose commit marker never reached
    /// the log — cut off the file when they are its tail — and stray
    /// markers. Zero partial-transaction effects survive recovery.
    pub txn_frames_discarded: u64,
    /// First sequence number of the current log segment (advances at every
    /// checkpoint compaction).
    pub start_seq: u64,
    /// Sequence number the next appended frame will carry.
    pub next_seq: u64,
}

/// The write-ahead log: an open, append-positioned log file.
///
/// Every append writes its frame to the file immediately; only the
/// *fsync* is deferred by the [`SyncPolicy`]. A plain process kill
/// therefore loses nothing the append call returned for (the OS page
/// cache still holds it); only a machine crash — or the simulated
/// [`IoFailpoint`] crash, which models one — can lose the tail written
/// since the last fsync.
pub struct Wal {
    file: File,
    path: PathBuf,
    opts: WalOptions,
    /// Scratch buffer the next frame is encoded into (reused across
    /// appends so the hot path never allocates).
    buf: Vec<u8>,
    /// Sequence number of the next frame.
    next_seq: u64,
    /// First seq of this segment (post-checkpoint).
    start_seq: u64,
    /// Frames appended since the last fsync.
    unsynced: u64,
    /// When the current group-commit window opened.
    window_open: Option<Instant>,
    /// Valid frames the segment has held since it started: the ones a
    /// recovery cut off still count, so that the compaction which ends the
    /// segment reports every frame it and that recovery took off the file.
    frames: u64,
    /// Observer the log streams frames through; see [`FrameTap`].
    tap: Option<Arc<dyn FrameTap>>,
    /// A failed append left bytes in the file that recovery will cut at
    /// (a torn frame, or an unterminated frame group): every later append
    /// is refused, so nothing is acked into a tail recovery discards.
    poisoned: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("opts", &self.opts)
            .field("next_seq", &self.next_seq)
            .field("start_seq", &self.start_seq)
            .field("unsynced", &self.unsynced)
            .field("frames", &self.frames)
            .field("tap", &self.tap.as_ref().map(|_| "FrameTap"))
            .finish_non_exhaustive()
    }
}

/// Observer of a [`Wal`]'s frame stream — the hook the replication
/// subsystem ([`crate::repl`]) uses to ship committed frames off-node.
///
/// The log calls [`FrameTap::on_frame`] after a frame has fully reached
/// the file (same ordering guarantee the engine gets: log first, then
/// everything else), [`FrameTap::on_commit`] right after an fsync makes
/// the written tail durable, and [`FrameTap::pre_compact`] before frames
/// are dropped from the segment — the tap's last chance to ship them.
/// Errors from any hook abort the surrounding operation.
pub trait FrameTap: Send + Sync {
    /// A frame reached the log file. `crc` is the frame's stored
    /// `frame_crc(seq, payload)`, so a shipping tap can forward and
    /// re-verify it without re-hashing.
    fn on_frame(&self, seq: u64, crc: u32, stmt: &str) -> Result<(), DbError>;

    /// The written tail was just fsynced — every frame passed to
    /// [`FrameTap::on_frame`] so far is durable on the primary.
    fn on_commit(&self) -> Result<(), DbError> {
        Ok(())
    }

    /// The log is about to drop every frame in the segment (checkpoint
    /// compaction). Returning an error aborts the compaction and keeps
    /// the frames in the log. A group open at this point is one an append
    /// failed part-way through: it never commits, and the compaction
    /// clears the poison, so a tap that reads frames as units ends it here.
    fn pre_compact(&self) -> Result<(), DbError> {
        Ok(())
    }
}

impl Wal {
    /// Create a fresh, empty log at `path` (truncating any existing file),
    /// starting at sequence `start_seq`.
    pub fn create(path: &Path, opts: WalOptions, start_seq: u64) -> Result<Wal, DbError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, "create", &e))?;
        write_header(&mut file, path, start_seq)?;
        opts.failpoint.record(Durable::LogCreated);
        // The log's name must be durable before a frame in it is acked.
        sync_parent_dir(path, &opts.failpoint)
            .map_err(|e| io_err(path, "sync directory of", &e))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            opts,
            buf: Vec::new(),
            next_seq: start_seq,
            start_seq,
            unsynced: 0,
            window_open: None,
            frames: 0,
            tap: None,
            poisoned: false,
        })
    }

    /// Open (or create) the log at `path`, scan and validate every frame,
    /// cut the file where its last whole unit ends — a torn frame and an
    /// unterminated frame group are both a torn tail — and return the log
    /// positioned for appending plus the payloads of the frames kept, in
    /// order, markers included. The caller replays them (as units: see
    /// `Engine::recover_replay`) *before* attaching the log, so the replay
    /// itself is not re-logged.
    pub fn open_recover(
        path: &Path,
        opts: WalOptions,
    ) -> Result<(Wal, Vec<String>, RecoveryReport), DbError> {
        Wal::open_recover_from(path, opts, 1)
    }

    /// [`Wal::open_recover`] for the log that continues a checkpoint dump
    /// whose recorded checkpoint sequence is `floor` (1 without a dump):
    /// every frame below `floor` is in the dump already, so the next frame
    /// this log takes must not be numbered below it — recovery would skip it
    /// as checkpointed, and an acknowledged write would be gone after the
    /// next open. A log *created* here (no file, or a header torn by a crash
    /// in `create`) therefore starts at `floor` — the dump was restored
    /// without its log — and an existing log that ends below `floor` belongs
    /// to some other dump and is refused, with both numbers, before anything
    /// in it is touched.
    pub fn open_recover_from(
        path: &Path,
        opts: WalOptions,
        floor: u64,
    ) -> Result<(Wal, Vec<String>, RecoveryReport), DbError> {
        if !path.exists() {
            let wal = Wal::create(path, opts, floor)?;
            let report = RecoveryReport {
                start_seq: floor,
                next_seq: floor,
                ..RecoveryReport::default()
            };
            return Ok((wal, Vec::new(), report));
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, "open", &e))?;
        let file_len = file.metadata().map_err(|e| io_err(path, "stat", &e))?.len();
        let readable = opts.failpoint.clamp_read(file_len);

        let mut bytes = vec![0u8; readable as usize];
        file.read_exact(&mut bytes)
            .map_err(|e| io_err(path, "read", &e))?;

        // Header: malformed/foreign files are refused rather than silently
        // truncated to nothing — a wrong path should be loud.
        if bytes.len() < HEADER_LEN as usize {
            // A torn header can only come from a crash during create();
            // rebuild an empty segment.
            let wal = Wal::create(path, opts, floor)?;
            let report = RecoveryReport {
                torn_bytes: readable,
                start_seq: floor,
                next_seq: floor,
                ..RecoveryReport::default()
            };
            return Ok((wal, Vec::new(), report));
        }
        if &bytes[0..4] != MAGIC {
            return Err(DbError::Io(format!(
                "{} is not a perfbase WAL (bad magic)",
                path.display()
            )));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(DbError::Io(format!(
                "{}: unsupported WAL version {version}",
                path.display()
            )));
        }
        let start_seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));

        // Scan frames until the tail stops validating, reading them as
        // units from `floor` on (a checkpoint never lands inside a group of
        // a log that was not poisoned, and what lies below `floor` is in the
        // dump whatever it was).
        let mut statements = Vec::new();
        let mut pos = HEADER_LEN as usize;
        let mut seq = start_seq;
        let mut reader = UnitReader::default();
        // Where the last whole unit ends: offset, the sequence number after
        // it, frames up to it.
        let mut whole = (pos, seq, 0);
        while let Some((payload, next)) = read_frame(&bytes, pos, seq) {
            statements.push(payload.to_string());
            pos = next;
            seq += 1;
            if seq <= floor || reader.push(payload).is_some() {
                whole = (pos, seq, statements.len());
            }
        }
        if seq < floor {
            return Err(DbError::Io(format!(
                "{}: the log ends at sequence {seq}, below checkpoint sequence {floor} of the \
                 dump it was opened with — it is not that dump's log (writes numbered below \
                 {floor} would be skipped as checkpointed); move it away to start a new one",
                path.display()
            )));
        }
        // The log ends where its last whole unit ends: behind it is a torn
        // frame, an unterminated group, or both, and a frame appended behind
        // either would be lost with it at the next open.
        let (end, seq, kept) = whole;
        let valid = statements.len() as u64;
        statements.truncate(kept);
        if file_len > end as u64 {
            file.set_len(end as u64)
                .map_err(|e| io_err(path, "truncate", &e))?;
            file.sync_all().map_err(|e| io_err(path, "sync", &e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err(path, "seek", &e))?;

        let kept = kept as u64;
        let report = RecoveryReport {
            frames_replayed: kept,
            frames_skipped: floor.saturating_sub(start_seq).min(kept),
            torn_bytes: file_len.saturating_sub(pos as u64),
            replay_errors: 0,
            txn_frames_discarded: valid - kept,
            start_seq,
            next_seq: seq,
        };
        let wal = Wal {
            file,
            path: path.to_path_buf(),
            opts,
            buf: Vec::new(),
            next_seq: seq,
            start_seq,
            unsynced: 0,
            window_open: None,
            frames: valid,
            tap: None,
            poisoned: false,
        };
        Ok((wal, statements, report))
    }

    /// Append one statement as a frame; returns its sequence number. The
    /// frame is written to the log file (and synced as the policy
    /// dictates) before this returns — the caller applies the statement to
    /// the engine only afterwards.
    pub fn append(&mut self, stmt: &str) -> Result<u64, DbError> {
        let t_append = Instant::now();
        check_payload(stmt)?;
        let (seq, frame_len) = self.append_frame(stmt)?;
        self.maybe_sync()?;
        self.opts.failpoint.clone().admit_frame();
        // Timed inclusive of any policy-driven inline fsync, so the append
        // histogram reflects the latency a statement actually paid.
        obs::wal_append(frame_len, t_append.elapsed().as_nanos() as u64);
        Ok(seq)
    }

    /// Append one unit — statements that apply together or not at all;
    /// returns the sequence number of its first frame. One statement is one
    /// frame ([`Wal::append`]: atomic on its own); more are framed here as a
    /// group — begin marker, the statements, commit marker — with the sync
    /// policy applied once for the whole group: the group-commit
    /// amortization a transaction commit relies on (one fsync for the group
    /// instead of one per statement under [`SyncPolicy::Always`]).
    ///
    /// Every payload is checked against the frame limit before the first
    /// frame is written, so a rejected group leaves no trace. If an append
    /// fails after part of the group reached the file, the log is poisoned
    /// (every later append errors until [`Wal::compact`] or a reopen):
    /// recovery cuts the unterminated group off, and a frame written behind
    /// it would go with it, so nothing may be acked behind it.
    pub fn append_batch(&mut self, stmts: &[String]) -> Result<u64, DbError> {
        match stmts {
            [] => return Ok(self.next_seq),
            [one] => return self.append(one),
            _ => stmts.iter().try_for_each(|s| check_payload(s))?,
        }
        let first = self.next_seq;
        let statements = stmts.iter().map(String::as_str);
        for frame in [TXN_BEGIN_MARKER]
            .into_iter()
            .chain(statements)
            .chain([TXN_COMMIT_MARKER])
        {
            let t_append = Instant::now();
            let appended = self.append_frame(frame);
            if appended.is_err() && self.next_seq != first {
                self.poisoned = true;
            }
            let (_, frame_len) = appended?;
            self.opts.failpoint.clone().admit_frame();
            obs::wal_append(frame_len, t_append.elapsed().as_nanos() as u64);
        }
        self.maybe_sync()?;
        Ok(first)
    }

    /// Write one frame to the file (no sync-policy application): the
    /// shared body of [`Wal::append`] and [`Wal::append_batch`], which
    /// have already checked the payload against the frame limit.
    fn append_frame(&mut self, stmt: &str) -> Result<(u64, u64), DbError> {
        let fp = self.opts.failpoint.clone();
        fp.check_alive()?;
        if self.poisoned {
            return Err(DbError::Io(format!(
                "{}: an earlier append failed part-way; checkpoint or reopen the log to recover",
                self.path.display()
            )));
        }
        let payload = stmt.as_bytes();
        let seq = self.next_seq;
        let crc = frame_crc(seq, payload);
        // Encode the frame into the reused scratch buffer — no per-append
        // allocation — then hand it to the file in one write. Frames reach
        // the file on every append; only the fsync is deferred, so a
        // process kill loses at most the not-yet-synced tail.
        let frame_len = FRAME_HEADER_LEN + payload.len();
        self.buf.clear();
        self.buf.reserve(frame_len);
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&seq.to_le_bytes());
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf.extend_from_slice(payload);

        let allowed = fp.admit_write(frame_len as u64) as usize;
        let written = if fp.admit_append_error() {
            self.file
                .write_all(&self.buf[..frame_len / 2])
                .and_then(|()| Err(std::io::Error::other("injected append error")))
        } else {
            self.file.write_all(&self.buf[..allowed])
        };
        if let Err(e) = written {
            // An unknown part of the frame is in the file.
            self.poisoned = true;
            return Err(io_err(&self.path, "append", &e));
        }
        if allowed < frame_len {
            // Torn write: the partial frame made it to the file, then the
            // simulated process dies.
            let _ = self.file.sync_data();
            return Err(DbError::Io(format!(
                "simulated crash: torn write after {allowed} of {frame_len} frame bytes"
            )));
        }
        self.next_seq += 1;
        self.frames += 1;
        self.unsynced += 1;
        // The tap sees the frame after it reached the file but before any
        // window-expiry fsync, so an `on_commit` fired by `maybe_sync`
        // below already covers this frame. A tap error propagates with the
        // frame in the log and the statement unapplied — the same state a
        // crash leaves, which recovery already handles.
        if let Some(tap) = self.tap.clone() {
            tap.on_frame(seq, crc, stmt)?;
        }
        Ok((seq, frame_len as u64))
    }

    /// Apply the sync policy after an append.
    fn maybe_sync(&mut self) -> Result<(), DbError> {
        match self.opts.sync {
            SyncPolicy::Always => self.sync(),
            SyncPolicy::Off => Ok(()),
            SyncPolicy::Group(window) => {
                let now = Instant::now();
                match self.window_open {
                    None => {
                        // First frame of a new window rides on the previous
                        // sync; open the window.
                        self.window_open = Some(now);
                        Ok(())
                    }
                    Some(opened) if now.duration_since(opened) >= window => self.sync(),
                    Some(_) => Ok(()),
                }
            }
        }
    }

    /// Force every written frame to stable storage (closes the current
    /// group-commit window).
    pub fn sync(&mut self) -> Result<(), DbError> {
        if self.unsynced > 0 {
            let batch = self.unsynced;
            let t_sync = Instant::now();
            self.file
                .sync_data()
                .map_err(|e| io_err(&self.path, "fsync", &e))?;
            obs::wal_fsync(batch, t_sync.elapsed().as_nanos() as u64);
            self.unsynced = 0;
            if let Some(tap) = self.tap.clone() {
                tap.on_commit()?;
            }
        }
        self.window_open = None;
        Ok(())
    }

    /// Compact the log after a successful checkpoint: drop every frame
    /// (they are all reflected in the checkpoint dump) and restart the
    /// segment at the next sequence number. Returns frames dropped.
    ///
    /// Carries the [`IoFailpoint::crash_before_compact`] kill point: the
    /// checkpoint dump is already renamed into place when this runs, so a
    /// crash here leaves dump *and* log both holding every frame —
    /// recovery must skip the already-checkpointed frames (it knows them
    /// by the checkpoint sequence recorded in the dump header).
    ///
    /// A poisoned log takes appends again once compacted: the dump holds
    /// exactly the acknowledged state, the unterminated group is gone with
    /// the segment, and the tap has ended it ([`FrameTap::pre_compact`]).
    pub fn compact(&mut self) -> Result<u64, DbError> {
        let fp = self.opts.failpoint.clone();
        fp.check_alive()?;
        fp.admit_compact()?;
        // Pre-compaction barrier: give the tap its last chance to ship the
        // frames about to be dropped. An error keeps the segment intact.
        if let Some(tap) = self.tap.clone() {
            tap.pre_compact()?;
        }
        self.sync()?;
        let dropped = self.frames;
        self.start_seq = self.next_seq;
        self.file
            .set_len(0)
            .map_err(|e| io_err(&self.path, "truncate", &e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err(&self.path, "seek", &e))?;
        write_header(&mut self.file, &self.path, self.start_seq)?;
        fp.record(Durable::LogCompacted);
        // The unterminated group a failed append left went with the
        // segment, and the checkpoint dump holds exactly the acknowledged
        // state: appends may resume.
        self.poisoned = false;
        self.frames = 0;
        self.unsynced = 0;
        self.window_open = None;
        Ok(dropped)
    }

    /// Did an append fail part-way, so that every later one is refused
    /// until [`Wal::compact`] or a reopen?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Sequence number the next frame will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Valid frames the segment has held since it started — the frames in
    /// the file, and any unterminated group the last recovery cut off it.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fault-injection hook this log writes through.
    pub fn failpoint(&self) -> &Arc<IoFailpoint> {
        &self.opts.failpoint
    }

    /// Install (or clear) the frame observer. Frames appended before the
    /// tap was installed are not replayed into it — callers bring the
    /// observer up to date themselves (replication base-copies the
    /// engine's current state before attaching).
    pub fn set_tap(&mut self, tap: Option<Arc<dyn FrameTap>>) {
        self.tap = tap;
    }
}

impl Drop for Wal {
    /// Best-effort fsync of the written-but-unsynced tail on a clean drop
    /// — frames are already in the file (appends write immediately), this
    /// just closes an idle group-commit window. A simulated crash skips
    /// it: a dead process cannot fsync.
    fn drop(&mut self) {
        if !self.opts.failpoint.is_crashed() {
            let _ = self.sync();
        }
    }
}

/// Validate and decode the frame at `pos`; `None` on any torn/corrupt/
/// out-of-sequence frame (recovery truncates there).
fn read_frame(bytes: &[u8], pos: usize, expect_seq: u64) -> Option<(&str, usize)> {
    let header_end = pos.checked_add(FRAME_HEADER_LEN)?;
    if header_end > bytes.len() {
        return None;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().ok()?);
    if len > MAX_PAYLOAD {
        return None;
    }
    let seq = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().ok()?);
    let crc = u32::from_le_bytes(bytes[pos + 12..pos + 16].try_into().ok()?);
    let end = header_end.checked_add(len as usize)?;
    if end > bytes.len() {
        return None;
    }
    if seq != expect_seq {
        return None;
    }
    let payload = &bytes[header_end..end];
    if frame_crc(seq, payload) != crc {
        return None;
    }
    Some((std::str::from_utf8(payload).ok()?, end))
}

/// Refuse a statement no frame can hold, and a payload the [`UnitReader`]
/// would take for a marker: only [`Wal::append_batch`] writes those.
fn check_payload(stmt: &str) -> Result<(), DbError> {
    if stmt.len() as u64 > MAX_PAYLOAD as u64 {
        return Err(DbError::Io(format!(
            "statement of {} bytes exceeds WAL frame limit",
            stmt.len()
        )));
    }
    if stmt == TXN_BEGIN_MARKER || stmt == TXN_COMMIT_MARKER {
        return Err(DbError::Io(format!(
            "{stmt:?} is a frame group marker, not a statement"
        )));
    }
    Ok(())
}

fn write_header(file: &mut File, path: &Path, start_seq: u64) -> Result<(), DbError> {
    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&start_seq.to_le_bytes());
    file.write_all(&header)
        .map_err(|e| io_err(path, "write header", &e))?;
    file.sync_data()
        .map_err(|e| io_err(path, "sync header", &e))?;
    Ok(())
}

fn io_err(path: &Path, op: &str, e: &std::io::Error) -> DbError {
    DbError::Io(format!("{op} {}: {e}", path.display()))
}

/// fsync the directory holding `path`: a file created or renamed there is
/// durable under its name only then — an fsync of the file itself does not
/// reach the directory entry.
pub(crate) fn sync_parent_dir(path: &Path, fp: &IoFailpoint) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    // A directory opens as a file for fsync on unix only.
    if cfg!(unix) {
        File::open(dir)?.sync_all()?;
    }
    fp.record(Durable::DirSynced(dir.to_path_buf()));
    Ok(())
}

/// CRC32 (IEEE 802.3 polynomial, reflected) over the frame's sequence
/// number followed by its payload.
pub fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    let mut crc = crc32_update(0xFFFF_FFFF, &seq.to_le_bytes());
    crc = crc32_update(crc, payload);
    !crc
}

/// IEEE CRC-32 lookup tables (reflected polynomial), built at compile time,
/// for slicing-by-8: `CRC32_TABLES[0]` is the byte-at-a-time table, and
/// `CRC32_TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes, so
/// eight table lookups advance the CRC by eight bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Advance `crc` over `bytes`, eight bytes per step and the rest one at a
/// time — the same CRC as a byte-at-a-time table walk.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("perfbase_wal_unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn crc32_known_vector() {
        // CRC32("123456789") == 0xCBF43926 for the IEEE polynomial.
        let crc = !crc32_update(0xFFFF_FFFF, b"123456789");
        assert_eq!(crc, 0xCBF4_3926);
    }

    #[test]
    fn sliced_crc_equals_the_byte_at_a_time_walk() {
        let bytewise = |mut crc: u32, bytes: &[u8]| {
            for &b in bytes {
                crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            crc
        };
        let mut rng = crate::test_common::Rng::new(0xc7c);
        let buf: Vec<u8> = (0..80).map(|_| rng.next_u64() as u8).collect();
        for start in [0, 1, 3, 7, 8, 13] {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                for crc in [0xFFFF_FFFF, 0, rng.next_u64() as u32] {
                    assert_eq!(
                        crc32_update(crc, bytes),
                        bytewise(crc, bytes),
                        "{start} {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn append_and_recover_roundtrip() {
        let path = tmp("roundtrip.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Off), 1).unwrap();
        for i in 0..10 {
            let seq = wal.append(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            assert_eq!(seq, 1 + i);
        }
        wal.sync().unwrap();
        drop(wal);
        let (wal, stmts, report) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert_eq!(stmts.len(), 10);
        assert_eq!(stmts[3], "INSERT INTO t VALUES (3)");
        assert_eq!(report.frames_replayed, 10);
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(report.next_seq, 11);
        assert_eq!(wal.next_seq(), 11);
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// What a frame sequence reads to: the statements of its whole units,
    /// and how many frames are in none.
    fn read_units(frames: &[String]) -> (Vec<String>, u64) {
        let mut reader = UnitReader::default();
        let units = frames.iter().filter_map(|f| reader.push(f.clone()));
        (units.flatten().collect(), reader.abandon())
    }

    #[test]
    fn unit_reader_all_or_nothing() {
        // Committed group: contents pass, markers drop.
        let (out, discarded) = read_units(&s(&[
            "A",
            TXN_BEGIN_MARKER,
            "B",
            "C",
            TXN_COMMIT_MARKER,
            "D",
        ]));
        assert_eq!(out, s(&["A", "B", "C", "D"]));
        assert_eq!(discarded, 0);
        // Unterminated tail: group discarded wholesale.
        let (out, discarded) = read_units(&s(&["A", TXN_BEGIN_MARKER, "B", "C"]));
        assert_eq!(out, s(&["A"]));
        assert_eq!(discarded, 3);
        // Stray commit marker (e.g. begin marker lost to a checkpoint
        // boundary can't happen, but be robust): dropped, not replayed.
        let (out, discarded) = read_units(&s(&[TXN_COMMIT_MARKER, "A"]));
        assert_eq!(out, s(&["A"]));
        assert_eq!(discarded, 1);
        // Begin inside an open group kills the older group.
        let (out, discarded) = read_units(&s(&[
            TXN_BEGIN_MARKER,
            "A",
            TXN_BEGIN_MARKER,
            "B",
            TXN_COMMIT_MARKER,
        ]));
        assert_eq!(out, s(&["B"]));
        assert_eq!(discarded, 2);
    }

    #[test]
    fn append_batch_writes_consecutive_frames_with_one_sync() {
        let path = tmp("batch.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Always), 1).unwrap();
        wal.append("A").unwrap();
        let stmts: Vec<String> = (0..5).map(|i| format!("B{i}")).collect();
        let first = wal.append_batch(&stmts).unwrap();
        assert_eq!(first, 2);
        // The five statements and the two markers that make them one unit.
        assert_eq!(wal.frames(), 6 + 2);
        assert_eq!(wal.next_seq(), 7 + 2);
        // One statement is one frame, no statement is none.
        assert_eq!(wal.append_batch(&s(&["C"])).unwrap(), 9);
        assert_eq!(wal.append_batch(&[]).unwrap(), 10);
        assert_eq!(wal.frames(), 9);
        drop(wal);
        let (_, recovered, report) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert_eq!(report.frames_replayed, 9);
        let (recovered, discarded) = read_units(&recovered);
        assert_eq!((recovered.len(), discarded), (6 + 1, 0));
        assert_eq!(recovered[1], "B0");
    }

    #[test]
    fn oversized_statement_rejects_the_whole_batch_before_any_write() {
        let path = tmp("oversized.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Off), 1).unwrap();
        wal.append("A").unwrap();
        let len_before = std::fs::metadata(&path).unwrap().len();
        let big = "y".repeat(MAX_PAYLOAD as usize + 1);
        let e = wal.append_batch(&s(&["small", &big])).unwrap_err();
        assert!(e.to_string().contains("exceeds WAL frame limit"), "{e}");
        // Rejected ⇒ absent: not one byte of the group reached the file.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);
        assert_eq!((wal.frames(), wal.next_seq()), (1, 2));
        // The log stays usable, and what it acks afterwards is recovered.
        wal.append("acked").unwrap();
        drop(wal);
        let (_, stmts, _) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert_eq!(read_units(&stmts), (vec!["A".into(), "acked".into()], 0));
    }

    /// A marker is not a statement: appended alone or inside a batch it is
    /// refused before a byte is written, and the log stays usable.
    #[test]
    fn a_marker_payload_is_refused_at_every_append() {
        let path = tmp("marker.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Off), 1).unwrap();
        wal.append("A").unwrap();
        let len_before = std::fs::metadata(&path).unwrap().len();
        for marker in [TXN_BEGIN_MARKER, TXN_COMMIT_MARKER] {
            let e = wal.append(marker).unwrap_err();
            assert!(e.to_string().contains("marker"), "{e}");
            assert!(wal.append_batch(&s(&[marker])).is_err());
            assert!(wal.append_batch(&s(&["one", marker, "two"])).is_err());
            assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);
            assert_eq!((wal.frames(), wal.next_seq()), (1, 2));
        }
        wal.append("acked").unwrap();
        drop(wal);
        let (_, stmts, _) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert_eq!(read_units(&stmts), (vec!["A".into(), "acked".into()], 0));
    }

    #[test]
    fn append_error_mid_batch_poisons_the_log() {
        let path = tmp("poison_batch.wal");
        // Frames A, begin marker, "one" succeed; "two" fails half-written.
        let fp = Arc::new(IoFailpoint::append_error_after(3));
        let opts = WalOptions {
            sync: SyncPolicy::Off,
            failpoint: fp.clone(),
        };
        let mut wal = Wal::create(&path, opts, 1).unwrap();
        wal.append("A").unwrap();
        assert!(wal.append_batch(&s(&["one", "two"])).is_err());
        assert!(!fp.is_crashed(), "the process survives this error");
        // Nothing may be acked behind the unterminated group.
        assert!(wal.append("later").is_err());
        assert!(wal.append_batch(&s(&["x", "y"])).is_err());
        drop(wal);
        let (mut wal, stmts, report) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert!(report.torn_bytes > 0, "half of frame 'two' was on disk");
        // The unterminated group went with the torn frame behind it.
        assert_eq!((stmts, report.txn_frames_discarded), (s(&["A"]), 2));
        assert_eq!(wal.next_seq(), 2);
        // Reopening clears the poison.
        wal.append("after reopen").unwrap();
    }

    /// A checkpoint clears the poison too: its dump holds exactly the
    /// acknowledged state and the unterminated group goes with the segment,
    /// so the next write is accepted and a reopen finds exactly the
    /// acknowledged rows.
    #[test]
    fn a_checkpoint_clears_the_poison() {
        use crate::{Engine, Value};
        let (dump, log) = (tmp("poison_ckpt.sql"), tmp("poison_ckpt.wal"));
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&log).ok();
        // CREATE, the first INSERT, the begin marker and the group's first
        // INSERT reach the log; its second INSERT fails half-written.
        let opts = WalOptions {
            sync: SyncPolicy::Off,
            failpoint: Arc::new(IoFailpoint::append_error_after(4)),
        };
        let db = Arc::new(Engine::open_durable(&dump, &log, opts).unwrap().0);
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let mut txn = db.begin_txn();
        txn.execute("INSERT INTO t VALUES (2)").unwrap();
        txn.execute("INSERT INTO t VALUES (3)").unwrap();
        assert!(!db.wal_poisoned());
        assert!(txn.commit().is_err());
        assert!(db.wal_poisoned());
        assert!(db.execute("INSERT INTO t VALUES (4)").is_err(), "poisoned");
        db.checkpoint(&dump).unwrap();
        assert!(!db.wal_poisoned());
        db.execute("INSERT INTO t VALUES (5)").unwrap();
        drop(db);
        let (db, report) =
            Engine::open_durable(&dump, &log, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!(
            (report.frames_replayed, report.txn_frames_discarded),
            (1, 0)
        );
        let rows = db.query("SELECT a FROM t ORDER BY a").unwrap();
        assert_eq!(rows.rows(), [[Value::Int(1)], [Value::Int(5)]]);
    }

    #[test]
    fn tap_error_mid_batch_poisons_the_log() {
        /// Refuses the frame with sequence number 3.
        struct FailsAtThree;
        impl FrameTap for FailsAtThree {
            fn on_frame(&self, seq: u64, _crc: u32, _stmt: &str) -> Result<(), DbError> {
                if seq == 3 {
                    return Err(DbError::Io("tap refused the frame".into()));
                }
                Ok(())
            }
        }
        let path = tmp("poison_tap.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Off), 1).unwrap();
        wal.set_tap(Some(Arc::new(FailsAtThree)));
        wal.append("A").unwrap();
        // Begin marker (seq 2) and "one" (seq 3) are whole frames in the
        // file when the tap fails the group.
        assert!(wal.append_batch(&s(&["one", "two"])).is_err());
        assert!(wal.append("later").is_err());
        drop(wal);
        let (_, stmts, report) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert_eq!(report.torn_bytes, 0);
        assert_eq!((stmts, report.txn_frames_discarded), (s(&["A"]), 2));
        // The cut is on the file: a second open finds nothing to discard.
        let (_, stmts, report) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert_eq!((stmts, report.txn_frames_discarded), (s(&["A"]), 0));
    }

    #[test]
    fn append_error_on_a_single_frame_poisons_the_log() {
        let path = tmp("poison_single.wal");
        let opts = WalOptions {
            sync: SyncPolicy::Off,
            failpoint: Arc::new(IoFailpoint::append_error_after(1)),
        };
        let mut wal = Wal::create(&path, opts, 1).unwrap();
        wal.append("A").unwrap();
        assert!(wal.append("B").is_err());
        // A frame written behind B's torn half would be cut off with it.
        assert!(wal.append("C").is_err());
        drop(wal);
        let (_, stmts, report) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert_eq!(stmts, vec!["A".to_string()]);
        assert!(report.torn_bytes > 0);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp("torn.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Off), 1).unwrap();
        wal.append("CREATE TABLE t (a INTEGER)").unwrap();
        wal.append("INSERT INTO t VALUES (1)").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Chop 5 bytes off the last frame.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (wal, stmts, report) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert_eq!(stmts, vec!["CREATE TABLE t (a INTEGER)".to_string()]);
        assert_eq!(report.frames_replayed, 1);
        assert!(report.torn_bytes > 0);
        // The file was physically truncated to the last valid frame.
        let truncated = std::fs::metadata(&path).unwrap().len();
        assert!(
            truncated < len - 5 || truncated == len - 5 - report.torn_bytes + (len - 5 - truncated)
        );
        // Appending after recovery continues the sequence.
        assert_eq!(wal.next_seq(), 2);
    }

    #[test]
    fn corrupt_crc_cuts_log_there() {
        let path = tmp("crc.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Off), 1).unwrap();
        wal.append("A1").unwrap();
        wal.append("B2").unwrap();
        wal.append("C3").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Flip one payload byte of the second frame. Frames are 16+2 bytes.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_payload = HEADER_LEN as usize + 18 + 16;
        bytes[second_payload] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, stmts, report) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert_eq!(stmts, vec!["A1".to_string()]);
        // Frames 2 and 3 are gone — corruption truncates the tail.
        assert_eq!(report.frames_replayed, 1);
        assert!(report.torn_bytes >= 18 * 2);
    }

    #[test]
    fn torn_write_failpoint_trips_and_recovers_prefix() {
        let path = tmp("failpoint.wal");
        let fp = Arc::new(IoFailpoint::torn_write_after(50));
        let opts = WalOptions {
            sync: SyncPolicy::Off,
            failpoint: fp.clone(),
        };
        let mut wal = Wal::create(&path, opts, 1).unwrap();
        let mut ok = 0;
        let mut died = false;
        for i in 0..100 {
            match wal.append(&format!("stmt {i}")) {
                Ok(_) => ok += 1,
                Err(e) => {
                    assert!(e.to_string().contains("simulated crash"), "{e}");
                    died = true;
                    break;
                }
            }
        }
        assert!(died, "failpoint never fired");
        assert!(fp.is_crashed());
        // Further appends also fail.
        assert!(wal.append("after death").is_err());
        drop(wal);
        fp.reset();
        let (_, stmts, report) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert_eq!(stmts.len(), ok);
        assert!(report.torn_bytes > 0, "the torn frame should be on disk");
    }

    #[test]
    fn crash_after_frames_is_clean() {
        let path = tmp("frames.wal");
        let fp = Arc::new(IoFailpoint::crash_after_frames(3));
        let opts = WalOptions {
            sync: SyncPolicy::Off,
            failpoint: fp.clone(),
        };
        let mut wal = Wal::create(&path, opts, 1).unwrap();
        for i in 0..3 {
            wal.append(&format!("s{i}")).unwrap();
        }
        assert!(wal.append("s3").is_err());
        drop(wal);
        fp.reset();
        let (_, stmts, report) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert_eq!(stmts.len(), 3);
        assert_eq!(report.torn_bytes, 0, "clean crash leaves no torn tail");
    }

    #[test]
    fn short_read_failpoint_truncates_recovery() {
        let path = tmp("shortread.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Off), 1).unwrap();
        for i in 0..5 {
            wal.append(&format!("statement number {i}")).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let full = std::fs::metadata(&path).unwrap().len();
        let fp = Arc::new(IoFailpoint::short_read_after(full - 10));
        let opts = WalOptions {
            sync: SyncPolicy::Off,
            failpoint: fp,
        };
        let (_, stmts, _) = Wal::open_recover(&path, opts).unwrap();
        assert_eq!(
            stmts.len(),
            4,
            "short read must drop exactly the last frame"
        );
    }

    #[test]
    fn compaction_resets_segment_and_keeps_seq_monotonic() {
        let path = tmp("compact.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Off), 1).unwrap();
        for i in 0..4 {
            wal.append(&format!("s{i}")).unwrap();
        }
        let dropped = wal.compact().unwrap();
        assert_eq!(dropped, 4);
        assert_eq!(wal.frames(), 0);
        let seq = wal.append("after checkpoint").unwrap();
        assert_eq!(seq, 5, "sequence numbers keep counting across checkpoints");
        drop(wal);
        let (_, stmts, report) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert_eq!(stmts, vec!["after checkpoint".to_string()]);
        assert_eq!(report.start_seq, 5);
        assert_eq!(report.next_seq, 6);
    }

    #[test]
    fn foreign_file_is_refused() {
        let path = tmp("foreign.wal");
        std::fs::write(
            &path,
            b"-- perfbase embedded database dump\nCREATE TABLE x;",
        )
        .unwrap();
        let err = Wal::open_recover(&path, WalOptions::default()).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn group_commit_window_batches_syncs() {
        let path = tmp("group.wal");
        let opts = WalOptions::with_sync(SyncPolicy::Group(Duration::from_secs(3600)));
        let mut wal = Wal::create(&path, opts, 1).unwrap();
        // A huge window: none of these appends should block on fsync.
        for i in 0..100 {
            wal.append(&format!("s{i}")).unwrap();
        }
        assert!(wal.unsynced > 0, "frames are pending inside the window");
        wal.sync().unwrap();
        assert_eq!(wal.unsynced, 0);
    }

    #[test]
    fn sync_always_leaves_nothing_pending() {
        let path = tmp("always.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Always), 1).unwrap();
        wal.append("s").unwrap();
        assert_eq!(wal.unsynced, 0);
    }

    #[test]
    fn empty_or_missing_file_starts_fresh() {
        let path = tmp("fresh.wal");
        std::fs::remove_file(&path).ok();
        let (wal, stmts, report) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert!(stmts.is_empty());
        assert_eq!(report.next_seq, 1);
        assert_eq!(wal.frames(), 0);
        drop(wal);
        // A torn header (crash during create) also rebuilds cleanly.
        std::fs::write(&path, b"PBW").unwrap();
        let (_, stmts, report) = Wal::open_recover(&path, WalOptions::default()).unwrap();
        assert!(stmts.is_empty());
        assert_eq!(report.torn_bytes, 3);
    }
}
