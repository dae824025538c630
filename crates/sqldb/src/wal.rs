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
//! and appended to the log *before* the engine applies it. A payload is a
//! *record* (see `record.rs`): a tag byte and its body — the typed batch an
//! INSERT appends, a typed CREATE TABLE, the SQL text of any other statement,
//! or a group marker. That is the format of header version 2; a version-1
//! log, whose payloads are SQL text, is still read, its text frames taken as
//! the records they stand for, but never appended to: the durable open that
//! finds one holding frames checkpoints right after the replay, and the
//! compaction leaves a version-2 log. The CRC covers
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
use crate::record::{self, FrameRef};
use crate::sync::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Magic bytes opening every WAL file.
const MAGIC: &[u8; 4] = b"PBWL";
/// The format version this build writes: every payload a record.
const VERSION: u32 = 2;
/// The format version whose payloads are SQL text: read, never appended to.
const TEXT_VERSION: u32 = 1;
/// Header: magic (4) + version (4) + start_seq (8).
const HEADER_LEN: u64 = 16;
/// Frame header: len (4) + seq (8) + crc (4).
pub(crate) const FRAME_HEADER_LEN: usize = 16;
/// Upper bound on a single frame payload — recovery treats anything larger
/// as a corrupt length field rather than attempting the allocation. (1 MiB
/// under `cfg(test)` so the crate's unit tests can trip it cheaply.)
const MAX_PAYLOAD: u32 = if cfg!(test) { 1 << 20 } else { 256 << 20 };

/// The one reader of a log: frames in, whole units out. A unit is what
/// applies together or not at all — one statement, or the statements
/// between a begin and a commit marker. Recovery, replica apply and
/// promotion all read their frames through it; a sequence of frames ends
/// where its last whole unit ends.
#[derive(Debug)]
pub(crate) struct UnitReader<F> {
    /// The statement frames of the open group, or of the unit the last
    /// frame completed; one vector, reused from unit to unit.
    frames: Vec<F>,
    /// Is a group open?
    open: bool,
    /// Did the last frame complete a unit? Its frames go at the next one.
    done: bool,
    /// Frames read that no unit holds: a stray commit marker, or a group
    /// (with its begin marker) that another begin marker cut short.
    discarded: u64,
}

impl<F> Default for UnitReader<F> {
    fn default() -> Self {
        UnitReader {
            frames: Vec::new(),
            open: false,
            done: false,
            discarded: 0,
        }
    }
}

impl<F> UnitReader<F> {
    /// Read the next frame, whose record opens with the tag byte `tag`
    /// (`None`: an empty record); returns the unit it completes, if it
    /// completes one. A stray commit marker completes a unit of no
    /// statements.
    pub(crate) fn push(&mut self, tag: Option<u8>, frame: F) -> Option<&[F]> {
        if std::mem::take(&mut self.done) {
            self.frames.clear();
        }
        match tag {
            Some(record::BEGIN) => {
                // A begin inside an open group: the older group never
                // committed.
                self.abandon();
                self.open = true;
                return None;
            }
            Some(record::COMMIT) if !std::mem::take(&mut self.open) => self.discarded += 1,
            Some(record::COMMIT) => {}
            _ => {
                self.frames.push(frame);
                if self.open {
                    return None;
                }
            }
        }
        self.done = true;
        Some(&self.frames)
    }

    /// Give up the open group — its commit marker is not coming. Returns
    /// how many frames this reader has read into no unit, the abandoned
    /// group's (and its begin marker) among them.
    pub(crate) fn abandon(&mut self) -> u64 {
        if std::mem::take(&mut self.open) {
            self.discarded += self.frames.len() as u64 + 1;
            self.frames.clear();
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
    /// Fsyncs until one fails without killing the process; `u64::MAX` =
    /// never.
    fsync_error_in: AtomicU64,
    /// Frames until the tap refuses one without killing the process;
    /// `u64::MAX` = never.
    tap_error_in: AtomicU64,
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
            fsync_error_in: AtomicU64::new(u64::MAX),
            tap_error_in: AtomicU64::new(u64::MAX),
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

    /// An fsync error the process survives: after `syncs` more fsyncs of
    /// the log, the next one fails — once.
    pub fn fsync_error_after(syncs: u64) -> Self {
        let fp = IoFailpoint::none();
        fp.fsync_error_in.store(syncs, Ordering::SeqCst);
        fp
    }

    /// A tap error the process survives: after `frames` more frames, the
    /// next one reaches the file whole and is then refused, once, as a
    /// [`FrameTap`] that failed to take it would refuse it.
    pub fn tap_error_after(frames: u64) -> Self {
        let fp = IoFailpoint::none();
        fp.tap_error_in.store(frames, Ordering::SeqCst);
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
        self.fsync_error_in.store(u64::MAX, Ordering::SeqCst);
        self.tap_error_in.store(u64::MAX, Ordering::SeqCst);
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
        once_after(&self.append_error_in)
    }

    /// Is this fsync the one [`IoFailpoint::fsync_error_after`] fails?
    fn admit_fsync_error(&self) -> bool {
        once_after(&self.fsync_error_in)
    }

    /// Is this frame the one [`IoFailpoint::tap_error_after`] refuses?
    fn admit_tap_error(&self) -> bool {
        once_after(&self.tap_error_in)
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

/// Count `budget` down; `true` once, when it was at 0 (`u64::MAX`: never).
fn once_after(budget: &AtomicU64) -> bool {
    match budget.load(Ordering::SeqCst) {
        u64::MAX => false,
        0 => {
            budget.store(u64::MAX, Ordering::SeqCst);
            true
        }
        n => {
            budget.store(n - 1, Ordering::SeqCst);
            false
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
    /// Where the file ends: the offset the next frame is written at.
    end: u64,
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
    /// The file is a version-1 log holding frames: it takes no append until
    /// a compaction rewrites it as a version-2 log.
    text_frames: bool,
}

/// The frames recovery kept, in order, markers included: each frame's
/// sequence number, where its payload starts in the log file, and its
/// record (a version-1 frame's text as the record it stands for).
#[derive(Debug, Default)]
pub struct Frames {
    /// The bytes the records are in: the log file itself, or for a
    /// version-1 log the records its text frames stand for.
    bytes: Vec<u8>,
    /// Per frame: sequence number, file offset of its payload, and where its
    /// record is in `bytes`.
    spans: Vec<(u64, usize, std::ops::Range<usize>)>,
}

impl Frames {
    /// How many frames there are.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Are there none?
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The `k`th frame.
    pub(crate) fn get(&self, k: usize) -> FrameRef<'_> {
        let (seq, at, range) = &self.spans[k];
        FrameRef {
            seq: *seq,
            at: *at,
            payload: &self.bytes[range.clone()],
        }
    }

    /// The frames, in order.
    fn iter(&self) -> impl Iterator<Item = FrameRef<'_>> {
        (0..self.len()).map(|k| self.get(k))
    }

    /// Add a frame behind the last; returns its position.
    fn push(&mut self, frame: FrameRef<'_>) -> usize {
        let at = self.bytes.len();
        self.bytes.extend_from_slice(frame.payload);
        self.spans.push((frame.seq, frame.at, at..self.bytes.len()));
        self.spans.len() - 1
    }

    /// Drop every frame.
    fn clear(&mut self) {
        self.bytes.clear();
        self.spans.clear();
    }

    /// Each frame as the SQL text it stands for: a statement, an INSERT's
    /// rows as the dump writes them, a marker as `--TXN BEGIN` or `--TXN
    /// COMMIT`, a record that does not decode as `-- ` and its error. For
    /// reading a log by hand — the tests' view of what was logged, and a
    /// log's inspection from outside the engine — not for replaying one.
    pub fn statements(&self) -> Vec<String> {
        self.iter().map(record::to_sql).collect()
    }
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
    /// A frame reached the log file. `record` is its payload and `crc` the
    /// frame's stored `frame_crc(seq, record)`, so a shipping tap can
    /// forward and re-verify it without re-hashing.
    fn on_frame(&self, seq: u64, crc: u32, record: &[u8]) -> Result<(), DbError>;

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

    /// The frames from sequence number `seq` on were taken back off the
    /// log (`Wal::undo`): the append they belong to answered an error, and
    /// they will never commit. The next frame is numbered `seq` again.
    fn on_undo(&self, seq: u64) {
        let _ = seq;
    }
}

/// Where a unit began: what [`Wal::undo`] restores.
#[derive(Debug, Clone, Copy)]
struct Mark {
    end: u64,
    seq: u64,
    frames: u64,
    unsynced: u64,
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
            end: HEADER_LEN,
            buf: Vec::new(),
            next_seq: start_seq,
            start_seq,
            unsynced: 0,
            window_open: None,
            frames: 0,
            tap: None,
            poisoned: false,
            text_frames: false,
        })
    }

    /// Open (or create) the log at `path`, scan and validate every frame,
    /// cut the file where its last whole unit ends — a torn frame and an
    /// unterminated frame group are both a torn tail — and return the log
    /// positioned for appending plus the frames kept, in order, markers
    /// included. `floor` is the sequence number its checkpoint records
    /// ([`crate::Engine::load_checkpoint`]; 1 without one): the frames below
    /// it are in the checkpoint, whatever they are, and are returned as they
    /// are, never read as a group that holds later frames. Nothing is
    /// replayed: this is the log read by hand (the durable open replays it
    /// as it reads it, see `Engine::recover`), and its report's
    /// `frames_replayed` counts every frame kept. A version-1 log that
    /// holds frames takes no append until [`Wal::compact`]; one that holds
    /// none is rewritten as a version-2 log here.
    pub fn open_recover(
        path: &Path,
        opts: WalOptions,
        floor: u64,
    ) -> Result<(Wal, Frames, RecoveryReport), DbError> {
        let mut frames = Frames::default();
        let (wal, mut report) = Wal::open_recover_with(path, opts, floor, |read, _| {
            for frame in read.iter() {
                frames.push(frame);
            }
        })?;
        report.frames_replayed = frames.len() as u64;
        Ok((wal, frames, report))
    }

    /// The scan of [`Wal::open_recover`] for the log that continues a
    /// checkpoint whose recorded sequence is `floor` (1 without one). It
    /// reads the file a window at a time, never the whole of it, a
    /// version-1 frame as the record it stands for, and reads the frames
    /// from `floor` on as units through one [`UnitReader`]: each time a unit
    /// closes it calls `each(read, unit)` with every frame read since the
    /// last one closed (markers included, and the frames of a group that
    /// never committed) and the positions in `read` of the unit's statement
    /// frames. The frames below `floor` are in the checkpoint already,
    /// whatever they are: the reader never sees them (a checkpoint never
    /// lands inside a group of a log that was not poisoned, and a poisoned
    /// log's dead group lies wholly below the floor of the checkpoint that
    /// cleared the poison), and each is handed on alone, as a unit of no
    /// statements.
    ///
    /// The next frame this log takes must not be numbered below `floor` —
    /// recovery would skip it as checkpointed, and an acknowledged write
    /// would be gone after the next open. A log *created* here (no file, or
    /// a header torn by a crash in `create`) therefore starts at `floor` —
    /// the checkpoint was restored without its log — and an existing log
    /// that ends below `floor` belongs to some other checkpoint and is
    /// refused, with both numbers, before anything in it is touched.
    ///
    /// The report counts, as a replay does: `frames_replayed`, the
    /// statement frames of the units handed on; `frames_skipped`, the frames
    /// below `floor`; `txn_frames_discarded`, every frame cut with the tail
    /// plus every frame from `floor` on that the reader put in no unit.
    pub(crate) fn open_recover_with(
        path: &Path,
        opts: WalOptions,
        floor: u64,
        each: impl FnMut(&Frames, &[usize]),
    ) -> Result<(Wal, RecoveryReport), DbError> {
        if !path.exists() {
            let wal = Wal::create(path, opts, floor)?;
            let report = RecoveryReport {
                start_seq: floor,
                next_seq: floor,
                ..RecoveryReport::default()
            };
            return Ok((wal, report));
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, "open", &e))?;
        let file_len = file.metadata().map_err(|e| io_err(path, "stat", &e))?.len();
        let readable = opts.failpoint.clamp_read(file_len);
        let mut window = Window::new((&file).take(readable), readable as usize);
        let read_err = |e| io_err(path, "read", &e);

        // Header: malformed/foreign files are refused rather than silently
        // truncated to nothing — a wrong path should be loud.
        let header = window.peek(HEADER_LEN as usize).map_err(read_err)?;
        if header.len() < HEADER_LEN as usize {
            // A torn header can only come from a crash during create();
            // rebuild an empty segment.
            drop(window);
            let wal = Wal::create(path, opts, floor)?;
            let report = RecoveryReport {
                torn_bytes: readable,
                start_seq: floor,
                next_seq: floor,
                ..RecoveryReport::default()
            };
            return Ok((wal, report));
        }
        if &header[0..4] != MAGIC {
            return Err(DbError::Io(format!(
                "{} is not a perfbase WAL (bad magic)",
                path.display()
            )));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != VERSION && version != TEXT_VERSION {
            return Err(DbError::Io(format!(
                "{}: unsupported WAL version {version}",
                path.display()
            )));
        }
        let start_seq = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        window.consume(HEADER_LEN as usize);
        let scan = scan(&mut window, start_seq, floor, version, each).map_err(read_err)?;
        let Scan {
            pos,
            seq,
            valid,
            replayed,
            ..
        } = scan;
        drop(window);
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
        let (end, seq, kept, discarded) = scan.whole;
        if kept == 0 && version == TEXT_VERSION {
            // Nothing in it to read: a version-2 log from here on.
            file.set_len(0).map_err(|e| io_err(path, "truncate", &e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| io_err(path, "seek", &e))?;
            write_header(&mut file, path, start_seq)?;
        } else if file_len > end as u64 {
            file.set_len(end as u64)
                .map_err(|e| io_err(path, "truncate", &e))?;
            file.sync_all().map_err(|e| io_err(path, "sync", &e))?;
        }

        let report = RecoveryReport {
            frames_replayed: replayed,
            frames_skipped: floor.saturating_sub(start_seq).min(kept),
            torn_bytes: file_len.saturating_sub(pos as u64),
            replay_errors: 0,
            txn_frames_discarded: valid - kept + discarded,
            start_seq,
            next_seq: seq,
        };
        let end = file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err(path, "seek", &e))?;
        let wal = Wal {
            file,
            path: path.to_path_buf(),
            opts,
            end,
            buf: Vec::new(),
            next_seq: seq,
            start_seq,
            unsynced: 0,
            window_open: None,
            frames: valid,
            tap: None,
            poisoned: false,
            text_frames: version == TEXT_VERSION && kept > 0,
        };
        Ok((wal, report))
    }

    /// Does this log hold version-1 (text) frames? It takes no append until
    /// [`Wal::compact`] rewrites it.
    pub(crate) fn holds_text_frames(&self) -> bool {
        self.text_frames
    }

    /// Append one statement's record (see [`crate::sql_record`] for one of SQL
    /// text) as a frame; returns its sequence number. The frame is written
    /// to the log file (and synced as the policy dictates) before this
    /// returns — the caller applies the statement to the engine only
    /// afterwards. An error after the frame reached the file whole — the
    /// tap refused it, or the fsync failed — takes it back: the file is cut
    /// to where the frame began, and no recovery finds it.
    pub fn append(&mut self, record: &[u8]) -> Result<u64, DbError> {
        let t_append = Instant::now();
        check_payload(record)?;
        let mark = self.mark();
        let (seq, crc, frame_len) = self.append_frame(record)?;
        let tapped = self.tap_frame(seq, crc, record);
        tapped.map_err(|e| self.undo(mark, e))?;
        self.sync_unit(mark)?;
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
    /// Every record is checked — a statement's, within the frame limit —
    /// before the first frame is written, so a rejected group leaves no
    /// trace. If an append fails after part of the group reached the file,
    /// the log is poisoned (every later append errors until [`Wal::compact`]
    /// or a reopen): recovery cuts the unterminated group off, and a frame
    /// written behind it would go with it, so nothing may be acked behind
    /// it. An error once the whole group is in the file — the tap refused
    /// the commit marker, or the fsync failed — takes it back, as
    /// [`Wal::append`] takes a frame back.
    pub fn append_batch(&mut self, records: &[Vec<u8>]) -> Result<u64, DbError> {
        match records {
            [] => return Ok(self.next_seq),
            [one] => return self.append(one),
            _ => records.iter().try_for_each(|r| check_payload(r))?,
        }
        let mark = self.mark();
        let first = self.next_seq;
        let statements = records.iter().map(Vec::as_slice);
        for frame in [&[record::BEGIN][..]]
            .into_iter()
            .chain(statements)
            .chain([&[record::COMMIT][..]])
        {
            let t_append = Instant::now();
            let appended = self
                .append_frame(frame)
                .and_then(|(seq, crc, len)| self.tap_frame(seq, crc, frame).map(|()| len));
            let frame_len = match appended {
                // The commit marker is in the file: the group is whole.
                Err(e) if self.next_seq == first + records.len() as u64 + 2 => {
                    return Err(self.undo(mark, e))
                }
                Err(e) => {
                    if self.next_seq != first {
                        self.poisoned = true;
                    }
                    return Err(e);
                }
                Ok(len) => len,
            };
            self.opts.failpoint.clone().admit_frame();
            obs::wal_append(frame_len, t_append.elapsed().as_nanos() as u64);
        }
        self.sync_unit(mark)?;
        Ok(first)
    }

    /// Write one frame to the file (no tap, no sync-policy application): the
    /// shared body of [`Wal::append`] and [`Wal::append_batch`], which
    /// have already checked the payload. Returns the frame's sequence
    /// number, its CRC and its length.
    fn append_frame(&mut self, payload: &[u8]) -> Result<(u64, u32, u64), DbError> {
        let fp = self.opts.failpoint.clone();
        fp.check_alive()?;
        if self.poisoned {
            return Err(DbError::Io(format!(
                "{}: an earlier append failed part-way; checkpoint or reopen the log to recover",
                self.path.display()
            )));
        }
        if self.text_frames {
            return Err(DbError::Io(format!(
                "{}: a version-1 log takes no append; checkpoint to rewrite it",
                self.path.display()
            )));
        }
        let seq = self.next_seq;
        // Encode the frame into the reused scratch buffer — no per-append
        // allocation — then hand it to the file in one write. Frames reach
        // the file on every append; only the fsync is deferred, so a
        // process kill loses at most the not-yet-synced tail.
        self.buf.clear();
        let crc = put_frame(&mut self.buf, seq, payload);
        let frame_len = self.buf.len();

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
        self.end += frame_len as u64;
        self.next_seq += 1;
        self.frames += 1;
        self.unsynced += 1;
        Ok((seq, crc, frame_len as u64))
    }

    /// Show the frame just written to the tap. It sees the frame after it
    /// reached the file but before any window-expiry fsync, so an
    /// `on_commit` fired by the sync policy already covers it.
    fn tap_frame(&self, seq: u64, crc: u32, payload: &[u8]) -> Result<(), DbError> {
        if self.opts.failpoint.admit_tap_error() {
            return Err(DbError::Io(format!("injected tap error at frame {seq}")));
        }
        match &self.tap {
            Some(tap) => tap.on_frame(seq, crc, payload),
            None => Ok(()),
        }
    }

    /// Where the next unit begins, for [`Wal::undo`].
    fn mark(&self) -> Mark {
        Mark {
            end: self.end,
            seq: self.next_seq,
            frames: self.frames,
            unsynced: self.unsynced,
        }
    }

    /// Take back the unit that began at `mark`, whose frames are whole in
    /// the file, because `e` followed: its tap refused its last frame, or
    /// the fsync failed ([`Wal::sync_unit`]). The caller hears of an error, so no recovery may
    /// find the unit: the file is cut back to where it began and the tap
    /// told ([`FrameTap::on_undo`]). If the cut fails the log is poisoned
    /// instead, and takes no append until a checkpoint, whose image lacks
    /// the unit. A simulated crash does neither: a dead process cuts
    /// nothing. Returns `e`.
    fn undo(&mut self, mark: Mark, e: DbError) -> DbError {
        if self.opts.failpoint.is_crashed() {
            return e;
        }
        let cut = self.file.set_len(mark.end);
        let cut = cut.and_then(|()| self.file.seek(SeekFrom::Start(mark.end)));
        if cut.is_err() {
            self.poisoned = true;
            return e;
        }
        (self.end, self.next_seq) = (mark.end, mark.seq);
        (self.frames, self.unsynced) = (mark.frames, mark.unsynced);
        if let Some(tap) = self.tap.clone() {
            tap.on_undo(mark.seq);
        }
        e
    }

    /// Apply the sync policy to the unit that began at `mark`, whose frames
    /// are whole in the file; take it back ([`Wal::undo`]) if that fails.
    /// When the fsync itself failed and frames of earlier units were in
    /// its window — acknowledged, under [`SyncPolicy::Group`], before they
    /// were synced — the log is poisoned as well: the failed fsync may have
    /// dropped their pages, a later one that succeeds does not bring them
    /// back, and a unit acknowledged behind such a hole would be lost with
    /// it on recovery. The checkpoint that clears the poison writes them
    /// from memory.
    fn sync_unit(&mut self, mark: Mark) -> Result<(), DbError> {
        let Err(e) = self.maybe_sync() else {
            return Ok(());
        };
        // A successful fsync leaves nothing unsynced, whatever failed after.
        if self.unsynced > 0 && mark.unsynced > 0 {
            self.poisoned = true;
        }
        Err(self.undo(mark, e))
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
            let synced = match self.opts.failpoint.admit_fsync_error() {
                true => Err(std::io::Error::other("injected fsync error")),
                false => self.file.sync_data(),
            };
            synced.map_err(|e| io_err(&self.path, "fsync", &e))?;
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
        self.end = HEADER_LEN;
        fp.record(Durable::LogCompacted);
        // The unterminated group a failed append left went with the
        // segment, and the checkpoint dump holds exactly the acknowledged
        // state: appends may resume — a version-1 log's too, rewritten.
        self.poisoned = false;
        self.text_frames = false;
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

/// Bytes the log scan reads at a time (more when one frame is larger).
const WINDOW: usize = 64 << 10;

/// A log file read a window at a time: the frame at the front is handed out
/// where it lies in the buffer, which grows to hold the largest frame.
struct Window<R> {
    src: R,
    /// Bytes of the file not yet in the buffer.
    left: usize,
    buf: Vec<u8>,
    /// The bytes read and not consumed: `buf[start..end]`.
    start: usize,
    end: usize,
    /// The offset in the file of `buf[start]`.
    pos: usize,
}

impl<R: Read> Window<R> {
    /// A window over the `len` bytes `src` holds.
    fn new(src: R, len: usize) -> Self {
        Window {
            src,
            left: len,
            buf: Vec::new(),
            start: 0,
            end: 0,
            pos: 0,
        }
    }

    /// The next `n` bytes, not consumed; fewer at the end of the file.
    fn peek(&mut self, n: usize) -> std::io::Result<&[u8]> {
        if self.end - self.start < n && self.left > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
            let want = (self.end + self.left).min(n.max(WINDOW));
            if self.buf.len() < want {
                self.buf.resize(want, 0);
            }
            while self.end < want {
                match self.src.read(&mut self.buf[self.end..want]) {
                    Ok(0) => break,
                    Ok(got) => (self.end, self.left) = (self.end + got, self.left - got),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(&self.buf[self.start..self.end.min(self.start + n)])
    }

    /// The `n` bytes at the front, which [`Window::peek`] has read.
    fn front(&self, n: usize) -> &[u8] {
        &self.buf[self.start..self.start + n]
    }

    /// Drop the `n` bytes at the front.
    fn consume(&mut self, n: usize) {
        self.start += n;
        self.pos += n;
    }

    /// Validate the frame at the front, which should carry `expect_seq`, of
    /// a log of format `version`, and read it into the window; returns its
    /// length, header and payload. `None` on any torn/corrupt/out-of-sequence
    /// frame (recovery truncates there), and on a payload whose text is not
    /// UTF-8 — every payload of a version-1 log, the body of an `Sql` record
    /// of a version-2 one.
    fn frame(&mut self, expect_seq: u64, version: u32) -> std::io::Result<Option<usize>> {
        let header = self.peek(FRAME_HEADER_LEN)?;
        if header.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let seq = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let crc = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        let frame_len = FRAME_HEADER_LEN + len as usize;
        // A length past the end of the file is a torn frame, not a size to
        // grow the buffer to.
        let there = self.end - self.start + self.left;
        if len > MAX_PAYLOAD || frame_len > there || seq != expect_seq {
            return Ok(None);
        }
        let payload = &self.peek(frame_len)?[FRAME_HEADER_LEN..];
        if payload.len() != len as usize || frame_crc(seq, payload) != crc {
            return Ok(None);
        }
        let readable = match version {
            TEXT_VERSION => std::str::from_utf8(payload).is_ok(),
            _ => record::readable(payload),
        };
        Ok(readable.then_some(frame_len))
    }
}

/// What [`scan`] found.
struct Scan {
    /// Where the last whole unit ends: offset, the sequence number after
    /// it, frames up to it, and the frames the reader put in no unit up to
    /// it.
    whole: (usize, u64, u64, u64),
    /// Where the valid frames end.
    pos: usize,
    /// The sequence number after the last valid frame.
    seq: u64,
    /// Valid frames read.
    valid: u64,
    /// The statement frames of the units handed on.
    replayed: u64,
}

/// Read the frames of a log segment of format `version` at the front of
/// `window`, the first numbered `seq`, until one does not validate; the
/// frames from `floor` on as units through one [`UnitReader`], each unit
/// handed to `each` as [`Wal::open_recover_with`] describes. The one scan
/// of a log file and of a database file's tail.
fn scan<R: Read>(
    window: &mut Window<R>,
    mut seq: u64,
    floor: u64,
    version: u32,
    mut each: impl FnMut(&Frames, &[usize]),
) -> std::io::Result<Scan> {
    let mut reader = UnitReader::default();
    // The frames read since the last unit closed: a group waiting for its
    // commit marker.
    let mut read = Frames::default();
    // A version-1 frame's text, as the record it stands for.
    let mut record = Vec::new();
    let (mut valid, mut replayed) = (0, 0);
    let mut whole = (window.pos, seq, 0, 0);
    while let Some(len) = window.frame(seq, version)? {
        let at = window.pos + FRAME_HEADER_LEN;
        let mut payload = &window.front(len)[FRAME_HEADER_LEN..];
        if version == TEXT_VERSION {
            record.clear();
            let text = std::str::from_utf8(payload).expect("checked by Window::frame");
            record::from_text(text, &mut record);
            payload = &record;
        }
        let k = read.push(FrameRef { seq, at, payload });
        let unit = match seq >= floor {
            true => reader.push(payload.first().copied(), k),
            // In the checkpoint already.
            false => Some(&[][..]),
        };
        if let Some(unit) = unit {
            each(&read, unit);
            replayed += unit.len() as u64;
            read.clear();
            // No group is open once a unit closes: `abandon` only reads the
            // count.
            whole = (window.pos + len, seq + 1, valid + 1, reader.abandon());
        }
        window.consume(len);
        seq += 1;
        valid += 1;
    }
    let pos = window.pos;
    Ok(Scan {
        whole,
        pos,
        seq,
        valid,
        replayed,
    })
}

/// The header a database file's tail opens with (DESIGN.md §4i): the
/// header of a version-2 log whose frames are numbered from 1.
fn tail_header() -> Vec<u8> {
    [&MAGIC[..], &VERSION.to_le_bytes(), &1u64.to_le_bytes()].concat()
}

/// Read the tail of a database file (DESIGN.md §4i): the `len` bytes of
/// `src`, which start at byte `at` of the file, right behind its
/// checkpoint image. A tail is a log segment — [`tail_header`], then
/// frames — read as a log is read: each whole unit is handed to `each` as
/// [`Wal::open_recover_with`] hands it on. Returns where the last whole
/// unit ends (`at` while the header is not whole) and the sequence number
/// of the next frame. Nothing is cut here: the next append writes over
/// what lies behind. Bytes that open neither with the header nor with a
/// piece of it (a first append torn) are no tail: an error at byte `at`.
pub(crate) fn read_tail(
    src: impl Read,
    at: usize,
    len: usize,
    each: impl FnMut(&Frames, &[usize]),
) -> Result<(u64, u64), DbError> {
    let header = tail_header();
    let mut window = Window::new(src, len);
    window.pos = at;
    let read_err = |e: std::io::Error| DbError::Io(format!("read: {e}"));
    let front = window.peek(header.len()).map_err(read_err)?;
    if front != &header[..front.len()] {
        return Err(crate::codec::fail(
            crate::codec::Origin::Checkpoint,
            at,
            "bytes after the last table",
        ));
    }
    if front.len() < header.len() {
        return Ok((at as u64, 1));
    }
    window.consume(header.len());
    let scan = scan(&mut window, 1, 1, VERSION, each).map_err(read_err)?;
    let (end, seq, _, _) = scan.whole;
    Ok((end as u64, seq))
}

/// Append `records` to the tail of the database file `file` (at `path`):
/// one unit — one frame, or a begin marker, the frames and a commit marker
/// — numbered from `seq`, behind the tail's last whole unit, which ends at
/// `end`; the tail's header goes first when `end` is `image`, where the
/// checkpoint image ends. One write, one fdatasync; a torn unit behind
/// `end` is cut off first. If the write or the fdatasync fails, the file
/// is cut back to `end`, as [`Wal::undo`] takes a unit back, so that no
/// load finds a unit its writer was told failed; the error says so if
/// that cut fails too. Returns where the tail ends now and the sequence
/// number of its next frame.
pub(crate) fn append_tail(
    file: &File,
    path: &Path,
    (image, end, seq): (u64, u64, u64),
    records: &[Vec<u8>],
    fp: &IoFailpoint,
) -> Result<(u64, u64), DbError> {
    records.iter().try_for_each(|r| check_payload(r))?;
    let mut buf = if end == image {
        tail_header()
    } else {
        Vec::new()
    };
    let mut next = seq;
    let mut put = |payload: &[u8]| {
        put_frame(&mut buf, next, payload);
        next += 1;
    };
    match records {
        [one] => put(one),
        _ => {
            put(&[record::BEGIN]);
            records.iter().for_each(|r| put(r));
            put(&[record::COMMIT]);
        }
    }
    let mut file = file;
    let written = (|| {
        file.set_len(end)?;
        file.seek(SeekFrom::Start(end))?;
        if fp.admit_append_error() {
            file.write_all(&buf[..buf.len() / 2])?;
            return Err(std::io::Error::other("injected append error"));
        }
        file.write_all(&buf)?;
        match fp.admit_fsync_error() {
            true => Err(std::io::Error::other("injected fsync error")),
            false => file.sync_data(),
        }
    })();
    match written {
        Ok(()) => Ok((end + buf.len() as u64, next)),
        Err(e) => match file.set_len(end) {
            Ok(()) => Err(io_err(path, "append to", &e)),
            Err(cut) => Err(DbError::Io(format!(
                "append to {}: {e}; and the cut back to byte {end} failed: {cut} — the next \
                 load may find the unit",
                path.display()
            ))),
        },
    }
}

/// Encode the frame of `payload`, numbered `seq`, behind `buf`; returns its
/// CRC.
fn put_frame(buf: &mut Vec<u8>, seq: u64, payload: &[u8]) -> u32 {
    let crc = frame_crc(seq, payload);
    buf.reserve(FRAME_HEADER_LEN + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(payload);
    crc
}

/// Refuse a record no frame can hold, and one that is not a statement's: a
/// group marker only [`Wal::append_batch`] writes.
fn check_payload(record: &[u8]) -> Result<(), DbError> {
    if record.len() as u64 > MAX_PAYLOAD as u64 {
        return Err(DbError::Io(format!(
            "statement of {} bytes exceeds WAL frame limit",
            record.len()
        )));
    }
    if !record::is_statement(record) {
        return Err(DbError::Io(format!(
            "record kind {:?} is no statement: a group marker is append_batch's alone",
            record.first()
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
            let seq = wal
                .append(&sql(&format!("INSERT INTO t VALUES ({i})")))
                .unwrap();
            assert_eq!(seq, 1 + i);
        }
        wal.sync().unwrap();
        drop(wal);
        let (wal, stmts, report) = recover(&path, WalOptions::default());
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

    /// The records `v` stands for, read as the frames of a version-1 log
    /// (the group markers by their old text).
    fn recs(v: &[&str]) -> Vec<Vec<u8>> {
        let record = |text: &&str| {
            let mut out = Vec::new();
            record::from_text(text, &mut out);
            out
        };
        v.iter().map(record).collect()
    }

    /// A statement's record.
    fn sql(text: &str) -> Vec<u8> {
        record::sql_record(text)
    }

    /// Open the log at `path` with recovery, its frames as the SQL text
    /// they stand for.
    fn recover(path: &Path, opts: WalOptions) -> (Wal, Vec<String>, RecoveryReport) {
        let (wal, frames, report) = Wal::open_recover(path, opts, 1).unwrap();
        (wal, frames.statements(), report)
    }

    /// What a frame sequence — SQL text, the markers by their old text —
    /// reads to: the statements of its whole units, and how many frames
    /// are in none.
    fn read_units(frames: &[String]) -> (Vec<String>, u64) {
        let mut reader = UnitReader::default();
        let records = recs(&frames.iter().map(String::as_str).collect::<Vec<_>>());
        let text = |f: &Vec<u8>| String::from_utf8(f[1..].to_vec()).unwrap();
        let mut out = Vec::new();
        for f in records {
            if let Some(unit) = reader.push(f.first().copied(), f) {
                out.extend(unit.iter().map(text));
            }
        }
        (out, reader.abandon())
    }

    const TXN_BEGIN_MARKER: &str = "--TXN BEGIN";
    const TXN_COMMIT_MARKER: &str = "--TXN COMMIT";

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
        wal.append(&sql("A")).unwrap();
        let stmts: Vec<Vec<u8>> = (0..5).map(|i| sql(&format!("B{i}"))).collect();
        let first = wal.append_batch(&stmts).unwrap();
        assert_eq!(first, 2);
        // The five statements and the two markers that make them one unit.
        assert_eq!(wal.frames(), 6 + 2);
        assert_eq!(wal.next_seq(), 7 + 2);
        // One statement is one frame, no statement is none.
        assert_eq!(wal.append_batch(&recs(&["C"])).unwrap(), 9);
        assert_eq!(wal.append_batch(&[]).unwrap(), 10);
        assert_eq!(wal.frames(), 9);
        drop(wal);
        let (_, recovered, report) = recover(&path, WalOptions::default());
        assert_eq!(report.frames_replayed, 9);
        let (recovered, discarded) = read_units(&recovered);
        assert_eq!((recovered.len(), discarded), (6 + 1, 0));
        assert_eq!(recovered[1], "B0");
    }

    #[test]
    fn oversized_statement_rejects_the_whole_batch_before_any_write() {
        let path = tmp("oversized.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Off), 1).unwrap();
        wal.append(&sql("A")).unwrap();
        let len_before = std::fs::metadata(&path).unwrap().len();
        let big = "y".repeat(MAX_PAYLOAD as usize + 1);
        let e = wal.append_batch(&recs(&["small", &big])).unwrap_err();
        assert!(e.to_string().contains("exceeds WAL frame limit"), "{e}");
        // Rejected ⇒ absent: not one byte of the group reached the file.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);
        assert_eq!((wal.frames(), wal.next_seq()), (1, 2));
        // The log stays usable, and what it acks afterwards is recovered.
        wal.append(&sql("acked")).unwrap();
        drop(wal);
        let (_, stmts, _) = recover(&path, WalOptions::default());
        assert_eq!(read_units(&stmts), (vec!["A".into(), "acked".into()], 0));
    }

    /// A marker is not a statement: appended alone or inside a batch it is
    /// refused before a byte is written, and the log stays usable.
    #[test]
    fn a_marker_payload_is_refused_at_every_append() {
        let path = tmp("marker.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Off), 1).unwrap();
        wal.append(&sql("A")).unwrap();
        let len_before = std::fs::metadata(&path).unwrap().len();
        for marker in [TXN_BEGIN_MARKER, TXN_COMMIT_MARKER] {
            let e = wal.append(&recs(&[marker])[0]).unwrap_err();
            assert!(e.to_string().contains("marker"), "{e}");
            assert!(wal.append_batch(&recs(&[marker])).is_err());
            assert!(wal.append_batch(&recs(&["one", marker, "two"])).is_err());
            assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);
            assert_eq!((wal.frames(), wal.next_seq()), (1, 2));
        }
        wal.append(&sql("acked")).unwrap();
        drop(wal);
        let (_, stmts, _) = recover(&path, WalOptions::default());
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
        wal.append(&sql("A")).unwrap();
        assert!(wal.append_batch(&recs(&["one", "two"])).is_err());
        assert!(!fp.is_crashed(), "the process survives this error");
        // Nothing may be acked behind the unterminated group.
        assert!(wal.append(&sql("later")).is_err());
        assert!(wal.append_batch(&recs(&["x", "y"])).is_err());
        drop(wal);
        let (mut wal, stmts, report) = recover(&path, WalOptions::default());
        assert!(report.torn_bytes > 0, "half of frame 'two' was on disk");
        // The unterminated group went with the torn frame behind it.
        assert_eq!((stmts, report.txn_frames_discarded), (s(&["A"]), 2));
        assert_eq!(wal.next_seq(), 2);
        // Reopening clears the poison.
        wal.append(&sql("after reopen")).unwrap();
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
            fn on_frame(&self, seq: u64, _crc: u32, _record: &[u8]) -> Result<(), DbError> {
                if seq == 3 {
                    return Err(DbError::Io("tap refused the frame".into()));
                }
                Ok(())
            }
        }
        let path = tmp("poison_tap.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Off), 1).unwrap();
        wal.set_tap(Some(Arc::new(FailsAtThree)));
        wal.append(&sql("A")).unwrap();
        // Begin marker (seq 2) and "one" (seq 3) are whole frames in the
        // file when the tap fails the group.
        assert!(wal.append_batch(&recs(&["one", "two"])).is_err());
        assert!(wal.append(&sql("later")).is_err());
        drop(wal);
        let (_, stmts, report) = recover(&path, WalOptions::default());
        assert_eq!(report.torn_bytes, 0);
        assert_eq!((stmts, report.txn_frames_discarded), (s(&["A"]), 2));
        // The cut is on the file: a second open finds nothing to discard.
        let (_, stmts, report) = recover(&path, WalOptions::default());
        assert_eq!((stmts, report.txn_frames_discarded), (s(&["A"]), 0));
    }

    #[test]
    fn a_failed_fsync_over_earlier_acked_frames_poisons_the_log() {
        let path = tmp("poison_fsync_window.wal");
        let opts = WalOptions {
            sync: SyncPolicy::Group(Duration::ZERO),
            failpoint: Arc::new(IoFailpoint::fsync_error_after(0)),
        };
        let mut wal = Wal::create(&path, opts, 1).unwrap();
        // A opens the window and is acknowledged unsynced; B closes it, and
        // the fsync that covers both fails.
        wal.append(&sql("A")).unwrap();
        assert!(wal.append(&sql("B")).is_err());
        assert!(wal.is_poisoned());
        assert!(wal.append(&sql("C")).is_err(), "nothing is acked behind A");
        drop(wal);
        let (_, stmts, report) = recover(&path, WalOptions::default());
        assert_eq!((stmts, report.torn_bytes), (s(&["A"]), 0));
    }

    #[test]
    fn append_error_on_a_single_frame_poisons_the_log() {
        let path = tmp("poison_single.wal");
        let opts = WalOptions {
            sync: SyncPolicy::Off,
            failpoint: Arc::new(IoFailpoint::append_error_after(1)),
        };
        let mut wal = Wal::create(&path, opts, 1).unwrap();
        wal.append(&sql("A")).unwrap();
        assert!(wal.append(&sql("B")).is_err());
        // A frame written behind B's torn half would be cut off with it.
        assert!(wal.append(&sql("C")).is_err());
        drop(wal);
        let (_, stmts, report) = recover(&path, WalOptions::default());
        assert_eq!(stmts, vec!["A".to_string()]);
        assert!(report.torn_bytes > 0);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp("torn.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Off), 1).unwrap();
        wal.append(&sql("CREATE TABLE t (a INTEGER)")).unwrap();
        wal.append(&sql("INSERT INTO t VALUES (1)")).unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Chop 5 bytes off the last frame.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (wal, stmts, report) = recover(&path, WalOptions::default());
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
        wal.append(&sql("A1")).unwrap();
        wal.append(&sql("B2")).unwrap();
        wal.append(&sql("C3")).unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Flip one payload byte of the second frame. Frames are 16+3 bytes:
        // the header, the tag and the text.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_payload = HEADER_LEN as usize + 19 + 16;
        bytes[second_payload] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, stmts, report) = recover(&path, WalOptions::default());
        assert_eq!(stmts, vec!["A1".to_string()]);
        // Frames 2 and 3 are gone — corruption truncates the tail.
        assert_eq!(report.frames_replayed, 1);
        assert!(report.torn_bytes >= 19 * 2);
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
            match wal.append(&sql(&format!("stmt {i}"))) {
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
        assert!(wal.append(&sql("after death")).is_err());
        drop(wal);
        fp.reset();
        let (_, stmts, report) = recover(&path, WalOptions::default());
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
            wal.append(&sql(&format!("s{i}"))).unwrap();
        }
        assert!(wal.append(&sql("s3")).is_err());
        drop(wal);
        fp.reset();
        let (_, stmts, report) = recover(&path, WalOptions::default());
        assert_eq!(stmts.len(), 3);
        assert_eq!(report.torn_bytes, 0, "clean crash leaves no torn tail");
    }

    #[test]
    fn short_read_failpoint_truncates_recovery() {
        let path = tmp("shortread.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Off), 1).unwrap();
        for i in 0..5 {
            wal.append(&sql(&format!("statement number {i}"))).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let full = std::fs::metadata(&path).unwrap().len();
        let fp = Arc::new(IoFailpoint::short_read_after(full - 10));
        let opts = WalOptions {
            sync: SyncPolicy::Off,
            failpoint: fp,
        };
        let (_, stmts, _) = recover(&path, opts);
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
            wal.append(&sql(&format!("s{i}"))).unwrap();
        }
        let dropped = wal.compact().unwrap();
        assert_eq!(dropped, 4);
        assert_eq!(wal.frames(), 0);
        let seq = wal.append(&sql("after checkpoint")).unwrap();
        assert_eq!(seq, 5, "sequence numbers keep counting across checkpoints");
        drop(wal);
        let (_, stmts, report) = recover(&path, WalOptions::default());
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
        let err = Wal::open_recover(&path, WalOptions::default(), 1).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn group_commit_window_batches_syncs() {
        let path = tmp("group.wal");
        let opts = WalOptions::with_sync(SyncPolicy::Group(Duration::from_secs(3600)));
        let mut wal = Wal::create(&path, opts, 1).unwrap();
        // A huge window: none of these appends should block on fsync.
        for i in 0..100 {
            wal.append(&sql(&format!("s{i}"))).unwrap();
        }
        assert!(wal.unsynced > 0, "frames are pending inside the window");
        wal.sync().unwrap();
        assert_eq!(wal.unsynced, 0);
    }

    #[test]
    fn sync_always_leaves_nothing_pending() {
        let path = tmp("always.wal");
        let mut wal = Wal::create(&path, WalOptions::with_sync(SyncPolicy::Always), 1).unwrap();
        wal.append(&sql("s")).unwrap();
        assert_eq!(wal.unsynced, 0);
    }

    #[test]
    fn empty_or_missing_file_starts_fresh() {
        let path = tmp("fresh.wal");
        std::fs::remove_file(&path).ok();
        let (wal, stmts, report) = recover(&path, WalOptions::default());
        assert!(stmts.is_empty());
        assert_eq!(report.next_seq, 1);
        assert_eq!(wal.frames(), 0);
        drop(wal);
        // A torn header (crash during create) also rebuilds cleanly.
        std::fs::write(&path, b"PBW").unwrap();
        let (_, stmts, report) = recover(&path, WalOptions::default());
        assert!(stmts.is_empty());
        assert_eq!(report.torn_bytes, 3);
    }
}
