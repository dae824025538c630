//! SQL dump / restore, and the one loader and the one saver of a database
//! file.
//!
//! The original perfbase delegated persistence to the PostgreSQL server.
//! Our embedded substitute persists by checkpoint: the typed column arrays
//! of [`crate::checkpoint`], followed by a tail of log units that each
//! command which writes appends to (DESIGN.md §4i). The whole catalog as an
//! SQL script (CREATE TABLE + INSERT) stays the export — human-readable,
//! trivially diffable — and every such script, whoever wrote it, loads as a
//! database file too.

use crate::checkpoint;
use crate::column::{ColumnStore, ColumnVec};
use crate::engine::{Engine, Text};
use crate::error::DbError;
use crate::schema::Schema;
use crate::sql;
use crate::wal::{self, sync_parent_dir, Durable, IoFailpoint};
use std::fmt::Write as _;
use std::fs::{File, Metadata};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Rows per dumped `INSERT` statement.
const DUMP_BATCH: usize = 64;

/// The share of the checkpoint image a database file's tail may grow to:
/// a save whose unit would take the tail past a twelfth of the image
/// rewrites the image instead. A twelfth is where, with one read per write,
/// the tail's replay on every load and the rewrite spread over the saves
/// between two rewrites cost least together (DESIGN.md §4i, EXPERIMENTS.md
/// C35).
const TAIL_SHARE: u64 = 12;

/// Frame bytes a unit takes beside its records: the tail's header, and a
/// begin and a commit marker, each a frame header and a tag byte.
const UNIT_OVERHEAD: u64 = 16 + 2 * 17;

/// What a load found at the end of a database file: what a save checks the
/// file against and appends behind.
#[derive(Debug)]
pub(crate) struct FileEnd {
    /// The file's length and identity when it was read.
    len: u64,
    id: (u64, u64),
    /// Where the checkpoint image ends; `None` for an SQL-text file, which
    /// takes no tail.
    image: Option<u64>,
    /// Where the tail's last whole unit ends (the image's end without a
    /// tail), and the sequence number of its next frame.
    end: u64,
    seq: u64,
    /// The image's checkpoint stamp.
    pub(crate) stamp: Option<u64>,
}

/// The identity of the file `meta` describes: a file renamed over the path
/// since is another one, whatever its length.
fn file_id(meta: &Metadata) -> (u64, u64) {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        (meta.dev(), meta.ino())
    }
    #[cfg(not(unix))]
    {
        let _ = meta;
        (0, 0)
    }
}

/// A database file as a command loaded it, and the records of the writes
/// accepted since ([`Engine::open_file`]), held for [`Engine::save_file`].
#[derive(Debug)]
pub(crate) struct Held {
    path: PathBuf,
    file: FileEnd,
    /// The records, in the order their writes were applied.
    records: Vec<Vec<u8>>,
    /// The bytes the tail would hold with them appended as one unit; `None`
    /// once that is past the tail's share of the image, or for an SQL-text
    /// file: the save rewrites the image, and no record is kept.
    tail: Option<u64>,
    /// Did an accepted write change the catalog since the load or the last
    /// save?
    changed: bool,
    fp: Arc<IoFailpoint>,
}

impl Held {
    pub(crate) fn new(path: &Path, file: FileEnd) -> Held {
        let mut held = Held {
            path: path.to_path_buf(),
            file,
            records: Vec::new(),
            tail: None,
            changed: false,
            fp: Arc::new(IoFailpoint::none()),
        };
        held.saved();
        held
    }

    /// Start over from what the file holds now: no write is held.
    fn saved(&mut self) {
        self.records.clear();
        self.changed = false;
        self.tail = (self.file.image).map(|image| self.file.end - image + UNIT_OVERHEAD);
    }

    /// Are records still kept? Once the save is to rewrite the image, a
    /// write need not make one.
    pub(crate) fn keeps_records(&self) -> bool {
        self.tail.is_some()
    }

    /// Hold the records of one accepted write, which `changes` the catalog
    /// or not, unless the tail would outgrow its share of the image with
    /// them.
    pub(crate) fn hold(&mut self, records: Vec<Vec<u8>>, changes: bool) {
        self.changed |= changes;
        let (Some(tail), Some(image)) = (self.tail.as_mut(), self.file.image) else {
            return;
        };
        *tail += records.iter().map(|r| 16 + r.len() as u64).sum::<u64>();
        if *tail > image / TAIL_SHARE {
            self.tail = None;
            self.records = Vec::new();
        } else {
            self.records.extend(records);
        }
    }

    /// Start over from the image just written whole to the file, stamped
    /// `stamp`: no tail, no write held.
    pub(crate) fn rewritten(&mut self, stamp: Option<u64>) -> Result<(), DbError> {
        let meta = std::fs::metadata(&self.path);
        let meta = meta.map_err(|e| DbError::Io(format!("save {}: {e}", self.path.display())))?;
        self.file = FileEnd {
            len: meta.len(),
            id: file_id(&meta),
            image: Some(meta.len()),
            end: meta.len(),
            seq: 1,
            stamp,
        };
        self.saved();
        Ok(())
    }

    /// Was the engine loaded from the file at `path`?
    pub(crate) fn loaded_from(&self, path: &Path) -> bool {
        self.path == path
    }

    /// Open the file to save to, locked against every other save, if it is
    /// the file, as long as it was, that this command loaded; otherwise
    /// refuse, with nothing written.
    pub(crate) fn reopen(&self) -> Result<File, DbError> {
        let io = |e: std::io::Error| DbError::Io(format!("save {}: {e}", self.path.display()));
        let file = File::options().read(true).write(true).open(&self.path);
        let file = file.map_err(io)?;
        file.lock().map_err(io)?;
        let (now, named) = (file.metadata().map_err(io)?, std::fs::metadata(&self.path));
        let same = named.is_ok_and(|named| file_id(&named) == file_id(&now));
        if !same || file_id(&now) != self.file.id || now.len() != self.file.len {
            return Err(DbError::Io(format!(
                "{} changed since this command loaded it ({} bytes then, {} now): another \
                 command wrote it; nothing was written",
                self.path.display(),
                self.file.len,
                now.len()
            )));
        }
        Ok(file)
    }
}

/// What [`Engine::save_file`] did to the database file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Saved {
    /// Nothing: no write was accepted since the load or the last save.
    Unchanged,
    /// Appended the writes to the tail as one unit of this many bytes.
    Appended(u64),
    /// Rewrote the checkpoint image, leaving no tail: the unit would have
    /// taken the tail past its share of the image, or the file was SQL text.
    Rewritten,
}

impl Engine {
    /// Serialize every table as an SQL script.
    pub fn dump_sql(&self) -> String {
        let mut out = String::from("-- perfbase embedded database dump\n");
        for name in self.table_names() {
            let table = self.pin_table(&name).expect("table listed");
            write_create_table(&mut out, &name, &table.schema, false);
            out.push_str(";\n");
            let store = table.store();
            for from in (0..store.len()).step_by(DUMP_BATCH) {
                let rows = from..store.len().min(from + DUMP_BATCH);
                write_rows(&mut out, &name, store, rows);
                out.push_str(";\n");
            }
            for (ix_name, column, ordered) in table.index_columns() {
                let kind = if ordered { "ORDERED " } else { "" };
                let _ = writeln!(out, "CREATE {kind}INDEX {ix_name} ON {name} ({column});");
            }
        }
        out
    }

    /// Execute a whole `;`-separated SQL script, each statement as
    /// [`Engine::execute`] would (an accepted one is logged when a log is
    /// attached). The script is parsed to its end first: a syntax error
    /// anywhere executes nothing.
    pub fn execute_script(&self, script: &str) -> Result<usize, DbError> {
        let stmts: Vec<_> = sql::statements(script).collect::<Result<_, _>>()?;
        let mut affected = 0;
        for (stmt, text) in stmts {
            affected += self.run_parsed(stmt, Text::Source(text))?;
        }
        Ok(affected)
    }

    /// Rebuild an engine from a dump produced by [`Engine::dump_sql`] (or
    /// any script of the statements it holds).
    pub fn from_sql_dump(script: &str) -> Result<Engine, DbError> {
        let e = Engine::new();
        e.apply_dump(script)?;
        Ok(e)
    }

    /// Apply `script`, unlogged: each statement executes as soon as it is
    /// parsed — neither the tokens nor the statements of the whole script
    /// are ever held — and the first error ends it.
    fn apply_dump(&self, script: &str) -> Result<(), DbError> {
        for stmt in sql::statements(script) {
            self.run_parsed(stmt?.0, Text::Unwanted)?;
        }
        Ok(())
    }

    /// Persist [`Engine::dump_sql`] to a file, atomically: written to a
    /// sibling tmp file, fsynced, renamed into place, the directory fsynced.
    /// The database file a checkpoint writes is typed
    /// ([`Engine::checkpoint`]); this is the SQL export, which loads as one
    /// all the same.
    pub fn save_to_file(&self, path: &Path) -> std::io::Result<()> {
        let fp = IoFailpoint::none();
        save_atomically(path, &fp, |out| out.write_all(self.dump_sql().as_bytes()))
    }

    /// Load a database file: a typed checkpoint, or any SQL-text dump.
    pub fn load_from_file(path: &Path) -> Result<Engine, DbError> {
        Engine::load_checkpoint(path).map(|(e, _)| e)
    }

    /// [`Engine::load_from_file`], with the checkpoint stamp the file
    /// carries, if any.
    pub fn load_checkpoint(path: &Path) -> Result<(Engine, Option<u64>), DbError> {
        let e = Engine::new();
        let stamp = e.restore(path)?.stamp;
        Ok((e, stamp))
    }

    /// [`Engine::load_from_file`], holding the record of every write
    /// accepted from here on for [`Engine::save_file`], which saves them to
    /// the file as one unit: how a command that writes opens the database.
    pub fn open_file(path: &Path) -> Result<Engine, DbError> {
        let e = Engine::new();
        let file = e.restore(path)?;
        e.log.lock().held = Some(Held::new(path, file));
        Ok(e)
    }

    /// Save the writes accepted since [`Engine::open_file`] (or the last
    /// save) to the database file (DESIGN.md §4i). They are appended to
    /// the file's tail as one unit, with one write and one fdatasync —
    /// unless the tail would outgrow its share of the image with them, or
    /// the file is SQL text: then the image is rewritten whole, as
    /// [`Engine::checkpoint`] writes it, stamped as it was. Nothing
    /// accepted, nothing written. Refused, with nothing written, when the
    /// file is no longer the one, as long as it was, that the load read.
    pub fn save_file(&self) -> Result<Saved, DbError> {
        let mut log = self.log.lock();
        let held = log
            .held
            .as_mut()
            .ok_or_else(|| DbError::Execution("no database file was opened to save to".into()))?;
        if !held.changed {
            return Ok(Saved::Unchanged);
        }
        let file = held.reopen()?;
        if let (Some(_), Some(image)) = (held.tail, held.file.image) {
            let at = (image, held.file.end, held.file.seq);
            let (end, seq) = wal::append_tail(&file, &held.path, at, &held.records, &held.fp)?;
            let appended = end - held.file.end;
            (held.file.len, held.file.end, held.file.seq) = (end, end, seq);
            held.saved();
            return Ok(Saved::Appended(appended));
        }
        let stamp = held.file.stamp;
        let write = |out: &mut BufWriter<File>| self.write_typed(out, stamp);
        let failed = |e| DbError::Io(format!("save {}: {e}", held.path.display()));
        save_atomically(&held.path, &held.fp, write).map_err(failed)?;
        drop(file);
        held.rewritten(stamp)?;
        Ok(Saved::Rewritten)
    }

    /// The one loader: put the catalog of the database file at `path` into
    /// this engine, unlogged, and return what it found at the file's end,
    /// its checkpoint stamp among it. A typed checkpoint's image is
    /// validated whole, then its tables go in as one publish, and then each
    /// whole unit of the tail behind it is replayed, as a log's are; anything
    /// else is read as an SQL-text dump, statement by statement.
    pub(crate) fn restore(&self, path: &Path) -> Result<FileEnd, DbError> {
        let cannot = |e: &dyn std::fmt::Display| {
            DbError::Execution(format!("cannot read {}: {e}", path.display()))
        };
        let file = File::open(path).map_err(|e| cannot(&e))?;
        let meta = file.metadata().map_err(|e| cannot(&e))?;
        let len = meta.len() as usize;
        let mut found = FileEnd {
            len: meta.len(),
            id: file_id(&meta),
            image: None,
            end: meta.len(),
            seq: 1,
            stamp: None,
        };
        let mut src = BufReader::with_capacity(64 << 10, file);
        if checkpoint::is_typed(src.fill_buf().map_err(|e| cannot(&e))?) {
            let (stamp, tables, image) =
                checkpoint::read_image(&mut src, len).map_err(|e| cannot(&e))?;
            self.install(tables)?;
            (found.image, found.end, found.stamp) = (Some(image as u64), image as u64, stamp);
            if image < len {
                src.seek(SeekFrom::Start(image as u64))
                    .map_err(|e| cannot(&e))?;
                let (mut room, mut failed) = (Vec::new(), None);
                let tail = wal::read_tail(&mut src, image, len - image, |read, unit| {
                    let frames = unit.iter().map(|&k| read.get(k));
                    if failed.is_none() && self.replay_unlogged(frames, &mut room) > 0 {
                        failed = unit.first().map(|&k| read.get(k)).map(|f| (f.seq, f.at));
                    }
                });
                (found.end, found.seq) = tail.map_err(|e| cannot(&e))?;
                // Each unit was accepted against exactly the state it replays
                // onto: one that fails is corruption, and a load that went on
                // without it would let the next save seal the loss in.
                if let Some((seq, at)) = failed {
                    return Err(cannot(&format_args!(
                        "the tail's unit of frame {seq} (byte {}) does not replay onto what \
                         precedes it",
                        at - wal::FRAME_HEADER_LEN
                    )));
                }
            }
            return Ok(found);
        }
        let mut script = String::with_capacity(len);
        src.read_to_string(&mut script).map_err(|e| cannot(&e))?;
        self.apply_dump(&script)?;
        found.stamp = read_checkpoint_seq(&script);
        Ok(found)
    }
}

/// Write a database file to `path`, atomically: `write` fills a sibling tmp
/// file through one buffered writer, which is fsynced, renamed into place,
/// and the directory fsynced — a crash mid-save leaves the previous file
/// intact, and once this returns the new one is durable under its name (the
/// WAL checkpoint path depends on both). Each step is noted on `fp`. A
/// failure before the rename removes the tmp file.
pub(crate) fn save_atomically(
    path: &Path,
    fp: &IoFailpoint,
    write: impl FnOnce(&mut BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let renamed = (|| {
        let mut out = BufWriter::new(std::fs::File::create(&tmp)?);
        write(&mut out)?;
        let f = out
            .into_inner()
            .map_err(std::io::IntoInnerError::into_error)?;
        f.sync_all()?;
        fp.record(Durable::DumpSynced);
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed?;
    fp.record(Durable::DumpRenamed);
    // Until the directory is synced, a power loss can bring the old name
    // back — after a checkpoint has emptied the log.
    sync_parent_dir(path, fp)
}

/// Header comment a checkpoint stamped into an SQL-text dump, before
/// checkpoints were typed: the sequence number the WAL's *next* frame would
/// carry at checkpoint time. Frames below it are reflected in the dump and
/// must not be replayed on recovery.
const CKPT_SEQ_MARKER: &str = "-- wal-checkpoint-seq: ";

/// The checkpoint sequence recorded in a dump script, if any. Only the
/// leading comment lines are scanned — the marker can never be confused
/// with data.
fn read_checkpoint_seq(script: &str) -> Option<u64> {
    script
        .lines()
        .take_while(|l| l.starts_with("--"))
        .find_map(|l| l.strip_prefix(CKPT_SEQ_MARKER))
        .and_then(|s| s.trim().parse().ok())
}

/// Append a `CREATE TABLE` statement for a schema (no trailing `;`).
/// Shared by the dump and the WAL, which logs programmatic DDL as SQL text.
pub(crate) fn write_create_table(
    out: &mut String,
    name: &str,
    schema: &Schema,
    if_not_exists: bool,
) {
    out.push_str("CREATE TABLE ");
    if if_not_exists {
        out.push_str("IF NOT EXISTS ");
    }
    out.push_str(name);
    for (i, c) in schema.columns.iter().enumerate() {
        out.push_str(if i == 0 { " (" } else { ", " });
        out.push_str(&c.name);
        out.push(' ');
        out.push_str(c.dtype.sql_name());
        if !c.nullable {
            out.push_str(" NOT NULL");
        }
    }
    out.push(')');
}

/// Append `INSERT INTO name VALUES (…), (…)` over rows `rows` of `store` —
/// a table's, or the batch of one INSERT — each cell read from its typed
/// column, no row or [`crate::Value`] built (no trailing `;`). The one INSERT
/// writer: the dump and every rendered log frame.
pub(crate) fn write_rows(out: &mut String, name: &str, store: &ColumnStore, rows: Range<usize>) {
    out.push_str("INSERT INTO ");
    out.push_str(name);
    out.push_str(" VALUES ");
    for r in rows.clone() {
        out.push_str(if r == rows.start { "(" } else { ", (" });
        for c in 0..store.arity() {
            if c > 0 {
                out.push_str(", ");
            }
            write_cell(out, store.col(c), r);
        }
        out.push(')');
    }
}

/// Append cell `r` of `col` as the literal that parses back to the identical
/// cell (timestamps stay integers and non-finite floats quoted text, both
/// re-coerced by the column type on insert).
fn write_cell(out: &mut String, col: &ColumnVec, r: usize) {
    if col.nulls().is_null(r) {
        return out.push_str("NULL");
    }
    match col {
        ColumnVec::Int { data, .. } | ColumnVec::Timestamp { data, .. } => write_int(out, data[r]),
        ColumnVec::Float { data, .. } => write_float(out, data[r]),
        ColumnVec::Bool { data, .. } => out.push_str(if data[r] { "TRUE" } else { "FALSE" }),
        ColumnVec::Text(d) => write_text(out, &d.dict()[d.codes[r] as usize]),
    }
}

/// Append `i` in decimal.
fn write_int(out: &mut String, i: i64) {
    if i < 0 {
        out.push('-');
    }
    write_decimal(out, i.unsigned_abs(), 0);
}

/// Append what `{f:?}` prints. A float `{:?}` writes without an exponent —
/// 1e-4 ≤ |f| < 1e16 — is printed from the smallest `d ≤ 17` at which
/// `m = round(|f|·10^d)` is below 2^50 and `m / 10^d` reads back as `|f|`:
/// `m` with `d` decimals, `.0` when `d` is 0. That one division is how the
/// lexer reads the literal, and below 2^50 the scaled float is off by less
/// than a quarter, so no other `m` reads back at that `d`: the first `d`
/// found gives the shortest digits that read back, which is what `{:?}`
/// prints. Zero, a float needing more digits or another notation, and the
/// non-finite ones go through `{:?}` (`inf`, `-inf` and `NaN` quoted: no
/// numeric literal, but the text coerces back).
fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        let _ = write!(out, "'{f}'");
        return;
    }
    match shortest_decimal(f.abs()) {
        Some((m, d)) => {
            if f < 0.0 {
                out.push('-');
            }
            write_decimal(out, m, d);
            if d == 0 {
                out.push_str(".0");
            }
        }
        None => {
            let _ = write!(out, "{f:?}");
        }
    }
}

/// The `(m, d)` of [`write_float`]'s rule for a positive `x`, or `None` when
/// `{:?}` decides.
fn shortest_decimal(x: f64) -> Option<(u64, usize)> {
    // Powers of ten an f64 holds exactly.
    const POW10: [f64; 18] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
        1e17,
    ];
    const LIMIT: i64 = 1 << 50;
    // 2^-50: a read-back `m` is within |f|·10^d·2^-52 of the scaled float.
    const SLACK: f64 = 1.0 / LIMIT as f64;
    if !(1e-4..1e16).contains(&x) {
        return None;
    }
    for (d, &p) in POW10.iter().enumerate() {
        let scaled = x * p;
        // Exact below 2^50, where a float's spacing is at most 1/8; `i64`,
        // not `u64`, because it converts to and from `f64` in one step.
        let m = (scaled + 0.5) as i64;
        if m >= LIMIT {
            return None;
        }
        let near = (scaled - m as f64).abs() <= scaled * SLACK;
        if near && m as f64 / p == x {
            return Some((m as u64, d));
        }
    }
    None
}

/// Append `m` in decimal, its last `decimals` digits behind a point (with a
/// zero in front of the point, and zeros behind it, as needed).
fn write_decimal(out: &mut String, mut m: u64, decimals: usize) {
    // 20 digits of a `u64`, or 17 decimals, a point and a zero.
    let mut buf = [0u8; 21];
    let mut at = buf.len();
    for k in 0.. {
        if k == decimals && k > 0 {
            at -= 1;
            buf[at] = b'.';
        }
        at -= 1;
        buf[at] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 && k >= decimals {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Append `s` as a string literal. Text holding control characters becomes
/// an `E'...'` escaped literal so every statement — dump line or WAL frame —
/// stays on a single line.
fn write_text(out: &mut String, s: &str) {
    let escaped = s.contains(['\n', '\r', '\t', '\0']);
    out.push_str(if escaped { "E'" } else { "'" });
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let replacement = match b {
            b'\'' => "''",
            b'\\' if escaped => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            b'\0' => "\\0",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(replacement);
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('\'');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{batch_of_rows, Row};
    use crate::test_common::Rng;
    use crate::{Column, DataType, Value};

    fn sample() -> Engine {
        let e = Engine::new();
        e.execute(
            "CREATE TABLE runs (id INTEGER NOT NULL, fs TEXT, bw FLOAT, ok BOOLEAN, at TIMESTAMP)",
        )
        .unwrap();
        e.execute(
            "INSERT INTO runs VALUES \
             (1, 'ufs', 214.516, TRUE, 1101234630), \
             (2, NULL, NULL, FALSE, 0), \
             (3, 'it''s;tricky', -0.5, TRUE, 100)",
        )
        .unwrap();
        e
    }

    #[test]
    fn dump_restore_roundtrip() {
        let e = sample();
        let dump = e.dump_sql();
        let e2 = Engine::from_sql_dump(&dump).unwrap();
        let a = e.query("SELECT * FROM runs ORDER BY id").unwrap();
        let b = e2.query("SELECT * FROM runs ORDER BY id").unwrap();
        assert_eq!(a, b);
        // And the restored engine dumps identically (fixpoint).
        assert_eq!(dump, e2.dump_sql());
    }

    /// There are no TEMP tables to dump: one is refused by name, and a
    /// dump line asking for one fails the whole load.
    #[test]
    fn temp_tables_not_dumped() {
        let e = sample();
        let before = e.dump_sql();
        let temp = "CREATE TEMP TABLE scratch (x INTEGER)";
        for refused in [e.execute(temp), e.execute_script(temp)] {
            let err = refused.unwrap_err();
            assert!(err.to_string().contains("TEMP"), "{err}");
        }
        assert_eq!(e.dump_sql(), before);
        let script = format!("{before}{temp};\n");
        let err = Engine::from_sql_dump(&script).unwrap_err();
        assert!(err.to_string().contains("TEMP"), "{err}");
    }

    #[test]
    fn schema_survives() {
        let e2 = Engine::from_sql_dump(&sample().dump_sql()).unwrap();
        let (schema, _) = e2.read_snapshot("runs").unwrap();
        assert!(!schema.columns[0].nullable);
        assert_eq!(schema.columns[4].dtype, crate::DataType::Timestamp);
    }

    #[test]
    fn tricky_text_with_semicolons_and_quotes() {
        let e2 = Engine::from_sql_dump(&sample().dump_sql()).unwrap();
        let rs = e2.query("SELECT fs FROM runs WHERE id = 3").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Text("it's;tricky".into()));
    }

    #[test]
    fn file_persistence() {
        let dir = std::env::temp_dir().join("perfbase_dump_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.sql");
        sample().save_to_file(&path).unwrap();
        let e2 = Engine::load_from_file(&path).unwrap();
        assert_eq!(e2.row_count("runs").unwrap(), 3);
        std::fs::remove_file(path).ok();
    }

    /// A checkpoint publishes its dump durably before it empties the log:
    /// the directory is synced between the rename and the compaction, and a
    /// new log's directory before any frame goes into it.
    #[test]
    fn checkpoint_syncs_the_directory_between_rename_and_compaction() {
        use crate::wal::{Durable, IoFailpoint, SyncPolicy, WalOptions};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join("perfbase_dump_dirsync");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let fp = Arc::new(IoFailpoint::recording());
        let opts = WalOptions {
            sync: SyncPolicy::Off,
            failpoint: fp.clone(),
        };
        let (e, _) = Engine::open_durable(&dir.join("db.sql"), &dir.join("db.wal"), opts).unwrap();
        let created = vec![Durable::LogCreated, Durable::DirSynced(dir.clone())];
        assert_eq!(fp.steps(), created);
        e.execute("CREATE TABLE t (x INTEGER)").unwrap();
        e.execute("INSERT INTO t VALUES (1)").unwrap();
        assert_eq!(fp.steps(), created);
        assert_eq!(e.checkpoint(&dir.join("db.sql")).unwrap(), 2);
        let checkpointed = [
            Durable::DumpSynced,
            Durable::DumpRenamed,
            Durable::DirSynced(dir.clone()),
            Durable::LogCompacted,
        ];
        assert_eq!(fp.steps()[created.len()..], checkpointed);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The text `write_float` gives `f`.
    fn float_text(f: f64) -> String {
        let mut out = String::new();
        write_float(&mut out, f);
        out
    }

    /// The writer prints every number as `{:?}` (and `Display` for
    /// integers) does: the floats its rule prints — short decimals — beside
    /// those it leaves to `{:?}`, on both sides of every edge of the rule.
    #[test]
    fn numbers_print_what_debug_prints() {
        let check = |f: f64| {
            for f in [f, -f] {
                let want = match f.is_finite() {
                    true => format!("{f:?}"),
                    false => format!("'{f}'"),
                };
                assert_eq!(float_text(f), want, "bits {:#x}", f.to_bits());
            }
        };
        let mut rng = Rng::new(0xf10a7);
        // Random bit patterns, subnormals, and 17-digit floats across the
        // rule's range.
        for _ in 0..40_000 {
            check(f64::from_bits(rng.next_u64()));
            check(f64::from_bits(rng.next_u64() >> 12));
            check(10f64.powf(rng.float(-5.0, 17.0)));
        }
        // Decimals of 1 to 17 digits with 0 to 22 of them decimals.
        for digits in 1..=17u32 {
            for decimals in 0..=22 {
                for _ in 0..40 {
                    let m = rng.below(10u64.pow(digits) - 10u64.pow(digits - 1))
                        + 10u64.pow(digits - 1);
                    let text = format!("{m}e-{decimals}");
                    check(text.parse().unwrap());
                }
            }
        }
        // The neighbours of every edge of the rule, and the extremes.
        let edges = [1e-4, 1e16, (1u64 << 50) as f64, (1u64 << 53) as f64, 1.0];
        for edge in edges {
            for k in -300..=300 {
                check(f64::from_bits(edge.to_bits().wrapping_add_signed(k)));
            }
        }
        let extremes = [
            0.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            f64::EPSILON,
            f64::INFINITY,
            f64::NAN,
            0.1,
            214.516,
            1e15,
            9007199254740993.0,
        ];
        extremes.into_iter().for_each(check);
        let int = |i: i64| {
            let mut out = String::new();
            write_int(&mut out, i);
            assert_eq!(out, i.to_string());
        };
        [i64::MIN, i64::MIN + 1, i64::MAX, 0, -1, 1, 9, 10, -10]
            .into_iter()
            .for_each(int);
        (0..20_000).for_each(|_| int(rng.next_u64() as i64 >> rng.below(64)));
    }

    #[test]
    fn indexes_roundtrip() {
        let e = sample();
        e.execute("CREATE INDEX ix_runs_id ON runs (id)").unwrap();
        let dump = e.dump_sql();
        assert!(dump.contains("CREATE INDEX ix_runs_id ON runs (id);"));
        let e2 = Engine::from_sql_dump(&dump).unwrap();
        let rs = e2.query("SELECT fs FROM runs WHERE id = 1").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Text("ufs".into()));
        // Fixpoint: the restored engine dumps the index too.
        assert_eq!(dump, e2.dump_sql());
    }

    #[test]
    fn ordered_indexes_roundtrip() {
        let e = sample();
        e.execute("CREATE ORDERED INDEX ix_runs_bw ON runs (bw)")
            .unwrap();
        e.execute("CREATE INDEX ix_runs_id ON runs (id)").unwrap();
        checkpoint::tests::assert_round_trip(&e);
        let dump = e.dump_sql();
        assert!(dump.contains("CREATE ORDERED INDEX ix_runs_bw ON runs (bw);"));
        assert!(dump.contains("CREATE INDEX ix_runs_id ON runs (id);"));
        let e2 = Engine::from_sql_dump(&dump).unwrap();
        // The ordered flag survives the round trip (and dumps identically).
        let cols = e2.table("runs").unwrap().read().index_columns();
        assert!(cols.contains(&("ix_runs_bw".to_string(), "bw".to_string(), true)));
        assert!(cols.contains(&("ix_runs_id".to_string(), "id".to_string(), false)));
        assert_eq!(dump, e2.dump_sql());
    }

    #[test]
    fn text_with_newlines_and_quotes_roundtrips_on_one_line() {
        let e = Engine::new();
        e.execute("CREATE TABLE notes (id INTEGER, body TEXT)")
            .unwrap();
        let nasty = [
            "line one\nline two",
            "quote ' then\nnewline",
            "tab\there",
            "cr\rlf\n mix",
            "back\\slash and \\n literal",
            "''\n''",
            "trailing newline\n",
        ];
        for (i, s) in nasty.iter().enumerate() {
            e.insert_rows(
                "notes",
                vec![vec![Value::Int(i as i64), Value::Text(s.to_string())]],
            )
            .unwrap();
        }
        let dump = e.dump_sql();
        // Every dumped statement occupies exactly one line: each line of the
        // dump (minus the header comment) ends with ';' and parses alone.
        for line in dump.lines().skip(1) {
            assert!(
                line.ends_with(';'),
                "multi-line statement in dump: {line:?}"
            );
            sql::parse_statement(line).unwrap();
        }
        let e2 = Engine::from_sql_dump(&dump).unwrap();
        let rs = e2.query("SELECT id, body FROM notes ORDER BY id").unwrap();
        for (i, s) in nasty.iter().enumerate() {
            assert_eq!(rs.rows()[i][1], Value::Text(s.to_string()), "row {i}");
        }
        // Fixpoint: the restored engine dumps identically.
        assert_eq!(dump, e2.dump_sql());
    }

    #[test]
    fn columnar_layout_roundtrips_through_dump() {
        // The clause older dumps carry loads, and is never written again.
        let e = Engine::from_sql_dump(
            "CREATE TABLE cdata (id INTEGER NOT NULL, fs TEXT, bw FLOAT) USING COLUMNAR;\n\
             INSERT INTO cdata VALUES (1, 'ufs', 1.5), (2, NULL, NULL), (3, 'nfs', -0.25);\n\
             CREATE INDEX ix_c ON cdata (id);\n",
        )
        .unwrap();
        let dump = e.dump_sql();
        assert!(!dump.contains("USING"), "layout clause in dump: {dump}");
        let e2 = Engine::from_sql_dump(&dump).unwrap();
        let a = e.query("SELECT * FROM cdata ORDER BY id").unwrap();
        let b = e2.query("SELECT * FROM cdata ORDER BY id").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // Fixpoint: the restored engine dumps byte-identically.
        assert_eq!(dump, e2.dump_sql());
    }

    /// Bit pattern of every float in column `v` of `t`, in `id` order.
    fn float_bits(e: &Engine) -> Vec<Option<u64>> {
        e.query("SELECT id, v FROM t ORDER BY id")
            .unwrap()
            .rows()
            .iter()
            .map(|r| r[1].as_f64().map(f64::to_bits))
            .collect()
    }

    #[test]
    fn non_finite_floats_survive_dump_and_wal_replay() {
        use crate::wal::{SyncPolicy, WalOptions};
        let dir = std::env::temp_dir().join("perfbase_dump_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (dump, wal) = (dir.join("nonfinite.sql"), dir.join("nonfinite.wal"));
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();
        let opts = WalOptions::with_sync(SyncPolicy::Off);
        let (e, _) = Engine::open_durable(&dump, &wal, opts.clone()).unwrap();
        e.execute("CREATE TABLE t (id INTEGER, v FLOAT)").unwrap();
        let vals = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 1.5];
        let rows = (0..)
            .zip(vals)
            .map(|(i, v)| vec![Value::Int(i), Value::Float(v)]);
        e.insert_rows("t", rows.collect()).unwrap();
        e.execute("INSERT INTO t VALUES (9, NULL)").unwrap();
        let live = float_bits(&e);
        let want: Vec<Option<u64>> = vals.iter().map(|v| Some(v.to_bits())).collect();
        assert_eq!(live[..5], want[..]);
        assert_eq!(live[5], None);
        // Dump round trip and fixpoint.
        let script = e.dump_sql();
        let e2 = Engine::from_sql_dump(&script).unwrap();
        assert_eq!(float_bits(&e2), live);
        assert_eq!(e2.dump_sql(), script);
        // WAL replay (no checkpoint: the whole state comes from the log).
        e.wal_sync().unwrap();
        drop(e);
        let (e3, report) = Engine::open_durable(&dump, &wal, opts).unwrap();
        assert_eq!(report.replay_errors, 0);
        assert_eq!(float_bits(&e3), live);
    }

    #[test]
    fn i64_min_survives_dump_and_wal_replay() {
        use crate::wal::{SyncPolicy, WalOptions};
        let dir = std::env::temp_dir().join("perfbase_dump_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (dump, wal) = (dir.join("i64min.sql"), dir.join("i64min.wal"));
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();
        let opts = WalOptions::with_sync(SyncPolicy::Off);
        let (e, _) = Engine::open_durable(&dump, &wal, opts.clone()).unwrap();
        e.execute("CREATE TABLE t (x INTEGER)").unwrap();
        // Acked ...
        let batch = vec![vec![Value::Int(i64::MIN)], vec![Value::Int(7)]];
        assert_eq!(e.insert_rows("t", batch).unwrap(), 2);
        e.execute("INSERT INTO t VALUES (-9223372036854775808), (9223372036854775807)")
            .unwrap();
        let want = [i64::MIN, 7, i64::MIN, i64::MAX].map(|v| vec![Value::Int(v)]);
        assert_eq!(e.read_snapshot("t").unwrap().1, want);
        // ... so the dump loads, and is a fixpoint,
        let script = e.dump_sql();
        let e2 = Engine::from_sql_dump(&script).unwrap();
        assert_eq!(e2.read_snapshot("t").unwrap().1, want);
        assert_eq!(e2.dump_sql(), script);
        // and the log replays it.
        e.wal_sync().unwrap();
        drop(e);
        let (e3, report) = Engine::open_durable(&dump, &wal, opts).unwrap();
        assert_eq!((report.frames_replayed, report.replay_errors), (3, 0));
        assert_eq!(e3.read_snapshot("t").unwrap().1, want);
    }

    /// Values at the edges of every kind, and text built from everything
    /// the literal syntax gives a meaning to.
    fn edge_value(rng: &mut Rng, kind: usize) -> Value {
        const INTS: [i64; 6] = [i64::MIN, i64::MAX, 0, -1, 1, 1_101_234_630];
        const FLOATS: [f64; 12] = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e21,
            0.1,
            -214.516,
        ];
        const TEXT: [&str; 20] = [
            "", "'", "''", "\\", "\\'", ";", "--", "\n", "\r", "\t", "\0", "\u{1}", "\u{7f}",
            "größe", "日本", "E", "e'", " ", "NULL", "x",
        ];
        if rng.below(6) == 0 {
            return Value::Null;
        }
        match kind {
            0 => Value::Int(INTS[rng.below(6) as usize]),
            1 => Value::Float(FLOATS[rng.below(12) as usize]),
            2 => Value::Text(
                (0..rng.below(5))
                    .map(|_| TEXT[rng.below(20) as usize])
                    .collect(),
            ),
            3 => Value::Bool(rng.bool()),
            _ => Value::Timestamp(INTS[rng.below(6) as usize]),
        }
    }

    #[test]
    fn writer_then_reader_is_the_identity_on_every_value() {
        let schema = || {
            let kinds = [
                DataType::Int,
                DataType::Float,
                DataType::Text,
                DataType::Bool,
                DataType::Timestamp,
            ];
            let cols = kinds.iter().enumerate();
            Schema::new(
                cols.map(|(i, t)| Column::new(&format!("c{i}"), *t))
                    .collect(),
            )
            .unwrap()
        };
        let mut rng = Rng::new(0xd0);
        let e = Engine::new();
        e.create_table("edges", schema()).unwrap();
        for _ in 0..60 {
            let rows: Vec<Row> = (0..rng.below(5) + 1)
                .map(|_| (0..5).map(|kind| edge_value(&mut rng, kind)).collect())
                .collect();
            // One frame's text, read back, is the rows it was written from
            // (compared through `Debug`, which tells -0.0 from 0.0 and
            // equates NaN with itself).
            let mut text = String::new();
            let written = batch_of_rows(&schema(), &rows).unwrap();
            write_rows(&mut text, "edges", &written, 0..rows.len());
            assert!(!text.contains('\n'), "{text:?}");
            let Ok(sql::Stmt::Insert {
                columns, values, ..
            }) = sql::parse_statement(&text)
            else {
                panic!("{text}");
            };
            let mut table = crate::Table::new(schema());
            let read =
                crate::engine::insert_batch(&table.schema, columns.as_deref(), &values).unwrap();
            table.append(read);
            assert_eq!(format!("{:?}", table.to_rows()), format!("{rows:?}"));
            e.insert_rows("edges", rows).unwrap();
        }
        // And the dump of all of them is a fixpoint.
        let script = e.dump_sql();
        let e2 = Engine::from_sql_dump(&script).unwrap();
        assert_eq!(
            format!("{:?}", e2.read_snapshot("edges").unwrap().1),
            format!("{:?}", e.read_snapshot("edges").unwrap().1)
        );
        assert_eq!(e2.dump_sql(), script);
        // So is its typed checkpoint.
        checkpoint::tests::assert_round_trip(&e);
    }

    #[test]
    fn a_late_syntax_error_executes_nothing_and_fails_the_load() {
        let e = sample();
        let before = e.dump_sql();
        for last in [
            "INSERT INTO runs VALUES (",
            "SELECT 'open",
            "DROP TABLE runs extra",
        ] {
            let script = format!(
                "CREATE TABLE u (a INTEGER); INSERT INTO runs VALUES (4, 'x', 1.0, TRUE, 1); \
                 DELETE FROM runs; {last}"
            );
            assert!(matches!(e.execute_script(&script), Err(DbError::Parse(_))));
            assert_eq!(e.dump_sql(), before, "{last}");
            // A fresh engine loading the same text is dropped with the error.
            let script = format!("{before}{last}");
            assert!(matches!(
                Engine::from_sql_dump(&script),
                Err(DbError::Parse(_))
            ));
        }
    }

    /// The load of `script` as a database file is [`Engine::from_sql_dump`]'s,
    /// catalog or error (text, line and column alike), and a catalog it
    /// loads makes a typed checkpoint that loads back to it.
    fn assert_load_parity(script: &str) {
        static LOADS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = LOADS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = scratch(&format!("parity_{n}"));
        let path = dir.join("db.sql");
        std::fs::write(&path, script).unwrap();
        let from_file = Engine::load_from_file(&path).map(|e| e.dump_sql());
        let loaded = Engine::from_sql_dump(script);
        let want = loaded.as_ref().map(Engine::dump_sql).map_err(Clone::clone);
        assert_eq!(from_file, want, "{}", &script[..script.len().min(300)]);
        if let Ok(e) = loaded {
            checkpoint::tests::assert_round_trip(&e);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A directory of this test process's own, made empty.
    fn scratch(name: &str) -> std::path::PathBuf {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("perfbase_dump_{name}_{pid}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn load_parity_on_the_corpus() {
        for script in sql::corpus::scripts() {
            assert_load_parity(&script);
        }
    }

    /// Every prefix of a campaign dump that ends a statement.
    #[test]
    fn load_parity_at_every_statement_end() {
        let dump = sql::corpus::campaign_dump(60);
        let ends: Vec<usize> = dump.match_indices(";\n").map(|(i, _)| i + 2).collect();
        assert!(ends.len() > 64, "{} statements", ends.len());
        assert_load_parity(&dump[..dump.find('\n').unwrap() + 1]);
        for end in ends {
            assert_load_parity(&dump[..end]);
        }
    }

    /// The campaign dump with statement `k` (its line `k + 2`) replaced by
    /// `stmt`, or with `stmt` put in before it.
    fn with_statement(dump: &str, k: usize, stmt: &str, replace: bool) -> String {
        let mut lines: Vec<&str> = dump.lines().collect();
        lines.splice(k + 1..k + 1 + usize::from(replace), [stmt]);
        lines.join("\n") + "\n"
    }

    #[test]
    fn load_parity_on_a_parse_error_first_middle_and_last() {
        let dump = sql::corpus::campaign_dump(60);
        let n = dump.lines().count() - 1;
        for k in [0, n / 2, n - 1] {
            let script = with_statement(&dump, k, "CREATE TABLE broken (a INTEGER, b BLOB);", true);
            assert_load_parity(&script);
            let err = Engine::from_sql_dump(&script).err().unwrap().to_string();
            assert!(err.contains(&format!("(line {}, column", k + 2)), "{err}");
        }
    }

    #[test]
    fn load_parity_on_an_apply_error() {
        let dump = sql::corpus::campaign_dump(60);
        let n = dump.lines().count() - 1;
        let duplicate = dump
            .lines()
            .find(|l| l.starts_with("CREATE TABLE"))
            .unwrap();
        for k in [0, n / 2, n - 1] {
            for stmt in ["INSERT INTO nope VALUES (1);", duplicate] {
                let script = with_statement(&dump, k, stmt, false);
                assert_load_parity(&script);
                assert!(Engine::from_sql_dump(&script).is_err(), "{stmt} at {k}");
            }
        }
        // An apply error ends the load before a later parse error is read.
        let script = with_statement(&dump, n / 2, "INSERT INTO nope VALUES (1);", false);
        let script = format!("{script}SELEKT 1;\n");
        assert_load_parity(&script);
        assert_eq!(
            Engine::from_sql_dump(&script).err(),
            Some(DbError::NoSuchTable("nope".into()))
        );
    }

    /// The text save writes [`Engine::dump_sql`] byte for byte; a
    /// checkpoint, with a log (stamped) or without one, writes a typed file
    /// that loads back to the same catalog and the same stamp.
    #[test]
    fn save_parity_with_and_without_a_checkpoint_stamp() {
        use crate::wal::{SyncPolicy, WalOptions};
        let dir = scratch("save_parity");
        let path = dir.join("db.sql");
        for e in checkpoint::tests::catalogs() {
            e.save_to_file(&path).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), e.dump_sql());
            assert_eq!(e.checkpoint(&path).unwrap(), 0);
            let (back, stamp) = Engine::load_checkpoint(&path).unwrap();
            assert_eq!((back.dump_sql(), stamp), (e.dump_sql(), None));
        }
        let opts = WalOptions::with_sync(SyncPolicy::Off);
        let (e, _) = Engine::open_durable(&path, &dir.join("db.wal"), opts).unwrap();
        e.execute("CREATE TABLE t (x INTEGER)").unwrap();
        e.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        assert_eq!(e.checkpoint(&path).unwrap(), 2);
        let (back, stamp) = Engine::load_checkpoint(&path).unwrap();
        assert_eq!((back.dump_sql(), stamp), (e.dump_sql(), Some(3)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A save that fails before its rename leaves no `<path>.tmp` behind:
    /// here the rename fails, `path` being a directory.
    #[test]
    fn a_failed_save_removes_its_tmp_file() {
        let dir = scratch("failed_save");
        let path = dir.join("db.sql");
        std::fs::create_dir(&path).unwrap();
        let e = checkpoint::tests::catalogs().pop().unwrap();
        let err = e.save_to_file(&path).unwrap_err();
        assert!(!dir.join("db.sql.tmp").exists(), "text save: {err}");
        let err = e.checkpoint(&path).unwrap_err();
        assert!(!dir.join("db.sql.tmp").exists(), "checkpoint: {err}");
        assert!(path.is_dir());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A tail append whose write or fdatasync fails answers an error and
    /// cuts the file back to where the unit began: the load finds the file
    /// as it was, and the next save appends there.
    #[test]
    fn a_failed_tail_append_cuts_the_file_back() {
        let dir = scratch("failed_append");
        let path = dir.join("db.ckpt");
        let e = checkpoint::tests::catalogs().pop().unwrap();
        e.checkpoint(&path).unwrap();
        let image = std::fs::read(&path).unwrap();
        for fp in [
            IoFailpoint::append_error_after(0),
            IoFailpoint::fsync_error_after(0),
        ] {
            let e = Engine::open_file(&path).unwrap();
            e.log.lock().held.as_mut().unwrap().fp = Arc::new(fp);
            e.execute_script("CREATE TABLE fresh (x INTEGER); INSERT INTO fresh VALUES (1)")
                .unwrap();
            assert!(e.save_file().is_err());
            assert!(std::fs::read(&path).unwrap() == image);
            assert!(!Engine::load_from_file(&path).unwrap().has_table("fresh"));
        }
        let e = Engine::open_file(&path).unwrap();
        e.execute("CREATE TABLE fresh (x INTEGER)").unwrap();
        assert!(matches!(e.save_file().unwrap(), Saved::Appended(_)));
        assert!(Engine::load_from_file(&path).unwrap().has_table("fresh"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_engine_roundtrip() {
        let e = Engine::new();
        let e2 = Engine::from_sql_dump(&e.dump_sql()).unwrap();
        assert!(e2.table_names().is_empty());
    }

    #[test]
    fn execute_script_counts_rows() {
        let e = Engine::new();
        let n = e
            .execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2); INSERT INTO t VALUES (3);")
            .unwrap();
        assert_eq!(n, 3);
    }
}
