//! The typed checkpoint: the database file [`Engine::checkpoint`] writes, a
//! table's column arrays as they are in memory, read back without a parser.
//!
//! Every integer is little-endian; a string is its `u32` byte length and
//! its UTF-8 bytes.
//!
//! | what                                       | bytes                       |
//! |--------------------------------------------|-----------------------------|
//! | magic `\x89PBCKPT\n`                       | 8                           |
//! | format version, [`VERSION`]                | `u32`                       |
//! | checkpoint stamp (0: none)                 | `u64`                       |
//! | tables                                     | `u32`                       |
//! | per table, in name order: name             | string                      |
//! | · columns                                  | `u32`                       |
//! | · per column: name, type, NOT NULL (0/1)   | string, `u8`, `u8`          |
//! | · rows                                     | `u64`                       |
//! | · per column: null bitmap (bit set = NULL) | `⌈rows/64⌉ × u64`           |
//! | · · INTEGER, TIMESTAMP / FLOAT (bits) cells| `rows × i64` / `rows × u64` |
//! | · · BOOLEAN cells (0/1)                    | `rows × u8`                 |
//! | · · TEXT: dictionary size, entries, codes  | `u32`, strings, `rows × u32`|
//! | · indexes, in creation order               | `u32`                       |
//! | · per index: name, column, ordered (0/1)   | string, string, `u8`        |
//!
//! Types are numbered as in [`TYPES`]. The bytes are a function of the
//! catalog: a NULL cell holds its type's default (0, 0.0, FALSE, code 0),
//! and a dictionary holds only the strings rows reference, in the order rows
//! first use them. The first byte, 0x89, starts no UTF-8 text, so no SQL
//! dump reads as a checkpoint nor a checkpoint as SQL.
//!
//! The reader checks every count against the bytes left before it sizes
//! anything from it, and every error names the byte offset it found.

use crate::column::{Chunked, ColumnStore, ColumnVec, DictColumn, NullBitmap};
use crate::engine::Engine;
use crate::error::DbError;
use crate::schema::{Column, Schema};
use crate::table::Table;
use crate::value::DataType::{self, Bool, Float, Int, Text, Timestamp};
use std::io::{self, Read, Write};

/// What a typed checkpoint starts with.
const MAGIC: [u8; 8] = *b"\x89PBCKPT\n";

/// The one format version this build writes and reads.
const VERSION: u32 = 1;

/// Column types by their number in the file.
const TYPES: [DataType; 5] = [Int, Float, Text, Bool, Timestamp];

/// Tables by name, as a checkpoint holds them.
pub(crate) type Tables = Vec<(String, Table)>;

/// Is `bytes` a typed checkpoint (or the start of one)? Anything else is
/// SQL text.
pub(crate) fn is_typed(bytes: &[u8]) -> bool {
    bytes.first() == Some(&MAGIC[0])
}

impl Engine {
    /// Write every table to `out` as a typed checkpoint stamped with
    /// `stamp`, on the calling thread.
    pub(crate) fn write_typed(&self, out: &mut impl Write, stamp: Option<u64>) -> io::Result<()> {
        let stamp = stamp.unwrap_or(0).to_le_bytes();
        out.write_all(&[&MAGIC[..], &VERSION.to_le_bytes(), &stamp].concat())?;
        let names = self.table_names();
        write_count(out, names.len())?;
        for name in names {
            let table = self.pin_table(&name).expect("table listed");
            write_str(out, &name)?;
            write_count(out, table.schema.arity())?;
            for c in &table.schema.columns {
                write_str(out, &c.name)?;
                let dtype = TYPES.iter().position(|t| *t == c.dtype).expect("a type") as u8;
                out.write_all(&[dtype, u8::from(!c.nullable)])?;
            }
            let store = table.store();
            out.write_all(&(store.len() as u64).to_le_bytes())?;
            (0..store.arity()).try_for_each(|c| write_column(out, store.col(c)))?;
            let indexes = table.index_columns();
            write_count(out, indexes.len())?;
            for (ix_name, column, ordered) in indexes {
                write_str(out, &ix_name)?;
                write_str(out, &column)?;
                out.write_all(&[u8::from(ordered)])?;
            }
        }
        Ok(())
    }
}

/// Write `n` as a `u32`.
fn write_count(out: &mut impl Write, n: usize) -> io::Result<()> {
    let n = u32::try_from(n).map_err(|_| io::Error::other(format!("{n} items in one count")))?;
    out.write_all(&n.to_le_bytes())
}

/// Write `s` as its length and its bytes.
fn write_str(out: &mut impl Write, s: &str) -> io::Result<()> {
    write_count(out, s.len())?;
    out.write_all(s.as_bytes())
}

/// Write a column's cells, a NULL cell as `default`.
fn write_cells<T: Copy, const W: usize>(
    out: &mut impl Write,
    data: &Chunked<T>,
    nulls: &NullBitmap,
    default: T,
    bytes: impl Fn(T) -> [u8; W],
) -> io::Result<()> {
    for (first, chunk) in data.chunks() {
        for (i, &x) in chunk.iter().enumerate() {
            let x = if nulls.is_null(first + i) { default } else { x };
            out.write_all(&bytes(x))?;
        }
    }
    Ok(())
}

/// Write one column: its null bitmap, then its cells.
fn write_column(out: &mut impl Write, col: &ColumnVec) -> io::Result<()> {
    let nulls = col.nulls();
    nulls
        .words()
        .try_for_each(|word| out.write_all(&word.to_le_bytes()))?;
    match col {
        ColumnVec::Int { data, .. } | ColumnVec::Timestamp { data, .. } => {
            write_cells(out, data, nulls, 0, i64::to_le_bytes)
        }
        ColumnVec::Float { data, .. } => write_cells(out, data, nulls, 0.0, |f| f.to_le_bytes()),
        ColumnVec::Bool { data, .. } => write_cells(out, data, nulls, false, |b| [u8::from(b)]),
        ColumnVec::Text(d) => {
            let d = d.compacted();
            write_count(out, d.dict().len())?;
            d.dict().iter().try_for_each(|s| write_str(out, s))?;
            write_cells(out, &d.codes, nulls, 0, u32::to_le_bytes)
        }
    }
}

/// Read a typed checkpoint of `len` bytes from `src`, a piece at a time:
/// its stamp and its tables, in name order, their indexes built. Any error
/// leaves nothing behind.
pub(crate) fn read(src: impl Read, len: usize) -> Result<(Option<u64>, Tables), DbError> {
    let mut r = Reader {
        src,
        at: 0,
        left: len,
        buf: Vec::new(),
    };
    if r.take(1, MAGIC.len(), "magic")? != MAGIC {
        return Err(corrupt(0, "not a typed checkpoint"));
    }
    let version = r.num(4, "format version")?;
    if version != u64::from(VERSION) {
        let why = format!("format version {version} is not one this build reads ({VERSION})");
        return Err(corrupt(MAGIC.len(), why));
    }
    let stamp = r.num(8, "checkpoint stamp")?;
    let mut tables: Tables = Vec::new();
    for _ in 0..r.num(4, "table count")? {
        let at = r.at;
        let name = r.str("table name")?;
        if tables.last().is_some_and(|(last, _)| *last >= name) {
            return Err(corrupt(at, format!("table {name} is out of name order")));
        }
        tables.push((name, read_table(&mut r)?));
    }
    if r.left != 0 {
        return Err(corrupt(r.at, "bytes after the last table"));
    }
    Ok(((stamp != 0).then_some(stamp), tables))
}

/// Read one table after its name.
fn read_table(r: &mut Reader<impl Read>) -> Result<Table, DbError> {
    let at = r.at;
    let mut columns = Vec::new();
    for _ in 0..r.num(4, "column count")? {
        let (name, at) = (r.str("column name")?, r.at);
        let dtype = TYPES.get(r.num(1, "column type")? as usize);
        let dtype = *dtype.ok_or_else(|| corrupt(at, "unknown column type"))?;
        let nullable = !r.flag("NOT NULL flag")?;
        columns.push(Column {
            name,
            dtype,
            nullable,
        });
    }
    let schema = Schema::new(columns).map_err(|e| corrupt(at, e))?;
    let at = r.at;
    let rows = r.num(8, "row count")?;
    let rows = usize::try_from(rows).map_err(|_| corrupt(at, format!("{rows} rows")))?;
    let cols = schema.columns.iter().map(|c| read_column(r, c, rows));
    let store = ColumnStore::from_columns(cols.collect::<Result<_, _>>()?, rows);
    let mut table = Table::new(schema);
    table.append(store);
    for _ in 0..r.num(4, "index count")? {
        let at = r.at;
        let (name, column) = (r.str("index name")?, r.str("index column")?);
        let ordered = r.flag("index kind")?;
        match table.plan_index(&name, &column, ordered) {
            Ok(Some(ci)) if !table.has_index_on(ci) => table.apply_index(&name, ci, ordered),
            Ok(_) => return Err(corrupt(at, format!("a second index on column {column}"))),
            Err(e) => return Err(corrupt(at, e)),
        }
    }
    Ok(table)
}

/// Read the null bitmap and the `rows` cells of column `col`.
fn read_column(r: &mut Reader<impl Read>, col: &Column, rows: usize) -> Result<ColumnVec, DbError> {
    let at = r.at;
    let words = r.take(rows.div_ceil(64), 8, "null bitmap")?;
    let nulls = NullBitmap::from_words(words.chunks_exact(8).map(le), rows);
    let last = words.len().checked_sub(8).map_or(0, |k| le(&words[k..]));
    if !rows.is_multiple_of(64) && last >> (rows % 64) != 0 {
        return Err(corrupt(r.at - 8, "a NULL bit past the last row"));
    }
    if !col.nullable && nulls.null_count() > 0 {
        return Err(corrupt(at, format!("NULL in NOT NULL column {}", col.name)));
    }
    let at = r.at;
    let raw = match col.dtype {
        Text => &[][..],
        Bool => r.take(rows, 1, "BOOLEAN cells")?,
        _ => r.take(rows, 8, "cells")?,
    };
    Ok(match col.dtype {
        Int => ColumnVec::Int {
            data: cells(raw, i64::from_le_bytes),
            nulls,
        },
        Timestamp => ColumnVec::Timestamp {
            data: cells(raw, i64::from_le_bytes),
            nulls,
        },
        Float => ColumnVec::Float {
            data: cells(raw, f64::from_le_bytes),
            nulls,
        },
        Bool => {
            if let Some(i) = raw.iter().position(|&b| b > 1) {
                return Err(corrupt(at + i, "a BOOLEAN cell neither 0 nor 1"));
            }
            let data = raw.iter().map(|&b| b == 1).collect();
            ColumnVec::Bool { data, nulls }
        }
        Text => {
            let mut strings = Vec::new();
            for _ in 0..r.num(4, "dictionary size")? {
                strings.push(r.str("dictionary entry")?);
            }
            let codes_at = r.at;
            let codes = r.take(rows, 4, "TEXT codes")?;
            // A NULL cell's code is 0, any other's inside the dictionary.
            let bad = codes.chunks_exact(4).enumerate().position(|(i, code)| {
                le(code) as usize >= if nulls.is_null(i) { 1 } else { strings.len() }
            });
            if let Some(i) = bad {
                return Err(corrupt(codes_at + 4 * i, "a TEXT code out of range"));
            }
            let column = DictColumn::new(cells(codes, u32::from_le_bytes), nulls, strings);
            ColumnVec::Text(column.map_err(|k| corrupt(at, format!("entry {k} repeats")))?)
        }
    })
}

/// `bytes` read as cells of `W` bytes each.
fn cells<T: Clone, const W: usize>(bytes: &[u8], cell: impl Fn([u8; W]) -> T) -> Chunked<T> {
    let each = bytes.chunks_exact(W);
    each.map(|b| cell(b.try_into().expect("W bytes"))).collect()
}

/// The little-endian number `bytes` hold: at most 8 of them.
fn le(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |n, &b| n << 8 | u64::from(b))
}

/// The error of a checkpoint found wrong at byte `at`.
fn corrupt(at: usize, why: impl std::fmt::Display) -> DbError {
    DbError::Execution(format!("typed checkpoint, byte {at}: {why}"))
}

/// A cursor over a checkpoint's bytes: `left` of them still to come from
/// `src`, the last piece taken held in `buf`.
struct Reader<R> {
    src: R,
    at: usize,
    left: usize,
    buf: Vec<u8>,
}

impl<R: Read> Reader<R> {
    /// The next `n` items of `width` bytes each, when there are that many.
    fn take(&mut self, n: usize, width: usize, what: &str) -> Result<&[u8], DbError> {
        let at = self.at;
        let bytes = n.checked_mul(width).filter(|&bytes| bytes <= self.left);
        let Some(bytes) = bytes else {
            let left = self.left;
            return Err(corrupt(
                at,
                format!("{what}: {n} × {width} bytes, {left} left"),
            ));
        };
        self.buf.resize(bytes, 0);
        self.src
            .read_exact(&mut self.buf)
            .map_err(|e| corrupt(at, e))?;
        (self.at, self.left) = (at + bytes, self.left - bytes);
        Ok(&self.buf)
    }

    /// The next number, `width` bytes little-endian.
    fn num(&mut self, width: usize, what: &str) -> Result<u64, DbError> {
        self.take(1, width, what).map(le)
    }

    /// A byte that is 0 or 1.
    fn flag(&mut self, what: &str) -> Result<bool, DbError> {
        match self.num(1, what)? {
            b @ (0 | 1) => Ok(b == 1),
            b => Err(corrupt(self.at - 1, format!("{what}: {b}"))),
        }
    }

    /// A string: its length, then as many bytes of UTF-8.
    fn str(&mut self, what: &str) -> Result<String, DbError> {
        let n = self.num(4, what)? as usize;
        let at = self.at;
        let bytes = self.take(n, 1, what)?.to_vec();
        String::from_utf8(bytes)
            .map_err(|e| corrupt(at + e.utf8_error().valid_up_to(), "not UTF-8"))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::test_common::Rng;
    use crate::Value;

    /// The typed checkpoint of `e`, stamped `stamp`.
    fn typed(e: &Engine, stamp: Option<u64>) -> Vec<u8> {
        let mut out = Vec::new();
        e.write_typed(&mut out, stamp).unwrap();
        out
    }

    /// The engine and the stamp a typed checkpoint loads to.
    fn load(bytes: &[u8]) -> Result<(Engine, Option<u64>), DbError> {
        let (stamp, tables) = read(bytes, bytes.len())?;
        let e = Engine::new();
        e.install(tables)?;
        Ok((e, stamp))
    }

    /// The typed checkpoint of `e` loads back to `e` — the same SQL dump,
    /// the same indexes, the same stamp — and is a fixpoint of the load;
    /// and its bytes are a function of the catalog: the catalog the SQL
    /// dump of `e` loads to writes them too.
    pub(crate) fn assert_round_trip(e: &Engine) {
        let bytes = typed(e, Some(42));
        let (back, stamp) = load(&bytes).unwrap();
        assert_eq!(stamp, Some(42));
        assert_eq!(back.dump_sql(), e.dump_sql());
        assert_eq!(back.table_names(), e.table_names());
        for name in e.table_names() {
            let indexes = |e: &Engine| e.pin_table(&name).unwrap().index_columns();
            assert_eq!(indexes(&back), indexes(e), "{name}");
        }
        assert!(typed(&back, Some(42)) == bytes, "not a fixpoint");
        let reloaded = Engine::from_sql_dump(&e.dump_sql()).unwrap();
        assert!(
            typed(&reloaded, Some(42)) == bytes,
            "not a function of the catalog"
        );
    }

    /// Catalogs of 0, 1, 2 and 3 tables — one of more rows than a column
    /// chunk holds, one empty, one indexed — and the 60-run campaign.
    pub(crate) fn catalogs() -> Vec<Engine> {
        let tables = [
            "CREATE TABLE a (t TIMESTAMP NOT NULL, ok BOOLEAN)",
            "CREATE TABLE b (f FLOAT)",
            "CREATE TABLE c (x INTEGER, s TEXT); \
             INSERT INTO c VALUES (1, 'one'), (2, NULL); CREATE ORDERED INDEX ix_c ON c (x)",
        ];
        let mut out = Vec::new();
        for n in 0..=tables.len() {
            let e = Engine::new();
            for script in &tables[..n] {
                e.execute_script(script).unwrap();
            }
            if n > 0 {
                let rows = (0..10_000).map(|i| vec![Value::Timestamp(i), Value::Bool(i % 3 == 0)]);
                e.insert_rows("a", rows.collect()).unwrap();
            }
            out.push(e);
        }
        out.push(Engine::from_sql_dump(&crate::sql::corpus::campaign_dump(60)).unwrap());
        out
    }

    #[test]
    fn every_catalog_round_trips() {
        for e in catalogs() {
            assert_round_trip(&e);
        }
    }

    /// DELETE and UPDATE leave dictionary entries no row references and
    /// old values under NULL bits; the checkpoint keeps neither.
    #[test]
    fn dead_entries_and_values_under_nulls_are_not_written() {
        let e = Engine::new();
        e.execute_script(
            "CREATE TABLE r (id INTEGER, fs TEXT, bw FLOAT, ok BOOLEAN, at TIMESTAMP); \
             INSERT INTO r VALUES (1, 'ufs', 1.5, TRUE, 10), (2, 'nfs', 2.5, FALSE, 20), \
             (3, 'pvfs', 3.5, TRUE, 30), (4, 'ufs', 4.5, TRUE, 40); \
             CREATE INDEX ix_fs ON r (fs); CREATE ORDERED INDEX ix_bw ON r (bw); \
             UPDATE r SET fs = 'xfs' WHERE id = 2; \
             UPDATE r SET bw = NULL, ok = NULL, at = NULL, fs = NULL WHERE id = 3; \
             DELETE FROM r WHERE id = 1",
        )
        .unwrap();
        let live = e.pin_table("r").unwrap();
        let ColumnVec::Text(fs) = live.store().col(1) else {
            panic!("fs is TEXT")
        };
        assert_eq!(fs.dict(), ["ufs", "nfs", "pvfs", "xfs"]);
        assert_round_trip(&e);
        let (back, _) = load(&typed(&e, None)).unwrap();
        let back = back.pin_table("r").unwrap();
        let ColumnVec::Text(fs) = back.store().col(1) else {
            panic!("fs is TEXT")
        };
        assert_eq!(fs.dict(), ["xfs", "ufs"]);
    }

    #[test]
    fn an_unknown_version_is_refused_by_number() {
        let mut bytes = typed(&catalogs().remove(1), None);
        bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
        let err = read(&bytes[..], bytes.len()).err().unwrap().to_string();
        assert!(err.contains("format version 7"), "{err}");
        // Through the file loader too: never read as SQL text.
        let path = std::env::temp_dir().join(format!("perfbase_ckpt_v7_{}", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let err = Engine::load_from_file(&path).err().unwrap().to_string();
        assert!(err.contains("format version 7"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// A small checkpoint of several tables: every type, NULLs in and past
    /// the first bitmap word, two indexes, an empty table.
    fn small() -> Vec<u8> {
        let e = Engine::new();
        e.execute_script(
            "CREATE TABLE a (i INTEGER NOT NULL, f FLOAT, s TEXT, b BOOLEAN, t TIMESTAMP); \
             INSERT INTO a VALUES (1, 1.5, 'x', TRUE, 10), (2, NULL, NULL, NULL, NULL), \
             (3, -0.0, 'y', FALSE, 20), (4, 2.5, 'x', TRUE, 30); \
             CREATE ORDERED INDEX ix_i ON a (i); CREATE INDEX ix_s ON a (s); \
             CREATE TABLE b (s TEXT NOT NULL); CREATE TABLE c (x INTEGER, y TEXT)",
        )
        .unwrap();
        let rows = (0..70).map(|i| match i % 5 {
            0 => vec![Value::Null, Value::Null],
            _ => vec![Value::Int(i), Value::Text(format!("w{}", i % 3))],
        });
        e.insert_rows("c", rows.collect()).unwrap();
        typed(&e, Some(9))
    }

    /// The offset and the width of every count and length field of a
    /// checkpoint, found by walking the layout in the module docs.
    fn count_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut fields = Vec::new();
        let mut at = 20;
        let mut count = |at: &mut usize, width: usize| {
            fields.push((*at, width));
            *at += width;
            le(&bytes[*at - width..*at]) as usize
        };
        let str = |at: &mut usize, count: &mut dyn FnMut(&mut usize, usize) -> usize| {
            *at += count(at, 4);
        };
        for _ in 0..count(&mut at, 4) {
            str(&mut at, &mut count);
            let mut types = Vec::new();
            for _ in 0..count(&mut at, 4) {
                str(&mut at, &mut count);
                types.push(bytes[at]);
                at += 2;
            }
            let rows = count(&mut at, 8);
            for dtype in types {
                at += rows.div_ceil(64) * 8;
                at += match TYPES[dtype as usize] {
                    DataType::Bool => rows,
                    DataType::Text => {
                        for _ in 0..count(&mut at, 4) {
                            str(&mut at, &mut count);
                        }
                        4 * rows
                    }
                    _ => 8 * rows,
                };
            }
            for _ in 0..count(&mut at, 4) {
                str(&mut at, &mut count);
                str(&mut at, &mut count);
                at += 1;
            }
        }
        assert_eq!(at, bytes.len());
        fields
    }

    /// An error that names a byte offset inside `bytes`.
    fn assert_names_an_offset(bytes: &[u8], err: DbError, what: &str) {
        let text = err.to_string();
        let at = text
            .split("byte ")
            .nth(1)
            .and_then(|rest| rest.split(':').next())
            .and_then(|n| n.parse::<usize>().ok());
        assert!(at.is_some_and(|at| at <= bytes.len()), "{what}: {text}");
    }

    /// Hostile input: every truncation, thousands of byte flips, and every
    /// count and length field at its largest. No panic (nor an allocation
    /// sized from an unchecked count, which would abort); every error names
    /// a byte offset.
    #[test]
    fn hostile_checkpoints_are_refused_without_a_panic() {
        let bytes = small();
        let (e, stamp) = load(&bytes).unwrap();
        assert_eq!((e.table_names().len(), stamp), (3, Some(9)));
        for k in 0..bytes.len() {
            let err = read(&bytes[..k], k).expect_err("a truncated checkpoint");
            assert_names_an_offset(&bytes[..k], err, &format!("cut at {k}"));
        }
        let mut rng = Rng::new(0xc4ec);
        for _ in 0..4_000 {
            let mut flipped = bytes.clone();
            let at = rng.below(bytes.len() as u64) as usize;
            flipped[at] ^= 1 + rng.below(255) as u8;
            match load(&flipped) {
                Ok((e, _)) => drop(e.dump_sql()),
                Err(err) => assert_names_an_offset(&flipped, err, &format!("flip at {at}")),
            }
        }
        let fields = count_fields(&bytes);
        assert!(fields.len() > 30, "{fields:?}");
        for (at, width) in fields {
            let mut huge = bytes.clone();
            huge[at..at + width].fill(0xff);
            let err = read(&huge[..], huge.len()).expect_err("a count past the end");
            assert_names_an_offset(&huge, err, &format!("count at {at}"));
        }
    }
}
