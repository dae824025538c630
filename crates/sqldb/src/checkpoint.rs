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
//! The schema and the columns are in the column codec's encoding
//! ([`crate::codec`]), which an INSERT record of the log shares. The bytes
//! are a function of the catalog: a NULL cell holds its type's default (0,
//! 0.0, FALSE, code 0), and a dictionary holds only the strings rows
//! reference, in the order rows first use them. The first byte, 0x89, starts no UTF-8 text, so no SQL
//! dump reads as a checkpoint nor a checkpoint as SQL.
//!
//! The reader checks every count against the bytes left before it sizes
//! anything from it, and every error names the byte offset it found.

use crate::codec::{read_schema, walk_column, write_column, write_count, write_schema, write_str};
use crate::codec::{Origin, Pass, Reader, Seen, Source, Stream};
use crate::engine::Engine;
use crate::error::DbError;
use crate::schema::Schema;
use crate::table::Table;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// What a typed checkpoint starts with.
const MAGIC: [u8; 8] = *b"\x89PBCKPT\n";

/// The one format version this build writes and reads.
const VERSION: u32 = 1;

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
            write_schema(out, &table.schema)?;
            let store = table.store();
            out.write_all(&(store.len() as u64).to_le_bytes())?;
            (0..store.arity()).try_for_each(|c| write_column(out, store.col(c), true))?;
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

/// Read a typed checkpoint of `len` bytes from `src` that holds nothing
/// behind its image.
#[cfg(test)]
pub(crate) fn read(src: impl BufRead, len: usize) -> Result<(Option<u64>, Tables), DbError> {
    let (stamp, tables, end) = read_image(src, len)?;
    if end != len {
        return Err(crate::codec::fail(
            Origin::Checkpoint,
            end,
            "bytes after the last table",
        ));
    }
    Ok((stamp, tables))
}

/// Read the image of a typed checkpoint at the front of the `len` bytes of
/// `src`, a piece at a time: its stamp, its tables, in name order, their
/// indexes built, and where it ends — behind its last table, where the
/// file's tail begins (DESIGN.md §4i). Any error leaves nothing behind.
pub(crate) fn read_image(
    src: impl BufRead,
    len: usize,
) -> Result<(Option<u64>, Tables, usize), DbError> {
    let mut r = Reader::new(Stream::new(src), len, 0, Origin::Checkpoint);
    if r.take(1, MAGIC.len(), "magic")? != MAGIC {
        return Err(r.fail(0, "not a typed checkpoint"));
    }
    let version = r.num(4, "format version")?;
    if version != u64::from(VERSION) {
        let why = format!("format version {version} is not one this build reads ({VERSION})");
        return Err(r.fail(MAGIC.len(), why));
    }
    let stamp = r.num(8, "checkpoint stamp")?;
    let (mut tables, mut last, mut room): (Tables, _, _) =
        (Vec::new(), Last::default(), Vec::new());
    for _ in 0..r.num(4, "table count")? {
        let at = r.at;
        let name = r.str("table name")?;
        if tables.last().is_some_and(|(last, _)| *last >= name) {
            return Err(r.fail(at, format!("table {name} is out of name order")));
        }
        let table = read_table(&mut r, &mut last, &mut room)?;
        tables.push((name, table));
    }
    Ok(((stamp != 0).then_some(stamp), tables, r.at))
}

/// What the table read last holds that the next one most often repeats —
/// the run tables of one experiment are of one shape: its schema with the
/// schema's bytes, and per column the dictionary it read ([`Seen`]).
#[derive(Default)]
struct Last {
    schema: Option<(Vec<u8>, Arc<Schema>)>,
    dicts: Vec<Seen>,
}

impl Last {
    /// The schema of the table whose bytes come next: the last one, shared,
    /// when its bytes are the last one's — one comparison where the stream's
    /// buffer holds them — or read, and shared all the same when equal.
    fn schema(&mut self, r: &mut Reader<impl Source>) -> Result<Arc<Schema>, DbError> {
        if let Some((bytes, schema)) = &self.schema {
            if r.skip(bytes) {
                return Ok(Arc::clone(schema));
            }
        }
        let at = r.at;
        let schema = read_schema(r)?;
        if let Some((_, last)) = self.schema.as_ref().filter(|(_, last)| *last == schema) {
            return Ok(Arc::clone(last));
        }
        let mut bytes = Vec::with_capacity(r.at - at);
        write_schema(&mut bytes, &schema).expect("a schema read from a count");
        self.schema = Some((bytes, Arc::clone(&schema)));
        self.dicts = (0..schema.arity()).map(|_| Seen::default()).collect();
        Ok(schema)
    }
}

/// Read one table after its name, each column walked into the table's
/// empty one in one pass: an error drops the table. A table of the last
/// one's schema shares it, and each TEXT column whose dictionary is the
/// last one's in that column shares that too.
fn read_table(
    r: &mut Reader<impl Source>,
    last: &mut Last,
    room: &mut Vec<usize>,
) -> Result<Table, DbError> {
    let schema = last.schema(r)?;
    let at = r.at;
    let rows = r.num(8, "row count")?;
    let rows = usize::try_from(rows).map_err(|_| r.fail(at, format!("{rows} rows")))?;
    let mut table = Table::new(schema);
    table.append_columns(rows, |k, def, col| {
        let pass = Pass::Append(col, Some(&mut last.dicts[k]));
        walk_column(r, def, rows, pass, room)
    })?;
    for _ in 0..r.num(4, "index count")? {
        let at = r.at;
        let (name, column) = (r.str("index name")?, r.str("index column")?);
        let ordered = r.flag("index kind")?;
        match table.plan_index(&name, &column, ordered) {
            Ok(Some(ci)) if !table.has_index_on(ci) => table.apply_index(&name, ci, ordered),
            Ok(_) => return Err(r.fail(at, format!("a second index on column {column}"))),
            Err(e) => return Err(r.fail(at, e)),
        }
    }
    Ok(table)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codec::{le, SKIPPED, TYPES};
    use crate::column::ColumnVec;
    use crate::test_common::Rng;
    use crate::value::DataType;
    use crate::Value;
    use std::cell::Cell;

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
    /// count and length field at its largest — of the small checkpoint, and
    /// of one whose tables repeat the schema and the dictionary of the one
    /// before, so that cuts and flips land in bytes a load compares rather
    /// than reads. No panic (nor an allocation sized from an unchecked
    /// count, which would abort); every error names a byte offset.
    #[test]
    fn hostile_checkpoints_are_refused_without_a_panic() {
        for bytes in [small(), typed(&same_shape(3), Some(9))] {
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

    /// Tables `r1` to `r<n>` of one shape, each with a `mode` column whose
    /// rows first use `write`, then `rewrite`, then `read`, as run tables of
    /// one experiment are; `r1` with a NULL.
    fn same_shape(n: usize) -> Engine {
        let e = Engine::new();
        for i in 1..=n {
            let bw = if i == 1 {
                "NULL".into()
            } else {
                format!("{i}.5")
            };
            e.execute_script(&format!(
                "CREATE TABLE r{i} (pos INTEGER, mode TEXT, bw FLOAT); \
                 INSERT INTO r{i} VALUES (1, 'write', {bw}), (2, 'rewrite', 1.0), \
                 (3, 'read', 1.0), (4, 'write', 1.0)"
            ))
            .unwrap();
        }
        e
    }

    /// Do tables `a` and `b` of `e` share their schema, and their
    /// dictionary of column `k`?
    fn shared(e: &Engine, a: &str, b: &str, k: usize) -> (bool, bool) {
        let (a, b) = (e.pin_table(a).unwrap(), e.pin_table(b).unwrap());
        let dict = match (a.store().col(k), b.store().col(k)) {
            (ColumnVec::Text(x), ColumnVec::Text(y)) => x.shares_dict(y),
            _ => false,
        };
        (Arc::ptr_eq(&a.schema, &b.schema), dict)
    }

    /// Tables of one shape share one schema and one dictionary per column,
    /// of a small catalog, and of one longer than the 64 KiB buffer the file
    /// loader reads through: a schema or a dictionary that straddles a
    /// refill is not compared in place but read, and shared all the same.
    /// Besides 64 KiB, buffers whose first refill falls inside the second
    /// table's schema, and inside its dictionary, make sure both straddle.
    /// Read from memory, each table after the first steps over its schema's
    /// and its dictionary's bytes; read through a buffer, all but those a
    /// refill cuts.
    #[test]
    fn same_shape_tables_share_their_schema_and_dictionary() {
        let skipped = || SKIPPED.with(Cell::get);
        let e = same_shape(3);
        assert_eq!(shared(&e, "r1", "r2", 1), (false, false));
        assert_round_trip(&e);
        let (back, _) = load(&typed(&e, None)).unwrap();
        assert_eq!(shared(&back, "r1", "r2", 1), (true, true));
        assert_eq!(shared(&back, "r2", "r3", 1), (true, true));
        assert_eq!(back.dump_sql(), e.dump_sql());

        let e = same_shape(400);
        let bytes = typed(&e, None);
        assert!(bytes.len() > 64 << 10, "{} bytes", bytes.len());
        let (before, repeats) = (skipped(), 2 * 399);
        load(&bytes).unwrap();
        assert_eq!(skipped() - before, repeats);
        let (mut schema, mut dict) = (Vec::new(), Vec::new());
        write_schema(&mut schema, &e.pin_table("r1").unwrap().schema).unwrap();
        write_count(&mut dict, 3).unwrap();
        for s in ["write", "rewrite", "read"] {
            write_str(&mut dict, s).unwrap();
        }
        let count = |piece: &[u8]| bytes.windows(piece.len()).filter(|w| w == &piece).count();
        assert_eq!((count(&schema), count(&dict)), (400, 400));
        // Where the piece is for the second time.
        let second = |piece: &[u8]| {
            let at = bytes.windows(piece.len()).enumerate();
            at.filter(|(_, w)| w == &piece).nth(1).unwrap().0
        };
        for cap in [64 << 10, second(&schema) + 1, second(&dict) + 1] {
            let src = io::BufReader::with_capacity(cap, &bytes[..]);
            let before = skipped();
            let (_, tables) = read(src, bytes.len()).unwrap();
            // A refill cuts at most one of them.
            let cut = repeats - (skipped() - before);
            assert!(cut <= bytes.len().div_ceil(cap), "{cut} cut, {cap}");
            assert!(cap == 64 << 10 || cut > 0, "{cap}");
            let back = Engine::new();
            back.install(tables).unwrap();
            for name in back.table_names() {
                assert_eq!(shared(&back, "r1", &name, 1), (true, true), "{name}, {cap}");
            }
            assert_eq!(back.dump_sql(), e.dump_sql());
        }
    }

    /// The dictionary of every TEXT column of every table of `e`.
    fn dictionaries(e: &Engine) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        for name in e.table_names() {
            let t = e.pin_table(&name).unwrap();
            for k in 0..t.schema.arity() {
                if let ColumnVec::Text(d) = t.store().col(k) {
                    out.push(d.dict().to_vec());
                }
            }
        }
        out
    }

    /// Each table differs from the one before it in name order in one
    /// thing: the dictionary's order, a dictionary that is a prefix of the
    /// one before or extends it, a column's name, type or NOT NULL flag, the
    /// column count. Nothing of the two is shared that differs, and the
    /// catalog is the one the SQL dump loads to.
    #[test]
    fn nothing_is_shared_when_a_column_or_the_entries_differ() {
        let e = Engine::new();
        let tables = [
            ("t1", "x INTEGER, m TEXT NOT NULL", "'p', 'q'"),
            ("t2", "x INTEGER, m TEXT NOT NULL", "'q', 'p'"),
            ("t3", "x INTEGER, m TEXT NOT NULL", "'q'"),
            ("t4", "x INTEGER, m TEXT NOT NULL", "'q', 'p', 'r'"),
            ("t5", "y INTEGER, m TEXT NOT NULL", "'q', 'p', 'r'"),
            ("t6", "y FLOAT, m TEXT NOT NULL", "'q', 'p', 'r'"),
            ("t7", "y FLOAT, m TEXT", "'q', 'p', 'r'"),
            ("t8", "y FLOAT, m TEXT, z INTEGER", "'q', 'p', 'r'"),
        ];
        for (t, columns, entries) in tables {
            let extra = if columns.contains(" z ") { ", 0" } else { "" };
            let rows: Vec<String> = entries
                .split(", ")
                .map(|s| format!("(1, {s}{extra})"))
                .collect();
            e.execute_script(&format!(
                "CREATE TABLE {t} ({columns}); INSERT INTO {t} VALUES {}",
                rows.join(", ")
            ))
            .unwrap();
        }
        assert_round_trip(&e);
        let (back, _) = load(&typed(&e, None)).unwrap();
        let expect = [(true, false), (true, false), (true, false)];
        for (k, want) in expect.into_iter().enumerate() {
            let (a, b) = (tables[k].0, tables[k + 1].0);
            assert_eq!(shared(&back, a, b, 1), want, "{a} and {b}");
        }
        for w in tables[3..].windows(2) {
            assert_eq!(
                shared(&back, w[0].0, w[1].0, 1),
                (false, false),
                "{}",
                w[1].0
            );
        }
        let reloaded = Engine::from_sql_dump(&e.dump_sql()).unwrap();
        assert_eq!(back.dump_sql(), reloaded.dump_sql());
        assert_eq!(dictionaries(&back), dictionaries(&reloaded));
    }

    /// A dictionary that starts like the one of the table before it and
    /// then repeats one of its own entries is refused as any repeat is, at
    /// the repeated entry's offset.
    #[test]
    fn a_repeat_after_a_shared_prefix_is_refused_at_its_offset() {
        for (second, repeat) in [("'p', 'z'", 1), ("'p', 'q', 'z'", 2)] {
            let e = Engine::new();
            e.execute_script(&format!(
                "CREATE TABLE a (m TEXT); INSERT INTO a VALUES ('p'), ('q'); \
                 CREATE TABLE b (m TEXT); INSERT INTO b VALUES ({})",
                second.replace(", ", "), (")
            ))
            .unwrap();
            let mut bytes = typed(&e, None);
            // `z`, the last entry, becomes a repeat of entry `repeat - 1`.
            let entry = [&1u32.to_le_bytes()[..], b"z"].concat();
            let at = bytes.windows(5).rposition(|w| w == entry).unwrap();
            bytes[at + 4] = [b'p', b'q'][repeat - 1];
            let err = read(&bytes[..], bytes.len()).err().unwrap().to_string();
            let want = format!("byte {at}: a repeated dictionary entry");
            assert!(err.contains(&want), "{second}: {err}");
        }
    }

    /// A string interned into one loaded table makes its dictionary its
    /// own: the tables it shared the dictionary with keep theirs as it was.
    #[test]
    fn an_intern_into_a_loaded_table_leaves_its_neighbours_alone() {
        let (back, _) = load(&typed(&same_shape(3), None)).unwrap();
        back.execute("INSERT INTO r2 VALUES (5, 'fresh', 1.0)")
            .unwrap();
        back.execute("UPDATE r3 SET mode = 'other' WHERE pos = 1")
            .unwrap();
        assert_eq!(shared(&back, "r1", "r2", 1), (true, false));
        assert_eq!(shared(&back, "r2", "r3", 1), (true, false));
        let dicts = dictionaries(&back);
        assert_eq!(dicts[0], ["write", "rewrite", "read"]);
        assert_eq!(dicts[1], ["write", "rewrite", "read", "fresh"]);
        assert_eq!(dicts[2], ["write", "rewrite", "read", "other"]);
    }
}
