//! The records of the log: what one frame of a version-2 log carries.
//!
//! A record is a tag byte, then its body:
//!
//! | tag | kind          | body                                                      |
//! |-----|---------------|-----------------------------------------------------------|
//! | 1   | `Begin`       | none: opens the frame group of a unit of more statements  |
//! | 2   | `Commit`      | none: seals the group                                     |
//! | 3   | `Sql`         | the UTF-8 text of the statement                           |
//! | 4   | `CreateTable` | name (string), IF NOT EXISTS (0/1), the schema            |
//! | 5   | `Insert`      | name (string), columns (`u32`), their types (`u8` each),  |
//! |     |               | rows (`u64`), then every column's null bitmap and cells   |
//!
//! Strings, the schema, types and columns are in the column codec's
//! encoding ([`crate::codec`]), the one the typed checkpoint uses: an
//! `Insert` is the batch the INSERT built, and replaying it appends that
//! batch without a parser — straight from the frame's bytes into the live
//! table, after a pass that checks them against its schema
//! ([`Insert::check`], [`Insert::append_to`]). Every other statement —
//! UPDATE and DELETE, whose effect depends on the rows they run against,
//! DROP TABLE and CREATE INDEX — is `Sql` text. A version-1 log's frames
//! are text: a marker payload reads as `Begin` or `Commit`, any other as
//! `Sql`.
//!
//! The decoder is total: every count is checked against the bytes left
//! before anything is sized from it, and every error names the frame's
//! sequence number and the byte offset in the log where it went wrong.

use crate::codec::{fail, type_number, walk_column, Origin, Pass, Reader, TYPES};
use crate::codec::{read_schema, write_column, write_schema, write_str};
use crate::column::ColumnStore;
use crate::dump;
use crate::error::DbError;
use crate::schema::{Column, Schema};
use crate::value::DataType;
use std::sync::Arc;

/// Opens the frame group of a unit of more than one statement.
pub(crate) const BEGIN: u8 = 1;
/// Seals a frame group.
pub(crate) const COMMIT: u8 = 2;
/// A statement as SQL text.
const SQL: u8 = 3;
/// `CREATE TABLE [IF NOT EXISTS]`, typed.
const CREATE_TABLE: u8 = 4;
/// The batch one INSERT appends, typed.
const INSERT: u8 = 5;

/// One frame as the log holds it: its sequence number, where its payload
/// starts in the log file, and the payload — a record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameRef<'a> {
    pub(crate) seq: u64,
    pub(crate) at: usize,
    pub(crate) payload: &'a [u8],
}

/// A record, decoded.
#[derive(Debug)]
pub(crate) enum Record<'a> {
    /// Opens a frame group.
    Begin,
    /// Seals a frame group.
    Commit,
    /// A statement as SQL text.
    Sql(&'a str),
    /// `CREATE TABLE [IF NOT EXISTS] name (schema)`.
    CreateTable {
        name: &'a str,
        schema: Arc<Schema>,
        if_not_exists: bool,
    },
    /// The rows one INSERT appends.
    Insert(Insert<'a>),
}

/// An `Insert` record as [`decode`] reads it: its table's name, its column
/// types and its row count checked, its columns still the frame's bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Insert<'a> {
    /// The table the rows go to.
    pub(crate) name: &'a str,
    /// The column types by their number, each one known.
    types: &'a [u8],
    /// How many rows, one or more.
    pub(crate) rows: usize,
    /// A reader at the first column's null bitmap.
    cols: Reader<&'a [u8]>,
    /// The frame the record is.
    frame: FrameRef<'a>,
}

impl Insert<'_> {
    /// The column types.
    fn types(&self) -> impl Iterator<Item = DataType> + Clone + '_ {
        self.types.iter().map(|&t| TYPES[usize::from(t)])
    }

    /// The first pass of a replay: check the columns against `schema`, the
    /// live table's — the same types in the same order, then each column as
    /// [`walk_column`] checks it — and that no byte follows the last. It
    /// changes nothing and, once `room` has grown, allocates nothing; what
    /// it accepts, [`Insert::append_to`] appends without an error.
    pub(crate) fn check(&self, schema: &Schema, room: &mut Vec<usize>) -> Result<(), DbError> {
        let types = self.types();
        if !schema.columns.iter().map(|c| c.dtype).eq(types.clone()) {
            let why = format!(
                "a batch of column types {:?} for a table of {:?}",
                types.collect::<Vec<_>>(),
                schema.columns.iter().map(|c| c.dtype).collect::<Vec<_>>()
            );
            return Err(fail(Origin::Frame(self.frame.seq), self.frame.at, why));
        }
        let (mut r, record, base) = (self.cols, &self.frame.payload[1..], self.frame.at + 1);
        for col in &schema.columns {
            walk_column(&mut r, col, self.rows, Pass::Check { record, base }, room)?;
        }
        end(&r)
    }

    /// Append the rows to `store`, a store under `schema`, column by column
    /// as [`walk_column`] appends them. Checked by [`Insert::check`] against
    /// `schema`, it cannot fail; otherwise an error leaves `store` part-way,
    /// for a store that is then dropped.
    pub(crate) fn append_to(
        &self,
        schema: &Schema,
        store: &mut ColumnStore,
        room: &mut Vec<usize>,
    ) -> Result<(), DbError> {
        let mut r = self.cols;
        store.append_columns(self.rows, |k, col| {
            let pass = Pass::Append(col, None);
            walk_column(&mut r, &schema.columns[k], self.rows, pass, room)
        })?;
        end(&r)
    }
}

/// Refuse bytes after the last column.
fn end(r: &Reader<&[u8]>) -> Result<(), DbError> {
    match r.left {
        0 => Ok(()),
        _ => Err(r.fail(r.at, "bytes after the record")),
    }
}

/// The record of a statement as SQL text.
pub fn sql_record(stmt: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + stmt.len());
    out.push(SQL);
    out.extend_from_slice(stmt.as_bytes());
    out
}

/// The record of `CREATE TABLE [IF NOT EXISTS] name (schema)`.
pub(crate) fn create_table_record(name: &str, schema: &Schema, if_not_exists: bool) -> Vec<u8> {
    let mut out = vec![CREATE_TABLE];
    write_str(&mut out, name).expect("a name fits a count");
    out.push(u8::from(if_not_exists));
    write_schema(&mut out, schema).expect("a schema fits its counts");
    out
}

/// The record of the batch an INSERT appends to `name`.
pub(crate) fn insert_record(name: &str, batch: &ColumnStore) -> Vec<u8> {
    // Room for fixed-width cells, their bitmaps and short dictionaries.
    let mut out = Vec::with_capacity(64 + name.len() + batch.arity() * (16 + 9 * batch.len()));
    out.push(INSERT);
    write_str(&mut out, name).expect("a name fits a count");
    out.extend_from_slice(&(batch.arity() as u32).to_le_bytes());
    out.extend((0..batch.arity()).map(|c| type_number(batch.col(c).dtype())));
    out.extend_from_slice(&(batch.len() as u64).to_le_bytes());
    for c in 0..batch.arity() {
        write_column(&mut out, batch.col(c), false).expect("a batch fits its counts");
    }
    out
}

/// The payload of a version-1 (text) frame as the record it stands for.
pub(crate) fn from_text(text: &str, out: &mut Vec<u8>) {
    match text {
        "--TXN BEGIN" => out.push(BEGIN),
        "--TXN COMMIT" => out.push(COMMIT),
        _ => {
            out.push(SQL);
            out.extend_from_slice(text.as_bytes());
        }
    }
}

/// Does `payload` hold a record whose body [`decode`] may read — an `Sql`
/// body must be UTF-8, the frame reader's one check of a record?
pub(crate) fn readable(payload: &[u8]) -> bool {
    match payload.split_first() {
        Some((&SQL, text)) => std::str::from_utf8(text).is_ok(),
        _ => true,
    }
}

/// Is `payload` a statement's record — not a group marker, nor a tag this
/// build does not know?
pub(crate) fn is_statement(payload: &[u8]) -> bool {
    matches!(payload.first(), Some(&(SQL | CREATE_TABLE | INSERT)))
}

/// Decode the record of `frame`.
pub(crate) fn decode(frame: FrameRef<'_>) -> Result<Record<'_>, DbError> {
    let FrameRef { seq, at, payload } = frame;
    let Some((&tag, body)) = payload.split_first() else {
        return Err(fail(Origin::Frame(seq), at, "an empty record"));
    };
    let mut r = Reader::new(body, body.len(), at + 1, Origin::Frame(seq));
    let record = match tag {
        BEGIN => Record::Begin,
        COMMIT => Record::Commit,
        SQL => {
            let text = std::str::from_utf8(body);
            let text = text.map_err(|e| r.fail(at + 1 + e.valid_up_to(), "not UTF-8"))?;
            return Ok(Record::Sql(text));
        }
        CREATE_TABLE => {
            let name = r.str_ref("table name")?;
            let if_not_exists = r.flag("IF NOT EXISTS flag")?;
            let schema = read_schema(&mut r)?;
            Record::CreateTable {
                name,
                schema,
                if_not_exists,
            }
        }
        INSERT => {
            let name = r.str_ref("table name")?;
            let count = r.num(4, "column count")? as usize;
            let types_at = r.at;
            let types = r.take_ref(count, 1, "column types")?;
            if let Some(k) = types.iter().position(|&t| usize::from(t) >= TYPES.len()) {
                return Err(r.fail(types_at + k, "unknown column type"));
            }
            let rows_at = r.at;
            let rows = r.num(8, "row count")?;
            // The writer logs no empty batch, and every column of one row
            // or more takes nine bytes or more: the columns are sized by
            // bytes that are there.
            let rows = usize::try_from(rows)
                .ok()
                .filter(|&rows| rows > 0 && types.len() <= r.left / 9)
                .ok_or_else(|| r.fail(rows_at, format!("{rows} rows of {count} columns")))?;
            // The columns are read against the table they go to.
            return Ok(Record::Insert(Insert {
                name,
                types,
                rows,
                cols: r,
                frame,
            }));
        }
        tag => {
            return Err(fail(
                Origin::Frame(seq),
                at,
                format!("unknown record kind {tag}"),
            ))
        }
    };
    if r.left != 0 {
        return Err(r.fail(r.at, "bytes after the record"));
    }
    Ok(record)
}

/// A record as the SQL text it stands for — the statement, the rows of an
/// INSERT as the dump writes them, a group marker as a version-1 log wrote
/// it — or, for a record [`decode`] refuses, its error.
pub(crate) fn to_sql(frame: FrameRef<'_>) -> String {
    let mut out = String::new();
    match decode(frame) {
        Ok(Record::Begin) => out.push_str("--TXN BEGIN"),
        Ok(Record::Commit) => out.push_str("--TXN COMMIT"),
        Ok(Record::Sql(text)) => out.push_str(text),
        Ok(Record::CreateTable {
            name,
            schema,
            if_not_exists,
        }) => dump::write_create_table(&mut out, name, &schema, if_not_exists),
        Ok(Record::Insert(insert)) => {
            let schema = Schema {
                columns: insert.types().map(|t| Column::new("", t)).collect(),
            };
            let mut batch = ColumnStore::new(&schema);
            match insert.append_to(&schema, &mut batch, &mut Vec::new()) {
                Ok(()) => dump::write_rows(&mut out, insert.name, &batch, 0..batch.len()),
                Err(e) => out = format!("-- {e}"),
            }
        }
        Err(e) => out = format!("-- {e}"),
    }
    out
}
