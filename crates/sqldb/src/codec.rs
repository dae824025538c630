//! The column codec: a table's rows as typed column arrays in bytes, the one
//! encoding both the typed checkpoint ([`crate::checkpoint`]) and an INSERT
//! record of the log ([`crate::record`]) carry.
//!
//! Every integer is little-endian; a string is its `u32` byte length and its
//! UTF-8 bytes. A column of `rows` cells is its null bitmap (bit set =
//! NULL, `⌈rows/64⌉ × u64`), then its cells: INTEGER and TIMESTAMP as
//! `i64`, FLOAT as its `u64` bits, BOOLEAN as one byte 0/1, TEXT as the
//! dictionary size (`u32`), its entries (strings) and one `u32` code per
//! row. A NULL cell holds its type's default (0, 0.0, FALSE, code 0), and a
//! dictionary holds only the strings rows reference, in the order rows first
//! use them. Types are numbered as in [`TYPES`].
//!
//! The [`Reader`] checks every count against the bytes left before it sizes
//! anything from it, and every error names the byte offset it found.

use crate::column::{Chunked, ColumnVec, NullBitmap};
use crate::error::DbError;
use crate::schema::{Column, Schema};
use crate::value::DataType::{self, Bool, Float, Int, Text, Timestamp};
use std::borrow::Cow;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// Column types by their number in the bytes.
pub(crate) const TYPES: [DataType; 5] = [Int, Float, Text, Bool, Timestamp];

/// The number of `dtype` in [`TYPES`].
pub(crate) fn type_number(dtype: DataType) -> u8 {
    TYPES.iter().position(|t| *t == dtype).expect("a type") as u8
}

/// Write `n` as a `u32`.
pub(crate) fn write_count(out: &mut impl Write, n: usize) -> io::Result<()> {
    let n = u32::try_from(n).map_err(|_| io::Error::other(format!("{n} items in one count")))?;
    out.write_all(&n.to_le_bytes())
}

/// Write `s` as its length and its bytes.
pub(crate) fn write_str(out: &mut impl Write, s: &str) -> io::Result<()> {
    write_count(out, s.len())?;
    out.write_all(s.as_bytes())
}

/// Write `schema`: its column count, then per column its name, its type and
/// NOT NULL (0/1).
pub(crate) fn write_schema(out: &mut impl Write, schema: &Schema) -> io::Result<()> {
    write_count(out, schema.arity())?;
    for c in &schema.columns {
        write_str(out, &c.name)?;
        out.write_all(&[type_number(c.dtype), u8::from(!c.nullable)])?;
    }
    Ok(())
}

/// Read what [`write_schema`] wrote. A schema equal to `like`, column for
/// column, is `like` itself: names are compared where the reader holds them,
/// and only a schema that differs is built.
pub(crate) fn read_schema(
    r: &mut Reader<impl Source>,
    like: Option<&Arc<Schema>>,
) -> Result<Arc<Schema>, DbError> {
    let at = r.at;
    let count = r.num(4, "column count")?;
    let like = like.filter(|s| s.arity() as u64 == count);
    // The first `same` columns are `like`'s; `columns` holds them all once
    // one differs.
    let (mut same, mut columns) = (0, Vec::new());
    for k in 0..count as usize {
        let had = like.map(|s| &s.columns[k]);
        let name = r.text("column name")?;
        let name: Cow<'_, str> = match had {
            Some(c) if c.name == name => Cow::Borrowed(&c.name),
            _ => Cow::Owned(name.to_owned()),
        };
        let (dtype, nullable) = (r.dtype()?, !r.flag("NOT NULL flag")?);
        let alike = had.is_some_and(|c| (c.dtype, c.nullable) == (dtype, nullable));
        if same == k && alike && matches!(name, Cow::Borrowed(_)) {
            same += 1;
            continue;
        }
        if let Some(s) = like.filter(|_| columns.is_empty()) {
            columns.extend_from_slice(&s.columns[..same]);
        }
        columns.push(Column {
            name: name.into_owned(),
            dtype,
            nullable,
        });
    }
    match like {
        Some(s) if same == s.arity() => Ok(Arc::clone(s)),
        _ => {
            // Grown by what was read, never sized by the count: kept exact.
            columns.shrink_to_fit();
            Schema::new(columns)
                .map(Arc::new)
                .map_err(|e| r.fail(at, e))
        }
    }
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
            let null = nulls.is_null(first + i);
            out.write_all(&bytes(if null { default } else { x }))?;
        }
    }
    Ok(())
}

/// Write one column: its null bitmap, then its cells. With `compact`, a TEXT
/// column whose dictionary holds a string no row references, or holds them
/// out of the order rows first use them, is written compacted; the batch of
/// one INSERT is compact already.
pub(crate) fn write_column(out: &mut impl Write, col: &ColumnVec, compact: bool) -> io::Result<()> {
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
            let compacted;
            let d = if compact && !d.is_compact() {
                compacted = d.compacted();
                &compacted
            } else {
                d
            };
            write_count(out, d.dict().len())?;
            d.dict().iter().try_for_each(|s| write_str(out, s))?;
            write_cells(out, &d.codes, nulls, 0, u32::to_le_bytes)
        }
    }
}

/// What [`walk_column`] does with a column besides checking it.
pub(crate) enum Pass<'p> {
    /// Nothing: the first pass over a log record, which changes nothing and,
    /// once `room` has grown, allocates nothing. `record` holds the bytes the
    /// walk reads, the first of them at byte `base`: it keeps the offsets of
    /// a dictionary's entries in `room` and finds a repeated entry among
    /// them, and it reads a TEXT code's null bit back from its bitmap.
    Check { record: &'p [u8], base: usize },
    /// Append the column to the first, a column of its type: the null bits
    /// as words, the cells straight from their bytes, each dictionary entry
    /// interned once by `&str`, its code in the target kept in `room`, and
    /// the codes mapped through `room`. The second is the same column of the
    /// table read before, when the two share a schema: an empty TEXT target
    /// whose entries are that column's, in order, takes its dictionary
    /// itself, and interns nothing.
    Append(&'p mut ColumnVec, Option<&'p ColumnVec>),
}

/// Walk the null bitmap and the `rows` cells of column `col`: check them —
/// no NULL bit past the last row, no NULL in a NOT NULL column, BOOLEAN
/// bytes 0 or 1, dictionary entries UTF-8 and none repeated, every TEXT
/// code inside the dictionary and 0 under a NULL — and do what `pass` says.
/// The one decoder of the column encoding: a checkpoint's tables, a log
/// record's replay and its SQL text all go through here. An error leaves
/// a [`Pass::Append`] target part-way, its dictionary perhaps grown. Under
/// `Append` an entry is found repeated only when the target did not hold it
/// before: a check pass, or an empty target, finds every repeat.
pub(crate) fn walk_column(
    r: &mut Reader<impl Source>,
    col: &Column,
    rows: usize,
    mut pass: Pass<'_>,
    room: &mut Vec<usize>,
) -> Result<(), DbError> {
    let (origin, bitmap_at) = (r.origin, r.at);
    let words = r.take(rows.div_ceil(64), 8, "null bitmap")?;
    let last = words.len().checked_sub(8).map_or(0, |k| le(&words[k..]));
    if !rows.is_multiple_of(64) && last >> (rows % 64) != 0 {
        return Err(fail(origin, r.at - 8, "a NULL bit past the last row"));
    }
    if !col.nullable && words.iter().any(|&b| b != 0) {
        let why = format!("NULL in NOT NULL column {}", col.name);
        return Err(fail(origin, bitmap_at, why));
    }
    if let Pass::Append(to, _) = &mut pass {
        to.extend_null_words(words, rows);
    }
    let at = r.at;
    match col.dtype {
        Int | Float | Timestamp => {
            let cells = r.take(rows, 8, "cells")?;
            if let Pass::Append(to, _) = pass {
                to.extend_cells(cells);
            }
        }
        Bool => {
            let cells = r.take(rows, 1, "BOOLEAN cells")?;
            if let Some(i) = cells.iter().position(|&b| b > 1) {
                return Err(fail(origin, at + i, "a BOOLEAN cell neither 0 nor 1"));
            }
            if let Pass::Append(to, _) = pass {
                to.extend_cells(cells);
            }
        }
        Text => match pass {
            Pass::Check { record, base } => {
                let entries = entries(r, room)?;
                if let Some(at) = repeated(record, base, room) {
                    return Err(fail(origin, at, "a repeated dictionary entry"));
                }
                codes(r, rows, entries, |i| {
                    record[bitmap_at - base + i / 8] >> (i % 8) & 1 == 1
                })?;
            }
            Pass::Append(ColumnVec::Text(to), like) => {
                let before = to.dict().len();
                // While the entries are those of `like`, in order, each is
                // only counted: entry `k` is code `k` either way.
                let mut like = match like {
                    Some(ColumnVec::Text(like)) if to.codes.len() == 0 && before == 0 => Some(like),
                    _ => None,
                };
                room.clear();
                for _ in 0..r.num(4, "dictionary size")? {
                    let at = r.at;
                    let entry = r.text("dictionary entry")?;
                    if let Some(d) = like {
                        if d.dict().get(room.len()).is_some_and(|s| s == entry) {
                            room.push(room.len());
                            continue;
                        }
                        to.intern_all(&d.dict()[..room.len()]);
                        like = None;
                    }
                    let had = to.dict().len();
                    let code = to.intern(entry) as usize;
                    if (before..had).contains(&code) {
                        return Err(fail(origin, at, "a repeated dictionary entry"));
                    }
                    room.push(code);
                }
                match like {
                    Some(d) if d.dict().len() == room.len() => to.share_dict(d),
                    Some(d) => to.intern_all(&d.dict()[..room.len()]),
                    None => {}
                }
                let first = to.codes.len();
                let codes = codes(r, rows, room.len(), |i| to.nulls.is_null(first + i))?;
                to.extend_codes(codes, room);
            }
            Pass::Append(to, _) => unreachable!("TEXT walked into {:?}", to.dtype()),
        },
    }
    Ok(())
}

/// Read a dictionary without keeping it: its entries checked UTF-8, the
/// offset of each kept in `room`; returns how many there are.
fn entries(r: &mut Reader<impl Source>, room: &mut Vec<usize>) -> Result<usize, DbError> {
    room.clear();
    for _ in 0..r.num(4, "dictionary size")? {
        room.push(r.at);
        r.text("dictionary entry")?;
    }
    Ok(room.len())
}

/// The offset of an entry that repeats one before it, among the entries of
/// `record` (its first byte at byte `base`) whose offsets `room` holds —
/// sorted by their bytes on the way.
fn repeated(record: &[u8], base: usize, room: &mut [usize]) -> Option<usize> {
    let entry = |at: usize| {
        let at = at - base;
        &record[at + 4..at + 4 + le(&record[at..at + 4]) as usize]
    };
    room.sort_unstable_by(|&a, &b| entry(a).cmp(entry(b)));
    let pair = room.windows(2).find(|w| entry(w[0]) == entry(w[1]));
    pair.map(|w| w[0].max(w[1]))
}

/// The `rows` TEXT codes of a dictionary of `entries`, each inside it, and
/// 0 where `null(i)` says row `i` is NULL.
fn codes(
    r: &mut Reader<impl Source>,
    rows: usize,
    entries: usize,
    null: impl Fn(usize) -> bool,
) -> Result<&[u8], DbError> {
    let (origin, at) = (r.origin, r.at);
    let codes = r.take(rows, 4, "TEXT codes")?;
    let bad = codes
        .chunks_exact(4)
        .enumerate()
        .position(|(i, code)| le(code) as usize >= if null(i) { 1 } else { entries });
    match bad {
        Some(i) => Err(fail(origin, at + 4 * i, "a TEXT code out of range")),
        None => Ok(codes),
    }
}

impl<'a> Reader<&'a [u8]> {
    /// [`Reader::take`] of bytes in memory: the bytes where they are.
    pub(crate) fn take_ref(
        &mut self,
        n: usize,
        width: usize,
        what: &str,
    ) -> Result<&'a [u8], DbError> {
        let src = self.src;
        self.take(n, width, what)?;
        Ok(&src[..src.len() - self.src.len()])
    }

    /// [`Reader::str`] of bytes in memory, borrowed.
    pub(crate) fn str_ref(&mut self, what: &str) -> Result<&'a str, DbError> {
        let n = self.num(4, what)? as usize;
        let at = self.at;
        let bytes = self.take_ref(n, 1, what)?;
        std::str::from_utf8(bytes).map_err(|e| self.fail(at + e.valid_up_to(), "not UTF-8"))
    }
}

/// The error of the bytes `origin` names, found wrong at byte `at`.
pub(crate) fn fail(origin: Origin, at: usize, why: impl std::fmt::Display) -> DbError {
    match origin {
        Origin::Checkpoint => DbError::Execution(format!("typed checkpoint, byte {at}: {why}")),
        Origin::Frame(seq) => DbError::Execution(format!("WAL frame {seq}, byte {at}: {why}")),
    }
}

/// The little-endian number `bytes` hold: at most 8 of them.
pub(crate) fn le(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |n, &b| n << 8 | u64::from(b))
}

/// Where a [`Reader`] takes its bytes from.
pub(crate) trait Source {
    /// The next `n` bytes; the reader has checked that there are as many.
    fn next(&mut self, n: usize) -> io::Result<&[u8]>;
}

/// A buffered stream, read a piece at a time: a checkpoint file. A piece
/// the stream's buffer holds whole is lent from there; only one that
/// straddles a refill is copied, into a buffer of its own.
pub(crate) struct Stream<R> {
    src: R,
    /// Bytes of the stream's buffer lent by the last piece, consumed before
    /// the next.
    lent: usize,
    buf: Vec<u8>,
}

impl<R: BufRead> Stream<R> {
    pub(crate) fn new(src: R) -> Self {
        Stream {
            src,
            lent: 0,
            buf: Vec::new(),
        }
    }
}

impl<R: BufRead> Source for Stream<R> {
    fn next(&mut self, n: usize) -> io::Result<&[u8]> {
        self.src.consume(std::mem::take(&mut self.lent));
        if self.src.fill_buf()?.len() >= n {
            self.lent = n;
            // The same bytes again: a buffer that holds some reads nothing.
            return Ok(&self.src.fill_buf()?[..n]);
        }
        self.buf.resize(n, 0);
        self.src.read_exact(&mut self.buf)?;
        Ok(&self.buf)
    }
}

/// Bytes in memory, handed out where they are: a record of the log.
impl Source for &[u8] {
    fn next(&mut self, n: usize) -> io::Result<&[u8]> {
        let Some((piece, rest)) = self.split_at_checked(n) else {
            return Err(io::ErrorKind::UnexpectedEof.into());
        };
        *self = rest;
        Ok(piece)
    }
}

/// A cursor over encoded bytes: `left` of them still to come from `src`.
/// `at` counts from where the bytes start in their file; `origin` names
/// the file (and the frame) in every error.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reader<S> {
    src: S,
    pub(crate) at: usize,
    pub(crate) left: usize,
    origin: Origin,
}

/// What a [`Reader`] reads.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Origin {
    /// A typed checkpoint.
    Checkpoint,
    /// The record of the log frame with this sequence number.
    Frame(u64),
}

impl<S: Source> Reader<S> {
    /// A reader of the `len` bytes `src` holds, the first of them at byte
    /// `at` of what `origin` names.
    pub(crate) fn new(src: S, len: usize, at: usize, origin: Origin) -> Self {
        Reader {
            src,
            at,
            left: len,
            origin,
        }
    }

    /// The error of bytes found wrong at byte `at`.
    pub(crate) fn fail(&self, at: usize, why: impl std::fmt::Display) -> DbError {
        fail(self.origin, at, why)
    }

    /// The next `n` items of `width` bytes each, when there are that many.
    pub(crate) fn take(&mut self, n: usize, width: usize, what: &str) -> Result<&[u8], DbError> {
        let at = self.at;
        let bytes = n.checked_mul(width).filter(|&bytes| bytes <= self.left);
        let Some(bytes) = bytes else {
            let left = self.left;
            return Err(self.fail(at, format!("{what}: {n} × {width} bytes, {left} left")));
        };
        (self.at, self.left) = (at + bytes, self.left - bytes);
        match self.src.next(bytes) {
            Ok(piece) => Ok(piece),
            Err(e) => Err(fail(self.origin, at, e)),
        }
    }

    /// The next number, `width` bytes little-endian.
    pub(crate) fn num(&mut self, width: usize, what: &str) -> Result<u64, DbError> {
        self.take(1, width, what).map(le)
    }

    /// A byte that is 0 or 1.
    pub(crate) fn flag(&mut self, what: &str) -> Result<bool, DbError> {
        match self.num(1, what)? {
            b @ (0 | 1) => Ok(b == 1),
            b => Err(self.fail(self.at - 1, format!("{what}: {b}"))),
        }
    }

    /// A string: its length, then as many bytes of UTF-8.
    pub(crate) fn str(&mut self, what: &str) -> Result<String, DbError> {
        self.text(what).map(str::to_owned)
    }

    /// [`Reader::str`], borrowed where the reader holds it.
    pub(crate) fn text(&mut self, what: &str) -> Result<&str, DbError> {
        let n = self.num(4, what)? as usize;
        let (origin, at) = (self.origin, self.at);
        let bytes = self.take(n, 1, what)?;
        std::str::from_utf8(bytes).map_err(|e| fail(origin, at + e.valid_up_to(), "not UTF-8"))
    }

    /// A column type, by its number.
    pub(crate) fn dtype(&mut self) -> Result<DataType, DbError> {
        let at = self.at;
        let dtype = TYPES.get(self.num(1, "column type")? as usize);
        dtype
            .copied()
            .ok_or_else(|| self.fail(at, "unknown column type"))
    }
}
