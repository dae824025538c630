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

use crate::column::{Chunked, ColumnVec, DictColumn, NullBitmap};
use crate::error::DbError;
use crate::schema::{Column, Schema};
use crate::value::DataType::{self, Bool, Float, Int, Text, Timestamp};
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

/// Read what [`write_schema`] wrote.
pub(crate) fn read_schema(r: &mut Reader<impl Source>) -> Result<Arc<Schema>, DbError> {
    let at = r.at;
    // Grown by what is read, never sized by the count.
    let mut columns = Vec::new();
    for _ in 0..r.num(4, "column count")? {
        let name = r.str("column name")?;
        let (dtype, nullable) = (r.dtype()?, !r.flag("NOT NULL flag")?);
        columns.push(Column {
            name,
            dtype,
            nullable,
        });
    }
    columns.shrink_to_fit();
    Schema::new(columns)
        .map(Arc::new)
        .map_err(|e| r.fail(at, e))
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
    /// the codes mapped through `room`. The second, for an empty TEXT target
    /// a checkpoint load fills, is the dictionary the same column of the
    /// table read before holds: see [`Seen`].
    Append(&'p mut ColumnVec, Option<&'p mut Seen>),
}

/// The dictionary a checkpoint load read last in one column, and its bytes.
/// The next table's dictionary in that column is most often the same: when
/// its bytes are these, the target takes the dictionary itself, shared, and
/// the bytes are stepped over without a parse ([`Reader::skip`]). Otherwise
/// the dictionary is read as any is, and shared all the same when it comes
/// out equal — bytes that straddle a refill of the file's buffer are not
/// compared in place. Empty: nothing seen yet.
#[derive(Debug, Default)]
pub(crate) struct Seen {
    bytes: Vec<u8>,
    dict: DictColumn,
}

impl Seen {
    /// Take the dictionary `to` has just read from `len` bytes: the one
    /// seen, shared, when the two are equal; otherwise `to`'s is the one
    /// seen now.
    fn learn(&mut self, to: &mut DictColumn, len: usize) {
        if !self.bytes.is_empty() && self.dict.dict() == to.dict() {
            return to.share_dict(&self.dict);
        }
        self.bytes.clear();
        self.bytes.reserve(len);
        write_count(&mut self.bytes, to.dict().len()).expect("a dictionary read from a count");
        for s in to.dict() {
            write_str(&mut self.bytes, s).expect("into memory");
        }
        self.dict.share_dict(to);
    }
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
            Pass::Append(ColumnVec::Text(to), seen) => {
                room.clear();
                match seen {
                    Some(seen) if !seen.bytes.is_empty() && r.skip(&seen.bytes) => {
                        to.share_dict(&seen.dict);
                        room.extend(0..to.dict().len());
                    }
                    seen => {
                        let (before, dict_at) = (to.dict().len(), r.at);
                        for _ in 0..r.num(4, "dictionary size")? {
                            let at = r.at;
                            let had = to.dict().len();
                            let code = to.intern(r.text("dictionary entry")?) as usize;
                            if (before..had).contains(&code) {
                                return Err(fail(origin, at, "a repeated dictionary entry"));
                            }
                            room.push(code);
                        }
                        if let Some(seen) = seen {
                            seen.learn(to, r.at - dict_at);
                        }
                    }
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

    /// The bytes that come next, as many as are at hand: perhaps fewer than
    /// the reader will take, perhaps more than are left to it. Nothing is
    /// taken; an error reads as no bytes, for [`Source::next`] to meet.
    fn peek(&mut self) -> &[u8];
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

    fn peek(&mut self) -> &[u8] {
        self.src.consume(std::mem::take(&mut self.lent));
        self.src.fill_buf().unwrap_or_default()
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

    fn peek(&mut self) -> &[u8] {
        self
    }
}

#[cfg(test)]
thread_local! {
    /// How many times [`Reader::skip`] has stepped over bytes on this thread.
    pub(crate) static SKIPPED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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

    /// Step over the next bytes when they are `bytes`, held at hand by the
    /// source, and say whether it did. Bytes the source must read first —
    /// `bytes` straddles a refill — are not compared: they stay to be read.
    pub(crate) fn skip(&mut self, bytes: &[u8]) -> bool {
        let same = bytes.len() <= self.left && self.src.peek().starts_with(bytes);
        let skipped = same && self.take(bytes.len(), 1, "bytes seen before").is_ok();
        #[cfg(test)]
        SKIPPED.with(|n| n.set(n.get() + usize::from(skipped)));
        skipped
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
