//! Table storage: per-column typed cells in shared chunks,
//! dictionary-encoded strings and null bitmaps.
//!
//! A [`ColumnStore`] is the one storage of a [`crate::Table`]: its rows,
//! decomposed into one typed column per schema column:
//!
//! * `INTEGER`/`TIMESTAMP` → `i64` cells, `FLOAT` → `f64`, `BOOLEAN` →
//!   `bool`;
//! * `TEXT` → dictionary encoding: `u32` codes into an insertion-ordered
//!   string dictionary (low-cardinality run metadata like filesystem names
//!   collapses to a handful of entries);
//! * NULLs → a bitmap per column (bit set = NULL); the data slot of a NULL
//!   cell holds the type's default and must never be interpreted.
//!
//! Every column and every bitmap is [`Chunked`]: chunks of `CHUNK_ROWS`
//! rows, the full ones `Arc`-shared, the last, partial one (the tail) each
//! version's own; a dictionary sits behind one `Arc`. Cloning a store —
//! what a write does to a table version a reader has pinned — therefore
//! bumps one reference count per full chunk and copies the tails (fewer
//! than `CHUNK_ROWS` cells per column), and the write then copies only what
//! else it changes ([`own`]; both counted in `mvcc.cow_bytes`): an append
//! nothing more, an UPDATE the full chunks holding the positions it writes,
//! an insert of a string the dictionary lacks the dictionary. DELETE
//! rebuilds the columns.
//!
//! Invariants relied on by the execution paths in `exec`:
//!
//! * **Variant purity** — every non-NULL cell of a column is exactly the
//!   declared type's [`Value`] variant. [`Value::coerce`] enforces this on
//!   every insert/update path, so typed cells need no per-cell tags.
//! * **Dictionary codes are dense and stable** — `codes[i] < dict.len()`
//!   always; entries are append-only, so deletes and updates may leave
//!   unreferenced (dead) entries behind but never invalidate a stored code.
//! * **Positions are row numbers** — position `p` in every column and
//!   bitmap refers to the same logical row, and stays valid until the next
//!   mutation of the table.
//! * **Chunks are full but the last** — chunk `k` of a column holds
//!   positions `[k·CHUNK_ROWS, (k+1)·CHUNK_ROWS)`, and chunk `k` of its
//!   bitmap the null bits of the same rows, so a chunk is the unit of
//!   sharing for cells and bits alike. A table of fewer rows — a 24-row run
//!   table — is a tail and nothing else, read through the same code.

use crate::schema::Schema;
use crate::value::{DataType, Num, Value, ValueRef};
use std::collections::HashMap;
use std::ops::Index;
use std::sync::Arc;

/// Rows per chunk: a multiple of 64, so a chunk's null bits are whole words.
const CHUNK_ROWS: usize = 4096;

/// Null-bitmap words per chunk.
const CHUNK_WORDS: usize = CHUNK_ROWS / 64;

/// `shared`, made private first if another table version holds it too —
/// the copy a write beside a pinned reader pays, counted in
/// `mvcc.cow_bytes` as `bytes` of what was copied.
fn own<T: Clone>(shared: &mut Arc<T>, bytes: impl FnOnce(&T) -> usize) -> &mut T {
    if Arc::get_mut(shared).is_none() {
        obs::add(obs::Counter::MvccCowBytes, bytes(shared) as u64);
    }
    Arc::make_mut(shared)
}

/// A column of cells in chunks of `N`: the full chunks `Arc`-shared between
/// the table versions that hold them, the last, partial one (`tail`, fewer
/// than `N` cells) each version's own. A clone bumps a reference count per
/// full chunk and copies the tail.
#[derive(Debug, Clone)]
pub(crate) struct Chunked<T, const N: usize = CHUNK_ROWS> {
    full: Vec<Arc<Vec<T>>>,
    tail: Vec<T>,
}

impl<T, const N: usize> Default for Chunked<T, N> {
    fn default() -> Self {
        Chunked {
            full: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T: Clone, const N: usize> Chunked<T, N> {
    /// Number of cells.
    fn len(&self) -> usize {
        self.full.len() * N + self.tail.len()
    }

    /// Chunk `k`.
    #[inline]
    fn chunk(&self, k: usize) -> &[T] {
        match self.full.get(k) {
            Some(chunk) => chunk,
            None => &self.tail,
        }
    }

    /// Every chunk, with the position of its first cell.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = (usize, &[T])> {
        let chunks = self.full.iter().map(|c| c.as_slice());
        let chunks = chunks.chain(std::iter::once(self.tail.as_slice()));
        chunks.enumerate().map(|(k, chunk)| (k * N, chunk))
    }

    /// The cells at `positions`, in their order. A position inside the
    /// chunk of the one before it is read without looking its chunk up, so
    /// an ascending selection finds each chunk once.
    pub(crate) fn gather<'a>(
        &'a self,
        positions: &'a [usize],
    ) -> impl ExactSizeIterator<Item = &'a T> {
        let mut at: (usize, &[T]) = (0, &[]);
        positions.iter().map(move |&p| {
            if p.wrapping_sub(at.0) >= at.1.len() {
                at = (p / N * N, self.chunk(p / N));
            }
            &at.1[p - at.0]
        })
    }

    /// The cells at `positions` that `nulls` does not mark, a run at a time:
    /// `f(k, cells)` for each longest stretch `positions[k..k + cells.len()]`
    /// of consecutive non-NULL positions inside one chunk, `cells` their
    /// cells as one slice, in the order of `positions`. A selection of every
    /// row of a column without NULLs is one run per chunk; positions need
    /// not ascend.
    #[inline]
    pub(crate) fn runs_at(
        &self,
        nulls: &NullBitmap,
        positions: &[usize],
        mut f: impl FnMut(usize, &[T]),
    ) {
        let mut k = 0;
        while let Some(&p) = positions.get(k) {
            let (chunk, at) = (self.chunk(p / N), p % N);
            let most = (chunk.len() - at).min(positions.len() - k);
            let next = positions[k + 1..k + most].iter().zip(p + 1..);
            let len = 1 + next.take_while(|(&q, r)| q == *r).count();
            let cells = &chunk[at..at + len];
            if nulls.nulls == 0 {
                f(k, cells);
            } else {
                let mut from = 0;
                for i in 0..=len {
                    if i == len || nulls.is_null(p + i) {
                        if from < i {
                            f(k + from, &cells[from..i]);
                        }
                        from = i + 1;
                    }
                }
            }
            k += len;
        }
    }

    /// Append `cells` to the tail, which becomes a shared full chunk each
    /// time it reaches `N` cells. Its capacity grows by doubling, up to `N`.
    fn extend(&mut self, cells: impl IntoIterator<Item = T>) {
        let mut cells = cells.into_iter();
        loop {
            let (had, room) = (self.tail.len(), N - self.tail.len());
            let want = cells.size_hint().0.clamp(1, room);
            if self.tail.capacity() - had < want {
                let grow = (had + want).max(2 * had).min(N);
                self.tail.reserve_exact(grow - had);
            }
            self.tail.extend(cells.by_ref().take(room));
            if self.tail.len() < N {
                return;
            }
            self.full.push(Arc::new(std::mem::take(&mut self.tail)));
        }
    }

    /// Append one cell, as [`Chunked::extend`] does.
    #[inline]
    fn push(&mut self, cell: T) {
        let had = self.tail.len();
        if had == self.tail.capacity() {
            self.tail.reserve_exact((had + 1).max(2 * had).min(N) - had);
        }
        self.tail.push(cell);
        if had + 1 == N {
            self.full.push(Arc::new(std::mem::take(&mut self.tail)));
        }
    }

    /// Make room in the tail for `n` more cells (as many as it can hold).
    fn reserve(&mut self, n: usize) {
        let had = self.tail.len();
        self.tail.reserve_exact(n.min(N - had));
    }

    /// The cell at `i`, its chunk made private first.
    fn get_mut(&mut self, i: usize) -> &mut T {
        match self.full.get_mut(i / N) {
            Some(chunk) => &mut own(chunk, |c| c.len() * size_of::<T>())[i % N],
            None => &mut self.tail[i % N],
        }
    }

    /// The cells whose `keep` flag is true, in new chunks.
    fn retained(&self, keep: &[bool]) -> Self {
        let cells = self.chunks().flat_map(|(_, chunk)| chunk);
        let kept = cells.zip(keep).filter(|(_, k)| **k);
        kept.map(|(cell, _)| cell.clone()).collect()
    }

    /// Heap bytes of the cells.
    fn heap_bytes(&self) -> usize {
        let full: usize = self.full.iter().map(|c| c.capacity()).sum();
        (full + self.tail.capacity()) * size_of::<T>()
    }

    /// Bytes a clone copies rather than shares: the list of full chunks and
    /// the tail.
    fn clone_bytes(&self) -> usize {
        self.full.len() * size_of::<Arc<Vec<T>>>() + self.tail.len() * size_of::<T>()
    }
}

impl<T: Clone, const N: usize> FromIterator<T> for Chunked<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(cells: I) -> Self {
        let mut out = Chunked::default();
        out.extend(cells);
        out
    }
}

impl<T: Clone, const N: usize> Index<usize> for Chunked<T, N> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.chunk(i / N)[i % N]
    }
}

/// One bit per row; a set bit marks the cell NULL. The words are chunked
/// like the cells: chunk `k` holds the bits of the column's chunk `k`.
#[derive(Debug, Clone, Default)]
pub(crate) struct NullBitmap {
    words: Chunked<u64, CHUNK_WORDS>,
    len: usize,
    nulls: usize,
}

impl NullBitmap {
    /// Append one bit per entry of `bits` (true = NULL).
    fn extend(&mut self, bits: impl ExactSizeIterator<Item = bool>) {
        let first = self.len;
        self.extend_valid(bits.len());
        for (i, null) in bits.enumerate() {
            if null {
                self.set(first + i, true);
            }
        }
    }

    /// Append one bit.
    #[inline]
    fn push(&mut self, null: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if null {
            self.set(self.len - 1, true);
        }
    }

    /// Append `n` non-NULL rows.
    fn extend_valid(&mut self, n: usize) {
        self.len += n;
        let words = self.len.div_ceil(64) - self.words.len();
        self.words.extend(std::iter::repeat_n(0, words));
    }

    /// Append the bits of `src` at `positions` (`None`: every bit).
    fn extend_selected(&mut self, src: &NullBitmap, positions: Option<&[usize]>) {
        match positions {
            _ if src.nulls == 0 => self.extend_valid(positions.map_or(src.len, <[usize]>::len)),
            Some(positions) => self.extend(positions.iter().map(|&p| src.is_null(p))),
            None => self.extend((0..src.len).map(|p| src.is_null(p))),
        }
    }

    /// Is row `i` NULL? A column without NULLs answers from the count, so
    /// scanning it never loads the bitmap words.
    #[inline]
    pub(crate) fn is_null(&self, i: usize) -> bool {
        self.nulls != 0 && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of NULL rows.
    pub(crate) fn null_count(&self) -> usize {
        self.nulls
    }

    fn set(&mut self, i: usize, null: bool) {
        if self.is_null(i) == null {
            return;
        }
        *self.words.get_mut(i / 64) ^= 1 << (i % 64);
        if null {
            self.nulls += 1;
        } else {
            self.nulls -= 1;
        }
    }

    /// Keep only rows whose `keep` flag is true, preserving order.
    fn retain(&mut self, keep: &[bool]) {
        let kept: Vec<usize> = (0..self.len).filter(|&i| keep[i]).collect();
        let mut out = NullBitmap::default();
        out.extend_selected(self, Some(&kept));
        *self = out;
    }
}

/// A TEXT column's strings in code order, and the code of each.
#[derive(Debug, Clone, Default)]
struct Dict {
    strings: Vec<String>,
    lookup: HashMap<String, u32>,
}

impl Dict {
    /// Heap bytes: each string header and payload, once in the vector and
    /// once as a lookup key, and the lookup's slots.
    fn bytes(&self) -> usize {
        let strings: usize = self.strings.iter().map(|s| 2 * (24 + s.capacity())).sum();
        strings + self.lookup.capacity() * (24 + 4)
    }
}

/// The code of `s` in `dict`, interned if new — the dictionary made private
/// first if another version shares it.
fn intern(dict: &mut Arc<Dict>, s: &str) -> u32 {
    if let Some(c) = dict.lookup.get(s) {
        return *c;
    }
    let dict = own(dict, Dict::bytes);
    let c = u32::try_from(dict.strings.len()).expect("dictionary overflow");
    dict.strings.push(s.to_string());
    dict.lookup.insert(s.to_string(), c);
    c
}

/// Dictionary-encoded TEXT column: `codes[i]` indexes into `dict`.
#[derive(Debug, Clone, Default)]
pub(crate) struct DictColumn {
    pub(crate) codes: Chunked<u32>,
    pub(crate) nulls: NullBitmap,
    dict: Arc<Dict>,
}

impl DictColumn {
    /// All dictionary entries in code order (may include dead entries after
    /// deletes).
    pub(crate) fn dict(&self) -> &[String] {
        &self.dict.strings
    }

    /// Code of `s` if it has ever been stored in this column.
    pub(crate) fn code_of(&self, s: &str) -> Option<u32> {
        self.dict.lookup.get(s).copied()
    }

    /// Append the cells of `src` at `positions`. When `src`'s dictionary is
    /// a prefix of this one, every string of `src` already sits at its own
    /// code here: codes are copied as they are (a NULL cell's as 0), and the
    /// dictionary does not change. Otherwise codes travel through a remap
    /// table filled as `src` codes are first met: a string is interned once
    /// per call, in row order, and entries of `src` that no selected row
    /// references never enter this dictionary. Both give the same codes.
    fn extend_selected(&mut self, src: &DictColumn, positions: &[usize]) {
        let cells = positions.iter().zip(src.codes.gather(positions));
        // A cell's code, or `None` when it is NULL.
        let cells = cells.map(|(&p, &code)| (!src.nulls.is_null(p)).then_some(code));
        if self.dict().starts_with(src.dict()) {
            self.codes.extend(cells.map(|code| code.unwrap_or(0)));
        } else {
            const UNMAPPED: u32 = u32::MAX;
            let mut remap = vec![UNMAPPED; src.dict().len()];
            let dict = &mut self.dict;
            self.codes.extend(cells.map(|code| {
                let Some(from) = code.map(|c| c as usize) else {
                    return 0;
                };
                if remap[from] == UNMAPPED {
                    remap[from] = intern(dict, &src.dict()[from]);
                }
                remap[from]
            }));
        }
        self.nulls.extend_selected(&src.nulls, Some(positions));
    }
}

/// One typed column plus its null bitmap.
#[derive(Debug, Clone)]
pub(crate) enum ColumnVec {
    Int {
        data: Chunked<i64>,
        nulls: NullBitmap,
    },
    Float {
        data: Chunked<f64>,
        nulls: NullBitmap,
    },
    Bool {
        data: Chunked<bool>,
        nulls: NullBitmap,
    },
    Timestamp {
        data: Chunked<i64>,
        nulls: NullBitmap,
    },
    Text(DictColumn),
}

impl ColumnVec {
    fn new(dtype: DataType) -> ColumnVec {
        let (data, nulls) = (Chunked::default(), NullBitmap::default());
        match dtype {
            DataType::Int => ColumnVec::Int { data, nulls },
            DataType::Timestamp => ColumnVec::Timestamp { data, nulls },
            DataType::Float => ColumnVec::Float {
                data: Chunked::default(),
                nulls,
            },
            DataType::Bool => ColumnVec::Bool {
                data: Chunked::default(),
                nulls,
            },
            DataType::Text => ColumnVec::Text(DictColumn::default()),
        }
    }

    /// Null bitmap of this column.
    pub(crate) fn nulls(&self) -> &NullBitmap {
        match self {
            ColumnVec::Int { nulls, .. }
            | ColumnVec::Float { nulls, .. }
            | ColumnVec::Bool { nulls, .. }
            | ColumnVec::Timestamp { nulls, .. } => nulls,
            ColumnVec::Text(d) => &d.nulls,
        }
    }

    /// The number in row `i` (BOOLEAN as 0/1). Caller must have checked
    /// `!is_null(i)`; a TEXT column has none.
    #[inline]
    pub(crate) fn num_at(&self, i: usize) -> Num {
        match self {
            ColumnVec::Int { data, .. } | ColumnVec::Timestamp { data, .. } => Num::Int(data[i]),
            ColumnVec::Float { data, .. } => Num::Float(data[i]),
            ColumnVec::Bool { data, .. } => Num::Int(i64::from(data[i])),
            ColumnVec::Text(_) => unreachable!("a TEXT cell is not a number"),
        }
    }

    /// Append `cell` when it is exactly this column's type's variant (TEXT
    /// interned); `false`, and nothing appended, when it is not.
    #[inline]
    fn push(&mut self, cell: ValueRef<'_>) -> bool {
        match (self, cell) {
            (ColumnVec::Int { data, nulls }, ValueRef::Int(x))
            | (ColumnVec::Timestamp { data, nulls }, ValueRef::Timestamp(x)) => {
                data.push(x);
                nulls.push(false);
            }
            (ColumnVec::Float { data, nulls }, ValueRef::Float(x)) => {
                data.push(x);
                nulls.push(false);
            }
            (ColumnVec::Bool { data, nulls }, ValueRef::Bool(x)) => {
                data.push(x);
                nulls.push(false);
            }
            (ColumnVec::Text(d), ValueRef::Text(s)) => {
                d.codes.push(intern(&mut d.dict, s));
                d.nulls.push(false);
            }
            _ => return false,
        }
        true
    }

    /// Append a NULL cell.
    fn push_null(&mut self) {
        match self {
            ColumnVec::Int { data, nulls } | ColumnVec::Timestamp { data, nulls } => {
                data.push(0);
                nulls.push(true);
            }
            ColumnVec::Float { data, nulls } => {
                data.push(0.0);
                nulls.push(true);
            }
            ColumnVec::Bool { data, nulls } => {
                data.push(false);
                nulls.push(true);
            }
            ColumnVec::Text(d) => {
                d.codes.push(0);
                d.nulls.push(true);
            }
        }
    }

    /// Make room for `n` more cells.
    fn reserve(&mut self, n: usize) {
        match self {
            ColumnVec::Int { data, .. } | ColumnVec::Timestamp { data, .. } => data.reserve(n),
            ColumnVec::Float { data, .. } => data.reserve(n),
            ColumnVec::Bool { data, .. } => data.reserve(n),
            ColumnVec::Text(d) => d.codes.reserve(n),
        }
    }

    /// Append the cells of `src` — a column of the same type — at
    /// `positions` (`None`: every cell, chunk by chunk), column to column.
    fn extend_selected(&mut self, src: &ColumnVec, positions: Option<&[usize]>) {
        fn copy<T: Clone>(
            (data, nulls): (&mut Chunked<T>, &mut NullBitmap),
            (src, src_nulls): (&Chunked<T>, &NullBitmap),
            positions: Option<&[usize]>,
        ) {
            match positions {
                Some(positions) => data.extend(src.gather(positions).cloned()),
                None => src
                    .chunks()
                    .for_each(|(_, chunk)| data.extend(chunk.iter().cloned())),
            }
            nulls.extend_selected(src_nulls, positions);
        }
        match (self, src) {
            (ColumnVec::Int { data, nulls }, ColumnVec::Int { data: s, nulls: sn })
            | (ColumnVec::Timestamp { data, nulls }, ColumnVec::Timestamp { data: s, nulls: sn }) => {
                copy((data, nulls), (s, sn), positions)
            }
            (ColumnVec::Float { data, nulls }, ColumnVec::Float { data: s, nulls: sn }) => {
                copy((data, nulls), (s, sn), positions)
            }
            (ColumnVec::Bool { data, nulls }, ColumnVec::Bool { data: s, nulls: sn }) => {
                copy((data, nulls), (s, sn), positions)
            }
            (ColumnVec::Text(d), ColumnVec::Text(s)) => match positions {
                Some(positions) => d.extend_selected(s, positions),
                None => d.extend_selected(s, &(0..s.codes.len()).collect::<Vec<_>>()),
            },
            (dst, src) => panic!("column of another type appended: {src:?} to {dst:?}"),
        }
    }

    /// Append `n` copies of `v`, NULL or exactly the column type's variant:
    /// TEXT is interned once, not once per row.
    fn extend_repeated(&mut self, v: &Value, n: usize) {
        fn fill<T: Clone>(data: &mut Chunked<T>, nulls: &mut NullBitmap, x: T, n: usize) {
            data.extend(std::iter::repeat_n(x, n));
            nulls.extend_valid(n);
        }
        match (self, v) {
            (col, Value::Null) => (0..n).for_each(|_| col.push_null()),
            (ColumnVec::Int { data, nulls }, Value::Int(x))
            | (ColumnVec::Timestamp { data, nulls }, Value::Timestamp(x)) => {
                fill(data, nulls, *x, n)
            }
            (ColumnVec::Float { data, nulls }, Value::Float(x)) => fill(data, nulls, *x, n),
            (ColumnVec::Bool { data, nulls }, Value::Bool(x)) => fill(data, nulls, *x, n),
            (ColumnVec::Text(d), Value::Text(s)) => {
                let code = intern(&mut d.dict, s);
                fill(&mut d.codes, &mut d.nulls, code, n);
            }
            (_, other) => panic!("column got a value of another type: {other:?}"),
        }
    }

    /// Reconstruct the [`Value`] of row `i` — exactly the variant that was
    /// stored (coercion already ran on the way in).
    pub(crate) fn value(&self, i: usize) -> Value {
        if self.nulls().is_null(i) {
            return Value::Null;
        }
        match self {
            ColumnVec::Int { data, .. } => Value::Int(data[i]),
            ColumnVec::Float { data, .. } => Value::Float(data[i]),
            ColumnVec::Bool { data, .. } => Value::Bool(data[i]),
            ColumnVec::Timestamp { data, .. } => Value::Timestamp(data[i]),
            ColumnVec::Text(d) => Value::Text(d.dict()[d.codes[i] as usize].clone()),
        }
    }

    /// Overwrite row `i` with `v`, NULL or exactly the column type's
    /// variant.
    fn set(&mut self, i: usize, v: Value) {
        match (self, v) {
            (ColumnVec::Text(d), Value::Null) => d.nulls.set(i, true),
            (ColumnVec::Text(d), Value::Text(s)) => {
                *d.codes.get_mut(i) = intern(&mut d.dict, &s);
                d.nulls.set(i, false);
            }
            (
                ColumnVec::Int { nulls, .. }
                | ColumnVec::Float { nulls, .. }
                | ColumnVec::Bool { nulls, .. }
                | ColumnVec::Timestamp { nulls, .. },
                Value::Null,
            ) => nulls.set(i, true),
            (ColumnVec::Int { data, nulls }, Value::Int(x))
            | (ColumnVec::Timestamp { data, nulls }, Value::Timestamp(x)) => {
                *data.get_mut(i) = x;
                nulls.set(i, false);
            }
            (ColumnVec::Float { data, nulls }, Value::Float(x)) => {
                *data.get_mut(i) = x;
                nulls.set(i, false);
            }
            (ColumnVec::Bool { data, nulls }, Value::Bool(x)) => {
                *data.get_mut(i) = x;
                nulls.set(i, false);
            }
            (_, other) => panic!("column got a value of another type: {other:?}"),
        }
    }

    fn retain(&mut self, keep: &[bool]) {
        match self {
            ColumnVec::Int { data, nulls } | ColumnVec::Timestamp { data, nulls } => {
                *data = data.retained(keep);
                nulls.retain(keep);
            }
            ColumnVec::Float { data, nulls } => {
                *data = data.retained(keep);
                nulls.retain(keep);
            }
            ColumnVec::Bool { data, nulls } => {
                *data = data.retained(keep);
                nulls.retain(keep);
            }
            ColumnVec::Text(d) => {
                d.codes = d.codes.retained(keep);
                d.nulls.retain(keep);
            }
        }
    }

    /// Heap bytes of the cells and null words, and the bytes a clone copies
    /// rather than shares: the lists of full chunks and the tails.
    fn bytes(&self) -> (usize, usize) {
        fn of<T: Clone>(data: &Chunked<T>, nulls: &NullBitmap) -> (usize, usize) {
            let words = &nulls.words;
            (
                data.heap_bytes() + words.heap_bytes(),
                data.clone_bytes() + words.clone_bytes(),
            )
        }
        match self {
            ColumnVec::Int { data, nulls } | ColumnVec::Timestamp { data, nulls } => {
                of(data, nulls)
            }
            ColumnVec::Float { data, nulls } => of(data, nulls),
            ColumnVec::Bool { data, nulls } => of(data, nulls),
            ColumnVec::Text(d) => of(&d.codes, &d.nulls),
        }
    }
}

/// Memory accounting for one table (see [`crate::Table::memory_footprint`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct TableMemory {
    /// Row count.
    pub rows: usize,
    /// Heap bytes of the table: typed cells, code cells, null bitmaps and
    /// dictionaries.
    pub bytes: usize,
    /// The part of `bytes` held by dictionary strings and their lookup maps.
    pub dict_bytes: usize,
    /// Total dictionary entries across all TEXT columns.
    pub dict_entries: usize,
}

/// Where one column of the rows [`crate::Table::append_selected`] appends
/// comes from.
#[derive(Debug, Clone, Copy)]
pub enum Cell<'a> {
    /// Column `i` of the source table, at the selected positions.
    Column(usize),
    /// One value, repeated for every selected position.
    Constant(&'a Value),
}

/// Backing store of one table. See the module docs for layout and
/// invariants.
#[derive(Debug, Clone)]
pub(crate) struct ColumnStore {
    cols: Vec<ColumnVec>,
    len: usize,
}

impl ColumnStore {
    pub(crate) fn new(schema: &Schema) -> ColumnStore {
        ColumnStore {
            cols: schema
                .columns
                .iter()
                .map(|c| ColumnVec::new(c.dtype))
                .collect(),
            len: 0,
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of columns.
    pub(crate) fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The typed column `i`.
    pub(crate) fn col(&self, i: usize) -> &ColumnVec {
        &self.cols[i]
    }

    /// An empty store under `schema` with room for `rows` rows.
    pub(crate) fn with_capacity(schema: &Schema, rows: usize) -> ColumnStore {
        let mut store = ColumnStore::new(schema);
        for col in &mut store.cols {
            col.reserve(rows);
        }
        store
    }

    /// Append `cell` to column `i` of the row being built, when it is exactly
    /// the column type's variant (`None` is NULL); `false`, and nothing
    /// appended, when it is not. [`ColumnStore::end_row`] counts the row
    /// once every column has its cell.
    #[inline]
    pub(crate) fn push(&mut self, i: usize, cell: Option<ValueRef<'_>>) -> bool {
        match cell {
            Some(cell) => self.cols[i].push(cell),
            None => {
                self.cols[i].push_null();
                true
            }
        }
    }

    /// Count the row whose cells were pushed.
    pub(crate) fn end_row(&mut self) {
        self.len += 1;
    }

    /// Append the rows of `batch`, a store under the same schema, column by
    /// column (TEXT through a code remap unless the dictionaries agree). An
    /// empty store takes the batch's columns as they are.
    pub(crate) fn append(&mut self, batch: ColumnStore) {
        if self.len == 0 {
            *self = batch;
            return;
        }
        for (col, src) in self.cols.iter_mut().zip(&batch.cols) {
            col.extend_selected(src, None);
        }
        self.len += batch.len;
    }

    /// Append `positions.len()` rows: column `i` takes what `cells[i]` names
    /// — the cells of a column of `src` at `positions`, or one already-coerced
    /// value repeated. The caller has checked that the types agree.
    pub(crate) fn append_selected(
        &mut self,
        src: &ColumnStore,
        positions: &[usize],
        cells: &[Cell<'_>],
    ) {
        debug_assert_eq!(cells.len(), self.cols.len());
        for (col, cell) in self.cols.iter_mut().zip(cells) {
            match cell {
                Cell::Column(i) => col.extend_selected(&src.cols[*i], Some(positions)),
                Cell::Constant(v) => col.extend_repeated(v, positions.len()),
            }
        }
        self.len += positions.len();
    }

    /// A store under `schema` whose column `k` is column `columns[k].1` of
    /// part `columns[k].0`'s store at that part's positions — every part as
    /// many positions, the parts' column types in `schema`'s order. Typed
    /// cells are copied by position (TEXT through a code remap); no row is
    /// built.
    pub(crate) fn gathered(
        schema: &Schema,
        parts: &[(&ColumnStore, &[usize])],
        columns: &[(usize, usize)],
    ) -> ColumnStore {
        let mut store = ColumnStore::new(schema);
        debug_assert_eq!(columns.len(), store.cols.len());
        for (target, &(part, col)) in store.cols.iter_mut().zip(columns) {
            let (src, positions) = parts[part];
            target.extend_selected(&src.cols[col], Some(positions));
        }
        store.len = parts.first().map_or(0, |(_, positions)| positions.len());
        store
    }

    /// Value of cell (`pos`, `col`).
    pub(crate) fn value(&self, pos: usize, col: usize) -> Value {
        self.cols[col].value(pos)
    }

    /// Materialize one full row.
    pub(crate) fn materialize_row(&self, pos: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.value(pos)).collect()
    }

    /// Materialize every row in position order.
    pub(crate) fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len).map(|p| self.materialize_row(p)).collect()
    }

    /// Overwrite cell (`pos`, `col`) with an already-coerced value.
    pub(crate) fn set(&mut self, pos: usize, col: usize, v: Value) {
        self.cols[col].set(pos, v);
    }

    /// Drop rows whose `keep` flag is false, preserving order. Dictionary
    /// entries are never collected; stored codes stay valid.
    pub(crate) fn retain(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len);
        for c in &mut self.cols {
            c.retain(keep);
        }
        self.len = keep.iter().filter(|k| **k).count();
    }

    /// Bytes a clone of this store copies rather than shares: the lists of
    /// full chunks and the tails of its columns and bitmaps.
    pub(crate) fn clone_bytes(&self) -> usize {
        self.cols.iter().map(|c| c.bytes().1).sum()
    }

    /// Memory accounting over every column.
    pub(crate) fn memory(&self) -> TableMemory {
        let mut m = TableMemory {
            rows: self.len,
            ..TableMemory::default()
        };
        for c in &self.cols {
            m.bytes += c.bytes().0;
            if let ColumnVec::Text(d) = c {
                m.dict_entries += d.dict().len();
                m.dict_bytes += d.dict.bytes();
            }
        }
        m.bytes += m.dict_bytes;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("fs", DataType::Text),
            Column::new("bw", DataType::Float),
            Column::new("ok", DataType::Bool),
            Column::new("at", DataType::Timestamp),
        ])
        .unwrap()
    }

    fn row(i: i64, fs: Option<&str>, bw: Option<f64>) -> Vec<Value> {
        vec![
            Value::Int(i),
            fs.map_or(Value::Null, |s| Value::Text(s.into())),
            bw.map_or(Value::Null, Value::Float),
            Value::Bool(i % 2 == 0),
            Value::Timestamp(1000 + i),
        ]
    }

    /// A batch of `rows`, every cell already its column's variant.
    fn store_of(rows: &[Vec<Value>]) -> ColumnStore {
        let mut st = ColumnStore::with_capacity(&schema(), rows.len());
        for row in rows {
            for (i, v) in row.iter().enumerate() {
                assert!(st.push(i, ValueRef::of(v)), "{v:?}");
            }
            st.end_row();
        }
        st
    }

    #[test]
    fn roundtrips_rows_byte_identically() {
        let rows = vec![
            row(1, Some("ufs"), Some(1.5)),
            row(2, None, None),
            row(3, Some("nfs"), Some(-0.0)),
            row(4, Some("ufs"), Some(f64::NAN)),
        ];
        let st = store_of(&rows);
        assert_eq!(st.len(), 4);
        let back = st.to_rows();
        for (a, b) in rows.iter().zip(&back) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                // Bit-exact on floats (PartialEq equates NaNs but not -0.0/0.0
                // signs; check bits directly).
                match (x, y) {
                    (Value::Float(f), Value::Float(g)) => {
                        assert_eq!(f.to_bits(), g.to_bits());
                    }
                    _ => assert_eq!(x, y),
                }
            }
        }
    }

    #[test]
    fn dictionary_interns_and_reuses_codes() {
        let rows: Vec<_> = (0..100)
            .map(|i| row(i, Some(if i % 2 == 0 { "ufs" } else { "nfs" }), None))
            .collect();
        let st = store_of(&rows);
        let ColumnVec::Text(d) = st.col(1) else {
            panic!("not a dict column");
        };
        assert_eq!(d.dict(), ["ufs".to_string(), "nfs".to_string()]);
        assert_eq!(d.code_of("ufs"), Some(0));
        assert_eq!(d.code_of("nfs"), Some(1));
        assert_eq!(d.code_of("pvfs"), None);
        assert_eq!(d.nulls.null_count(), 0);
    }

    #[test]
    fn retain_keeps_order_and_null_bits() {
        let rows: Vec<_> = (0..10)
            .map(|i| row(i, if i % 3 == 0 { None } else { Some("x") }, Some(i as f64)))
            .collect();
        let mut st = store_of(&rows);
        let keep: Vec<bool> = (0..10).map(|i| i % 2 == 1).collect();
        st.retain(&keep);
        assert_eq!(st.len(), 5);
        let back = st.to_rows();
        let ids: Vec<i64> = back.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![1, 3, 5, 7, 9]);
        assert_eq!(back[1][1], Value::Null); // row id=3: 3 % 3 == 0
        assert_eq!(back[0][1], Value::Text("x".into()));
    }

    #[test]
    fn set_row_updates_cells_and_interns_new_text() {
        let mut st = store_of(&[
            row(1, Some("ufs"), Some(1.0)),
            row(2, Some("nfs"), Some(2.0)),
        ]);
        st.set(0, 1, Value::Text("pvfs".into()));
        st.set(0, 2, Value::Null);
        assert_eq!(st.value(0, 1), Value::Text("pvfs".into()));
        assert_eq!(st.value(0, 2), Value::Null);
        assert_eq!(st.value(1, 1), Value::Text("nfs".into()));
        let ColumnVec::Text(d) = st.col(1) else {
            panic!()
        };
        assert_eq!(d.dict().len(), 3);
    }

    #[test]
    fn memory_accounts_dictionary() {
        let rows: Vec<_> = (0..50).map(|i| row(i, Some("ufs"), Some(0.0))).collect();
        let m = store_of(&rows).memory();
        assert_eq!(m.rows, 50);
        assert_eq!(m.dict_entries, 1);
        assert!(m.dict_bytes > 0 && m.bytes > m.dict_bytes);
    }

    // ---- chunk edges ------------------------------------------------------

    /// Rows `0..n`: NULL text every 5th row, NULL float every 7th, so NULL
    /// bits sit on both sides of every chunk and word boundary.
    fn edge_rows(n: usize) -> Vec<Vec<Value>> {
        (0..n as i64)
            .map(|i| {
                let fs = (i % 5 != 0).then(|| ["a", "b", "c"][i as usize % 3]);
                row(i, fs, (i % 7 != 0).then_some(i as f64))
            })
            .collect()
    }

    /// Sizes on either side of one and two chunk boundaries.
    const EDGES: [usize; 7] = [
        1,
        CHUNK_ROWS - 1,
        CHUNK_ROWS,
        CHUNK_ROWS + 1,
        2 * CHUNK_ROWS - 1,
        2 * CHUNK_ROWS,
        2 * CHUNK_ROWS + 7,
    ];

    /// Every column and bitmap is full chunks and a shorter tail.
    fn assert_chunk_shape(st: &ColumnStore) {
        fn shape<T: Clone, const N: usize>(c: &Chunked<T, N>, len: usize) {
            assert_eq!(c.len(), len);
            assert!(c.full.iter().all(|chunk| chunk.len() == N));
            assert!(c.tail.len() < N && c.tail.capacity() <= N);
        }
        for col in &st.cols {
            let nulls = match col {
                ColumnVec::Int { data, nulls } | ColumnVec::Timestamp { data, nulls } => {
                    shape(data, st.len());
                    nulls
                }
                ColumnVec::Float { data, nulls } => {
                    shape(data, st.len());
                    nulls
                }
                ColumnVec::Bool { data, nulls } => {
                    shape(data, st.len());
                    nulls
                }
                ColumnVec::Text(d) => {
                    shape(&d.codes, st.len());
                    &d.nulls
                }
            };
            shape(&nulls.words, st.len().div_ceil(64));
        }
    }

    /// Which full chunks `a` and `b` share.
    fn shared<T, const N: usize>(a: &Chunked<T, N>, b: &Chunked<T, N>) -> Vec<bool> {
        let pairs = a.full.iter().zip(&b.full);
        pairs.map(|(a, b)| Arc::ptr_eq(a, b)).collect()
    }

    #[test]
    fn appends_across_chunk_edges_keep_cells_and_null_bits() {
        for first in EDGES {
            for second in [1, 250, CHUNK_ROWS + 1] {
                let rows = edge_rows(first + second);
                let mut st = store_of(&rows[..first]);
                let pinned = st.clone();
                st.append(store_of(&rows[first..]));
                assert_chunk_shape(&st);
                assert_eq!(st.to_rows(), rows, "{first} + {second}");
                assert_eq!(pinned.to_rows(), rows[..first], "the clone moved");
                let nulls = rows.iter().filter(|r| r[2].is_null()).count();
                assert_eq!(st.col(2).nulls().null_count(), nulls);
            }
        }
    }

    #[test]
    fn set_across_chunk_edges_copies_only_the_chunks_it_writes() {
        let rows = edge_rows(2 * CHUNK_ROWS + 7);
        let st = store_of(&rows);
        // Rows whose FLOAT cell is not NULL yet.
        for at in [1, CHUNK_ROWS - 2, CHUNK_ROWS, 2 * CHUNK_ROWS + 6] {
            let mut copy = st.clone();
            copy.set(at, 1, Value::Text("new".into()));
            copy.set(at, 2, Value::Null);
            copy.set(at, 3, Value::Null);
            let mut want = rows.clone();
            want[at][1] = Value::Text("new".into());
            want[at][2] = Value::Null;
            want[at][3] = Value::Null;
            assert_eq!(copy.to_rows(), want, "set at {at}");
            assert_eq!(st.to_rows(), rows, "the original moved");
            // Only the written chunk of the codes and of the FLOAT column's
            // null words stopped being shared (the tail is the clone's
            // own); the FLOAT cells did not change.
            let only = |k: usize| (0..2).map(|c| c != k).collect::<Vec<_>>();
            let (ColumnVec::Text(d), ColumnVec::Text(o)) = (copy.col(1), st.col(1)) else {
                panic!()
            };
            assert_eq!(shared(&d.codes, &o.codes), only(at / CHUNK_ROWS), "{at}");
            let (
                ColumnVec::Float { data, nulls },
                ColumnVec::Float {
                    data: od,
                    nulls: on,
                },
            ) = (copy.col(2), st.col(2))
            else {
                panic!()
            };
            assert_eq!(shared(&nulls.words, &on.words), only(at / CHUNK_ROWS));
            assert_eq!(shared(data, od), [true; 2]);
        }
    }

    #[test]
    fn retain_across_chunk_edges_rebuilds_full_chunks() {
        let rows = edge_rows(2 * CHUNK_ROWS + 7);
        for cut in [0..1, CHUNK_ROWS - 1..CHUNK_ROWS + 1, 100..CHUNK_ROWS + 200] {
            let mut st = store_of(&rows);
            let keep: Vec<bool> = (0..rows.len()).map(|i| !cut.contains(&i)).collect();
            st.retain(&keep);
            assert_chunk_shape(&st);
            let want: Vec<_> = rows
                .iter()
                .zip(&keep)
                .filter(|(_, k)| **k)
                .map(|(r, _)| r.clone())
                .collect();
            assert_eq!(st.to_rows(), want, "cut {cut:?}");
        }
    }

    #[test]
    fn extend_selected_and_repeated_across_chunk_edges() {
        let rows = edge_rows(2 * CHUNK_ROWS + 7);
        let src = store_of(&rows);
        // Descending positions across every boundary, and an ascending run.
        let positions: Vec<usize> = (0..rows.len())
            .rev()
            .step_by(3)
            .chain(CHUNK_ROWS - 2..CHUNK_ROWS + 2)
            .collect();
        for prefix in [0, CHUNK_ROWS - 1] {
            let mut st = store_of(&rows[..prefix]);
            let text = Value::Text("const".into());
            let cells = [
                Cell::Column(0),
                Cell::Constant(&text),
                Cell::Column(2),
                Cell::Constant(&Value::Null),
                Cell::Column(4),
            ];
            st.append_selected(&src, &positions, &cells);
            assert_chunk_shape(&st);
            let mut want = rows[..prefix].to_vec();
            want.extend(positions.iter().map(|&p| {
                let r = &rows[p];
                vec![
                    r[0].clone(),
                    text.clone(),
                    r[2].clone(),
                    Value::Null,
                    r[4].clone(),
                ]
            }));
            assert_eq!(st.to_rows(), want, "prefix {prefix}");
            // The gathered TEXT column remaps codes into its own dictionary.
            let every: Vec<(usize, usize)> = (0..5).map(|c| (0, c)).collect();
            let gathered = ColumnStore::gathered(&schema(), &[(&src, &positions)], &every);
            let want: Vec<_> = positions.iter().map(|&p| rows[p].clone()).collect();
            assert_eq!(gathered.to_rows(), want);
        }
    }

    #[test]
    fn a_clone_shares_full_chunks_and_copies_a_dictionary_only_to_grow_it() {
        let rows = edge_rows(2 * CHUNK_ROWS + 7);
        let mut st = store_of(&rows);
        let pinned = st.clone();
        st.append(store_of(&edge_rows(3)));
        let (ColumnVec::Text(d), ColumnVec::Text(p)) = (st.col(1), pinned.col(1)) else {
            panic!()
        };
        assert!(Arc::ptr_eq(&d.dict, &p.dict), "no new string, no copy");
        assert_eq!(shared(&d.codes, &p.codes), [true, true]);
        assert_eq!(
            st.clone_bytes(),
            pinned.clone_bytes() + 3 * (8 + 4 + 8 + 1 + 8)
        );
        st.append(store_of(&[row(9, Some("fresh"), None)]));
        let ColumnVec::Text(d) = st.col(1) else {
            panic!()
        };
        assert!(!Arc::ptr_eq(&d.dict, &p.dict));
        assert_eq!(p.code_of("fresh"), None);
        assert_eq!(pinned.to_rows(), rows);
    }
}
