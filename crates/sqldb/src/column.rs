//! Table storage: per-column typed vectors, dictionary-encoded strings and
//! null bitmaps.
//!
//! A [`ColumnStore`] is the one storage of a [`crate::Table`]: its rows,
//! decomposed into one typed vector per schema column:
//!
//! * `INTEGER`/`TIMESTAMP` → `Vec<i64>`, `FLOAT` → `Vec<f64>`,
//!   `BOOLEAN` → `Vec<bool>`;
//! * `TEXT` → dictionary encoding: a `Vec<u32>` of codes into an
//!   insertion-ordered string dictionary (low-cardinality run metadata like
//!   filesystem names collapses to a handful of entries);
//! * NULLs → a bitmap per column (bit set = NULL); the data slot of a NULL
//!   cell holds the type's default and must never be interpreted.
//!
//! Invariants relied on by the execution paths in `exec`:
//!
//! * **Variant purity** — every non-NULL cell of a column is exactly the
//!   declared type's [`Value`] variant. [`Value::coerce`] enforces this on
//!   every insert/update path, so typed vectors need no per-cell tags.
//! * **Dictionary codes are dense and stable** — `codes[i] < dict.len()`
//!   always; entries are append-only, so deletes and updates may leave
//!   unreferenced (dead) entries behind but never invalidate a stored code.
//! * **Positions are row numbers** — position `p` in every column vector and
//!   bitmap refers to the same logical row, and stays valid until the next
//!   mutation of the table.

use crate::schema::Schema;
use crate::value::{DataType, Value};
use std::collections::HashMap;

/// One bit per row; a set bit marks the cell NULL.
#[derive(Debug, Clone, Default)]
pub(crate) struct NullBitmap {
    words: Vec<u64>,
    len: usize,
    nulls: usize,
}

impl NullBitmap {
    fn push(&mut self, is_null: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if w == self.words.len() {
            self.words.push(0);
        }
        if is_null {
            self.words[w] |= 1 << b;
            self.nulls += 1;
        }
        self.len += 1;
    }

    /// Append `n` non-NULL rows.
    fn extend_valid(&mut self, n: usize) {
        self.len += n;
        self.words.resize(self.len.div_ceil(64), 0);
    }

    /// Append the bits of `src` at `positions`.
    fn extend_selected(&mut self, src: &NullBitmap, positions: &[usize]) {
        if src.nulls == 0 {
            self.extend_valid(positions.len());
        } else {
            positions.iter().for_each(|&p| self.push(src.is_null(p)));
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
        let was = self.is_null(i);
        if was == null {
            return;
        }
        self.words[i / 64] ^= 1 << (i % 64);
        if null {
            self.nulls += 1;
        } else {
            self.nulls -= 1;
        }
    }

    /// Keep only rows whose `keep` flag is true, preserving order.
    fn retain(&mut self, keep: &[bool]) {
        let mut out = NullBitmap::default();
        for (i, k) in keep.iter().enumerate() {
            if *k {
                out.push(self.is_null(i));
            }
        }
        *self = out;
    }

    fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

/// Dictionary-encoded TEXT column: `codes[i]` indexes into `dict`.
#[derive(Debug, Clone, Default)]
pub(crate) struct DictColumn {
    pub(crate) codes: Vec<u32>,
    pub(crate) nulls: NullBitmap,
    dict: Vec<String>,
    lookup: HashMap<String, u32>,
}

impl DictColumn {
    /// All dictionary entries in code order (may include dead entries after
    /// deletes).
    pub(crate) fn dict(&self) -> &[String] {
        &self.dict
    }

    /// Code of `s` if it has ever been stored in this column.
    pub(crate) fn code_of(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(c) = self.lookup.get(s) {
            return *c;
        }
        let c = u32::try_from(self.dict.len()).expect("dictionary overflow");
        self.dict.push(s.to_string());
        self.lookup.insert(s.to_string(), c);
        c
    }

    fn push(&mut self, v: &Value) {
        match v {
            Value::Null => {
                self.codes.push(0);
                self.nulls.push(true);
            }
            Value::Text(s) => {
                let c = self.intern(s);
                self.codes.push(c);
                self.nulls.push(false);
            }
            other => panic!("TEXT column got non-text value {other:?}"),
        }
    }

    /// Append the cells of `src` at `positions`. The two dictionaries differ,
    /// so codes travel through a remap table filled as `src` codes are first
    /// met: a string is interned once per call, in row order, and entries of
    /// `src` that no selected row references never enter this dictionary.
    fn extend_selected(&mut self, src: &DictColumn, positions: &[usize]) {
        const UNMAPPED: u32 = u32::MAX;
        let mut remap = vec![UNMAPPED; src.dict.len()];
        self.codes.reserve(positions.len());
        for &p in positions {
            let code = if src.nulls.is_null(p) {
                0
            } else {
                let from = src.codes[p] as usize;
                if remap[from] == UNMAPPED {
                    remap[from] = self.intern(&src.dict[from]);
                }
                remap[from]
            };
            self.codes.push(code);
        }
        self.nulls.extend_selected(&src.nulls, positions);
    }
}

/// One typed column vector plus its null bitmap.
#[derive(Debug, Clone)]
pub(crate) enum ColumnVec {
    Int { data: Vec<i64>, nulls: NullBitmap },
    Float { data: Vec<f64>, nulls: NullBitmap },
    Bool { data: Vec<bool>, nulls: NullBitmap },
    Timestamp { data: Vec<i64>, nulls: NullBitmap },
    Text(DictColumn),
}

impl ColumnVec {
    fn new(dtype: DataType) -> ColumnVec {
        match dtype {
            DataType::Int => ColumnVec::Int {
                data: Vec::new(),
                nulls: NullBitmap::default(),
            },
            DataType::Float => ColumnVec::Float {
                data: Vec::new(),
                nulls: NullBitmap::default(),
            },
            DataType::Bool => ColumnVec::Bool {
                data: Vec::new(),
                nulls: NullBitmap::default(),
            },
            DataType::Timestamp => ColumnVec::Timestamp {
                data: Vec::new(),
                nulls: NullBitmap::default(),
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

    /// Numeric image of row `i` under the engine's `as_f64` coercion.
    /// Caller must have checked `!is_null(i)`; meaningless for TEXT.
    #[inline]
    pub(crate) fn f64_at(&self, i: usize) -> f64 {
        match self {
            ColumnVec::Int { data, .. } | ColumnVec::Timestamp { data, .. } => data[i] as f64,
            ColumnVec::Float { data, .. } => data[i],
            ColumnVec::Bool { data, .. } => f64::from(data[i]),
            ColumnVec::Text(_) => f64::NAN,
        }
    }

    fn push(&mut self, v: &Value) {
        match self {
            ColumnVec::Int { data, nulls } => match v {
                Value::Null => {
                    data.push(0);
                    nulls.push(true);
                }
                Value::Int(i) => {
                    data.push(*i);
                    nulls.push(false);
                }
                other => panic!("INTEGER column got {other:?}"),
            },
            ColumnVec::Float { data, nulls } => match v {
                Value::Null => {
                    data.push(0.0);
                    nulls.push(true);
                }
                Value::Float(f) => {
                    data.push(*f);
                    nulls.push(false);
                }
                other => panic!("FLOAT column got {other:?}"),
            },
            ColumnVec::Bool { data, nulls } => match v {
                Value::Null => {
                    data.push(false);
                    nulls.push(true);
                }
                Value::Bool(b) => {
                    data.push(*b);
                    nulls.push(false);
                }
                other => panic!("BOOLEAN column got {other:?}"),
            },
            ColumnVec::Timestamp { data, nulls } => match v {
                Value::Null => {
                    data.push(0);
                    nulls.push(true);
                }
                Value::Timestamp(t) => {
                    data.push(*t);
                    nulls.push(false);
                }
                other => panic!("TIMESTAMP column got {other:?}"),
            },
            ColumnVec::Text(d) => d.push(v),
        }
    }

    /// Append the cells of `src` — a column of the same type — at
    /// `positions`, vector to vector.
    fn extend_selected(&mut self, src: &ColumnVec, positions: &[usize]) {
        fn gather<T: Copy>(
            (data, nulls): (&mut Vec<T>, &mut NullBitmap),
            (src, src_nulls): (&[T], &NullBitmap),
            positions: &[usize],
        ) {
            data.extend(positions.iter().map(|&p| src[p]));
            nulls.extend_selected(src_nulls, positions);
        }
        match (self, src) {
            (ColumnVec::Int { data, nulls }, ColumnVec::Int { data: s, nulls: sn })
            | (ColumnVec::Timestamp { data, nulls }, ColumnVec::Timestamp { data: s, nulls: sn }) => {
                gather((data, nulls), (s, sn), positions)
            }
            (ColumnVec::Float { data, nulls }, ColumnVec::Float { data: s, nulls: sn }) => {
                gather((data, nulls), (s, sn), positions)
            }
            (ColumnVec::Bool { data, nulls }, ColumnVec::Bool { data: s, nulls: sn }) => {
                gather((data, nulls), (s, sn), positions)
            }
            (ColumnVec::Text(d), ColumnVec::Text(s)) => d.extend_selected(s, positions),
            (dst, src) => panic!("column of another type appended: {src:?} to {dst:?}"),
        }
    }

    /// Append `n` copies of the already-coerced `v` (same contract as
    /// [`ColumnVec::push`]): TEXT is interned once, not once per row.
    fn extend_repeated(&mut self, v: &Value, n: usize) {
        match (self, v) {
            (col, Value::Null) => (0..n).for_each(|_| col.push(&Value::Null)),
            (ColumnVec::Int { data, nulls }, Value::Int(x))
            | (ColumnVec::Timestamp { data, nulls }, Value::Timestamp(x)) => {
                data.resize(data.len() + n, *x);
                nulls.extend_valid(n);
            }
            (ColumnVec::Float { data, nulls }, Value::Float(x)) => {
                data.resize(data.len() + n, *x);
                nulls.extend_valid(n);
            }
            (ColumnVec::Bool { data, nulls }, Value::Bool(x)) => {
                data.resize(data.len() + n, *x);
                nulls.extend_valid(n);
            }
            (ColumnVec::Text(d), Value::Text(s)) => {
                let code = d.intern(s);
                d.codes.resize(d.codes.len() + n, code);
                d.nulls.extend_valid(n);
            }
            (_, other) => panic!("column got a value of another type: {other:?}"),
        }
    }

    /// Reconstruct the [`Value`] of row `i` — exactly the variant that was
    /// stored (coercion already ran on the way in).
    pub(crate) fn value(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Int(data[i])
                }
            }
            ColumnVec::Float { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Float(data[i])
                }
            }
            ColumnVec::Bool { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Bool(data[i])
                }
            }
            ColumnVec::Timestamp { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Timestamp(data[i])
                }
            }
            ColumnVec::Text(d) => {
                if d.nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Text(d.dict[d.codes[i] as usize].clone())
                }
            }
        }
    }

    /// Overwrite row `i` with the already-coerced `v` (same contract as
    /// [`ColumnVec::push`]).
    fn set(&mut self, i: usize, v: Value) {
        match (self, v) {
            (ColumnVec::Text(d), Value::Null) => d.nulls.set(i, true),
            (ColumnVec::Text(d), Value::Text(s)) => {
                d.codes[i] = d.intern(&s);
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
                data[i] = x;
                nulls.set(i, false);
            }
            (ColumnVec::Float { data, nulls }, Value::Float(x)) => {
                data[i] = x;
                nulls.set(i, false);
            }
            (ColumnVec::Bool { data, nulls }, Value::Bool(x)) => {
                data[i] = x;
                nulls.set(i, false);
            }
            (_, other) => panic!("column got a value of another type: {other:?}"),
        }
    }

    fn retain(&mut self, keep: &[bool]) {
        let mut i = 0;
        let mut pred = move |_: &_| {
            let k = keep[i];
            i += 1;
            k
        };
        match self {
            ColumnVec::Int { data, nulls } | ColumnVec::Timestamp { data, nulls } => {
                data.retain(|v| pred(&(*v as f64)));
                nulls.retain(keep);
            }
            ColumnVec::Float { data, nulls } => {
                data.retain(|v| pred(v));
                nulls.retain(keep);
            }
            ColumnVec::Bool { data, nulls } => {
                data.retain(|v| pred(&f64::from(*v)));
                nulls.retain(keep);
            }
            ColumnVec::Text(d) => {
                d.codes.retain(|c| pred(&(*c as f64)));
                d.nulls.retain(keep);
            }
        }
    }

    fn data_bytes(&self) -> usize {
        match self {
            ColumnVec::Int { data, nulls } | ColumnVec::Timestamp { data, nulls } => {
                data.capacity() * 8 + nulls.heap_bytes()
            }
            ColumnVec::Float { data, nulls } => data.capacity() * 8 + nulls.heap_bytes(),
            ColumnVec::Bool { data, nulls } => data.capacity() + nulls.heap_bytes(),
            ColumnVec::Text(d) => d.codes.capacity() * 4 + d.nulls.heap_bytes(),
        }
    }
}

/// Memory accounting for one table (see [`crate::Table::memory_footprint`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct TableMemory {
    /// Row count.
    pub rows: usize,
    /// Heap bytes of the table: typed vectors, code vectors, null bitmaps
    /// and dictionaries.
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

    /// The typed vector of column `i`.
    pub(crate) fn col(&self, i: usize) -> &ColumnVec {
        &self.cols[i]
    }

    /// Append one already-validated (coerced) row.
    pub(crate) fn push_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (c, v) in self.cols.iter_mut().zip(row) {
            c.push(v);
        }
        self.len += 1;
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
                Cell::Column(i) => col.extend_selected(&src.cols[*i], positions),
                Cell::Constant(v) => col.extend_repeated(v, positions.len()),
            }
        }
        self.len += positions.len();
    }

    /// A store under `schema` holding, side by side, the columns of each
    /// part's store at that part's positions — every part as many positions,
    /// the parts' column types in `schema`'s order. Typed vectors are copied
    /// by position (TEXT through a code remap); no row is built.
    pub(crate) fn gathered(schema: &Schema, parts: &[(&ColumnStore, &[usize])]) -> ColumnStore {
        let mut store = ColumnStore::new(schema);
        let sources = parts
            .iter()
            .flat_map(|(src, positions)| src.cols.iter().map(move |col| (col, *positions)));
        debug_assert_eq!(sources.clone().count(), store.cols.len());
        for (target, (col, positions)) in store.cols.iter_mut().zip(sources) {
            target.extend_selected(col, positions);
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

    /// Memory accounting over every column.
    pub(crate) fn memory(&self) -> TableMemory {
        let mut m = TableMemory {
            rows: self.len,
            ..TableMemory::default()
        };
        for c in &self.cols {
            m.bytes += c.data_bytes();
            if let ColumnVec::Text(d) = c {
                m.dict_entries += d.dict.len();
                for s in &d.dict {
                    // String header + payload, once in the dict vec and once
                    // as a lookup key.
                    m.dict_bytes += 2 * (24 + s.capacity());
                }
                m.dict_bytes += d.lookup.capacity() * (24 + 4);
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

    #[test]
    fn roundtrips_rows_byte_identically() {
        let s = schema();
        let mut st = ColumnStore::new(&s);
        let rows = vec![
            row(1, Some("ufs"), Some(1.5)),
            row(2, None, None),
            row(3, Some("nfs"), Some(-0.0)),
            row(4, Some("ufs"), Some(f64::NAN)),
        ];
        for r in &rows {
            st.push_row(r);
        }
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
        let s = schema();
        let mut st = ColumnStore::new(&s);
        for i in 0..100 {
            st.push_row(&row(i, Some(if i % 2 == 0 { "ufs" } else { "nfs" }), None));
        }
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
        let s = schema();
        let mut st = ColumnStore::new(&s);
        for i in 0..10 {
            st.push_row(&row(
                i,
                if i % 3 == 0 { None } else { Some("x") },
                Some(i as f64),
            ));
        }
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
        let s = schema();
        let mut st = ColumnStore::new(&s);
        st.push_row(&row(1, Some("ufs"), Some(1.0)));
        st.push_row(&row(2, Some("nfs"), Some(2.0)));
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
        let s = schema();
        let mut st = ColumnStore::new(&s);
        for i in 0..50 {
            st.push_row(&row(i, Some("ufs"), Some(0.0)));
        }
        let m = st.memory();
        assert_eq!(m.rows, 50);
        assert_eq!(m.dict_entries, 1);
        assert!(m.dict_bytes > 0 && m.bytes > m.dict_bytes);
    }
}
