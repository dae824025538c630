//! In-memory table storage with optional secondary indexes (hash or
//! ordered).
//!
//! Every [`Table`] stores its rows one way: a [`ColumnStore`] (typed vectors,
//! dictionary-encoded strings, null bitmaps — see [`crate::column`]). Rows
//! are addressed by position; the executor reads cells and whole rows
//! through `Table::store`, and mutations take the positions a selection
//! step produced ([`Table::update_positions`], [`Table::delete_positions`]).

use crate::column::{Cell, ColumnStore, TableMemory};
use crate::error::DbError;
use crate::schema::{Column, Schema};
use crate::value::{Value, ValueKey};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// A row is a vector of values, one per schema column.
pub type Row = Vec<Value>;

/// Backing store of one secondary index: equality key → row positions.
///
/// `Hash` serves point probes in O(1); `Ordered` keeps keys sorted under
/// [`ValueKey`]'s total order so it additionally serves range scans. Both
/// keep each position vector sorted ascending (insertion appends the
/// largest position; incremental maintenance preserves relative order), so
/// index results come back in row-storage order like a scan would.
#[derive(Debug, Clone)]
enum IndexStore {
    Hash(HashMap<ValueKey, Vec<usize>>),
    Ordered(BTreeMap<ValueKey, Vec<usize>>),
}

impl IndexStore {
    /// Build from per-row keys in position order.
    fn build(ordered: bool, keys: impl Iterator<Item = ValueKey>) -> Self {
        if ordered {
            let mut map: BTreeMap<ValueKey, Vec<usize>> = BTreeMap::new();
            for (i, key) in keys.enumerate() {
                if !key.is_null() {
                    map.entry(key).or_default().push(i);
                }
            }
            IndexStore::Ordered(map)
        } else {
            let mut map: HashMap<ValueKey, Vec<usize>> = HashMap::new();
            for (i, key) in keys.enumerate() {
                if !key.is_null() {
                    map.entry(key).or_default().push(i);
                }
            }
            IndexStore::Hash(map)
        }
    }

    fn get(&self, key: &ValueKey) -> Option<&Vec<usize>> {
        match self {
            IndexStore::Hash(m) => m.get(key),
            IndexStore::Ordered(m) => m.get(key),
        }
    }

    fn distinct_keys(&self) -> usize {
        match self {
            IndexStore::Hash(m) => m.len(),
            IndexStore::Ordered(m) => m.len(),
        }
    }

    fn push(&mut self, key: ValueKey, pos: usize) {
        match self {
            IndexStore::Hash(m) => m.entry(key).or_default().push(pos),
            IndexStore::Ordered(m) => m.entry(key).or_default().push(pos),
        }
    }

    /// Apply the delete remap table: position `p` survives as `new_of[p]`,
    /// or vanished when `new_of[p] == usize::MAX`. Relative order of the
    /// survivors is unchanged, so sorted position vectors stay sorted.
    fn remap_positions(&mut self, new_of: &[usize]) {
        let fix = |v: &mut Vec<usize>| {
            v.retain_mut(|p| {
                let n = new_of[*p];
                *p = n;
                n != usize::MAX
            });
            !v.is_empty()
        };
        match self {
            IndexStore::Hash(m) => m.retain(|_, v| fix(v)),
            IndexStore::Ordered(m) => m.retain(|_, v| fix(v)),
        }
    }

    /// Move one row position from `old` to `new` after an in-place update
    /// rewrote the indexed column. NULL keys are never stored.
    fn move_position(&mut self, old: &ValueKey, new: ValueKey, pos: usize) {
        if !old.is_null() {
            let emptied = match self {
                IndexStore::Hash(m) => m.get_mut(old),
                IndexStore::Ordered(m) => m.get_mut(old),
            }
            .map(|v| {
                if let Ok(i) = v.binary_search(&pos) {
                    v.remove(i);
                }
                v.is_empty()
            });
            if emptied == Some(true) {
                match self {
                    IndexStore::Hash(m) => {
                        m.remove(old);
                    }
                    IndexStore::Ordered(m) => {
                        m.remove(old);
                    }
                }
            }
        }
        if !new.is_null() {
            let v = match self {
                IndexStore::Hash(m) => m.entry(new).or_default(),
                IndexStore::Ordered(m) => m.entry(new).or_default(),
            };
            if let Err(i) = v.binary_search(&pos) {
                v.insert(i, pos);
            }
        }
    }
}

/// A secondary index over one column.
///
/// NULL keys are not indexed — SQL `=` never matches NULL, and every SQL
/// comparison against NULL is false, so neither a point probe nor a range
/// probe can ever want them.
#[derive(Debug, Clone)]
struct Index {
    name: String,
    column: usize,
    store: IndexStore,
}

impl Index {
    fn is_ordered(&self) -> bool {
        matches!(self.store, IndexStore::Ordered(_))
    }
}

/// The one gate every stored value passes (INSERT and UPDATE alike): reject
/// NULL in a NOT NULL column and coerce `v`, in place, to exactly the
/// column type's variant — the purity the typed vectors rely on.
fn check_cell(col: &Column, v: &mut Value) -> Result<(), DbError> {
    if v.is_null() && !col.nullable {
        return Err(DbError::Type(format!("column '{}' is NOT NULL", col.name)));
    }
    let coerced = std::mem::replace(v, Value::Null).coerce(col.dtype);
    *v = coerced.map_err(DbError::Type)?;
    Ok(())
}

/// An in-memory table: a schema, the column store holding its rows, and
/// secondary indexes.
///
/// Tables are stored behind `RwLock`s in the [`crate::Engine`] catalog; the
/// table itself is a plain data structure.
#[derive(Debug, Clone)]
pub struct Table {
    /// Column definitions.
    pub schema: Schema,
    store: ColumnStore,
    indexes: Vec<Index>,
    /// The commit epoch that published this version in an engine catalog
    /// (0 outside one). The engine stamps it wherever a version becomes
    /// current — create, install, every copy-on-write mutation, the commit
    /// swap — so a transaction can tell "current at my BEGIN" from "published
    /// since" without having pinned anything at BEGIN.
    pub(crate) published: u64,
}

impl Table {
    /// Empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let store = ColumnStore::new(&schema);
        Table {
            schema,
            store,
            indexes: Vec::new(),
            published: 0,
        }
    }

    /// An index-less table under `schema` whose rows are, side by side, the
    /// rows of each part's table at that part's positions (any order, repeats
    /// allowed; every part as many) — what a join is once it knows which rows
    /// pair up. `schema` lists the parts' columns in order, under any names.
    pub(crate) fn gathered(schema: Schema, parts: &[(&Table, &[usize])]) -> Table {
        let stores: Vec<_> = parts.iter().map(|(t, at)| (&t.store, *at)).collect();
        Table {
            store: ColumnStore::gathered(&schema, &stores),
            schema,
            indexes: Vec::new(),
            published: 0,
        }
    }

    /// The column store holding this table's rows.
    pub(crate) fn store(&self) -> &ColumnStore {
        &self.store
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize every row in position order.
    pub fn to_rows(&self) -> Vec<Row> {
        self.store.to_rows()
    }

    /// Materialize the row at `pos`.
    pub fn row(&self, pos: usize) -> Row {
        self.store.materialize_row(pos)
    }

    /// Create an index named `name` over `column` (`ordered` selects the
    /// sorted variant that additionally serves range scans). At most one
    /// index exists per column: a second index on an already-indexed column
    /// is a no-op, except that an *ordered* request upgrades an existing
    /// hash index in place (keeping its name — the hash index served a
    /// strict subset of the lookups). A duplicate index *name* on a
    /// different column is an error.
    pub fn create_index(&mut self, name: &str, column: &str, ordered: bool) -> Result<(), DbError> {
        if let Some(ci) = self.plan_index(name, column, ordered)? {
            self.apply_index(name, ci, ordered);
        }
        Ok(())
    }

    /// The check half of [`Table::create_index`]: the position of `column`
    /// when the request would build or upgrade an index, `None` when the
    /// column is covered already, the error when it is refused.
    pub(crate) fn plan_index(
        &self,
        name: &str,
        column: &str,
        ordered: bool,
    ) -> Result<Option<usize>, DbError> {
        let ci = self
            .schema
            .index_of(column)
            .ok_or_else(|| DbError::NoSuchColumn(column.to_string()))?;
        if let Some(ix) = self.indexes.iter().find(|ix| ix.column == ci) {
            return Ok((ordered && !ix.is_ordered()).then_some(ci));
        }
        if self.indexes.iter().any(|ix| ix.name == name) {
            return Err(DbError::Execution(format!("index '{name}' already exists")));
        }
        Ok(Some(ci))
    }

    /// Build the index [`Table::plan_index`] answered `Some(ci)` for: a new
    /// one, or the ordered store in place of the column's hash index. It
    /// cannot fail.
    pub(crate) fn apply_index(&mut self, name: &str, ci: usize, ordered: bool) {
        let store = Self::build_index_store(&self.store, ordered, ci);
        match self.indexes.iter_mut().find(|ix| ix.column == ci) {
            Some(ix) => ix.store = store,
            None => self.indexes.push(Index {
                name: name.to_string(),
                column: ci,
                store,
            }),
        }
    }

    /// Build one index store over column `ci`.
    fn build_index_store(store: &ColumnStore, ordered: bool, ci: usize) -> IndexStore {
        IndexStore::build(
            ordered,
            (0..store.len()).map(|p| ValueKey::of(&store.value(p, ci))),
        )
    }

    /// Does the table have any index? Without one there is no access path
    /// to plan.
    pub(crate) fn has_indexes(&self) -> bool {
        !self.indexes.is_empty()
    }

    /// Is there an index over `column` (by position)?
    pub fn has_index_on(&self, column: usize) -> bool {
        self.indexes.iter().any(|ix| ix.column == column)
    }

    /// Is there an *ordered* index over `column` (by position)?
    pub fn has_ordered_index_on(&self, column: usize) -> bool {
        self.indexes
            .iter()
            .any(|ix| ix.column == column && ix.is_ordered())
    }

    /// Indexed positions of rows whose `column` equals `key`, or `None` when
    /// no index covers that column. NULL keys return an empty slice — SQL
    /// `=` never matches NULL.
    pub fn index_lookup(&self, column: usize, key: &ValueKey) -> Option<&[usize]> {
        let ix = self.indexes.iter().find(|ix| ix.column == column)?;
        if key.is_null() {
            return Some(&[]);
        }
        Some(ix.store.get(key).map(Vec::as_slice).unwrap_or(&[]))
    }

    /// Positions (ascending) of rows whose `column` key falls within the
    /// bounds under [`ValueKey`]'s total order, or `None` when the column
    /// carries no *ordered* index. Inverted bounds yield an empty result
    /// rather than panicking in `BTreeMap::range`.
    pub fn range_lookup(
        &self,
        column: usize,
        lower: Bound<&ValueKey>,
        upper: Bound<&ValueKey>,
    ) -> Option<Vec<usize>> {
        let ix = self.indexes.iter().find(|ix| ix.column == column)?;
        let IndexStore::Ordered(map) = &ix.store else {
            return None;
        };
        if let (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) =
            (&lower, &upper)
        {
            let inverted = match a.cmp(b) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => {
                    matches!(lower, Bound::Excluded(_)) || matches!(upper, Bound::Excluded(_))
                }
                std::cmp::Ordering::Less => false,
            };
            if inverted {
                return Some(Vec::new());
            }
        }
        let mut out: Vec<usize> = map
            .range((lower, upper))
            .flat_map(|(_, v)| v)
            .copied()
            .collect();
        out.sort_unstable();
        Some(out)
    }

    /// Positions (ascending) of the rows holding the smallest (`largest`
    /// false) or largest key of the *ordered* index over `column`; empty when
    /// the index holds no key (NULLs are not indexed), `None` without an
    /// ordered index. Keys are coarser than values (`-0.0` and `0.0`, integers
    /// beyond 2^53), so the caller still compares the rows it gets — but
    /// key order never contradicts value order, so the extreme value is
    /// among them.
    pub fn index_end_positions(&self, column: usize, largest: bool) -> Option<&[usize]> {
        let ix = self.indexes.iter().find(|ix| ix.column == column)?;
        let IndexStore::Ordered(map) = &ix.store else {
            return None;
        };
        let end = if largest {
            map.last_key_value()
        } else {
            map.first_key_value()
        };
        Some(end.map_or(&[], |(_, v)| v.as_slice()))
    }

    /// Number of distinct keys in the index over `column`, or `None` when
    /// the column carries no index. The planner uses this as a selectivity
    /// proxy: more distinct keys → fewer rows per key → cheaper probe.
    pub fn index_distinct_keys(&self, column: usize) -> Option<usize> {
        self.indexes
            .iter()
            .find(|ix| ix.column == column)
            .map(|ix| ix.store.distinct_keys())
    }

    /// `(index name, column name, ordered)` for every index, in creation
    /// order. Used by the SQL dumper to round-trip indexes.
    pub fn index_columns(&self) -> Vec<(String, String, bool)> {
        self.indexes
            .iter()
            .map(|ix| {
                (
                    ix.name.clone(),
                    self.schema.columns[ix.column].name.clone(),
                    ix.is_ordered(),
                )
            })
            .collect()
    }

    /// Validate and coerce one row against the schema without mutating
    /// anything — the first half of [`Table::insert`], split out so a
    /// multi-row insert can validate the whole batch before applying any
    /// of it.
    fn check_row(&self, mut row: Row) -> Result<Row, DbError> {
        if row.len() != self.schema.arity() {
            return Err(DbError::Type(format!(
                "insert arity mismatch: expected {} values, got {}",
                self.schema.arity(),
                row.len()
            )));
        }
        for (v, col) in row.iter_mut().zip(&self.schema.columns) {
            check_cell(col, v)?;
        }
        Ok(row)
    }

    /// Append an already-validated row and index it.
    fn append_row(&mut self, row: Row) {
        let pos = self.len();
        for ix in &mut self.indexes {
            let key = ValueKey::of(&row[ix.column]);
            if !key.is_null() {
                ix.store.push(key, pos);
            }
        }
        self.store.push_row(&row);
    }

    /// Validate, coerce and append one row.
    pub fn insert(&mut self, row: Row) -> Result<(), DbError> {
        let out = self.check_row(row)?;
        self.append_row(out);
        Ok(())
    }

    /// Validate and coerce a whole batch against the schema without
    /// appending anything. This is the check half of [`Table::insert_all`],
    /// exposed for callers that must establish "the batch will succeed"
    /// *before* a side effect — the engine plans every INSERT here before the
    /// log sees it, so a rejected batch never leaves a frame behind.
    pub fn validate_rows(&self, rows: Vec<Row>) -> Result<Vec<Row>, DbError> {
        let mut checked = Vec::with_capacity(rows.len());
        for r in rows {
            checked.push(self.check_row(r)?);
        }
        Ok(checked)
    }

    /// Append many rows atomically: every row is validated and coerced
    /// before any row is applied, so a mid-batch type error leaves the
    /// table and its indexes exactly as they were.
    pub fn insert_all(&mut self, rows: Vec<Row>) -> Result<usize, DbError> {
        let checked = self.validate_rows(rows)?;
        Ok(self.append_validated(checked))
    }

    /// Append rows [`Table::validate_rows`] returned for this schema; returns
    /// how many. It cannot fail — which is what lets a transaction validate a
    /// batch when the statement runs and append it only at commit, after the
    /// log has the group.
    pub(crate) fn append_validated(&mut self, rows: Vec<Row>) -> usize {
        let n = rows.len();
        for r in rows {
            self.append_row(r);
        }
        n
    }

    /// Append one row per entry of `positions` (positions of `src`, any
    /// order, repeats allowed) without building a row: column `i` of this
    /// table takes `cells[i]` — a column of `src` copied vector to vector
    /// (TEXT through a code remap, the two dictionaries being independent),
    /// or one value repeated. Nothing is coerced: a source column must have
    /// exactly the target column's type and a constant must be that type's
    /// variant or NULL ([`DbError::Type`] otherwise), and NOT NULL holds —
    /// so the typed vectors stay as pure as [`Table::insert`] keeps them.
    /// Everything is checked before the first cell is appended: an error
    /// leaves the table untouched.
    ///
    /// # Panics
    /// When a position or source column is out of range, or `cells` has not
    /// one entry per column.
    pub fn append_selected(
        &mut self,
        src: &Table,
        positions: &[usize],
        cells: &[Cell<'_>],
    ) -> Result<(), DbError> {
        assert_eq!(cells.len(), self.schema.arity(), "one cell per column");
        assert!(
            positions.iter().all(|&p| p < src.len()),
            "position out of range"
        );
        for (col, cell) in self.schema.columns.iter().zip(cells) {
            let (found, has_null) = match *cell {
                Cell::Column(i) => {
                    let nulls = src.store.col(i).nulls();
                    let has_null =
                        nulls.null_count() > 0 && positions.iter().any(|&p| nulls.is_null(p));
                    (Some(src.schema.columns[i].dtype), has_null)
                }
                Cell::Constant(v) => (v.data_type(), v.is_null()),
            };
            if let Some(other) = found.filter(|&dtype| dtype != col.dtype) {
                return Err(DbError::Type(format!(
                    "column '{}' is {}, not {other}",
                    col.name, col.dtype
                )));
            }
            if has_null && !col.nullable {
                return Err(DbError::Type(format!("column '{}' is NOT NULL", col.name)));
            }
        }
        let first = self.len();
        self.store.append_selected(&src.store, positions, cells);
        for ix in &mut self.indexes {
            for pos in first..self.store.len() {
                let key = ValueKey::of(&self.store.value(pos, ix.column));
                if !key.is_null() {
                    ix.store.push(key, pos);
                }
            }
        }
        Ok(())
    }

    /// Remove the rows at `positions` (any order, duplicates tolerated);
    /// returns the number removed. Deletion shifts row positions, so
    /// surviving positions are remapped through every index —
    /// O(survivors) per index instead of a full rebuild.
    ///
    /// # Panics
    /// When a position is out of range.
    pub fn delete_positions(&mut self, positions: &[usize]) -> usize {
        if positions.is_empty() {
            return 0;
        }
        let mut keep = vec![true; self.len()];
        for &p in positions {
            keep[p] = false;
        }
        // Old position → new position, usize::MAX for deleted rows.
        let mut new_of = vec![usize::MAX; keep.len()];
        let mut next = 0;
        for (i, k) in keep.iter().enumerate() {
            if *k {
                new_of[i] = next;
                next += 1;
            }
        }
        self.store.retain(&keep);
        for ix in &mut self.indexes {
            ix.store.remap_positions(&new_of);
        }
        keep.len() - next
    }

    /// Overwrite columns `cols` of the rows at `positions`: `values[k]`
    /// holds, for row `positions[k]`, one new value per entry of `cols`
    /// (a column listed twice takes its last value). Returns the number of
    /// rows written. The statement is atomic: every value is coerced to its
    /// column type and checked against NOT NULL *before* the first cell
    /// changes, so an error leaves the table and its indexes untouched.
    /// Indexes follow incrementally — a position moves only when its key
    /// actually changed.
    ///
    /// # Panics
    /// When a position or column is out of range, or the shapes of
    /// `positions`, `cols` and `values` disagree.
    pub fn update_positions(
        &mut self,
        positions: &[usize],
        cols: &[usize],
        values: Vec<Row>,
    ) -> Result<usize, DbError> {
        assert_eq!(positions.len(), values.len(), "one value row per position");
        assert!(
            positions.iter().all(|&p| p < self.len()),
            "position out of range"
        );
        let values = self.validate_update(cols, values)?;
        Ok(self.write_positions(positions, cols, values))
    }

    /// The check half of [`Table::update_positions`]: every value coerced to
    /// the type of its column and checked against NOT NULL, nothing written.
    pub(crate) fn validate_update(
        &self,
        cols: &[usize],
        mut values: Vec<Row>,
    ) -> Result<Vec<Row>, DbError> {
        for row in &mut values {
            assert_eq!(row.len(), cols.len(), "one value per target column");
            for (v, &ci) in row.iter_mut().zip(cols) {
                check_cell(&self.schema.columns[ci], v)?;
            }
        }
        Ok(values)
    }

    /// Write values [`Table::validate_update`] returned for these columns;
    /// returns the number of rows written. It cannot fail.
    pub(crate) fn write_positions(
        &mut self,
        positions: &[usize],
        cols: &[usize],
        values: Vec<Row>,
    ) -> usize {
        for (&pos, row) in positions.iter().zip(values) {
            for (v, &ci) in row.into_iter().zip(cols) {
                // At most one index exists per column.
                if let Some(ix) = self.indexes.iter_mut().find(|ix| ix.column == ci) {
                    let old = ValueKey::of(&self.store.value(pos, ci));
                    let new = ValueKey::of(&v);
                    if new != old {
                        ix.store.move_position(&old, new, pos);
                    }
                }
                self.store.set(pos, ci, v);
            }
        }
        positions.len()
    }

    /// Rebuild every index from scratch. Normal mutation paths maintain
    /// indexes incrementally; this remains public as the brute-force
    /// baseline (the `mutation_batch` microbench measures incremental
    /// maintenance against it) and as a recovery hammer.
    pub fn rebuild_indexes(&mut self) {
        for ix in &mut self.indexes {
            ix.store = Self::build_index_store(&self.store, ix.is_ordered(), ix.column);
        }
    }

    /// Memory accounting for this table.
    pub fn memory_footprint(&self) -> TableMemory {
        self.store.memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    /// Positions of the rows matching `pred` — the tests' selection step.
    fn positions(tb: &Table, pred: impl Fn(&Row) -> bool) -> Vec<usize> {
        let rows = tb.to_rows();
        (0..rows.len()).filter(|&p| pred(&rows[p])).collect()
    }

    /// `DELETE … WHERE pred`.
    fn delete_where(tb: &mut Table, pred: impl Fn(&Row) -> bool) -> usize {
        let at = positions(tb, pred);
        tb.delete_positions(&at)
    }

    /// `UPDATE … SET col = v WHERE pred`.
    fn set_where(tb: &mut Table, col: usize, v: Value, pred: impl Fn(&Row) -> bool) -> usize {
        let at = positions(tb, pred);
        let values = vec![vec![v]; at.len()];
        tb.update_positions(&at, &[col], values).unwrap()
    }

    fn t() -> Table {
        Table::new(
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("bw", DataType::Float),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn insert_coerces_types() {
        let mut tb = t();
        tb.insert(vec![Value::Int(1), Value::Int(5)]).unwrap();
        assert_eq!(tb.row(0)[1], Value::Float(5.0));
    }

    #[test]
    fn insert_rejects_arity_mismatch() {
        let mut tb = t();
        assert!(tb.insert(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn insert_rejects_null_in_not_null() {
        let mut tb = t();
        assert!(tb.insert(vec![Value::Null, Value::Float(1.0)]).is_err());
        tb.insert(vec![Value::Int(1), Value::Null]).unwrap(); // bw is nullable
    }

    #[test]
    fn insert_all_is_atomic_on_mid_batch_error() {
        let mut tb = t();
        tb.create_index("by_id", "id", true).unwrap();
        tb.insert(vec![Value::Int(1), Value::Float(1.0)]).unwrap();
        // Row 2 of 3 violates NOT NULL: nothing from the batch may land.
        let err = tb.insert_all(vec![
            vec![Value::Int(2), Value::Float(2.0)],
            vec![Value::Null, Value::Float(3.0)],
            vec![Value::Int(4), Value::Float(4.0)],
        ]);
        assert!(err.is_err());
        assert_eq!(tb.len(), 1);
        assert_eq!(
            tb.index_lookup(0, &ValueKey::of(&Value::Int(2))).unwrap(),
            &[] as &[usize]
        );
        assert_eq!(
            tb.index_lookup(0, &ValueKey::of(&Value::Int(1))).unwrap(),
            &[0]
        );
        // A type error mid-batch behaves the same.
        let err = tb.insert_all(vec![
            vec![Value::Int(5), Value::Float(5.0)],
            vec![Value::Int(6), Value::Text("abc".into())],
        ]);
        assert!(err.is_err());
        assert_eq!(tb.len(), 1);
        assert_eq!(tb.index_distinct_keys(0), Some(1));
    }

    #[test]
    fn delete_and_update() {
        let mut tb = t();
        for i in 0..5 {
            tb.insert(vec![Value::Int(i), Value::Float(i as f64)])
                .unwrap();
        }
        let n = set_where(&mut tb, 1, Value::Float(0.0), |r| {
            r[0].as_i64().unwrap() % 2 == 0
        });
        assert_eq!(n, 3);
        let n = delete_where(&mut tb, |r| r[1] == Value::Float(0.0));
        assert_eq!(n, 3);
        assert_eq!(tb.len(), 2);
    }

    #[test]
    fn rejected_update_leaves_table_and_indexes_untouched() {
        let mut tb = t();
        tb.create_index("by_id", "id", true).unwrap();
        for i in 0..4 {
            tb.insert(vec![Value::Int(i), Value::Float(i as f64)])
                .unwrap();
        }
        let before = tb.to_rows();
        // The last selected row violates NOT NULL: no earlier row may change.
        let bad = vec![
            vec![Value::Int(10)],
            vec![Value::Int(11)],
            vec![Value::Null],
        ];
        assert!(tb.update_positions(&[0, 1, 2], &[0], bad).is_err());
        // A value that does not coerce to the column type behaves the same.
        let bad = vec![vec![Value::Int(10)], vec![Value::Text("abc".into())]];
        assert!(tb.update_positions(&[0, 1], &[0], bad).is_err());
        assert_eq!(tb.to_rows(), before);
        assert_eq!(lookup_ids(&tb, 0), vec![0]);
        assert!(lookup_ids(&tb, 10).is_empty());
    }

    fn lookup_ids(tb: &Table, key: i64) -> Vec<i64> {
        tb.index_lookup(0, &ValueKey::of(&Value::Int(key)))
            .unwrap()
            .iter()
            .map(|&i| tb.row(i)[0].as_i64().unwrap())
            .collect()
    }

    #[test]
    fn index_tracks_insert_delete_update() {
        for ordered in [false, true] {
            let mut tb = t();
            tb.create_index("by_id", "id", ordered).unwrap();
            for i in 0..6 {
                tb.insert(vec![Value::Int(i % 3), Value::Float(i as f64)])
                    .unwrap();
            }
            assert_eq!(lookup_ids(&tb, 1), vec![1, 1]);
            assert!(tb
                .index_lookup(0, &ValueKey::of(&Value::Int(9)))
                .unwrap()
                .is_empty());
            // Delete shifts positions; the index must follow.
            delete_where(&mut tb, |r| r[0] == Value::Int(0));
            assert_eq!(lookup_ids(&tb, 2), vec![2, 2]);
            // Update rewrites the key column; the index must follow.
            set_where(&mut tb, 0, Value::Int(7), |r| r[0] == Value::Int(1));
            assert!(tb
                .index_lookup(0, &ValueKey::of(&Value::Int(1)))
                .unwrap()
                .is_empty());
            assert_eq!(lookup_ids(&tb, 7), vec![7, 7]);
        }
    }

    #[test]
    fn incremental_maintenance_matches_rebuild() {
        let mut tb = t();
        tb.create_index("by_id", "id", true).unwrap();
        for i in 0..40 {
            tb.insert(vec![Value::Int(i % 7), Value::Float(i as f64)])
                .unwrap();
        }
        delete_where(&mut tb, |r| r[1].as_f64().unwrap() % 3.0 == 0.0);
        set_where(&mut tb, 0, Value::Int(11), |r| r[0] == Value::Int(2));
        let incremental: Vec<Vec<i64>> = (0..12).map(|k| lookup_ids(&tb, k)).collect();
        let mut rebuilt = tb.clone();
        rebuilt.rebuild_indexes();
        let reference: Vec<Vec<i64>> = (0..12).map(|k| lookup_ids(&rebuilt, k)).collect();
        assert_eq!(incremental, reference);
    }

    #[test]
    fn range_lookup_over_ordered_index() {
        let mut tb = t();
        tb.create_index("by_id", "id", true).unwrap();
        for i in [5, 1, 3, 2, 4, 3] {
            tb.insert(vec![Value::Int(i), Value::Null]).unwrap();
        }
        let k = |i: i64| ValueKey::of(&Value::Int(i));
        let ids = |lo: Bound<&ValueKey>, hi: Bound<&ValueKey>| -> Vec<i64> {
            tb.range_lookup(0, lo, hi)
                .unwrap()
                .iter()
                .map(|&p| tb.row(p)[0].as_i64().unwrap())
                .collect()
        };
        assert_eq!(
            ids(Bound::Included(&k(2)), Bound::Included(&k(4))),
            vec![3, 2, 4, 3]
        );
        assert_eq!(
            ids(Bound::Excluded(&k(2)), Bound::Excluded(&k(5))),
            vec![3, 4, 3]
        );
        assert_eq!(ids(Bound::Unbounded, Bound::Excluded(&k(3))), vec![1, 2]);
        assert_eq!(ids(Bound::Included(&k(4)), Bound::Unbounded), vec![5, 4]);
        // Inverted and empty ranges do not panic.
        assert!(ids(Bound::Included(&k(4)), Bound::Included(&k(2))).is_empty());
        assert!(ids(Bound::Excluded(&k(3)), Bound::Excluded(&k(3))).is_empty());
        assert!(ids(Bound::Included(&k(3)), Bound::Excluded(&k(3))).is_empty());
        // A hash index does not serve ranges.
        let mut hb = t();
        hb.create_index("h", "id", false).unwrap();
        assert!(hb
            .range_lookup(0, Bound::Unbounded, Bound::Unbounded)
            .is_none());
        assert!(!hb.has_ordered_index_on(0));
        assert!(tb.has_ordered_index_on(0));
    }

    #[test]
    fn index_built_over_existing_rows() {
        let mut tb = t();
        for i in 0..4 {
            tb.insert(vec![Value::Int(i), Value::Null]).unwrap();
        }
        tb.create_index("by_id", "id", false).unwrap();
        assert_eq!(lookup_ids(&tb, 2), vec![2]);
        assert!(tb.has_index_on(0));
        assert!(!tb.has_index_on(1));
        assert_eq!(
            tb.index_columns(),
            vec![("by_id".to_string(), "id".to_string(), false)]
        );
    }

    #[test]
    fn index_skips_null_keys() {
        let mut tb = Table::new(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Float),
            ])
            .unwrap(),
        );
        tb.create_index("by_k", "k", true).unwrap();
        tb.insert(vec![Value::Null, Value::Float(1.0)]).unwrap();
        tb.insert(vec![Value::Int(5), Value::Float(2.0)]).unwrap();
        // NULL never matches '='.
        assert!(tb.index_lookup(0, &ValueKey::Null).unwrap().is_empty());
        assert_eq!(
            tb.index_lookup(0, &ValueKey::of(&Value::Int(5))).unwrap(),
            &[1]
        );
        // NULL keys are absent from range scans too.
        assert_eq!(
            tb.range_lookup(0, Bound::Unbounded, Bound::Unbounded)
                .unwrap(),
            vec![1]
        );
    }

    #[test]
    fn duplicate_index_rules() {
        let mut tb = t();
        tb.create_index("one", "id", false).unwrap();
        // Same column again: no-op.
        tb.create_index("two", "id", false).unwrap();
        assert_eq!(tb.index_columns().len(), 1);
        // Same name, different column: error.
        assert!(tb.create_index("one", "bw", false).is_err());
        // Unknown column: error.
        assert!(tb.create_index("x", "zzz", false).is_err());
    }

    #[test]
    fn ordered_request_upgrades_hash_index_in_place() {
        let mut tb = t();
        for i in 0..4 {
            tb.insert(vec![Value::Int(i), Value::Null]).unwrap();
        }
        tb.create_index("h", "id", false).unwrap();
        assert!(tb
            .range_lookup(0, Bound::Unbounded, Bound::Unbounded)
            .is_none());
        tb.create_index("o", "id", true).unwrap();
        // Upgraded in place: same name, now ordered, still one index.
        assert_eq!(
            tb.index_columns(),
            vec![("h".to_string(), "id".to_string(), true)]
        );
        assert_eq!(
            tb.range_lookup(0, Bound::Unbounded, Bound::Unbounded)
                .unwrap(),
            vec![0, 1, 2, 3]
        );
        // A later hash request over the ordered index stays a no-op.
        tb.create_index("h2", "id", false).unwrap();
        assert!(tb.has_ordered_index_on(0));
    }

    /// The table behaves like a plain `Vec<Row>` model through the whole
    /// mutation + index surface: same inserts, deletes, updates and lookups.
    #[test]
    fn columnar_matches_row_layout_through_mutations() {
        let mut tb = t();
        let mut model: Vec<Row> = Vec::new();
        tb.create_index("by_id", "id", true).unwrap();
        for i in 0..30 {
            let row = vec![Value::Int(i % 7), Value::Float(i as f64)];
            tb.insert(row.clone()).unwrap();
            model.push(row);
        }
        delete_where(&mut tb, |r| r[1].as_f64().unwrap() % 3.0 == 0.0);
        model.retain(|r| r[1].as_f64().unwrap() % 3.0 != 0.0);
        set_where(&mut tb, 0, Value::Int(11), |r| r[0] == Value::Int(2));
        for r in model.iter_mut().filter(|r| r[0] == Value::Int(2)) {
            r[0] = Value::Int(11);
        }
        assert_eq!(tb.to_rows(), model);
        assert_eq!(tb.len(), model.len());
        let scan = |pred: &dyn Fn(i64) -> bool| -> Vec<usize> {
            (0..model.len())
                .filter(|&p| pred(model[p][0].as_i64().unwrap()))
                .collect()
        };
        for k in 0..12 {
            let key = ValueKey::of(&Value::Int(k));
            assert_eq!(
                tb.index_lookup(0, &key).unwrap(),
                scan(&|id| id == k),
                "key {k}"
            );
        }
        assert_eq!(
            tb.range_lookup(
                0,
                Bound::Included(&ValueKey::of(&Value::Int(1))),
                Bound::Excluded(&ValueKey::of(&Value::Int(5)))
            )
            .unwrap(),
            scan(&|id| (1..5).contains(&id))
        );
    }

    #[test]
    fn to_rows_reflects_every_mutation() {
        let mut tb = t();
        tb.insert(vec![Value::Int(1), Value::Float(1.0)]).unwrap();
        assert_eq!(tb.to_rows().len(), 1);
        tb.insert(vec![Value::Int(2), Value::Float(2.0)]).unwrap();
        assert_eq!(tb.to_rows().len(), 2);
        set_where(&mut tb, 1, Value::Float(9.0), |_| true);
        assert_eq!(tb.row(0)[1], Value::Float(9.0));
        delete_where(&mut tb, |r| r[0] == Value::Int(1));
        assert_eq!(tb.to_rows(), vec![vec![Value::Int(2), Value::Float(9.0)]]);
    }

    #[test]
    fn columnar_insert_all_stays_atomic() {
        let mut tb = t();
        tb.create_index("by_id", "id", false).unwrap();
        tb.insert(vec![Value::Int(1), Value::Float(1.0)]).unwrap();
        let err = tb.insert_all(vec![
            vec![Value::Int(2), Value::Float(2.0)],
            vec![Value::Null, Value::Float(3.0)],
        ]);
        assert!(err.is_err());
        assert_eq!(tb.len(), 1);
        assert!(tb
            .index_lookup(0, &ValueKey::of(&Value::Int(2)))
            .unwrap()
            .is_empty());
    }

    fn every_type() -> Schema {
        Schema::new(vec![
            Column::new("i", DataType::Int),
            Column::new("f", DataType::Float),
            Column::new("s", DataType::Text),
            Column::new("b", DataType::Bool),
            Column::new("t", DataType::Timestamp),
        ])
        .unwrap()
    }

    /// A source table of every type: row `k` is NULL in column `k % 5`.
    fn every_type_rows(n: i64, words: &[&str]) -> Vec<Row> {
        (0..n)
            .map(|k| {
                let mut row = vec![
                    Value::Int(k - 3),
                    Value::Float(k as f64 * 0.5),
                    Value::Text(words[k as usize % words.len()].to_string()),
                    Value::Bool(k % 2 == 0),
                    Value::Timestamp(1_100_000_000 + k),
                ];
                row[k as usize % 5] = Value::Null;
                row
            })
            .collect()
    }

    /// `append_selected` is `insert` of the same cells: every type, NULLs,
    /// repeated and reordered positions, constants — and TEXT from source
    /// tables whose dictionaries assign other codes to the same strings.
    #[test]
    fn append_selected_equals_row_inserts() {
        let mut a = Table::new(every_type());
        a.insert_all(every_type_rows(9, &["it's", "größe 日本", "", "x"]))
            .unwrap();
        let mut b = Table::new(every_type());
        b.insert_all(every_type_rows(7, &["x", "only in b", "it's"]))
            .unwrap();

        // dst columns: s, a constant, i, f, t, b — a permutation plus a
        // run-level value.
        let dst_schema = || {
            Schema::new(vec![
                Column::new("s", DataType::Text),
                Column::new("tag", DataType::Text),
                Column::new("i", DataType::Int),
                Column::new("f", DataType::Float),
                Column::new("t", DataType::Timestamp),
                Column::new("b", DataType::Bool),
            ])
            .unwrap()
        };
        let (mut appended, mut inserted) = (Table::new(dst_schema()), Table::new(dst_schema()));
        appended.create_index("by_i", "i", true).unwrap();
        inserted.create_index("by_i", "i", true).unwrap();
        let tags = [Value::Text("from a".into()), Value::Null];
        for (src, positions, tag) in [
            (&a, vec![8, 0, 3, 3, 5], &tags[0]),
            (&b, vec![], &tags[0]),
            (&b, vec![0, 1, 2, 3, 4, 5, 6], &tags[1]),
            (&a, vec![1], &tags[1]),
        ] {
            let cells = [
                Cell::Column(2),
                Cell::Constant(tag),
                Cell::Column(0),
                Cell::Column(1),
                Cell::Column(4),
                Cell::Column(3),
            ];
            appended.append_selected(src, &positions, &cells).unwrap();
            for &p in &positions {
                let r = src.row(p);
                inserted
                    .insert(vec![
                        r[2].clone(),
                        tag.clone(),
                        r[0].clone(),
                        r[1].clone(),
                        r[4].clone(),
                        r[3].clone(),
                    ])
                    .unwrap();
            }
        }
        assert_eq!(appended.len(), 13);
        assert_eq!(appended.to_rows(), inserted.to_rows());
        // Same dictionaries too: strings enter in row order, and only those
        // a selected row holds ("only in b" does, b's dead entries would not).
        let (m, n) = (appended.memory_footprint(), inserted.memory_footprint());
        assert_eq!(
            (m.dict_entries, m.dict_bytes),
            (n.dict_entries, n.dict_bytes)
        );
        for k in -3..6 {
            let key = ValueKey::of(&Value::Int(k));
            assert_eq!(
                appended.index_lookup(2, &key),
                inserted.index_lookup(2, &key)
            );
        }
    }

    #[test]
    fn append_selected_checks_before_it_appends() {
        let mut src = Table::new(every_type());
        src.insert_all(every_type_rows(6, &["a", "b"])).unwrap();
        let mut dst = Table::new(
            Schema::new(vec![
                Column::new("x", DataType::Float),
                Column::not_null("y", DataType::Int),
            ])
            .unwrap(),
        );
        let one = Value::Int(1);
        dst.append_selected(&src, &[1], &[Cell::Column(1), Cell::Constant(&one)])
            .unwrap();
        let before = dst.to_rows();
        let type_error = |r: Result<(), DbError>| match r {
            Err(DbError::Type(m)) => m,
            other => panic!("expected a type error, got {other:?}"),
        };
        // A column of another type is refused, not coerced (INTEGER → FLOAT
        // would fit, cell by cell).
        let m = type_error(dst.append_selected(
            &src,
            &[1, 2],
            &[Cell::Column(0), Cell::Constant(&one)],
        ));
        assert!(
            m.contains("'x'") && m.contains("FLOAT") && m.contains("INTEGER"),
            "{m}"
        );
        // So is a constant of another type, and NULL for NOT NULL — from a
        // constant or from a selected cell (row 0 is NULL in column 0).
        let half = Value::Float(0.5);
        type_error(dst.append_selected(&src, &[1], &[Cell::Column(1), Cell::Constant(&half)]));
        type_error(dst.append_selected(
            &src,
            &[1],
            &[Cell::Column(1), Cell::Constant(&Value::Null)],
        ));
        let m = type_error(dst.append_selected(&src, &[1, 0], &[Cell::Column(1), Cell::Column(0)]));
        assert!(m.contains("NOT NULL"), "{m}");
        // Row 0 not selected: its NULL does not matter.
        dst.append_selected(&src, &[1, 2], &[Cell::Column(1), Cell::Column(0)])
            .unwrap();
        assert_eq!(dst.to_rows()[..1], before[..]);
        assert_eq!(dst.len(), 3);
    }

    #[test]
    fn memory_footprint_reports_store_and_dictionary_bytes() {
        let mut tb = Table::new(
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("fs", DataType::Text),
            ])
            .unwrap(),
        );
        for i in 0..100 {
            tb.insert(vec![Value::Int(i), Value::Text(format!("fs{}", i % 4))])
                .unwrap();
        }
        let m = tb.memory_footprint();
        assert_eq!(m.rows, 100);
        assert_eq!(m.dict_entries, 4);
        // 8-byte ids + 4-byte codes per row, plus the dictionary.
        assert!(m.dict_bytes > 0);
        assert!(m.bytes >= 100 * 12 + m.dict_bytes, "{m:?}");
    }
}
