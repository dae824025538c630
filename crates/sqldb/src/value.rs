//! Typed values and data types.

use std::cmp::Ordering;
use std::fmt;

/// Column data types. These map 1:1 onto the perfbase experiment-definition
/// `<datatype>` element (paper §3.1: "integer, float, text or other types";
/// the other types in use are boolean and timestamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
    /// Seconds since the Unix epoch (UTC).
    Timestamp,
}

impl DataType {
    /// SQL type name, used by the SQL front-end and `DESCRIBE`-style output.
    pub fn sql_name(&self) -> &'static str {
        match self {
            DataType::Int => "INTEGER",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOLEAN",
            DataType::Timestamp => "TIMESTAMP",
        }
    }

    /// Parse an SQL type name (several aliases accepted).
    pub fn from_sql_name(name: &str) -> Option<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "INTEGER" | "INT" | "BIGINT" | "SMALLINT" => Some(DataType::Int),
            "FLOAT" | "REAL" | "DOUBLE" | "NUMERIC" => Some(DataType::Float),
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" => Some(DataType::Text),
            "BOOLEAN" | "BOOL" => Some(DataType::Bool),
            "TIMESTAMP" | "DATETIME" => Some(DataType::Timestamp),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A single cell value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL / missing content (paper §3.2 allows variables without
    /// content).
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Text.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// Unix timestamp (seconds, UTC).
    Timestamp(i64),
}

impl Value {
    /// The value's type, if not NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// Is this NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (Int, Float, Bool and Timestamp coerce; Text does not).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(f64::from(*b)),
            Value::Timestamp(t) => Some(*t as f64),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Timestamp(t) => Some(*t),
            Value::Bool(b) => Some(i64::from(*b)),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Coerce into `ty`, used on INSERT so that `1` can populate a FLOAT
    /// column and `'2004-11-23 18:30:30'` a TIMESTAMP column.
    pub fn coerce(self, ty: DataType) -> Result<Value, String> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        let err = |v: &Value| Err(format!("cannot coerce {v} to {ty}"));
        match ty {
            DataType::Int => match &self {
                Value::Int(_) => Ok(self),
                // Whole and inside `[-2^63, 2^63)`: the cast is exact.
                Value::Float(f) if f.fract() == 0.0 && (-I64_SPAN..I64_SPAN).contains(f) => {
                    Ok(Value::Int(*f as i64))
                }
                Value::Bool(b) => Ok(Value::Int(i64::from(*b))),
                Value::Text(s) => s.trim().parse().map(Value::Int).or_else(|_| err(&self)),
                _ => err(&self),
            },
            DataType::Float => match &self {
                Value::Float(_) => Ok(self),
                Value::Int(i) => Ok(Value::Float(*i as f64)),
                Value::Text(s) => s.trim().parse().map(Value::Float).or_else(|_| err(&self)),
                _ => err(&self),
            },
            DataType::Text => match self {
                Value::Text(_) => Ok(self),
                other => Ok(Value::Text(other.to_string())),
            },
            DataType::Bool => match &self {
                Value::Bool(_) => Ok(self),
                Value::Int(i) => Ok(Value::Bool(*i != 0)),
                Value::Text(s) => match s.trim().to_ascii_lowercase().as_str() {
                    "true" | "t" | "yes" | "1" | "on" => Ok(Value::Bool(true)),
                    "false" | "f" | "no" | "0" | "off" => Ok(Value::Bool(false)),
                    _ => err(&self),
                },
                _ => err(&self),
            },
            DataType::Timestamp => match &self {
                Value::Timestamp(_) => Ok(self),
                Value::Int(i) => Ok(Value::Timestamp(*i)),
                Value::Text(s) => parse_timestamp(s)
                    .map(Value::Timestamp)
                    .ok_or(())
                    .or_else(|_| err(&self)),
                _ => err(&self),
            },
        }
    }

    /// Total ordering used by ORDER BY, GROUP BY and the ordered index:
    /// NULL sorts first, numbers compare exactly across Int/Float (`Num`),
    /// text lexicographically, every number before every text.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (ValueRef::of(self), ValueRef::of(other)) {
            (None, None) => Ordering::Equal,
            (None, _) => Ordering::Less,
            (_, None) => Ordering::Greater,
            (Some(a), Some(b)) => a.total_cmp(b),
        }
    }

    /// Equality used by filters and grouping (numeric cross-type equality).
    pub fn sql_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self.total_cmp(other) == Ordering::Equal
    }
}

/// 2^63, exactly: every float in `[-2^63, 2^63)` truncates into an `i64`.
const I64_SPAN: f64 = 9_223_372_036_854_775_808.0;

/// A number as the engine compares it: INTEGER and TIMESTAMP cells (and
/// BOOLEAN as 0/1) as their `i64`, FLOAT cells as their `f64`. Numbers
/// compare exactly — two integers as integers, an integer and a float by
/// their exact values — so integers beyond 2^53 never collapse onto a
/// shared f64 image.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Num {
    Int(i64),
    Float(f64),
}

impl Num {
    /// The number `v` is, if any (TEXT and NULL are not).
    #[inline]
    pub(crate) fn of(v: &Value) -> Option<Num> {
        ValueRef::of(v)?.num()
    }

    /// Exact numeric order. NaN compares equal to itself and greater than
    /// every other number (NaN last) — it must not collapse to `Equal`,
    /// which would make the comparator non-transitive (NaN==1, NaN==2, 1<2)
    /// and corrupt sorts — and `-0.0` equals `0.0`.
    #[inline]
    pub(crate) fn total_cmp(self, other: Num) -> Ordering {
        match (self, other) {
            (Num::Int(a), Num::Int(b)) => a.cmp(&b),
            (Num::Float(a), Num::Float(b)) => a
                .partial_cmp(&b)
                .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan())),
            (Num::Int(a), Num::Float(b)) => int_float_cmp(a, b),
            (Num::Float(a), Num::Int(b)) => int_float_cmp(b, a).reverse(),
        }
    }

    /// The hash key: an integer, or a float equal to one, is
    /// [`ValueKey::Int`] (so `1` and `1.0` share a key); any other float is
    /// its bits, `-0.0` and every NaN payload normalized.
    #[inline]
    pub(crate) fn key(self) -> ValueKey {
        match self {
            Num::Int(i) => ValueKey::Int(i),
            Num::Float(f) if f.fract() == 0.0 && (-I64_SPAN..I64_SPAN).contains(&f) => {
                ValueKey::Int(f as i64)
            }
            Num::Float(f) => ValueKey::Num(if f.is_nan() { f64::NAN } else { f }.to_bits()),
        }
    }

    /// The number as an `f64` (what [`Value::as_f64`] makes of it).
    #[inline]
    pub(crate) fn as_f64(self) -> f64 {
        match self {
            Num::Int(i) => i as f64,
            Num::Float(f) => f,
        }
    }
}

/// A non-NULL value borrowed where it is stored — a number as a number, TEXT
/// as its string — so that reading a cell builds no [`Value`]; one is made
/// ([`ValueRef::to_value`]) only where a cell is kept.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValueRef<'a> {
    Int(i64),
    Float(f64),
    Bool(bool),
    Timestamp(i64),
    Text(&'a str),
}

impl<'a> ValueRef<'a> {
    /// `v`, borrowed; `None` for NULL.
    #[inline]
    pub(crate) fn of(v: &'a Value) -> Option<ValueRef<'a>> {
        Some(match v {
            Value::Null => return None,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Timestamp(t) => ValueRef::Timestamp(*t),
            Value::Text(s) => ValueRef::Text(s),
        })
    }

    /// The number this is (BOOLEAN as 0/1); `None` for TEXT.
    #[inline]
    pub(crate) fn num(self) -> Option<Num> {
        match self {
            ValueRef::Int(i) | ValueRef::Timestamp(i) => Some(Num::Int(i)),
            ValueRef::Bool(b) => Some(Num::Int(i64::from(b))),
            ValueRef::Float(f) => Some(Num::Float(f)),
            ValueRef::Text(_) => None,
        }
    }

    /// The owned value.
    pub(crate) fn to_value(self) -> Value {
        match self {
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Timestamp(t) => Value::Timestamp(t),
            ValueRef::Text(s) => Value::Text(s.to_string()),
        }
    }

    /// The engine's order of values: numbers (BOOLEAN as 0/1) exactly by
    /// [`Num::total_cmp`], text lexicographically, and every number before
    /// every text.
    #[inline]
    pub(crate) fn total_cmp(self, other: ValueRef<'_>) -> Ordering {
        match (self, other) {
            (ValueRef::Text(a), ValueRef::Text(b)) => a.cmp(b),
            (ValueRef::Text(_), _) => Ordering::Greater,
            (_, ValueRef::Text(_)) => Ordering::Less,
            (a, b) => match (a.num(), b.num()) {
                (Some(x), Some(y)) => x.total_cmp(y),
                _ => unreachable!("a value that is not TEXT is a number"),
            },
        }
    }
}

/// The cell the aggregate kernels' kept state starts from, never read.
impl Default for ValueRef<'_> {
    fn default() -> Self {
        ValueRef::Int(0)
    }
}

/// `i` against `f`, exactly (NaN above every number).
#[inline]
fn int_float_cmp(i: i64, f: f64) -> Ordering {
    if f.is_nan() || f >= I64_SPAN {
        return Ordering::Less;
    }
    if f < -I64_SPAN {
        return Ordering::Greater;
    }
    let whole = f.trunc();
    i.cmp(&(whole as i64))
        .then_with(|| whole.partial_cmp(&f).expect("f is not NaN"))
}

/// Hashable key with the same equivalence classes as grouping, DISTINCT and
/// equi-joins: numbers (Int, Float, Timestamp; Bool is *not* included — see
/// below) are equal keys exactly when they are equal numbers (`Num::key`),
/// so `1` and `1.0` produce the same key and `-0.0` that of `0.0`; text and
/// bool keep their own identity, and NULL is its own variant (callers that
/// implement SQL `=` must treat [`ValueKey::Null`] as matching nothing).
///
/// This is the `HashMap` key for hash joins, secondary indexes, GROUP BY and
/// DISTINCT. It deliberately mirrors the engine's canonical string/byte
/// encodings, not `Value::sql_eq` (which additionally equates `TRUE` with
/// `1` — a cross-type comparison that never occurs within one typed column).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueKey {
    /// NULL (never equal to anything under SQL `=`).
    Null,
    /// An integer, or a float equal to one.
    Int(i64),
    /// Normalized f64 bit pattern of any other float.
    Num(u64),
    /// Text identity.
    Text(String),
    /// Bool identity.
    Bool(bool),
}

impl ValueKey {
    /// Key of a value.
    pub fn of(v: &Value) -> ValueKey {
        match v {
            Value::Null => ValueKey::Null,
            Value::Text(s) => ValueKey::Text(s.clone()),
            Value::Bool(b) => ValueKey::Bool(*b),
            other => Num::of(other).expect("a number").key(),
        }
    }

    /// Is this the NULL key?
    pub fn is_null(&self) -> bool {
        matches!(self, ValueKey::Null)
    }
}

/// Map an f64 bit pattern (as stored in [`ValueKey::Num`]) to a u64 whose
/// unsigned order equals the engine's numeric order: negatives ascend,
/// positives ascend above them, NaN sorts above everything — exactly
/// matching [`Value::total_cmp`]'s NaN-last rule so ordered-index range
/// scans and the filter evaluator agree on every comparison.
fn num_order_key(bits: u64) -> u64 {
    let f = f64::from_bits(bits);
    if f.is_nan() {
        u64::MAX
    } else if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Total order over keys, used by the ordered (BTreeMap) index variant.
/// Numeric keys order as their numbers (`Num::total_cmp`) — a FLOAT
/// column holds both kinds. Otherwise within one typed column only a single
/// class ever occurs (plus Null), so the cross-class ordering just needs to
/// be *some* stable total order; Null sorts first to mirror
/// [`Value::total_cmp`].
impl Ord for ValueKey {
    fn cmp(&self, other: &ValueKey) -> Ordering {
        use ValueKey::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Num(a), Num(b)) => num_order_key(*a).cmp(&num_order_key(*b)),
            (Int(a), Num(b)) => int_float_cmp(*a, f64::from_bits(*b)),
            (Num(a), Int(b)) => int_float_cmp(*b, f64::from_bits(*a)).reverse(),
            (Int(_) | Num(_), _) => Ordering::Less,
            (_, Int(_) | Num(_)) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Bool(_), _) => Ordering::Less,
            (_, Bool(_)) => Ordering::Greater,
            (Text(a), Text(b)) => a.cmp(b),
        }
    }
}

impl PartialOrd for ValueKey {
    fn partial_cmp(&self, other: &ValueKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Text(a), Text(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Timestamp(a), Timestamp(b)) => a == b,
            (Int(a), Float(b)) | (Float(b), Int(a)) => int_float_cmp(*a, *b).is_eq(),
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(t) => f.write_str(&format_timestamp(*t)),
        }
    }
}

/// Days-from-civil algorithm (Howard Hinnant): days since 1970-01-01.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Parse `YYYY-MM-DD[ HH:MM[:SS]]` (also accepts `T` as a date/time
/// separator) into Unix seconds. Returns `None` on malformed input.
pub fn parse_timestamp(s: &str) -> Option<i64> {
    let s = s.trim();
    let (date, time) = match s.find([' ', 'T']) {
        Some(i) => (&s[..i], Some(&s[i + 1..])),
        None => (s, None),
    };
    let mut dp = date.split('-');
    let y: i64 = dp.next()?.parse().ok()?;
    let m: u32 = dp.next()?.parse().ok()?;
    let d: u32 = dp.next()?.parse().ok()?;
    if dp.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    let mut secs = days_from_civil(y, m, d) * 86_400;
    if let Some(t) = time {
        let mut tp = t.split(':');
        let h: i64 = tp.next()?.parse().ok()?;
        let mi: i64 = tp.next()?.parse().ok()?;
        let se: i64 = match tp.next() {
            Some(x) => x.parse().ok()?,
            None => 0,
        };
        if tp.next().is_some()
            || !(0..24).contains(&h)
            || !(0..60).contains(&mi)
            || !(0..60).contains(&se)
        {
            return None;
        }
        secs += h * 3600 + mi * 60 + se;
    }
    Some(secs)
}

/// Format Unix seconds as `YYYY-MM-DD HH:MM:SS` (UTC).
pub fn format_timestamp(secs: i64) -> String {
    let days = secs.div_euclid(86_400);
    let rem = secs.rem_euclid(86_400);
    let (y, m, d) = civil_from_days(days);
    format!(
        "{y:04}-{m:02}-{d:02} {:02}:{:02}:{:02}",
        rem / 3600,
        (rem % 3600) / 60,
        rem % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names_roundtrip() {
        for t in [
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Bool,
            DataType::Timestamp,
        ] {
            assert_eq!(DataType::from_sql_name(t.sql_name()), Some(t));
        }
        assert_eq!(DataType::from_sql_name("varchar"), Some(DataType::Text));
        assert_eq!(DataType::from_sql_name("nope"), None);
    }

    #[test]
    fn a_whole_float_outside_the_i64_range_is_no_integer() {
        for f in [1e19, -1e19, 9.3e18, I64_SPAN, -I64_SPAN * 2.0, f64::MAX] {
            let err = Value::Float(f).coerce(DataType::Int).unwrap_err();
            assert!(
                err.starts_with("cannot coerce ") && err.ends_with(" to INTEGER"),
                "{f}: {err}"
            );
        }
        for (f, i) in [
            (-I64_SPAN, i64::MIN),
            (-9_223_372_036_854_775_808.0, i64::MIN),
            (9_223_372_036_854_774_784.0, i64::MAX - 1023),
            (-0.0, 0),
        ] {
            assert_eq!(
                Value::Float(f).coerce(DataType::Int).unwrap(),
                Value::Int(i)
            );
        }
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Int(3).coerce(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Value::Float(3.0).coerce(DataType::Int).unwrap(),
            Value::Int(3)
        );
        assert!(Value::Float(3.5).coerce(DataType::Int).is_err());
        assert_eq!(
            Value::Text(" 42 ".into()).coerce(DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::Text("yes".into()).coerce(DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::Int(7).coerce(DataType::Text).unwrap(),
            Value::Text("7".into())
        );
        assert!(Value::Text("abc".into()).coerce(DataType::Float).is_err());
        assert_eq!(Value::Null.coerce(DataType::Int).unwrap(), Value::Null);
    }

    #[test]
    fn ordering_rules() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Less);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Equal);
        assert_eq!(Value::Int(3).total_cmp(&Value::Float(2.5)), Greater);
        assert_eq!(
            Value::Text("a".into()).total_cmp(&Value::Text("b".into())),
            Less
        );
    }

    #[test]
    fn nan_ordering_is_transitive_and_deterministic() {
        use std::cmp::Ordering::*;
        let nan = Value::Float(f64::NAN);
        // NaN sorts last: greater than every number, equal to itself.
        assert_eq!(nan.total_cmp(&Value::Int(1)), Greater);
        assert_eq!(Value::Int(1).total_cmp(&nan), Less);
        assert_eq!(nan.total_cmp(&Value::Float(f64::INFINITY)), Greater);
        assert_eq!(nan.total_cmp(&Value::Float(f64::NAN)), Equal);
        // The comparator is a strict weak order over a NaN-containing set:
        // sorting must not panic and must be stable across input orders.
        let mut a = vec![
            Value::Float(2.0),
            Value::Float(f64::NAN),
            Value::Int(1),
            Value::Null,
            Value::Float(-1.5),
        ];
        let mut b = a.clone();
        b.reverse();
        a.sort_by(|x, y| x.total_cmp(y));
        b.sort_by(|x, y| x.total_cmp(y));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total_cmp(y), Equal);
        }
        assert!(a[0].is_null());
        assert!(matches!(a[4], Value::Float(f) if f.is_nan()));
    }

    #[test]
    fn value_key_total_order_matches_numeric_order() {
        let keys: Vec<ValueKey> = [
            f64::NEG_INFINITY,
            -3.5,
            -0.0,
            0.0,
            1.0,
            2.5,
            f64::INFINITY,
            f64::NAN,
        ]
        .iter()
        .map(|f| ValueKey::of(&Value::Float(*f)))
        .collect();
        for w in keys.windows(2) {
            assert!(w[0] <= w[1], "{:?} > {:?}", w[0], w[1]);
        }
        // -0.0 and 0.0 collapse; every NaN payload collapses.
        assert_eq!(keys[2].cmp(&keys[3]), Ordering::Equal);
        assert_eq!(
            ValueKey::of(&Value::Float(f64::NAN)),
            ValueKey::of(&Value::Float(-f64::NAN))
        );
        assert!(ValueKey::Null < ValueKey::of(&Value::Int(i64::MIN)));
    }

    #[test]
    fn numbers_compare_and_key_exactly_beyond_2_pow_53() {
        use std::cmp::Ordering::*;
        let p = 1i64 << 53;
        let (a, b) = (Value::Int(p), Value::Int(p + 1));
        assert_eq!(a.total_cmp(&b), Less);
        assert!(!a.sql_eq(&b) && a != b);
        assert_ne!(ValueKey::of(&a), ValueKey::of(&b));
        // `p + 1` has no f64; `p as f64` is `p` exactly.
        assert_eq!(b.total_cmp(&Value::Float(p as f64)), Greater);
        assert_eq!(a.total_cmp(&Value::Float(p as f64)), Equal);
        assert_eq!(ValueKey::of(&a), ValueKey::of(&Value::Float(p as f64)));
        assert_ne!(b, Value::Float(p as f64));
        let max = Value::Int(i64::MAX);
        assert_eq!(max.total_cmp(&Value::Float(9.223372036854776e18)), Less);
        assert_eq!(
            Value::Int(i64::MIN).total_cmp(&Value::Float(-9.223372036854776e18)),
            Equal
        );
        assert_eq!(Value::Int(-3).total_cmp(&Value::Float(-2.5)), Less);
        assert_eq!(Value::Int(-2).total_cmp(&Value::Float(-2.5)), Greater);
        assert_eq!(
            Value::Int(0).total_cmp(&Value::Float(f64::NEG_INFINITY)),
            Greater
        );
        // An ordered index over a FLOAT column mixes both key kinds.
        let keys: Vec<ValueKey> = [-2.5, -2.0, -0.0, 0.5, 1.0, 1.5, 1e300, f64::NAN]
            .iter()
            .map(|f| ValueKey::of(&Value::Float(*f)))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert!(ValueKey::of(&Value::Int(i64::MAX)) < ValueKey::of(&Value::Float(1e300)));
    }

    #[test]
    fn sql_eq_null_is_never_equal() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(Value::Int(1).sql_eq(&Value::Float(1.0)));
        assert!(!Value::Int(1).sql_eq(&Value::Text("1".into())));
    }

    #[test]
    fn timestamp_parse_format_roundtrip() {
        let cases = [
            "1970-01-01 00:00:00",
            "2004-11-23 18:30:30",
            "2026-07-06 12:00:00",
            "1969-12-31 23:59:59",
            "2000-02-29 01:02:03",
        ];
        for c in cases {
            let t = parse_timestamp(c).unwrap();
            assert_eq!(format_timestamp(t), c, "case {c}");
        }
    }

    #[test]
    fn timestamp_epoch_is_zero() {
        assert_eq!(parse_timestamp("1970-01-01"), Some(0));
        assert_eq!(parse_timestamp("1970-01-02"), Some(86_400));
        assert_eq!(
            parse_timestamp("2004-11-23T18:30:30"),
            parse_timestamp("2004-11-23 18:30:30")
        );
    }

    #[test]
    fn timestamp_rejects_malformed() {
        for bad in [
            "",
            "2004",
            "2004-13-01",
            "2004-00-10",
            "2004-01-32",
            "2004-1-1 25:00",
            "x-y-z",
        ] {
            assert_eq!(parse_timestamp(bad), None, "{bad}");
        }
    }

    #[test]
    fn value_key_equivalence_classes() {
        assert_eq!(
            ValueKey::of(&Value::Int(1)),
            ValueKey::of(&Value::Float(1.0))
        );
        assert_eq!(
            ValueKey::of(&Value::Float(0.0)),
            ValueKey::of(&Value::Float(-0.0))
        );
        assert_eq!(
            ValueKey::of(&Value::Timestamp(5)),
            ValueKey::of(&Value::Int(5))
        );
        assert_ne!(
            ValueKey::of(&Value::Int(1)),
            ValueKey::of(&Value::Text("1".into()))
        );
        assert_ne!(
            ValueKey::of(&Value::Bool(true)),
            ValueKey::of(&Value::Int(1))
        );
        assert!(ValueKey::of(&Value::Null).is_null());
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ValueKey::of(&Value::Int(2)));
        assert!(set.contains(&ValueKey::of(&Value::Float(2.0))));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(
            Value::Timestamp(parse_timestamp("2004-11-23 18:30:30").unwrap()).to_string(),
            "2004-11-23 18:30:30"
        );
    }
}
