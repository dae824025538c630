//! The experiment model (paper §3, §3.1).
//!
//! An *experiment* is the system under evaluation. It is defined by meta
//! information, a set of typed *input parameters* and *result values*
//! (collectively: variables), and an access-control list. Each execution of
//! the experiment is a *run*, stored as a set of parameter and result
//! contents; variables are either constant per run (*unique occurrence*) or
//! vectors (*multiple occurrence*) whose element tuples form *data sets*.

mod db;
pub mod shard;

pub use db::{ExperimentDb, RunSummary};
pub use shard::Sharding;

use crate::error::{Error, Result};
use crate::units::Unit;
use sqldb::{parse_timestamp, DataType, Value};
use std::borrow::Cow;

/// Is a variable an input parameter or a result value?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Input parameter: a constraint the experiment ran under.
    Parameter,
    /// Result value: something the run produced.
    ResultValue,
}

/// How often content occurs within one run (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Occurrence {
    /// Constant throughout the run.
    Once,
    /// A vector of content; tuples of such vectors form data sets.
    #[default]
    Multiple,
}

/// One experiment variable (a `<parameter>` or `<result>` in Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Unique name (a valid identifier).
    pub name: String,
    /// Parameter or result.
    pub kind: VarKind,
    /// Unique or multiple occurrence.
    pub occurrence: Occurrence,
    /// One-line summary.
    pub synopsis: String,
    /// Longer description.
    pub description: String,
    /// Data type.
    pub datatype: DataType,
    /// Physical/logical unit.
    pub unit: Unit,
    /// Whitelist of valid content; empty = anything goes (Fig. 5:
    /// "specification of valid content. All other content will be
    /// rejected").
    pub valid: Vec<String>,
    /// Default content used when an input file provides none.
    pub default: Option<Value>,
}

impl Variable {
    /// Minimal constructor; fill optional fields via struct update.
    pub fn new(name: &str, kind: VarKind, datatype: DataType) -> Self {
        Variable {
            name: name.to_string(),
            kind,
            occurrence: Occurrence::default(),
            synopsis: String::new(),
            description: String::new(),
            datatype,
            unit: Unit::Dimensionless,
            valid: Vec::new(),
            default: None,
        }
    }

    /// Builder: set unique occurrence.
    pub fn once(mut self) -> Self {
        self.occurrence = Occurrence::Once;
        self
    }

    /// Builder: set synopsis.
    pub fn with_synopsis(mut self, s: &str) -> Self {
        self.synopsis = s.to_string();
        self
    }

    /// Builder: set unit.
    pub fn with_unit(mut self, u: Unit) -> Self {
        self.unit = u;
        self
    }

    /// Builder: restrict valid content.
    pub fn with_valid(mut self, valid: &[&str]) -> Self {
        self.valid = valid.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Builder: set default content.
    pub fn with_default(mut self, v: Value) -> Self {
        self.default = Some(v);
        self
    }

    /// Parse raw text content for this variable, honouring the data type
    /// and the valid-content whitelist. This is the "smart parsing" sitting
    /// behind every location type (paper §3.2): numbers may carry trailing
    /// unit text, which is stripped.
    pub fn parse_content(&self, raw: &str) -> Result<Value> {
        let raw = raw.trim();
        if raw.is_empty() {
            return Ok(Value::Null);
        }
        if !self.valid.is_empty() && !self.valid.iter().any(|v| v == raw) {
            return Err(Error::Extraction(format!(
                "content '{raw}' is not in the valid set of variable '{}'",
                self.name
            )));
        }
        let bad = |what: &str| {
            Error::Extraction(format!(
                "cannot parse '{raw}' as {what} for variable '{}'",
                self.name
            ))
        };
        match self.datatype {
            DataType::Int => {
                let tok = leading_number_token(raw);
                tok.parse::<i64>()
                    .map(Value::Int)
                    .or_else(|_| {
                        // Allow float-shaped integers like "4.0" or "1e3",
                        // if they fit: `as` would saturate out of range.
                        const LIMIT: f64 = 9_223_372_036_854_775_808.0; // 2^63
                        tok.parse::<f64>()
                            .ok()
                            .filter(|f| f.fract() == 0.0 && (-LIMIT..LIMIT).contains(f))
                            .map(|f| Value::Int(f as i64))
                            .ok_or(())
                    })
                    .map_err(|_| bad("integer"))
            }
            // A token too large for a double parses to ±inf, which no
            // filter can name: refused like any other unparsable token.
            DataType::Float => leading_number_token(raw)
                .parse::<f64>()
                .ok()
                .filter(|f| f.is_finite())
                .map(Value::Float)
                .ok_or_else(|| bad("float")),
            DataType::Text => Ok(Value::Text(raw.to_string())),
            DataType::Bool => match raw.to_ascii_lowercase().as_str() {
                "true" | "yes" | "on" | "1" | "t" => Ok(Value::Bool(true)),
                "false" | "no" | "off" | "0" | "f" => Ok(Value::Bool(false)),
                _ => Err(bad("boolean")),
            },
            DataType::Timestamp => parse_timestamp(raw)
                .map(Value::Timestamp)
                .or_else(|| parse_ctime(raw).map(Value::Timestamp))
                .ok_or_else(|| bad("timestamp")),
        }
    }
}

/// The leading numeric token of `raw`: strips trailing unit text
/// ("2.000 MBytes" → "2.000") and thousands separators ("1,048,576"). The
/// token is borrowed from `raw` unless a separator has to be dropped.
fn leading_number_token(raw: &str) -> Cow<'_, str> {
    let numeric = |c: char| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E');
    let end = raw
        .find(|c: char| !numeric(c) && c != ',')
        .unwrap_or(raw.len());
    let tok = &raw[..end];
    if tok.contains(',') {
        let mut cleaned: String = tok.chars().filter(|c| *c != ',').collect();
        cleaned.truncate(without_dangling_exponent(&cleaned).len());
        Cow::Owned(cleaned)
    } else {
        Cow::Borrowed(without_dangling_exponent(tok))
    }
}

/// `tok` without a trailing 'e'/'E', sign or '.' that starts no exponent or
/// fraction: it belongs to unit text ("2 E").
fn without_dangling_exponent(mut tok: &str) -> &str {
    while tok.ends_with(['e', 'E', '+', '-', '.']) && !tok.is_empty() {
        let last_is_exp_start = tok.ends_with(['e', 'E']);
        let body = &tok[..tok.len() - 1];
        if (last_is_exp_start || tok.ends_with(['+', '-']) || tok.ends_with('.'))
            && (body.parse::<f64>().is_ok() || body.is_empty())
        {
            tok = body;
            continue;
        }
        break;
    }
    tok
}

/// Parse a ctime-style date as produced by `b_eff_io`:
/// `Tue Nov 23 18:30:30 2004`.
fn parse_ctime(raw: &str) -> Option<i64> {
    let parts: Vec<&str> = raw.split_whitespace().collect();
    if parts.len() != 5 {
        return None;
    }
    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    let month = MONTHS.iter().position(|m| *m == parts[1])? as u32 + 1;
    let day: u32 = parts[2].parse().ok()?;
    let year: i64 = parts[4].parse().ok()?;
    parse_timestamp(&format!("{year:04}-{month:02}-{day:02} {}", parts[3]))
}

/// Who performed the experiment (Fig. 5 `<performed_by>`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Person {
    /// Author name.
    pub name: String,
    /// Affiliation.
    pub organization: String,
}

/// Experiment meta information (paper §3.1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Meta {
    /// Experiment name — also the namespace for its database tables.
    pub name: String,
    /// Project this experiment belongs to.
    pub project: String,
    /// One-line summary.
    pub synopsis: String,
    /// Long description.
    pub description: String,
    /// Author.
    pub performed_by: Person,
}

/// User classes (paper §4.2): query ⊂ input ⊂ admin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessLevel {
    /// May only run queries.
    Query,
    /// May additionally import new runs.
    Input,
    /// Full access, including definition changes.
    Admin,
}

impl AccessLevel {
    /// Parse the textual form stored in `pb_users`.
    pub fn parse(s: &str) -> Result<AccessLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "query" => Ok(AccessLevel::Query),
            "input" => Ok(AccessLevel::Input),
            "admin" => Ok(AccessLevel::Admin),
            other => Err(Error::Definition(format!("unknown access level '{other}'"))),
        }
    }

    /// Textual form.
    pub fn name(&self) -> &'static str {
        match self {
            AccessLevel::Query => "query",
            AccessLevel::Input => "input",
            AccessLevel::Admin => "admin",
        }
    }
}

/// A complete experiment definition: meta info + variables + users.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentDef {
    /// Meta information.
    pub meta: Meta,
    /// All variables in declaration order.
    pub variables: Vec<Variable>,
    /// Access-control list (user name → level).
    pub users: Vec<(String, AccessLevel)>,
}

impl ExperimentDef {
    /// New definition with no variables; the creator becomes admin.
    pub fn new(meta: Meta, creator: &str) -> Self {
        ExperimentDef {
            meta,
            variables: Vec::new(),
            users: vec![(creator.to_string(), AccessLevel::Admin)],
        }
    }

    /// Look up a variable.
    pub fn variable(&self, name: &str) -> Option<&Variable> {
        self.variables.iter().find(|v| v.name == name)
    }

    /// Variables filtered by occurrence.
    pub fn variables_with(&self, occ: Occurrence) -> impl Iterator<Item = &Variable> {
        self.variables.iter().filter(move |v| v.occurrence == occ)
    }

    /// Add a variable (experiment evolution, paper §3.1). Name must be a
    /// fresh valid identifier.
    pub fn add_variable(&mut self, v: Variable) -> Result<()> {
        if !is_identifier(&v.name) {
            return Err(Error::Definition(format!(
                "variable name '{}' is not a valid identifier",
                v.name
            )));
        }
        if self.variable(&v.name).is_some() {
            return Err(Error::Definition(format!(
                "variable '{}' already exists",
                v.name
            )));
        }
        if let Some(d) = &v.default {
            if !d.is_null() && d.clone().coerce(v.datatype).is_err() {
                return Err(Error::Definition(format!(
                    "default value for '{}' does not fit its type",
                    v.name
                )));
            }
        }
        self.variables.push(v);
        Ok(())
    }

    /// Replace an existing variable's definition (evolution: "values and
    /// parameters can be … modified").
    pub fn modify_variable(&mut self, v: Variable) -> Result<()> {
        match self.variables.iter_mut().find(|x| x.name == v.name) {
            Some(slot) => {
                *slot = v;
                Ok(())
            }
            None => Err(Error::Definition(format!(
                "variable '{}' does not exist",
                v.name
            ))),
        }
    }

    /// Remove a variable.
    pub fn remove_variable(&mut self, name: &str) -> Result<Variable> {
        match self.variables.iter().position(|v| v.name == name) {
            Some(i) => Ok(self.variables.remove(i)),
            None => Err(Error::Definition(format!(
                "variable '{name}' does not exist"
            ))),
        }
    }

    /// Grant (or change) a user's access level.
    pub fn grant(&mut self, user: &str, level: AccessLevel) {
        match self.users.iter_mut().find(|(u, _)| u == user) {
            Some(slot) => slot.1 = level,
            None => self.users.push((user.to_string(), level)),
        }
    }

    /// Revoke a user's access entirely.
    pub fn revoke(&mut self, user: &str) -> Result<()> {
        let admins = self
            .users
            .iter()
            .filter(|(_, l)| *l == AccessLevel::Admin)
            .count();
        if admins == 1
            && self
                .users
                .iter()
                .any(|(u, l)| u == user && *l == AccessLevel::Admin)
        {
            return Err(Error::Access("cannot revoke the last admin".to_string()));
        }
        let before = self.users.len();
        self.users.retain(|(u, _)| u != user);
        if self.users.len() == before {
            return Err(Error::Definition(format!(
                "user '{user}' has no access to revoke"
            )));
        }
        Ok(())
    }

    /// Check that `user` holds at least `level`.
    pub fn check_access(&self, user: &str, level: AccessLevel) -> Result<()> {
        match self.users.iter().find(|(u, _)| u == user) {
            Some((_, have)) if *have >= level => Ok(()),
            Some((_, have)) => Err(Error::Access(format!(
                "user '{user}' has {} access but {} is required",
                have.name(),
                level.name()
            ))),
            None => Err(Error::Access(format!("user '{user}' is not authorised"))),
        }
    }
}

/// Is `s` a valid variable identifier (letters, digits, `_`, not starting
/// with a digit)?
pub fn is_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn float_var(name: &str) -> Variable {
        Variable::new(name, VarKind::ResultValue, DataType::Float)
    }

    #[test]
    fn content_parsing_smart() {
        let v = float_var("bw");
        assert_eq!(v.parse_content("214.516").unwrap(), Value::Float(214.516));
        assert_eq!(v.parse_content(" 2.000 MBytes").unwrap(), Value::Float(2.0));
        assert_eq!(v.parse_content("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(v.parse_content("").unwrap(), Value::Null);
        assert!(v.parse_content("n/a").is_err());
        assert_eq!(v.parse_content("1.7e308").unwrap(), Value::Float(1.7e308));
        for big in ["1e400", "-1e400"] {
            let e = v.parse_content(big).unwrap_err().to_string();
            assert!(e.contains(&format!("cannot parse '{big}' as float")), "{e}");
        }

        let i = Variable::new("n", VarKind::Parameter, DataType::Int);
        assert_eq!(i.parse_content("256 MBytes").unwrap(), Value::Int(256));
        assert_eq!(i.parse_content("1,048,576").unwrap(), Value::Int(1_048_576));
        assert_eq!(i.parse_content("4.0").unwrap(), Value::Int(4));
        assert!(i.parse_content("4.5").is_err());
        assert_eq!(
            i.parse_content("-9.223372036854775808e18").unwrap(),
            Value::Int(i64::MIN)
        );
        assert_eq!(
            i.parse_content("9e18").unwrap(),
            Value::Int(9_000_000_000_000_000_000)
        );
        for big in ["1e19", "-1e19", "9.223372036854775808e18", "1e400"] {
            let e = i.parse_content(big).unwrap_err().to_string();
            assert!(
                e.contains(&format!("cannot parse '{big}' as integer")),
                "{e}"
            );
        }
    }

    #[test]
    fn content_validation_whitelist() {
        let v = Variable::new("fs", VarKind::Parameter, DataType::Text)
            .with_valid(&["ufs", "nfs", "pvfs", "unknown"]);
        assert_eq!(v.parse_content("ufs").unwrap(), Value::Text("ufs".into()));
        assert!(v.parse_content("ext3").is_err());
    }

    #[test]
    fn timestamp_content_both_formats() {
        let v = Variable::new("date_run", VarKind::Parameter, DataType::Timestamp);
        let iso = v.parse_content("2004-11-23 18:30:30").unwrap();
        let ctime = v.parse_content("Tue Nov 23 18:30:30 2004").unwrap();
        assert_eq!(iso, ctime);
    }

    #[test]
    fn bool_content() {
        let v = Variable::new("valid", VarKind::ResultValue, DataType::Bool);
        assert_eq!(v.parse_content("yes").unwrap(), Value::Bool(true));
        assert_eq!(v.parse_content("OFF").unwrap(), Value::Bool(false));
        assert!(v.parse_content("maybe").is_err());
    }

    #[test]
    fn definition_evolution() {
        let mut def = ExperimentDef::new(Meta::default(), "joachim");
        def.add_variable(float_var("bw").once()).unwrap();
        assert!(def.add_variable(float_var("bw")).is_err()); // duplicate
        assert!(def.add_variable(float_var("not valid!")).is_err()); // bad name

        let mut v2 = float_var("bw");
        v2.synopsis = "bandwidth".into();
        def.modify_variable(v2).unwrap();
        assert_eq!(def.variable("bw").unwrap().synopsis, "bandwidth");

        def.remove_variable("bw").unwrap();
        assert!(def.remove_variable("bw").is_err());
    }

    #[test]
    fn occurrence_filter() {
        let mut def = ExperimentDef::new(Meta::default(), "a");
        def.add_variable(float_var("a").once()).unwrap();
        def.add_variable(float_var("b")).unwrap();
        assert_eq!(def.variables_with(Occurrence::Once).count(), 1);
        assert_eq!(def.variables_with(Occurrence::Multiple).count(), 1);
    }

    #[test]
    fn access_control_hierarchy() {
        let mut def = ExperimentDef::new(Meta::default(), "admin1");
        def.grant("alice", AccessLevel::Input);
        def.grant("bob", AccessLevel::Query);

        def.check_access("admin1", AccessLevel::Admin).unwrap();
        def.check_access("alice", AccessLevel::Query).unwrap();
        def.check_access("alice", AccessLevel::Input).unwrap();
        assert!(def.check_access("alice", AccessLevel::Admin).is_err());
        assert!(def.check_access("bob", AccessLevel::Input).is_err());
        assert!(def.check_access("eve", AccessLevel::Query).is_err());
    }

    #[test]
    fn revocation_rules() {
        let mut def = ExperimentDef::new(Meta::default(), "admin1");
        def.grant("alice", AccessLevel::Query);
        def.revoke("alice").unwrap();
        assert!(def.revoke("alice").is_err());
        // The last admin cannot be removed.
        assert!(def.revoke("admin1").is_err());
        // With a second admin it works.
        def.grant("admin2", AccessLevel::Admin);
        def.revoke("admin1").unwrap();
    }

    #[test]
    fn grant_updates_existing() {
        let mut def = ExperimentDef::new(Meta::default(), "a");
        def.grant("x", AccessLevel::Query);
        def.grant("x", AccessLevel::Input);
        assert_eq!(def.users.iter().filter(|(u, _)| u == "x").count(), 1);
        def.check_access("x", AccessLevel::Input).unwrap();
    }

    #[test]
    fn identifier_rules() {
        assert!(is_identifier("S_chunk"));
        assert!(is_identifier("_x9"));
        assert!(!is_identifier("9x"));
        assert!(!is_identifier("a-b"));
        assert!(!is_identifier(""));
    }

    #[test]
    fn default_must_fit_type() {
        let mut def = ExperimentDef::new(Meta::default(), "a");
        let bad = Variable::new("n", VarKind::Parameter, DataType::Int)
            .with_default(Value::Text("abc".into()));
        assert!(def.add_variable(bad).is_err());
        let ok = Variable::new("n", VarKind::Parameter, DataType::Int)
            .with_default(Value::Text("42".into()));
        def.add_variable(ok).unwrap();
    }
}
