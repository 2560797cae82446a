//! Schemas: ordered, possibly-qualified column lists.
//!
//! Every operator's output carries a [`Schema`]. Columns are resolved by
//! name during binding (qualified `alias.col` or bare `col` when
//! unambiguous) and referenced by ordinal everywhere after that — execution
//! never does string lookups.

use crate::error::{DbError, DbResult};
use crate::value::DataType;
use std::fmt;

/// One output column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// The table alias qualifying this column, if any.
    pub qualifier: Option<String>,
    /// The column name.
    pub name: String,
    /// The column type.
    pub ty: DataType,
}

impl Column {
    /// An unqualified column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Column {
        Column {
            qualifier: None,
            name: name.into(),
            ty,
        }
    }

    /// A qualified column.
    pub fn qualified(
        qualifier: impl Into<String>,
        name: impl Into<String>,
        ty: DataType,
    ) -> Column {
        Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
            ty,
        }
    }

    /// `true` iff this column answers to `qualifier.name` / bare `name`.
    fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match qualifier {
            None => true,
            Some(q) => self
                .qualifier
                .as_deref()
                .is_some_and(|cq| cq.eq_ignore_ascii_case(q)),
        }
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{} {}", self.name, self.ty),
            None => write!(f, "{} {}", self.name, self.ty),
        }
    }
}

/// An ordered column list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Builds from columns.
    pub fn new(columns: Vec<Column>) -> Schema {
        Schema { columns }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` iff no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The column at ordinal `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Resolves `qualifier.name` (or bare `name`) to an ordinal.
    ///
    /// # Errors
    /// `Binding` if the column is unknown or (for bare names) ambiguous.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> DbResult<usize> {
        let mut hits = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.matches(qualifier, name));
        let first = hits.next();
        let second = hits.next();
        match (first, second) {
            (Some((i, _)), None) => Ok(i),
            (Some(_), Some(_)) => Err(DbError::binding(format!(
                "ambiguous column '{}'",
                display_name(qualifier, name)
            ))),
            (None, _) => Err(DbError::binding(format!(
                "unknown column '{}'",
                display_name(qualifier, name)
            ))),
        }
    }

    /// A new schema with every column re-qualified to `alias` (what a
    /// `FROM table AS alias` does).
    pub fn with_qualifier(&self, alias: &str) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| Column::qualified(alias, c.name.clone(), c.ty))
                .collect(),
        }
    }

    /// Concatenation — the output schema of a join.
    pub fn join(&self, right: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(right.columns.iter().cloned());
        Schema { columns }
    }
}

fn display_name(qualifier: Option<&str>, name: &str) -> String {
    match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::qualified("e", "id", DataType::Int),
            Column::qualified("e", "name", DataType::Text),
            Column::qualified("d", "id", DataType::Int),
            Column::qualified("d", "budget", DataType::Float),
        ])
    }

    #[test]
    fn resolve_qualified() {
        let s = sample();
        assert_eq!(s.resolve(Some("e"), "id").unwrap(), 0);
        assert_eq!(s.resolve(Some("d"), "id").unwrap(), 2);
        assert_eq!(s.resolve(Some("d"), "budget").unwrap(), 3);
    }

    #[test]
    fn resolve_bare_unambiguous() {
        let s = sample();
        assert_eq!(s.resolve(None, "name").unwrap(), 1);
        assert_eq!(s.resolve(None, "budget").unwrap(), 3);
    }

    #[test]
    fn resolve_bare_ambiguous_errors() {
        let s = sample();
        let err = s.resolve(None, "id").unwrap_err();
        assert!(matches!(err, DbError::Binding(m) if m.contains("ambiguous")));
    }

    #[test]
    fn resolve_unknown_errors() {
        let s = sample();
        assert!(matches!(
            s.resolve(None, "salary").unwrap_err(),
            DbError::Binding(m) if m.contains("unknown")
        ));
        assert!(s.resolve(Some("x"), "id").is_err());
    }

    #[test]
    fn resolution_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.resolve(Some("E"), "ID").unwrap(), 0);
        assert_eq!(s.resolve(None, "NAME").unwrap(), 1);
    }

    #[test]
    fn with_qualifier_rewrites_all() {
        let s = Schema::new(vec![Column::new("a", DataType::Int)]).with_qualifier("t");
        assert_eq!(s.resolve(Some("t"), "a").unwrap(), 0);
        assert!(s.resolve(Some("u"), "a").is_err());
    }

    #[test]
    fn join_concatenates() {
        let l = Schema::new(vec![Column::new("a", DataType::Int)]);
        let r = Schema::new(vec![Column::new("b", DataType::Text)]);
        let j = l.join(&r);
        assert_eq!(j.len(), 2);
        assert_eq!(j.resolve(None, "b").unwrap(), 1);
    }

    #[test]
    fn display_round_trips_names() {
        let s = Schema::new(vec![Column::qualified("t", "x", DataType::Float)]);
        assert_eq!(s.to_string(), "(t.x FLOAT)");
    }
}
