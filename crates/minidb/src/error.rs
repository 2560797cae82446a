//! Error handling.
//!
//! One error enum for the whole engine; variants carry enough context to be
//! actionable without backtraces. No panics on user input — the parser,
//! binder and executor all return `DbResult`.

use std::fmt;

/// Any error the engine can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Lexer/parser rejection with position info.
    Parse(String),
    /// Name resolution failure (unknown table/column/view, ambiguity).
    Binding(String),
    /// Type mismatch in an expression or insert.
    Type(String),
    /// Catalog conflicts (duplicate table, unknown drop target, …).
    Catalog(String),
    /// Runtime evaluation failure (division by zero, overflow, …).
    Execution(String),
}

/// The engine-wide result alias.
pub(crate) type DbResult<T> = Result<T, DbError>;

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(m) => write!(f, "parse error: {m}"),
            DbError::Binding(m) => write!(f, "binding error: {m}"),
            DbError::Type(m) => write!(f, "type error: {m}"),
            DbError::Catalog(m) => write!(f, "catalog error: {m}"),
            DbError::Execution(m) => write!(f, "execution error: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

impl DbError {
    /// Shorthand constructor for parse errors.
    pub(crate) fn parse(msg: impl Into<String>) -> DbError {
        DbError::Parse(msg.into())
    }

    /// Shorthand constructor for binding errors.
    pub(crate) fn binding(msg: impl Into<String>) -> DbError {
        DbError::Binding(msg.into())
    }

    /// Shorthand constructor for type errors.
    pub(crate) fn type_err(msg: impl Into<String>) -> DbError {
        DbError::Type(msg.into())
    }

    /// Shorthand constructor for catalog errors.
    pub(crate) fn catalog(msg: impl Into<String>) -> DbError {
        DbError::Catalog(msg.into())
    }

    /// Shorthand constructor for execution errors.
    pub(crate) fn execution(msg: impl Into<String>) -> DbError {
        DbError::Execution(msg.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        assert_eq!(
            DbError::parse("unexpected ')'").to_string(),
            "parse error: unexpected ')'"
        );
        assert_eq!(
            DbError::binding("unknown column x").to_string(),
            "binding error: unknown column x"
        );
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(DbError::type_err("a"), DbError::Type("a".into()));
        assert_ne!(DbError::type_err("a"), DbError::parse("a"));
    }
}
