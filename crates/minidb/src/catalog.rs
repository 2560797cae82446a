//! The catalog: tables and views by (case-insensitive) name.
//!
//! Views store their parsed defining `SELECT`; the binder inlines a view by
//! re-binding its definition at reference time, exactly like the
//! select-project views over base tables that the paper's real deployment
//! uses (§5.2: "80 select-project views over these tables").

use crate::error::{DbError, DbResult};
use crate::sql::ast::SelectStmt;
use crate::storage::Table;
use std::collections::HashMap;

/// A stored view definition.
#[derive(Debug, Clone)]
pub struct View {
    /// The view name.
    pub name: String,
    /// The defining `SELECT` statement.
    pub select: SelectStmt,
}

/// The namespace of tables and views.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    views: HashMap<String, View>,
}

fn key(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers a table.
    ///
    /// # Errors
    /// `Catalog` if a table or view with the name exists.
    pub fn create_table(&mut self, table: Table) -> DbResult<()> {
        let k = key(table.name());
        if self.tables.contains_key(&k) || self.views.contains_key(&k) {
            return Err(DbError::catalog(format!(
                "relation '{}' already exists",
                table.name()
            )));
        }
        self.tables.insert(k, table);
        Ok(())
    }

    /// Registers a view.
    ///
    /// # Errors
    /// `Catalog` if a table or view with the name exists.
    pub fn create_view(&mut self, view: View) -> DbResult<()> {
        let k = key(&view.name);
        if self.tables.contains_key(&k) || self.views.contains_key(&k) {
            return Err(DbError::catalog(format!(
                "relation '{}' already exists",
                view.name
            )));
        }
        self.views.insert(k, view);
        Ok(())
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&key(name))
    }

    /// Mutable table lookup (INSERT path).
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(&key(name))
    }

    /// Looks up a view.
    pub fn view(&self, name: &str) -> Option<&View> {
        self.views.get(&key(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::sql::ast::Statement;
    use crate::sql::parser::parse_statement;
    use crate::value::DataType;

    fn t(name: &str) -> Table {
        Table::new(name, Schema::new(vec![Column::new("x", DataType::Int)]))
    }

    fn view(name: &str) -> View {
        let Statement::Select(select) = parse_statement("SELECT x FROM a").unwrap() else {
            unreachable!()
        };
        View {
            name: name.into(),
            select,
        }
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.create_table(t("Emp")).unwrap();
        assert!(c.table("emp").is_some());
        assert!(c.table("EMP").is_some());
        assert!(c.table("dept").is_none());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = Catalog::new();
        c.create_table(t("a")).unwrap();
        assert!(matches!(
            c.create_table(t("A")).unwrap_err(),
            DbError::Catalog(_)
        ));
    }

    #[test]
    fn view_and_table_share_namespace() {
        let mut c = Catalog::new();
        c.create_table(t("a")).unwrap();
        assert!(c.create_view(view("a")).is_err());
        c.create_view(view("va")).unwrap();
        assert!(c.view("VA").is_some());
        assert!(c.create_table(t("va")).is_err());
    }
}
