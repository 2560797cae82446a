//! In-memory table storage with lightweight statistics.
//!
//! Tables are row vectors with type-checked inserts. Each table keeps the
//! statistics the cost model reads — row count and average row width —
//! updated incrementally on insert.

use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::value::{Row, Value};

/// Table-level statistics.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Number of rows.
    pub row_count: u64,
    /// Mean serialized row width in bytes (rough, for I/O costing).
    pub avg_row_bytes: f64,
}

impl TableStats {
    fn observe(&mut self, row: &Row) {
        let bytes: usize = row
            .iter()
            .map(|v| match v {
                Value::Null | Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 8,
                Value::Str(s) => s.len() + 4,
            })
            .sum();
        let n = self.row_count as f64;
        self.avg_row_bytes = (self.avg_row_bytes * n + bytes as f64) / (n + 1.0);
        self.row_count += 1;
    }
}

/// An in-memory table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
    stats: TableStats,
}

impl Table {
    /// An empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            stats: TableStats::default(),
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The statistics.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Inserts a row after arity/type checking (INT coerces into FLOAT
    /// columns).
    pub fn insert(&mut self, row: Row) -> DbResult<()> {
        if row.len() != self.schema.len() {
            return Err(DbError::type_err(format!(
                "table '{}' expects {} values, got {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        let mut coerced = Vec::with_capacity(row.len());
        for (v, col) in row.into_iter().zip(self.schema.columns()) {
            if !v.fits(col.ty) {
                return Err(DbError::type_err(format!(
                    "value {v} does not fit column '{}' of type {}",
                    col.name, col.ty
                )));
            }
            coerced.push(v.coerce(col.ty));
        }
        self.stats.observe(&coerced);
        self.rows.push(coerced);
        Ok(())
    }

    /// The stored rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn table() -> Table {
        Table::new(
            "t",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("score", DataType::Float),
                Column::new("tag", DataType::Text),
            ]),
        )
    }

    #[test]
    fn insert_typechecks() {
        let mut t = table();
        t.insert(vec![
            Value::Int(1),
            Value::Float(0.5),
            Value::Str("a".into()),
        ])
        .unwrap();
        assert_eq!(t.rows().len(), 1);
        let err = t
            .insert(vec![
                Value::Str("oops".into()),
                Value::Float(0.5),
                Value::Str("a".into()),
            ])
            .unwrap_err();
        assert!(matches!(err, DbError::Type(_)));
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut t = table();
        assert!(matches!(
            t.insert(vec![Value::Int(1)]).unwrap_err(),
            DbError::Type(m) if m.contains("expects 3")
        ));
    }

    #[test]
    fn int_coerces_into_float_column() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Int(2), Value::Str("x".into())])
            .unwrap();
        assert_eq!(t.rows()[0][1], Value::Float(2.0));
    }

    #[test]
    fn nulls_fit_everywhere() {
        let mut t = table();
        t.insert(vec![Value::Null, Value::Null, Value::Null])
            .unwrap();
        assert_eq!(t.rows()[0], vec![Value::Null; 3]);
    }

    #[test]
    fn stats_track_count_and_width() {
        let mut t = table();
        for i in 0..100 {
            t.insert(vec![
                Value::Int(i),
                Value::Float((i % 10) as f64),
                Value::Str(format!("tag{}", i % 5)),
            ])
            .unwrap();
        }
        let s = t.stats();
        assert_eq!(s.row_count, 100);
        assert!(s.avg_row_bytes > 16.0);
    }
}
