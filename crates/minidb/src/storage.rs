//! In-memory table storage with lightweight statistics.
//!
//! Tables are row vectors with type-checked inserts. Each table keeps the
//! statistics the cost model needs — row count, average row width and
//! per-column distinct estimates — updated incrementally on insert (the
//! distinct estimate is exact below a cap, then switches to a conservative
//! ratio, which is all the optimizer's selectivity heuristics require).

use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::value::{Row, Value};
use std::collections::HashSet;

/// Cap on exact distinct counting per column; beyond it we extrapolate.
const DISTINCT_CAP: usize = 10_000;

/// Per-column statistics.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Exact distinct values while below [`DISTINCT_CAP`].
    seen: HashSet<Value>,
    /// `true` once the exact set was abandoned.
    saturated: bool,
    /// NULL count.
    pub nulls: u64,
}

impl ColumnStats {
    fn new() -> ColumnStats {
        ColumnStats {
            seen: HashSet::new(),
            saturated: false,
            nulls: 0,
        }
    }

    fn observe(&mut self, v: &Value) {
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        if !self.saturated {
            self.seen.insert(v.clone());
            if self.seen.len() > DISTINCT_CAP {
                self.saturated = true;
                self.seen.clear();
                self.seen.shrink_to_fit();
            }
        }
    }

    /// Estimated number of distinct non-NULL values given `row_count` rows.
    pub fn distinct_estimate(&self, row_count: u64) -> u64 {
        if self.saturated {
            // Beyond the cap assume high cardinality: half the rows.
            (row_count / 2).max(DISTINCT_CAP as u64)
        } else {
            self.seen.len() as u64
        }
    }
}

/// Table-level statistics.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Number of rows.
    pub row_count: u64,
    /// Mean serialized row width in bytes (rough, for I/O costing).
    pub avg_row_bytes: f64,
    /// Per-column stats.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    fn new(num_columns: usize) -> TableStats {
        TableStats {
            row_count: 0,
            avg_row_bytes: 0.0,
            columns: (0..num_columns).map(|_| ColumnStats::new()).collect(),
        }
    }

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
        for (c, v) in self.columns.iter_mut().zip(row) {
            c.observe(v);
        }
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
        let stats = TableStats::new(schema.len());
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            stats,
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

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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
        assert_eq!(t.len(), 1);
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
        assert_eq!(t.stats().columns[0].nulls, 1);
    }

    #[test]
    fn stats_track_counts_and_distincts() {
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
        assert_eq!(s.columns[0].distinct_estimate(100), 100);
        assert_eq!(s.columns[1].distinct_estimate(100), 10);
        assert_eq!(s.columns[2].distinct_estimate(100), 5);
        assert!(s.avg_row_bytes > 16.0);
    }

    #[test]
    fn distinct_saturation_extrapolates() {
        let mut stats = ColumnStats::new();
        for i in 0..(DISTINCT_CAP as i64 + 10) {
            stats.observe(&Value::Int(i));
        }
        assert!(stats.saturated);
        let est = stats.distinct_estimate(1_000_000);
        assert!(est >= DISTINCT_CAP as u64);
    }
}
