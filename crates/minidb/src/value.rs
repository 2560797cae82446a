//! Runtime values and data types.
//!
//! Three scalar types cover the paper's select-join-project-sort workload:
//! 64-bit integers, 64-bit floats and UTF-8 strings, plus SQL `NULL`.
//! Values are totally ordered (NULLs first, floats by IEEE `total_cmp`) so
//! sort never has to handle incomparable pairs, and hashing
//! is consistent with equality (floats hash their bit pattern after
//! normalizing `-0.0`, integers and equal-valued floats intentionally hash
//! differently only when they compare differently).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean (produced by predicates; storable).
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Text,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "BOOL"),
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Text => write!(f, "TEXT"),
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL (typeless).
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
}

impl Value {
    /// The value's type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Text),
        }
    }

    /// `true` iff NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (Int or Float) as f64, if applicable.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// `true` iff the value is a non-NULL number.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Whether this value can be stored in a column of type `ty`
    /// (NULL fits anywhere; INT widens into FLOAT).
    pub fn fits(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Bool(_), DataType::Bool)
                | (Value::Int(_), DataType::Int)
                | (Value::Int(_), DataType::Float)
                | (Value::Float(_), DataType::Float)
                | (Value::Str(_), DataType::Text)
        )
    }

    /// Coerces into column type `ty` (only INT → FLOAT actually converts).
    pub fn coerce(self, ty: DataType) -> Value {
        match (self, ty) {
            (Value::Int(i), DataType::Float) => Value::Float(i as f64),
            (v, _) => v,
        }
    }

    /// Normalized float bits for hashing (`-0.0` → `0.0`, all NaNs equal).
    fn float_bits(f: f64) -> u64 {
        if f == 0.0 {
            0u64
        } else if f.is_nan() {
            f64::NAN.to_bits()
        } else {
            f.to_bits()
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: NULL < numbers < strings; Int and Float compare
    /// numerically (so `1 = 1.0`); floats use `total_cmp` among themselves.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Bool(_), _) => Ordering::Less,
            (_, Bool(_)) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => cmp_f64(*a, *b),
            (Int(a), Float(b)) => cmp_f64(*a as f64, *b),
            (Float(a), Int(b)) => cmp_f64(*a, *b as f64),
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
            // Numbers hash through their f64 representation so that
            // Int(1) and Float(1.0), which compare equal, hash equal.
            Value::Int(i) => {
                1u8.hash(state);
                Value::float_bits(*i as f64).hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                Value::float_bits(*f).hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

/// Float comparison for the total order: `-0.0 == 0.0` (unlike raw
/// `total_cmp`), NaNs equal to each other and ordered after all numbers.
fn cmp_f64(a: f64, b: f64) -> Ordering {
    if a == b {
        Ordering::Equal
    } else {
        a.total_cmp(&b)
    }
}

/// A tuple of values — one table/operator row.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn total_order_across_types() {
        let mut vs = vec![
            Value::Str("b".into()),
            Value::Int(5),
            Value::Null,
            Value::Float(2.5),
            Value::Str("a".into()),
            Value::Int(-1),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Int(-1),
                Value::Float(2.5),
                Value::Int(5),
                Value::Str("a".into()),
                Value::Str("b".into()),
            ]
        );
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(2.5) > Value::Int(2));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(h(&Value::Int(1)), h(&Value::Float(1.0)));
        assert_eq!(h(&Value::Float(0.0)), h(&Value::Float(-0.0)));
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
    }

    #[test]
    fn nan_is_self_consistent() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(h(&nan), h(&nan.clone()));
    }

    #[test]
    fn fits_and_coerce() {
        assert!(Value::Int(1).fits(DataType::Float));
        assert!(!Value::Float(1.0).fits(DataType::Int));
        assert!(Value::Null.fits(DataType::Text));
        assert_eq!(Value::Int(3).coerce(DataType::Float), Value::Float(3.0));
        assert_eq!(
            Value::Str("x".into()).coerce(DataType::Text),
            Value::Str("x".into())
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Str("hi".into()).to_string(), "'hi'");
    }

    #[test]
    fn as_f64_views() {
        assert_eq!(Value::Int(2).as_f64(), Some(2.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }
}
