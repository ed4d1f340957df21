//! Boxed scalar values exchanged between the engine and the column kernel.

use crate::types::{Oid, ScalarType, INT_NIL, LNG_NIL};
use std::cmp::Ordering;
use std::fmt;

/// A single scalar value. `Null` is the SQL NULL; it adopts whatever column
/// type it is stored into (columns use in-band nil sentinels).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bit(bool),
    /// 32-bit integer.
    Int(i32),
    /// 64-bit integer.
    Lng(i64),
    /// Double-precision float.
    Dbl(f64),
    /// Row id.
    Oid(Oid),
    /// String.
    Str(String),
}

impl Value {
    /// The scalar type of this value, `None` for NULL (untyped).
    pub fn scalar_type(&self) -> Option<ScalarType> {
        Some(match self {
            Value::Null => return None,
            Value::Bit(_) => ScalarType::Bit,
            Value::Int(_) => ScalarType::Int,
            Value::Lng(_) => ScalarType::Lng,
            Value::Dbl(_) => ScalarType::Dbl,
            Value::Oid(_) => ScalarType::OidT,
            Value::Str(_) => ScalarType::Str,
        })
    }

    /// Is this the SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view as `i64`, if the value is integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v as i64),
            Value::Lng(v) => Some(*v),
            Value::Oid(v) => Some(*v as i64),
            Value::Bit(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Numeric view as `f64` for any numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Dbl(v) => Some(*v),
            other => other.as_i64().map(|v| v as f64),
        }
    }

    /// Boolean view (SQL three-valued logic: NULL → `None`).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bit(b) => Some(*b),
            Value::Null => None,
            Value::Int(v) => Some(*v != 0),
            Value::Lng(v) => Some(*v != 0),
            _ => None,
        }
    }

    /// Cast this value to the requested kernel type, widening or narrowing
    /// numerics. Returns `None` when the cast is not meaningful (e.g. a
    /// string into an int that does not parse) or out of range. An
    /// `int`/`lng` result equal to its type's nil sentinel is out of
    /// range: the sentinel is never a value.
    pub fn cast(&self, to: ScalarType) -> Option<Value> {
        if self.is_null() {
            return Some(Value::Null);
        }
        Some(match (self, to) {
            (v, t) if v.scalar_type() == Some(t) => v.clone(),
            (Value::Int(v), ScalarType::Lng) => Value::Lng(*v as i64),
            (Value::Int(v), ScalarType::Dbl) => Value::Dbl(*v as f64),
            (Value::Int(v), ScalarType::OidT) => {
                if *v < 0 {
                    return None;
                }
                Value::Oid(*v as Oid)
            }
            (Value::Int(v), ScalarType::Bit) => Value::Bit(*v != 0),
            (Value::Lng(v), ScalarType::Int) => {
                Value::Int(i32::try_from(*v).ok().filter(|&x| x != INT_NIL)?)
            }
            (Value::Lng(v), ScalarType::Dbl) => Value::Dbl(*v as f64),
            (Value::Lng(v), ScalarType::OidT) => Value::Oid(Oid::try_from(*v).ok()?),
            (Value::Dbl(v), ScalarType::Int) => {
                let r = v.round();
                if !(r > f64::from(INT_NIL) && r <= f64::from(i32::MAX)) {
                    return None;
                }
                Value::Int(r as i32)
            }
            (Value::Dbl(v), ScalarType::Lng) => {
                // `i64::MAX as f64` is 2^63, one past the range.
                let r = v.round();
                if !(r > LNG_NIL as f64 && r < i64::MAX as f64) {
                    return None;
                }
                Value::Lng(r as i64)
            }
            (Value::Oid(v), ScalarType::Lng) => Value::Lng(i64::try_from(*v).ok()?),
            (Value::Oid(v), ScalarType::Int) => Value::Int(i32::try_from(*v).ok()?),
            (Value::Oid(v), ScalarType::Dbl) => Value::Dbl(*v as f64),
            (Value::Bit(b), ScalarType::Int) => Value::Int(*b as i32),
            (Value::Bit(b), ScalarType::Lng) => Value::Lng(*b as i64),
            (Value::Str(s), ScalarType::Int) => {
                Value::Int(s.trim().parse().ok().filter(|&x| x != INT_NIL)?)
            }
            (Value::Str(s), ScalarType::Lng) => {
                Value::Lng(s.trim().parse().ok().filter(|&x| x != LNG_NIL)?)
            }
            (Value::Str(s), ScalarType::Dbl) => Value::Dbl(s.trim().parse().ok()?),
            (v, ScalarType::Str) => Value::Str(format!("{v}")),
            _ => return None,
        })
    }

    /// SQL comparison. NULL compares as `None` (unknown); otherwise numeric
    /// values compare by magnitude across widths — integral pairs exactly
    /// as `i64` (`f64` has only 53 bits of mantissa), anything involving a
    /// `dbl` as `f64` — and strings lexicographically.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_i64(), b.as_i64()) {
                (Some(x), Some(y)) => Some(x.cmp(&y)),
                _ => a.as_f64()?.partial_cmp(&b.as_f64()?),
            },
        }
    }

    /// Total ordering used by ORDER BY and grouping: NULL sorts first,
    /// then by [`Value::sql_cmp`]; NaN doubles sort before other doubles.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => match (self, other) {
                (Value::Dbl(a), Value::Dbl(b)) => a.total_cmp(b),
                _ => self.sql_cmp(other).unwrap_or(Ordering::Equal),
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bit(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Lng(v) => write!(f, "{v}"),
            Value::Dbl(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Oid(v) => write!(f, "{v}@0"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Lng(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Dbl(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bit(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_properties() {
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.scalar_type(), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Null.cast(ScalarType::Int), Some(Value::Null));
    }

    #[test]
    fn casts_widen_and_narrow() {
        assert_eq!(Value::Int(7).cast(ScalarType::Lng), Some(Value::Lng(7)));
        assert_eq!(Value::Int(7).cast(ScalarType::Dbl), Some(Value::Dbl(7.0)));
        assert_eq!(Value::Lng(1 << 40).cast(ScalarType::Int), None);
        assert_eq!(Value::Dbl(2.6).cast(ScalarType::Int), Some(Value::Int(3)));
        assert_eq!(
            Value::Str("42".into()).cast(ScalarType::Int),
            Some(Value::Int(42))
        );
        assert_eq!(Value::Str("x".into()).cast(ScalarType::Int), None);
        assert_eq!(Value::Int(-1).cast(ScalarType::OidT), None);
    }

    #[test]
    fn cross_width_comparison() {
        assert_eq!(Value::Int(3).sql_cmp(&Value::Lng(3)), Some(Ordering::Equal));
        assert_eq!(
            Value::Dbl(2.5).sql_cmp(&Value::Int(3)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Str("b".into()).sql_cmp(&Value::Str("a".into())),
            Some(Ordering::Greater)
        );
        // Integral pairs compare exactly, beyond f64's 53-bit mantissa.
        assert_eq!(
            Value::Lng((1 << 53) + 1).sql_cmp(&Value::Lng(1 << 53)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Lng(1 << 53).sql_cmp(&Value::Dbl((1u64 << 53) as f64)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn total_order_puts_null_first() {
        let mut vs = vec![Value::Int(2), Value::Null, Value::Int(1)];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vs, vec![Value::Null, Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Dbl(1.5).to_string(), "1.5");
        assert_eq!(Value::Dbl(2.0).to_string(), "2.0");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Oid(3).to_string(), "3@0");
    }
}
