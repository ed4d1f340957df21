//! Scalar type system of the column kernel.
//!
//! Mirrors MonetDB's GDK atom types: `bit` (boolean), `int` (32-bit),
//! `lng` (64-bit), `dbl` (64-bit float), `oid` (row identifier) and `str`.
//! NULLs are represented in columns by in-band sentinel ("nil") values,
//! exactly as GDK does (`int_nil = INT_MIN`, `dbl_nil = NaN`, ...).

use std::fmt;

/// Row identifier. MonetDB calls this `oid`; BAT heads are (virtual) dense
/// sequences of oids.
pub type Oid = u64;

/// The in-band nil sentinel for [`Oid`].
pub const OID_NIL: Oid = Oid::MAX;
/// The in-band nil sentinel for 32-bit integers.
pub const INT_NIL: i32 = i32::MIN;
/// The in-band nil sentinel for 64-bit integers.
pub const LNG_NIL: i64 = i64::MIN;
/// The in-band nil sentinel for `bit` columns (stored as `i8`).
pub const BIT_NIL: i8 = i8::MIN;

/// Returns the in-band nil for doubles. GDK uses NaN.
#[inline]
pub fn dbl_nil() -> f64 {
    f64::NAN
}

/// Is this double the nil sentinel?
#[inline]
pub fn is_dbl_nil(v: f64) -> bool {
    v.is_nan()
}

/// Scalar (atom) types supported by the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarType {
    /// Boolean with nil, stored as `i8` (0 = false, 1 = true).
    Bit,
    /// 32-bit signed integer.
    Int,
    /// 64-bit signed integer.
    Lng,
    /// 64-bit IEEE float.
    Dbl,
    /// Row identifier.
    OidT,
    /// Variable-length string, dictionary encoded.
    Str,
}

impl ScalarType {
    /// GDK-style lowercase name (used by the MAL printer).
    pub fn name(self) -> &'static str {
        match self {
            ScalarType::Bit => "bit",
            ScalarType::Int => "int",
            ScalarType::Lng => "lng",
            ScalarType::Dbl => "dbl",
            ScalarType::OidT => "oid",
            ScalarType::Str => "str",
        }
    }

    /// True for the numeric family (`bit` excluded).
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            ScalarType::Int | ScalarType::Lng | ScalarType::Dbl | ScalarType::OidT
        )
    }

    /// The wider of two numeric types following SQL numeric promotion:
    /// `int < lng < dbl`. `oid` promotes to `lng`. Returns `None` when either
    /// side is non-numeric.
    pub fn promote(self, other: ScalarType) -> Option<ScalarType> {
        use ScalarType::*;
        if !self.is_numeric() || !other.is_numeric() {
            return None;
        }
        let rank = |t: ScalarType| match t {
            Int => 0,
            OidT | Lng => 1,
            Dbl => 2,
            _ => unreachable!("non-numeric filtered above"),
        };
        let w = if rank(self) >= rank(other) {
            self
        } else {
            other
        };
        Some(if w == OidT { Lng } else { w })
    }

    /// Parse a SQL type name into a kernel scalar type.
    ///
    /// SQL surface types map onto kernel atoms: `TINYINT`/`SMALLINT`/`INT` →
    /// `Int`, `BIGINT` → `Lng`, `REAL`/`DOUBLE`/`FLOAT` → `Dbl`,
    /// `BOOLEAN` → `Bit`, the character types → `Str`.
    pub fn from_sql_name(name: &str) -> Option<ScalarType> {
        let up = name.to_ascii_uppercase();
        Some(match up.as_str() {
            "TINYINT" | "SMALLINT" | "INT" | "INTEGER" => ScalarType::Int,
            "BIGINT" => ScalarType::Lng,
            "REAL" | "FLOAT" | "DOUBLE" => ScalarType::Dbl,
            "BOOLEAN" | "BOOL" | "BIT" => ScalarType::Bit,
            "STRING" | "TEXT" | "VARCHAR" | "CHAR" | "CLOB" => ScalarType::Str,
            "OID" => ScalarType::OidT,
            _ => return None,
        })
    }

    /// The SQL type name [`ScalarType::from_sql_name`] reads back as this
    /// type.
    pub fn sql_name(self) -> &'static str {
        match self {
            ScalarType::Int => "INT",
            ScalarType::Lng => "BIGINT",
            ScalarType::Dbl => "DOUBLE",
            ScalarType::Bit => "BOOLEAN",
            ScalarType::Str => "STRING",
            ScalarType::OidT => "OID",
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for t in [
            ScalarType::Bit,
            ScalarType::Int,
            ScalarType::Lng,
            ScalarType::Dbl,
            ScalarType::OidT,
            ScalarType::Str,
        ] {
            assert!(!t.name().is_empty());
            assert_eq!(format!("{t}"), t.name());
        }
    }

    #[test]
    fn promotion_lattice() {
        use ScalarType::*;
        assert_eq!(Int.promote(Int), Some(Int));
        assert_eq!(Int.promote(Lng), Some(Lng));
        assert_eq!(Lng.promote(Dbl), Some(Dbl));
        assert_eq!(Dbl.promote(Int), Some(Dbl));
        assert_eq!(OidT.promote(Int), Some(Lng));
        assert_eq!(Str.promote(Int), None);
        assert_eq!(Bit.promote(Bit), None);
    }

    #[test]
    fn sql_name_mapping() {
        assert_eq!(ScalarType::from_sql_name("integer"), Some(ScalarType::Int));
        assert_eq!(ScalarType::from_sql_name("BIGINT"), Some(ScalarType::Lng));
        assert_eq!(ScalarType::from_sql_name("double"), Some(ScalarType::Dbl));
        assert_eq!(ScalarType::from_sql_name("varchar"), Some(ScalarType::Str));
        assert_eq!(ScalarType::from_sql_name("blob"), None);
        for t in [
            ScalarType::Bit,
            ScalarType::Int,
            ScalarType::Lng,
            ScalarType::Dbl,
            ScalarType::OidT,
            ScalarType::Str,
        ] {
            assert_eq!(ScalarType::from_sql_name(t.sql_name()), Some(t));
        }
    }

    #[test]
    fn dbl_nil_is_nan() {
        assert!(is_dbl_nil(dbl_nil()));
        assert!(!is_dbl_nil(0.0));
        assert!(!is_dbl_nil(f64::INFINITY));
    }
}
