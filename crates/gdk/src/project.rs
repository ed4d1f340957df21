//! Projection (positional fetch-join).
//!
//! `BATproject(cand, b)` fetches `b`'s tail values at the positions named by
//! a candidate list (or any oid BAT), producing a new BAT aligned with the
//! input order. This is MonetDB's workhorse for late materialisation.

use crate::bat::{str_rows, Bat, ColumnData};
use crate::candidates::Candidates;
use crate::types::{Oid, OID_NIL};
use crate::{GdkError, Result};

pub(crate) fn oob(pos: usize, len: usize) -> GdkError {
    GdkError::invalid(format!("projection oid {pos} out of range (len {len})"))
}

/// Fetch `b[o]` for every candidate oid `o`, in candidate order.
pub fn project(cand: &Candidates, b: &Bat) -> Result<Bat> {
    project_windows(cand, b, 1)
}

/// [`project`] over `k` windows of the candidate list, each fetching into
/// its own slice of the output.
pub(crate) fn project_windows(cand: &Candidates, b: &Bat, k: usize) -> Result<Bat> {
    let len = b.len();
    // `out[i] = at(cand[i])`, or the out-of-range error of the first
    // candidate beyond the column.
    fn gather<T: Copy + Default + Send>(
        cand: &Candidates,
        len: usize,
        k: usize,
        at: impl Fn(usize) -> T + Sync,
    ) -> Result<Vec<T>> {
        crate::par::map_windows(cand.len(), k, |r, out| {
            for (slot, i) in out.iter_mut().zip(r) {
                let pos = cand.get(i) as usize;
                if pos >= len {
                    return Err(oob(pos, len));
                }
                *slot = at(pos);
            }
            Ok(())
        })
    }
    let data = match b.data() {
        ColumnData::Void { seq, .. } => ColumnData::Oid(gather(cand, len, k, |p| seq + p as Oid)?),
        ColumnData::Bit(v) => ColumnData::Bit(gather(cand, len, k, |p| v[p])?),
        ColumnData::Int(v) => ColumnData::Int(gather(cand, len, k, |p| v[p])?),
        ColumnData::Lng(v) => ColumnData::Lng(gather(cand, len, k, |p| v[p])?),
        ColumnData::Dbl(v) => ColumnData::Dbl(gather(cand, len, k, |p| v[p])?),
        ColumnData::Oid(v) => ColumnData::Oid(gather(cand, len, k, |p| v[p])?),
        ColumnData::Str { idx, heap } => str_rows(gather(cand, len, k, |p| idx[p])?, heap),
    };
    Ok(Bat::from_data(data))
}

/// Fetch `b[o]` for every oid in an *oid BAT* (join result column). Oid nil
/// produces a nil output value (left-join semantics).
pub fn project_oids(oids: &Bat, b: &Bat) -> Result<Bat> {
    match oids.data() {
        ColumnData::Void { seq, len } => project(
            &Candidates::Dense {
                first: *seq,
                len: *len,
            },
            b,
        ),
        ColumnData::Oid(v) => {
            if v.iter().all(|&o| o != OID_NIL) {
                // Not necessarily sorted: fetch positionally.
                fetch_positions(v, b)
            } else {
                fetch_with_nils(v, b)
            }
        }
        _ => Err(GdkError::type_mismatch("project_oids expects an oid BAT")),
    }
}

fn fetch_positions(oids: &[Oid], b: &Bat) -> Result<Bat> {
    let len = b.len();
    for &o in oids {
        if o as usize >= len {
            return Err(GdkError::invalid(format!(
                "projection oid {o} out of range (len {len})"
            )));
        }
    }
    Ok(match b.data() {
        ColumnData::Void { seq, .. } => Bat::from_oids(oids.iter().map(|&o| seq + o).collect()),
        ColumnData::Bit(v) => Bat::from_data(ColumnData::Bit(
            oids.iter().map(|&o| v[o as usize]).collect(),
        )),
        ColumnData::Int(v) => Bat::from_data(ColumnData::Int(
            oids.iter().map(|&o| v[o as usize]).collect(),
        )),
        ColumnData::Lng(v) => Bat::from_data(ColumnData::Lng(
            oids.iter().map(|&o| v[o as usize]).collect(),
        )),
        ColumnData::Dbl(v) => Bat::from_data(ColumnData::Dbl(
            oids.iter().map(|&o| v[o as usize]).collect(),
        )),
        ColumnData::Oid(v) => Bat::from_data(ColumnData::Oid(
            oids.iter().map(|&o| v[o as usize]).collect(),
        )),
        ColumnData::Str { idx, heap } => Bat::from_data(str_rows(
            oids.iter().map(|&o| idx[o as usize]).collect(),
            heap,
        )),
    })
}

fn fetch_with_nils(oids: &[Oid], b: &Bat) -> Result<Bat> {
    let mut out = Bat::with_capacity(b.tail_type(), oids.len());
    for &o in oids {
        if o == OID_NIL {
            out.push(&crate::Value::Null)?;
        } else if (o as usize) < b.len() {
            out.push(&b.get(o as usize))?;
        } else {
            return Err(GdkError::invalid(format!(
                "projection oid {o} out of range (len {})",
                b.len()
            )));
        }
    }
    // Str path loses dictionary sharing here; acceptable for the nil path.
    if let ColumnData::Str { .. } = b.data() {
        return Ok(out);
    }
    Ok(out)
}

/// Slice a BAT: positions `[from, to)` as a new BAT.
pub fn slice(b: &Bat, from: usize, to: usize) -> Result<Bat> {
    let to = to.min(b.len());
    if from > to {
        return Err(GdkError::invalid("slice: from > to"));
    }
    // A range of a fixed-width column is one copy.
    let data = match b.data() {
        ColumnData::Bit(v) => ColumnData::Bit(v[from..to].to_vec()),
        ColumnData::Int(v) => ColumnData::Int(v[from..to].to_vec()),
        ColumnData::Lng(v) => ColumnData::Lng(v[from..to].to_vec()),
        ColumnData::Dbl(v) => ColumnData::Dbl(v[from..to].to_vec()),
        ColumnData::Oid(v) => ColumnData::Oid(v[from..to].to_vec()),
        ColumnData::Void { .. } | ColumnData::Str { .. } => {
            let len = to - from;
            return project(
                &Candidates::Dense {
                    first: from as Oid,
                    len,
                },
                b,
            );
        }
    };
    Ok(Bat::from_data(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn project_int_by_list() {
        let b = Bat::from_ints(vec![10, 20, 30, 40]);
        let c = Candidates::from_vec(vec![1, 3]);
        assert_eq!(project(&c, &b).unwrap().as_ints().unwrap(), &[20, 40]);
    }

    #[test]
    fn project_dense_candidates() {
        let b = Bat::from_dbls(vec![1.0, 2.0, 3.0]);
        let c = Candidates::Dense { first: 1, len: 2 };
        assert_eq!(project(&c, &b).unwrap().as_dbls().unwrap(), &[2.0, 3.0]);
    }

    #[test]
    fn project_void_tail() {
        let v = Bat::dense(100, 5);
        let c = Candidates::from_vec(vec![0, 4]);
        assert_eq!(project(&c, &v).unwrap().as_oids().unwrap(), &[100, 104]);
    }

    #[test]
    fn project_strings_shares_dict() {
        let b = Bat::from_strs(vec![Some("x"), Some("y"), Some("x")]);
        let c = Candidates::from_vec(vec![0, 2]);
        let p = project(&c, &b).unwrap();
        assert_eq!(p.get(0), Value::Str("x".into()));
        assert_eq!(p.get(1), Value::Str("x".into()));
    }

    /// A slice of a string column holds only the strings of its rows:
    /// its heap's bytes are the bytes of its rows' distinct strings.
    #[test]
    fn string_slices_hold_only_their_rows_strings() {
        let strs: Vec<Option<String>> = (0..1000)
            .map(|i| (i % 10 != 3).then(|| format!("s{}", i % 500)))
            .collect();
        let b = Bat::from_strs(strs.clone());
        let heap_bytes = |b: &Bat| match b.data() {
            ColumnData::Str { heap, .. } => heap.iter().map(str::len).sum::<usize>(),
            _ => unreachable!("a string column"),
        };
        let row_bytes = |rows: &[Option<String>]| {
            let distinct: std::collections::BTreeSet<_> = rows.iter().flatten().collect();
            distinct.iter().map(|s| s.len()).sum::<usize>()
        };
        for (from, to) in [(0, 0), (10, 20), (100, 700), (0, 1000), (990, 1000)] {
            let s = slice(&b, from, to).unwrap();
            assert_eq!(heap_bytes(&s), row_bytes(&strs[from..to]), "{from}..{to}");
            let want: Vec<Value> = strs[from..to].iter().cloned().map(Value::from).collect();
            assert_eq!(s.to_values(), want);
        }
        let picks = Bat::from_oids(vec![7, 3, 7, 999]);
        let p = project_oids(&picks, &b).unwrap();
        assert_eq!(heap_bytes(&p), "s7".len() + "s499".len());
        assert_eq!(
            p.to_values(),
            [7, 3, 7, 999]
                .map(|i| Value::from(strs[i].clone()))
                .to_vec()
        );
    }

    #[test]
    fn project_out_of_range_errors() {
        let b = Bat::from_ints(vec![1]);
        let c = Candidates::from_vec(vec![5]);
        assert!(project(&c, &b).is_err());
    }

    #[test]
    fn project_oids_unsorted_and_nil() {
        let b = Bat::from_ints(vec![10, 20, 30]);
        let o = Bat::from_oids(vec![2, 0, 2]);
        assert_eq!(
            project_oids(&o, &b).unwrap().as_ints().unwrap(),
            &[30, 10, 30]
        );
        let with_nil = Bat::from_oids(vec![1, OID_NIL]);
        let r = project_oids(&with_nil, &b).unwrap();
        assert_eq!(r.to_values(), vec![Value::Int(20), Value::Null]);
    }

    #[test]
    fn slice_bounds() {
        let b = Bat::from_ints(vec![1, 2, 3, 4, 5]);
        assert_eq!(slice(&b, 1, 3).unwrap().as_ints().unwrap(), &[2, 3]);
        assert_eq!(slice(&b, 3, 99).unwrap().as_ints().unwrap(), &[4, 5]);
        assert!(slice(&b, 4, 2).is_err());
    }
}
