//! Query results: tabular column sets with SciQL array metadata.

use crate::{EngineError, Result};
use gdk::strheap::StrHeap;
use gdk::{Bat, ColumnData, ScalarType, Value};
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;

/// Metadata of one result column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Column label.
    pub name: String,
    /// Value type.
    pub ty: ScalarType,
    /// Was this column marked with the `[expr]` dimension qualifier?
    pub dimensional: bool,
}

/// A columnar result set. When any column is `dimensional`, the result can
/// additionally be viewed as an array ([`ResultSet::to_array_view`]) — the
/// SciQL table→array coercion.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Column metadata.
    pub columns: Vec<ColumnMeta>,
    /// Column data, aligned.
    pub bats: Vec<Arc<Bat>>,
}

impl ResultSet {
    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.bats.first().map_or(0, |b| b.len())
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Value at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> Value {
        self.bats[col].get(row)
    }

    /// Find a column by label.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Collect one row as values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.bats.iter().map(|b| b.get(row)).collect()
    }

    /// Iterate all rows.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.row_count()).map(|r| self.row(r))
    }

    /// Single scalar convenience (1×1 results).
    pub fn scalar(&self) -> Result<Value> {
        if self.row_count() != 1 || self.column_count() != 1 {
            return Err(EngineError::msg(format!(
                "expected a 1x1 result, got {}x{}",
                self.row_count(),
                self.column_count()
            )));
        }
        Ok(self.get(0, 0))
    }

    /// The SciQL table→array coercion: interpret the dimensional columns
    /// as coordinates and materialise a dense array view. The derived
    /// range of each dimension is `[min, max]` of its values with step 1
    /// ("an unbounded array with actual size derived from the dimension
    /// column expressions", §2); absent cells are holes (NULL).
    pub fn to_array_view(&self) -> Result<ArrayView> {
        let dim_cols: Vec<usize> = (0..self.columns.len())
            .filter(|&i| self.columns[i].dimensional)
            .collect();
        if dim_cols.is_empty() {
            return Err(EngineError::msg(
                "result has no dimensional columns; use [col] qualifiers to coerce",
            ));
        }
        let val_cols: Vec<usize> = (0..self.columns.len())
            .filter(|&i| !self.columns[i].dimensional)
            .collect();
        // Derive ranges.
        let mut lo = vec![i64::MAX; dim_cols.len()];
        let mut hi = vec![i64::MIN; dim_cols.len()];
        for r in 0..self.row_count() {
            for (k, &c) in dim_cols.iter().enumerate() {
                let v = self.get(r, c);
                let i = v.as_i64().ok_or_else(|| {
                    EngineError::msg(format!(
                        "dimension column {:?} holds non-integral value {v}",
                        self.columns[c].name
                    ))
                })?;
                lo[k] = lo[k].min(i);
                hi[k] = hi[k].max(i);
            }
        }
        if self.row_count() == 0 {
            lo = vec![0; dim_cols.len()];
            hi = vec![-1; dim_cols.len()];
        }
        let sizes: Vec<usize> = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| usize::try_from(h - l + 1).unwrap_or(0))
            .collect();
        let total: usize = sizes.iter().product();
        let mut cells: Vec<Vec<Value>> = vec![vec![Value::Null; val_cols.len()]; total];
        for r in 0..self.row_count() {
            let mut pos = 0usize;
            for (k, &c) in dim_cols.iter().enumerate() {
                let i = self.get(r, c).as_i64().expect("checked above");
                pos = pos * sizes[k] + usize::try_from(i - lo[k]).expect("within derived range");
            }
            for (j, &c) in val_cols.iter().enumerate() {
                cells[pos][j] = self.get(r, c);
            }
        }
        Ok(ArrayView {
            dim_names: dim_cols
                .iter()
                .map(|&c| self.columns[c].name.clone())
                .collect(),
            val_names: val_cols
                .iter()
                .map(|&c| self.columns[c].name.clone())
                .collect(),
            origins: lo,
            sizes,
            cells,
        })
    }

    /// Encode the column metadata for the wire (`sciql-net`'s result
    /// header frame), reusing the vault codec's primitives: `u16` column
    /// count, then per column a length-prefixed name, the stable
    /// [`gdk::codec::type_tag`] and the dimensional flag.
    pub fn encode_header(&self) -> Vec<u8> {
        use gdk::codec::{put_str, put_u16, put_u8, type_tag};
        let mut out = Vec::new();
        put_u16(
            &mut out,
            u16::try_from(self.columns.len()).expect("result has more than 65535 columns"),
        );
        for c in &self.columns {
            put_str(&mut out, &c.name);
            put_u8(&mut out, type_tag(c.ty));
            put_u8(&mut out, c.dimensional as u8);
        }
        out
    }

    /// Encode rows `[start, start+n)` as one wire page (see
    /// [`ResultSet::put_page`]).
    pub fn encode_page(&self, start: usize, n: usize) -> Vec<u8> {
        let end = start.saturating_add(n).min(self.row_count());
        let mut out = Vec::new();
        self.put_page(start.min(end)..end, &mut out);
        out
    }

    /// Append rows `rows` as one page body: `u32` row count, then each
    /// column's slice of those rows as a [`gdk::codec::put_column`] body
    /// — the vault tile encoding, nil sentinels and double bit patterns
    /// in place, strings with a page-local dictionary, a void column as
    /// its sequence.
    pub fn put_page(&self, rows: Range<usize>, out: &mut Vec<u8>) {
        use gdk::codec::{put_column, put_u32, StrDict};
        put_u32(
            out,
            u32::try_from(rows.len()).expect("a page holds fewer than 2^32 rows"),
        );
        for b in &self.bats {
            put_column(b.data(), rows.clone(), StrDict::Used, out);
        }
    }

    /// Rows in the page that starts at row `start`: at most `max_rows`,
    /// and the page closes once its cells reach `max_bytes` (it always
    /// holds at least one row, so a single oversized row still travels).
    /// Fixed-width rows divide the byte bound; string columns add each
    /// row's string bytes.
    pub fn page_rows(&self, start: usize, max_rows: usize, max_bytes: usize) -> usize {
        let max_rows = max_rows.max(1).min(self.row_count().saturating_sub(start));
        let fixed: usize = self.bats.iter().map(|b| cell_width(b.data())).sum();
        let strs: Vec<(&[u32], &StrHeap)> = self
            .bats
            .iter()
            .filter_map(|b| match b.data() {
                ColumnData::Str { idx, heap } => Some((&idx[..], heap)),
                _ => None,
            })
            .collect();
        if strs.is_empty() {
            return match fixed {
                0 => max_rows,
                w => max_rows.min(max_bytes.div_ceil(w).max(1)),
            };
        }
        let mut bytes = 0;
        for n in 0..max_rows {
            if n > 0 && bytes >= max_bytes {
                return n;
            }
            bytes += fixed;
            for (idx, heap) in &strs {
                bytes += heap.get(idx[start + n]).map_or(0, str::len);
            }
        }
        max_rows
    }

    /// Split the whole result into pages of at most `rows_per_page` rows.
    /// An empty result yields no pages (the header alone describes it).
    pub fn encode_pages(&self, rows_per_page: usize) -> Vec<Vec<u8>> {
        self.pages(rows_per_page, usize::MAX).collect()
    }

    /// Lazily encode the result as wire pages bounded by **both** row
    /// count and encoded size, as [`ResultSet::page_rows`] cuts them.
    /// Nothing beyond the current page is materialised, and wide string
    /// rows cannot balloon a fixed-row-count page past the frame limit.
    pub fn pages(&self, max_rows: usize, max_bytes: usize) -> PageIter<'_> {
        PageIter {
            rs: self,
            row: 0,
            max_rows: max_rows.max(1),
            max_bytes,
        }
    }

    /// Render as an ASCII table (demo/CLI output).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.name.len()).collect();
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(self.row_count());
        for r in 0..self.row_count() {
            let row: Vec<String> = (0..self.column_count())
                .map(|c| self.get(r, c).to_string())
                .collect();
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
            rows.push(row);
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (c, col) in self.columns.iter().enumerate() {
            let marker = if col.dimensional { "[]" } else { "" };
            let label = format!("{}{marker}", col.name);
            let _ = write!(out, " {label:<w$} |", w = widths[c]);
        }
        out.push('\n');
        sep(&mut out);
        for row in &rows {
            out.push('|');
            for (c, cell) in row.iter().enumerate() {
                let _ = write!(out, " {cell:<w$} |", w = widths[c]);
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

/// Lazy page encoder over a result set (see [`ResultSet::pages`]).
#[derive(Debug)]
pub struct PageIter<'a> {
    rs: &'a ResultSet,
    row: usize,
    max_rows: usize,
    max_bytes: usize,
}

impl Iterator for PageIter<'_> {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        let n = self.rs.page_rows(self.row, self.max_rows, self.max_bytes);
        if n == 0 {
            return None;
        }
        let mut out = Vec::new();
        self.rs.put_page(self.row..self.row + n, &mut out);
        self.row += n;
        Some(out)
    }
}

/// Bytes one cell of `data` occupies in a page, string bytes aside.
fn cell_width(data: &ColumnData) -> usize {
    match data {
        ColumnData::Void { .. } => 0,
        ColumnData::Bit(_) => 1,
        ColumnData::Int(_) | ColumnData::Str { .. } => 4,
        ColumnData::Lng(_) | ColumnData::Dbl(_) | ColumnData::Oid(_) => 8,
    }
}

/// Reassembles a [`ResultSet`] from its wire encoding: construct from the
/// header frame, feed result pages in order, then [`ResultSetBuilder::finish`].
/// The `sciql-net` client uses this; round-tripping through
/// [`ResultSet::encode_header`] / [`ResultSet::encode_pages`] is
/// bit-exact (double bit patterns included) and keeps each column's
/// header type. Pages append their column bodies to the typed vectors
/// directly, never through boxed values.
#[derive(Debug)]
pub struct ResultSetBuilder {
    columns: Vec<ColumnMeta>,
    bats: Vec<Bat>,
}

impl ResultSetBuilder {
    /// Parse a header frame (inverse of [`ResultSet::encode_header`]).
    pub fn from_header(bytes: &[u8]) -> Result<Self> {
        use gdk::codec::{type_from_tag, Reader};
        let mut r = Reader::new(bytes);
        let decode = |r: &mut Reader<'_>| -> gdk::codec::CodecResult<(Vec<ColumnMeta>, Vec<Bat>)> {
            let ncols = r.u16()? as usize;
            // No capacity up front: the count is only as good as the
            // bytes that follow it.
            let (mut columns, mut bats) = (Vec::new(), Vec::new());
            for _ in 0..ncols {
                let name = r.str()?;
                let ty = type_from_tag(r.u8()?)?;
                let dimensional = r.u8()? != 0;
                columns.push(ColumnMeta {
                    name,
                    ty,
                    dimensional,
                });
                bats.push(Bat::new(ty));
            }
            Ok((columns, bats))
        };
        let (columns, bats) = decode(&mut r)
            .map_err(|e| EngineError::msg(format!("malformed result header: {e}")))?;
        if r.remaining() != 0 {
            return Err(EngineError::msg("trailing bytes after result header"));
        }
        Ok(ResultSetBuilder { columns, bats })
    }

    /// Append one page of rows (inverse of [`ResultSet::encode_page`]);
    /// returns the number of rows added. The whole page is decoded and
    /// checked before any column grows, so a malformed page leaves the
    /// builder as it was.
    pub fn push_page(&mut self, bytes: &[u8]) -> Result<usize> {
        use gdk::codec::{read_column, Reader};
        let malformed =
            |e: &dyn std::fmt::Display| EngineError::msg(format!("malformed result page: {e}"));
        let mut r = Reader::new(bytes);
        let rows = r.u32().map_err(|e| malformed(&e))? as usize;
        let mut cols = Vec::with_capacity(self.columns.len());
        for (k, meta) in self.columns.iter().enumerate() {
            let col = Bat::from_data(read_column(&mut r).map_err(|e| malformed(&e))?);
            if col.len() != rows {
                let n = col.len();
                return Err(malformed(&format!("column {k} holds {n} of {rows} rows")));
            }
            // A page column is the result column's own slice, so its type
            // is the header's (a void column's is `oid`).
            if col.tail_type() != meta.ty {
                let (page, header) = (col.tail_type(), meta.ty);
                return Err(malformed(&format!(
                    "column {k} is {page} on the page, {header} in the header"
                )));
            }
            cols.push(col);
        }
        if r.remaining() != 0 {
            return Err(EngineError::msg("trailing bytes after result page"));
        }
        for (dst, col) in self.bats.iter().zip(&cols) {
            if !continues(dst, col) {
                return Err(malformed(
                    &"a void column's pages must continue its sequence",
                ));
            }
        }
        for (dst, col) in self.bats.iter_mut().zip(cols) {
            append_page_column(dst, col)?;
        }
        Ok(rows)
    }

    /// Rows received so far.
    pub fn row_count(&self) -> usize {
        self.bats.first().map_or(0, |b| b.len())
    }

    /// Finish into a result set.
    pub fn finish(self) -> ResultSet {
        ResultSet {
            columns: self.columns,
            bats: self.bats.into_iter().map(Arc::new).collect(),
        }
    }
}

/// Can page column `col` follow the rows already in `dst`? A void column
/// travels as its sequence, so its pages must continue that sequence —
/// and may never be materialised here: a void body is 17 bytes whatever
/// its length claims.
fn continues(dst: &Bat, col: &Bat) -> bool {
    match (dst.data(), col.data()) {
        _ if dst.is_empty() => true,
        (&ColumnData::Void { seq, len }, &ColumnData::Void { seq: next, .. }) => {
            seq + len as u64 == next
        }
        (ColumnData::Void { .. }, _) | (_, ColumnData::Void { .. }) => false,
        _ => true,
    }
}

/// Append a page column that [`continues`] `dst`: the first page is
/// adopted as it is, a void column grows its sequence, any other column
/// appends its typed vector — so a multi-page result decodes to the
/// columns it was.
fn append_page_column(dst: &mut Bat, col: Bat) -> Result<()> {
    if dst.is_empty() {
        *dst = col;
        return Ok(());
    }
    if let (&ColumnData::Void { seq, len }, &ColumnData::Void { len: more, .. }) =
        (dst.data(), col.data())
    {
        *dst = Bat::dense(seq, len + more);
        return Ok(());
    }
    dst.append_bat(&col).map_err(EngineError::Gdk)
}

/// A dense array view of a coerced result (one entry per cell, row-major).
#[derive(Debug, Clone)]
pub struct ArrayView {
    /// Dimension column names.
    pub dim_names: Vec<String>,
    /// Value column names.
    pub val_names: Vec<String>,
    /// First coordinate of each dimension.
    pub origins: Vec<i64>,
    /// Extent of each dimension.
    pub sizes: Vec<usize>,
    /// Cell values (one vector per cell; NULL = hole).
    pub cells: Vec<Vec<Value>>,
}

impl ArrayView {
    /// Value of the first value column at the given coordinates.
    pub fn at(&self, coords: &[i64]) -> Option<&Value> {
        let mut pos = 0usize;
        for (k, &c) in coords.iter().enumerate() {
            let i = c.checked_sub(self.origins[k])?;
            if i < 0 || i as usize >= self.sizes[k] {
                return None;
            }
            pos = pos * self.sizes[k] + i as usize;
        }
        self.cells.get(pos)?.first()
    }

    /// Render a 2-D view as a grid (first value column).
    pub fn render_grid(&self) -> Result<String> {
        if self.sizes.len() != 2 {
            return Err(EngineError::msg("render_grid requires a 2-D array view"));
        }
        let mut out = String::new();
        for i in 0..self.sizes[0] {
            for j in 0..self.sizes[1] {
                let v = &self.cells[i * self.sizes[1] + j][0];
                let _ = write!(out, "{:>6}", v.to_string());
            }
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs() -> ResultSet {
        // rows: (x, y, v) for a sparse 2×2 region
        ResultSet {
            columns: vec![
                ColumnMeta {
                    name: "x".into(),
                    ty: ScalarType::Int,
                    dimensional: true,
                },
                ColumnMeta {
                    name: "y".into(),
                    ty: ScalarType::Int,
                    dimensional: true,
                },
                ColumnMeta {
                    name: "v".into(),
                    ty: ScalarType::Int,
                    dimensional: false,
                },
            ],
            bats: vec![
                Arc::new(Bat::from_ints(vec![1, 1, 2])),
                Arc::new(Bat::from_ints(vec![1, 2, 2])),
                Arc::new(Bat::from_ints(vec![10, 20, 40])),
            ],
        }
    }

    #[test]
    fn basic_access() {
        let r = rs();
        assert_eq!(r.row_count(), 3);
        assert_eq!(r.get(1, 2), Value::Int(20));
        assert_eq!(r.column_index("V"), Some(2));
        assert_eq!(r.row(0), vec![Value::Int(1), Value::Int(1), Value::Int(10)]);
    }

    #[test]
    fn array_view_derives_ranges_and_holes() {
        let v = rs().to_array_view().unwrap();
        assert_eq!(v.origins, vec![1, 1]);
        assert_eq!(v.sizes, vec![2, 2]);
        assert_eq!(v.at(&[1, 1]), Some(&Value::Int(10)));
        assert_eq!(v.at(&[1, 2]), Some(&Value::Int(20)));
        assert_eq!(v.at(&[2, 1]), Some(&Value::Null), "hole");
        assert_eq!(v.at(&[2, 2]), Some(&Value::Int(40)));
        assert_eq!(v.at(&[0, 0]), None, "outside derived range");
        let grid = v.render_grid().unwrap();
        assert!(grid.contains("10"));
        assert!(grid.contains("null"));
    }

    #[test]
    fn scalar_helper() {
        let one = ResultSet {
            columns: vec![ColumnMeta {
                name: "n".into(),
                ty: ScalarType::Lng,
                dimensional: false,
            }],
            bats: vec![Arc::new(Bat::from_lngs(vec![42]))],
        };
        assert_eq!(one.scalar().unwrap(), Value::Lng(42));
        assert!(rs().scalar().is_err());
    }

    #[test]
    fn coercion_requires_dimensions() {
        let mut r = rs();
        for c in &mut r.columns {
            c.dimensional = false;
        }
        assert!(r.to_array_view().is_err());
    }

    #[test]
    fn render_marks_dimensions() {
        let text = rs().render();
        assert!(text.contains("x[]"), "{text}");
        assert!(text.contains("| 10"), "{text}");
    }

    #[test]
    fn page_roundtrip_is_value_exact() {
        let r = ResultSet {
            columns: vec![
                ColumnMeta {
                    name: "x".into(),
                    ty: ScalarType::Int,
                    dimensional: true,
                },
                ColumnMeta {
                    name: "w".into(),
                    ty: ScalarType::Dbl,
                    dimensional: false,
                },
                ColumnMeta {
                    name: "label".into(),
                    ty: ScalarType::Str,
                    dimensional: false,
                },
            ],
            bats: vec![
                Arc::new(Bat::from_ints(vec![1, 2, 3, 4, 5])),
                Arc::new(Bat::from_dbls(vec![0.5, f64::NAN, -1.0, 2.25, 1e300])),
                Arc::new(Bat::from_strs(vec![
                    Some("a"),
                    None,
                    Some("bb"),
                    Some("a"),
                    Some(""),
                ])),
            ],
        };
        // Page size 2 → pages of 2, 2, 1 rows.
        let pages = r.encode_pages(2);
        assert_eq!(pages.len(), 3);
        let mut b = ResultSetBuilder::from_header(&r.encode_header()).unwrap();
        let mut rows = 0;
        for p in &pages {
            rows += b.push_page(p).unwrap();
        }
        assert_eq!(rows, 5);
        let back = b.finish();
        assert_eq!(back.columns, r.columns);
        assert_eq!(back.row_count(), r.row_count());
        for row in 0..r.row_count() {
            for col in 0..r.column_count() {
                let (a, b) = (r.get(row, col), back.get(row, col));
                // NaN != NaN; compare the nil/bit pattern instead.
                match (&a, &b) {
                    (Value::Dbl(x), Value::Dbl(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                    _ => assert_eq!(a, b, "({row},{col})"),
                }
            }
        }
        // Determinism: re-encoding the rebuilt set is byte-identical.
        assert_eq!(back.encode_header(), r.encode_header());
        assert_eq!(back.encode_pages(2), pages);
    }

    #[test]
    fn byte_bounded_pages_split_on_size_and_reassemble() {
        // 8 rows of ~300-byte strings: with a 600-byte soft cap, pages
        // close after ~2 rows each instead of the 100-row cap.
        let big: Vec<Option<String>> = (0..8).map(|i| Some(format!("{i}").repeat(300))).collect();
        let r = ResultSet {
            columns: vec![ColumnMeta {
                name: "s".into(),
                ty: ScalarType::Str,
                dimensional: false,
            }],
            bats: vec![Arc::new(Bat::from_strs(
                big.iter().map(|s| s.as_deref()).collect(),
            ))],
        };
        let pages: Vec<_> = r.pages(100, 600).collect();
        assert!(
            pages.len() >= 4,
            "byte cap must split: {} pages",
            pages.len()
        );
        // Every page stays within cap + one row's worth of slack.
        assert!(pages.iter().all(|p| p.len() <= 600 + 310));
        let mut b = ResultSetBuilder::from_header(&r.encode_header()).unwrap();
        for p in &pages {
            b.push_page(p).unwrap();
        }
        let back = b.finish();
        assert_eq!(back.row_count(), 8);
        for i in 0..8 {
            assert_eq!(back.get(i, 0), r.get(i, 0));
        }
        // A single row larger than the cap still travels (alone).
        let pages: Vec<_> = r.pages(100, 1).collect();
        assert_eq!(pages.len(), 8, "one row per page under a tiny cap");
    }

    #[test]
    fn empty_result_encodes_header_only() {
        let r = ResultSet {
            columns: vec![ColumnMeta {
                name: "n".into(),
                ty: ScalarType::Lng,
                dimensional: false,
            }],
            bats: vec![Arc::new(Bat::new(ScalarType::Lng))],
        };
        assert!(r.encode_pages(64).is_empty());
        let back = ResultSetBuilder::from_header(&r.encode_header())
            .unwrap()
            .finish();
        assert_eq!(back.row_count(), 0);
        assert_eq!(back.columns, r.columns);
    }

    #[test]
    fn malformed_pages_are_rejected() {
        let r = rs();
        let header = r.encode_header();
        assert!(ResultSetBuilder::from_header(&header[..header.len() - 1]).is_err());
        let mut b = ResultSetBuilder::from_header(&header).unwrap();
        let page = r.encode_page(0, 3);
        assert!(b.push_page(&page[..page.len() - 1]).is_err(), "truncated");
        let mut long = page.clone();
        long.push(0);
        let mut b2 = ResultSetBuilder::from_header(&header).unwrap();
        assert!(b2.push_page(&long).is_err(), "trailing bytes");
    }

    fn one_column(ty: ScalarType, bat: Bat) -> ResultSet {
        ResultSet {
            columns: vec![ColumnMeta {
                name: "c".into(),
                ty,
                dimensional: false,
            }],
            bats: vec![Arc::new(bat)],
        }
    }

    fn roundtrip(r: &ResultSet, rows_per_page: usize) -> ResultSet {
        let mut b = ResultSetBuilder::from_header(&r.encode_header()).unwrap();
        for p in r.encode_pages(rows_per_page) {
            b.push_page(&p).unwrap();
        }
        b.finish()
    }

    #[test]
    fn void_columns_stay_void_across_pages() {
        let r = one_column(ScalarType::OidT, Bat::dense(40, 10));
        let pages = r.encode_pages(3);
        assert_eq!(pages.len(), 4);
        assert!(
            pages.iter().all(|p| p.len() == 4 + 17),
            "a void page is its sequence"
        );
        assert_eq!(roundtrip(&r, 3).bats[0].data(), r.bats[0].data());
        // A page that does not continue the sequence, or a void page
        // after materialised oids, is malformed — never materialised.
        let header = r.encode_header();
        let mut b = ResultSetBuilder::from_header(&header).unwrap();
        b.push_page(&r.encode_page(0, 3)).unwrap();
        assert!(b.push_page(&r.encode_page(5, 3)).is_err());
        let oids = one_column(ScalarType::OidT, Bat::from_oids(vec![1, 2]));
        let mut b = ResultSetBuilder::from_header(&header).unwrap();
        b.push_page(&oids.encode_page(0, 2)).unwrap();
        assert!(b.push_page(&r.encode_page(0, 3)).is_err());
    }

    #[test]
    fn double_bit_patterns_survive_the_wire() {
        let payload = f64::from_bits(0x7ff8_0000_dead_beef);
        let r = one_column(
            ScalarType::Dbl,
            Bat::from_dbls(vec![1.5, payload, f64::NAN]),
        );
        let back = roundtrip(&r, 2);
        let bits = |rs: &ResultSet| -> Vec<u64> {
            rs.bats[0]
                .as_dbls()
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        };
        assert_eq!(bits(&back), bits(&r));
        assert_eq!(back.get(1, 0), Value::Null, "any NaN is nil");
    }

    #[test]
    fn page_columns_must_have_the_header_type() {
        let ints = one_column(ScalarType::Int, Bat::from_ints(vec![1, 2]));
        let lng_header = one_column(ScalarType::Lng, Bat::new(ScalarType::Lng)).encode_header();
        let mut b = ResultSetBuilder::from_header(&lng_header).unwrap();
        let err = b
            .push_page(&ints.encode_page(0, 2))
            .unwrap_err()
            .to_string();
        assert!(err.contains("int on the page, lng in the header"), "{err}");
        assert_eq!(b.row_count(), 0, "a refused page adds nothing");
    }

    #[test]
    fn page_rows_follow_the_byte_bound() {
        assert_eq!(rs().page_rows(0, 1024, 100), 3, "capped by the rows left");
        // 4-byte rows: a 100-byte bound closes a page at 25 rows.
        let big = one_column(ScalarType::Int, Bat::from_ints(vec![0; 100]));
        assert_eq!(big.page_rows(0, 1024, 100), 25);
        assert_eq!(big.page_rows(90, 1024, 100), 10);
        assert_eq!(big.page_rows(0, 7, 100), 7);
        assert_eq!(big.page_rows(0, 7, 0), 1, "at least one row");
        assert_eq!(big.page_rows(100, 7, 100), 0);
    }

    #[test]
    fn empty_result_view() {
        let r = ResultSet {
            columns: vec![ColumnMeta {
                name: "x".into(),
                ty: ScalarType::Int,
                dimensional: true,
            }],
            bats: vec![Arc::new(Bat::from_ints(vec![]))],
        };
        let v = r.to_array_view().unwrap();
        assert_eq!(v.sizes, vec![0]);
        assert!(v.cells.is_empty());
    }
}
