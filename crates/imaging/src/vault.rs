//! The "Data Vault": bulk ingestion of images into SciQL arrays.
//!
//! The demo loads GeoTIFF files "into MonetDB using its GeoTIFF Data
//! Vault", i.e. straight into BATs without the SQL INSERT path. This
//! module is that component for our synthetic/PGM images: an image becomes
//! a 2-D array `(x, y dimensions, v INT)` — "each image is stored as a 2D
//! array with x,y dimensions denoting the pixel positions … and an integer
//! column v denoting the grey-scale intensities". Skipping SQL does not
//! skip the log: on a persistent connection a load is written to the WAL,
//! and shipped to replicas, as the `CREATE ARRAY` and the per-tile
//! records of a binary `COPY` of the pixels
//! ([`Connection::bulk_load_array`]).

use crate::image::GreyImage;
use gdk::Bat;
use sciql::{ArrayView, Connection, EngineError, Result};
use sciql_catalog::DimSpec;

/// Load an image into the session as array `name`.
pub fn load_image(conn: &mut Connection, name: &str, img: &GreyImage) -> Result<()> {
    let dims = [
        (
            "x",
            DimSpec::new(0, 1, img.width as i64).map_err(EngineError::Catalog)?,
        ),
        (
            "y",
            DimSpec::new(0, 1, img.height as i64).map_err(EngineError::Catalog)?,
        ),
    ];
    // Pixel order is x-major, identical to the array's row-major cell
    // order, so the pixel vector *is* the attribute BAT.
    let v = Bat::from_ints(img.pixels.clone());
    conn.bulk_load_array(name, &dims, vec![("v", v)])
}

/// Read an array straight back into an image (NULL cells become 0).
pub fn read_image(conn: &Connection, name: &str) -> Result<GreyImage> {
    let store = conn.array_store(name)?;
    let shape = store.shape();
    if shape.len() != 2 {
        return Err(EngineError::msg(format!(
            "array {name:?} is not 2-dimensional"
        )));
    }
    let v = &store.attrs[0];
    let mut img = GreyImage::new(shape[0], shape[1]);
    for (pos, p) in img.pixels.iter_mut().enumerate() {
        *p = v.get(pos).as_i64().unwrap_or(0) as i32;
    }
    Ok(img)
}

/// Convert a coerced 2-D array view (e.g. a query result) into an image;
/// holes become 0.
pub fn view_to_image(view: &ArrayView) -> Result<GreyImage> {
    if view.sizes.len() != 2 {
        return Err(EngineError::msg("image view must be 2-dimensional"));
    }
    let (w, h) = (view.sizes[0], view.sizes[1]);
    let mut img = GreyImage::new(w, h);
    for x in 0..w {
        for y in 0..h {
            let v = &view.cells[x * h + y][0];
            img.set(x, y, v.as_i64().unwrap_or(0) as i32);
        }
    }
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_read_roundtrip() {
        let img = GreyImage::from_fn(8, 6, |x, y| (x * 9 + y * 2) as i32);
        let mut conn = Connection::new();
        load_image(&mut conn, "img", &img).unwrap();
        assert_eq!(read_image(&conn, "img").unwrap(), img);
        // And via SQL: the cell count matches.
        let n = conn
            .query("SELECT COUNT(*) FROM img")
            .unwrap()
            .scalar()
            .unwrap();
        assert_eq!(n.as_i64(), Some(48));
    }

    #[test]
    fn sql_sees_pixel_values() {
        let img = GreyImage::from_fn(4, 4, |x, y| (x * 10 + y) as i32);
        let mut conn = Connection::new();
        load_image(&mut conn, "img", &img).unwrap();
        let v = conn
            .query("SELECT v FROM img WHERE x = 3 AND y = 2")
            .unwrap()
            .scalar()
            .unwrap();
        assert_eq!(v.as_i64(), Some(32));
    }

    #[test]
    fn view_conversion() {
        let img = GreyImage::from_fn(3, 3, |x, y| (x + y) as i32);
        let mut conn = Connection::new();
        load_image(&mut conn, "img", &img).unwrap();
        let view = conn.query_array("SELECT [x], [y], v FROM img").unwrap();
        assert_eq!(view_to_image(&view).unwrap(), img);
    }
}
