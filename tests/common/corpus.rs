//! The statement corpus shared by the EXPLAIN snapshot and the
//! plan-cache differential: a schema, and about twenty titled SELECTs
//! that between them emit every primitive family the code generator
//! and the optimizer produce.

/// The objects the corpus reads (shapes only; no data).
pub const SCHEMA: &[&str] = &[
    // Paper Fig 1.
    "CREATE ARRAY matrix (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)",
    "CREATE ARRAY img (x INT DIMENSION[0:1:8], y INT DIMENSION[0:1:8], v INT DEFAULT 0)",
    "CREATE ARRAY life (x INT DIMENSION[0:1:6], y INT DIMENSION[0:1:6], v INT DEFAULT 0)",
    "CREATE TABLE aoi (x INT, y INT, name VARCHAR)",
    "CREATE TABLE obs (k INT, w DOUBLE, s VARCHAR)",
];

/// `(title, statement)`; the last one has parameter slots.
pub const CORPUS: &[(&str, &str)] = &[
    (
        "fig1 guarded update projection",
        "SELECT [x], [y], CASE WHEN x > y THEN x + y WHEN x < y THEN x - y ELSE 0 END \
         FROM matrix",
    ),
    (
        "dimension slice",
        "SELECT [x], [y], v FROM matrix[1:3][0:2]",
    ),
    (
        "structural group by tile (avg)",
        "SELECT [x], [y], AVG(v) FROM matrix GROUP BY matrix[x:x+2][y:y+2]",
    ),
    (
        "structural group by tile (min, max)",
        "SELECT [x], [y], MAX(v) - MIN(v) FROM img GROUP BY img[x-1:x+2][y-1:y+2]",
    ),
    (
        "life step",
        "SELECT [x], [y], \
                CASE WHEN v = 1 AND SUM(v) - v IN (2, 3) THEN 1 \
                     WHEN v = 0 AND SUM(v) - v = 3 THEN 1 \
                     ELSE 0 END \
         FROM life GROUP BY life[x-1:x+2][y-1:y+2]",
    ),
    ("image invert", "SELECT [x], [y], 255 - v FROM img"),
    (
        "join aoi",
        "SELECT a.name, m.v FROM matrix m JOIN aoi a ON m.x = a.x AND m.y = a.y \
         WHERE m.v > a.y",
    ),
    ("cross product", "SELECT a.name, o.k FROM aoi a, obs o"),
    (
        "group by having",
        "SELECT k, SUM(w), COUNT(*) FROM obs GROUP BY k HAVING SUM(w) > 1.5",
    ),
    (
        "group by two keys",
        "SELECT x, v, MIN(y), MAX(y), AVG(y) FROM matrix GROUP BY x, v",
    ),
    ("distinct", "SELECT DISTINCT v FROM matrix"),
    (
        "cast",
        "SELECT CAST(v AS DOUBLE), CAST(w AS INT), CAST(k AS VARCHAR) FROM matrix, obs",
    ),
    (
        "like",
        "SELECT s FROM obs WHERE s LIKE 'a%' OR s NOT LIKE '_b'",
    ),
    (
        "order by limit",
        "SELECT x, v FROM matrix ORDER BY v DESC, x LIMIT 3 OFFSET 1",
    ),
    (
        "is null",
        "SELECT k FROM obs WHERE w IS NULL OR s IS NOT NULL",
    ),
    (
        "scalar aggregates over one selection (candprop)",
        "SELECT SUM(v), COUNT(*), MIN(v), MAX(v), AVG(v) FROM matrix WHERE x > 1",
    ),
    (
        "scalar aggregate (selectagg)",
        "SELECT COUNT(v) FROM matrix WHERE v > 2",
    ),
    (
        "candidate chain (selectproject)",
        "SELECT v FROM matrix WHERE x >= 1 AND y < 3",
    ),
    (
        "range predicate",
        "SELECT v FROM matrix WHERE x BETWEEN 1 AND 2",
    ),
    (
        "unary arithmetic and boolean mask",
        "SELECT ABS(v - 3), -v, v % 2, v / 2, v * 2 FROM matrix WHERE NOT (x = y)",
    ),
    ("constant projection", "SELECT 1 + 2, 'sciql'"),
    (
        "prepared point read",
        "SELECT v FROM matrix WHERE x = ? AND y = ?",
    ),
];
