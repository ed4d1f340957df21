//! Helpers shared by the integration suites.

/// Span-tree *shape*: the indented span name column with the measured
/// values stripped. Durations and annotation values vary run to run;
/// the names, nesting and annotation keys must not.
pub fn shape(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|line| {
            // Render format: `{name:<40} {dur:>12}  k=v ...` — the
            // first 40 columns are the indented name.
            let name = if line.len() > 40 {
                line[..40].trim_end().to_owned()
            } else {
                line.trim_end().to_owned()
            };
            let keys: Vec<&str> = line
                .get(40..)
                .unwrap_or("")
                .split_whitespace()
                .filter_map(|tok| tok.split_once('=').map(|(k, _)| k))
                .collect();
            if keys.is_empty() {
                name
            } else {
                format!("{name} [{}]", keys.join(","))
            }
        })
        .collect()
}
