//! Minimal fixed-width table printing for experiment output.

/// Prints a header row followed by a separator.
///
/// # Examples
///
/// ```
/// propeller_bench::table::header(&["nodes", "cold (s)", "warm (s)"]);
/// ```
pub fn header(cols: &[&str]) {
    let row: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", row.join(" "));
    println!("{}", "-".repeat(15 * cols.len()));
}

/// Prints one data row (already formatted cells).
pub fn row(cells: &[String]) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", row.join(" "));
}

/// Prints an experiment banner.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
}
