//! Minimal fixed-width table printer for the `paper` binary.

/// Print a header + rows with columns padded to the widest cell.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8) + 2))
            .collect::<String>()
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!("{}", "-".repeat(widths.iter().map(|w| w + 2).sum::<usize>().min(100)));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format seconds with 3 significant decimals.
pub fn secs(s: f64) -> String {
    format!("{s:.3}")
}

/// Format seconds as milliseconds with 3 decimals.
pub fn ms(s: f64) -> String {
    format!("{:.3}", s * 1e3)
}

/// Format a throughput in agent-ticks/second.
pub fn tput(t: f64) -> String {
    if t >= 1e6 {
        format!("{:.2}M", t / 1e6)
    } else if t >= 1e3 {
        format!("{:.1}k", t / 1e3)
    } else {
        format!("{t:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tput_units() {
        assert_eq!(tput(2_500_000.0), "2.50M");
        assert_eq!(tput(12_345.0), "12.3k");
        assert_eq!(tput(99.0), "99");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }
}
