//! Table 4: lines of code changed to move each application from its
//! single-machine version to Crucial.
//!
//! The `ports/` directory holds side-by-side listings of both versions of
//! every application, mirroring this repository's real implementations
//! (and the paper's Listings 1–2). The diff below counts, like the paper,
//! how many lines of the Crucial version differ from the local one —
//! computed with a longest-common-subsequence line diff, whitespace
//! ignored.

/// One application's portability measurement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortReport {
    /// Application name.
    pub name: &'static str,
    /// Total lines of the Crucial version (non-empty lines).
    pub total_lines: usize,
    /// Lines changed or added relative to the local version.
    pub changed_lines: usize,
}

impl PortReport {
    /// Fraction of the program that had to change.
    pub fn changed_fraction(&self) -> f64 {
        self.changed_lines as f64 / self.total_lines.max(1) as f64
    }
}

const PORTS: [(&str, &str, &str); 4] = [
    (
        "Monte Carlo",
        include_str!("../ports/monte_carlo_local.rs"),
        include_str!("../ports/monte_carlo_crucial.rs"),
    ),
    (
        "Logistic Regression",
        include_str!("../ports/logreg_local.rs"),
        include_str!("../ports/logreg_crucial.rs"),
    ),
    (
        "k-means",
        include_str!("../ports/kmeans_local.rs"),
        include_str!("../ports/kmeans_crucial.rs"),
    ),
    (
        "Santa Claus problem",
        include_str!("../ports/santa_local.rs"),
        include_str!("../ports/santa_crucial.rs"),
    ),
];

fn significant_lines(src: &str) -> Vec<&str> {
    src.lines().map(str::trim).filter(|l| !l.is_empty()).collect()
}

/// Length of the longest common subsequence of two line sequences.
fn lcs_len(a: &[&str], b: &[&str]) -> usize {
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for x in a {
        for (j, y) in b.iter().enumerate() {
            cur[j + 1] = if x == y { prev[j] + 1 } else { cur[j].max(prev[j + 1]) };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Lines of `ported` not shared (as a subsequence) with `original`: the
/// changed/added lines of the port.
pub fn changed_lines(original: &str, ported: &str) -> usize {
    let a = significant_lines(original);
    let b = significant_lines(ported);
    b.len() - lcs_len(&a, &b)
}

/// Computes Table 4 over the bundled port listings.
pub fn table4() -> Vec<PortReport> {
    PORTS
        .iter()
        .map(|(name, local, crucial_src)| PortReport {
            name,
            total_lines: significant_lines(crucial_src).len(),
            changed_lines: changed_lines(local, crucial_src),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcs_basics() {
        assert_eq!(lcs_len(&["a", "b", "c"], &["a", "c"]), 2);
        assert_eq!(lcs_len(&[], &["a"]), 0);
        assert_eq!(lcs_len(&["x"], &["x"]), 1);
        assert_eq!(changed_lines("a\nb\nc", "a\nB\nc"), 1);
        assert_eq!(changed_lines("a\nb", "a\nb"), 0);
        assert_eq!(changed_lines("", "x\ny"), 2);
    }

    #[test]
    fn whitespace_is_ignored() {
        assert_eq!(changed_lines("  foo();  ", "foo();"), 0);
        assert_eq!(changed_lines("foo();\n\n\n", "foo();"), 0);
    }

    #[test]
    fn ports_change_only_a_fraction_of_each_program() {
        let reports = table4();
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.total_lines > 20, "{}: suspiciously short listing", r.name);
            assert!(r.changed_lines > 0, "{}: porting must change something", r.name);
            // The paper's Table 4 stays below ~16 lines (< 3 % of each
            // Java program): AspectJ weaves the @Shared fields invisibly.
            // Rust has no aspect weaving — handles, Wire derives and
            // explicit error plumbing are real source lines — so our
            // honest bound is "well under two thirds", with the algorithm
            // itself (the LCS-shared part) untouched. EXPERIMENTS.md
            // discusses the gap.
            assert!(
                r.changed_fraction() < 0.65,
                "{}: {}/{} lines changed ({:.0}%)",
                r.name,
                r.changed_lines,
                r.total_lines,
                100.0 * r.changed_fraction()
            );
        }
    }
}
