//! Table 4: lines of code changed to move each application from its
//! single-machine version to Crucial.
//!
//! Both versions of every application are regions of the sources that
//! run, marked by line comments: `// table4: local` or `// table4:
//! crucial` opens a region, `// table4: end` closes it. The paper counts
//! whole programs, so code both versions run (the sampling, the gradient,
//! the assignment pass, Santa's loops) opens with `// table4: local
//! crucial` and counts on both sides. A version is its regions joined in
//! file order, marker lines left out. The diff counts, like the paper,
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

/// Each application and the source that holds both of its versions.
const APPS: [(&str, &str); 4] = [
    ("Monte Carlo", include_str!("pi.rs")),
    ("Logistic Regression", include_str!("../../ml/src/logreg.rs")),
    ("k-means", include_str!("../../ml/src/kmeans.rs")),
    ("Santa Claus problem", include_str!("santa.rs")),
];

const MARKER: &str = "// table4:";
const VERSIONS: [&str; 2] = ["local", "crucial"];

/// The regions of `src` marked for the version `name`, joined in order,
/// marker lines left out.
///
/// # Panics
///
/// On a region opened inside another, an `end` that closes nothing, a
/// region never closed, a marker naming no known version, or no region
/// for `name` at all.
fn version(src: &str, name: &str) -> String {
    let mut out = String::new();
    // `Some(mine)` inside a region: whether it belongs to `name`.
    let mut open = None;
    let mut found = false;
    for (i, line) in src.lines().enumerate() {
        let Some(tag) = line.trim().strip_prefix(MARKER) else {
            if open == Some(true) {
                out.push_str(line);
                out.push('\n');
            }
            continue;
        };
        let n = i + 1;
        match (tag.trim(), open) {
            ("end", Some(_)) => open = None,
            ("end", None) => panic!("line {n}: `{MARKER} end` closes no region"),
            (_, Some(_)) => panic!("line {n}: a region opens inside another"),
            (names, None) => {
                let names: Vec<&str> = names.split_whitespace().collect();
                assert!(
                    !names.is_empty() && names.iter().all(|v| VERSIONS.contains(v)),
                    "line {n}: `{line}` names no version of {VERSIONS:?}"
                );
                let mine = names.contains(&name);
                found |= mine;
                open = Some(mine);
            }
        }
    }
    assert!(open.is_none(), "a `{MARKER}` region is never closed");
    assert!(found, "no `{MARKER}` region for the {name} version");
    out
}

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

/// Computes Table 4 over the marked regions of the applications' sources.
pub fn table4() -> Vec<PortReport> {
    APPS.iter()
        .map(|(name, src)| {
            let (local, crucial_src) = (version(src, "local"), version(src, "crucial"));
            PortReport {
                name,
                total_lines: significant_lines(&crucial_src).len(),
                changed_lines: changed_lines(&local, &crucial_src),
            }
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
    fn a_version_is_its_regions_joined_in_order() {
        let src = [
            "outside",
            "// table4: local crucial",
            "shared",
            "// table4: end",
            "between",
            "    // table4: crucial",
            "    remote",
            "    // table4: end",
            "// table4: local",
            "plain",
            "// table4: end",
            "tail",
        ]
        .join("\n");
        assert_eq!(version(&src, "local"), "shared\nplain\n");
        assert_eq!(version(&src, "crucial"), "shared\n    remote\n");
    }

    #[test]
    #[should_panic(expected = "closes no region")]
    fn an_end_without_a_region_panics() {
        version("// table4: local\na\n// table4: end\n// table4: end\n", "local");
    }

    #[test]
    #[should_panic(expected = "opens inside another")]
    fn a_region_inside_another_panics() {
        version("// table4: local\n// table4: crucial\n// table4: end\n", "local");
    }

    #[test]
    #[should_panic(expected = "never closed")]
    fn an_unclosed_region_panics() {
        version("// table4: local\na\n", "local");
    }

    #[test]
    #[should_panic(expected = "names no version")]
    fn a_marker_naming_no_version_panics() {
        version("// table4: locl\na\n// table4: end\n", "local");
    }

    #[test]
    #[should_panic(expected = "no `// table4:` region for the crucial version")]
    fn a_missing_version_panics() {
        version("// table4: local\na\n// table4: end\n", "crucial");
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
