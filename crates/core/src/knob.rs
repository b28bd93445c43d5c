//! Warn-and-default parsing for environment knobs (`GMP_CACHE_CAPACITY`).
//!
//! An absent variable means the default, a well-formed value wins, and a
//! malformed value produces a warning naming the knob and falls back to
//! the default — never a panic, because these knobs are read deep inside
//! long runs where aborting would waste hours.

/// Resolves one environment knob with warn-and-default semantics.
///
/// `lookup` abstracts `std::env::var` so rejected-input paths are
/// unit-testable without mutating the process environment. `parse`
/// returns `None` for any value that should be rejected (including
/// out-of-range ones); in that case a warning of the form
/// `KEY="raw" <problem>; using <fallback>` is pushed onto `warnings` and
/// `default` is returned.
pub(crate) fn env_knob<T>(
    lookup: impl Fn(&str) -> Option<String>,
    key: &str,
    default: T,
    problem: &str,
    fallback: &str,
    parse: impl Fn(&str) -> Option<T>,
    warnings: &mut Vec<String>,
) -> T {
    match lookup(key) {
        None => default,
        Some(raw) => match parse(&raw) {
            Some(value) => value,
            None => {
                warnings.push(format!("{key}={raw:?} {problem}; using {fallback}"));
                default
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_variable_returns_default_without_warning() {
        let mut warnings = Vec::new();
        let v = env_knob(
            |_| None,
            "GMP_TEST_KNOB",
            7usize,
            "is not a positive integer",
            "default 7",
            |raw| raw.parse().ok(),
            &mut warnings,
        );
        assert_eq!(v, 7);
        assert!(warnings.is_empty());
    }

    #[test]
    fn well_formed_value_wins_without_warning() {
        let mut warnings = Vec::new();
        let v = env_knob(
            |key| {
                assert_eq!(key, "GMP_TEST_KNOB");
                Some("42".into())
            },
            "GMP_TEST_KNOB",
            7usize,
            "is not a positive integer",
            "default 7",
            |raw| raw.parse().ok(),
            &mut warnings,
        );
        assert_eq!(v, 42);
        assert!(warnings.is_empty());
    }

    #[test]
    fn rejected_value_warns_with_knob_name_and_falls_back() {
        let mut warnings = Vec::new();
        let v = env_knob(
            |_| Some("zero".into()),
            "GMP_TEST_KNOB",
            7usize,
            "is not a positive integer",
            "default 7",
            |raw| raw.parse().ok().filter(|&n: &usize| n > 0),
            &mut warnings,
        );
        assert_eq!(v, 7);
        assert_eq!(
            warnings,
            vec!["GMP_TEST_KNOB=\"zero\" is not a positive integer; using default 7".to_string()]
        );
    }

    #[test]
    fn out_of_range_value_is_rejected_by_the_parse_filter() {
        let mut warnings = Vec::new();
        let v = env_knob(
            |_| Some("0".into()),
            "GMP_TEST_KNOB",
            7usize,
            "is not a positive integer",
            "default 7",
            |raw| raw.parse().ok().filter(|&n: &usize| n > 0),
            &mut warnings,
        );
        assert_eq!(v, 7);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("GMP_TEST_KNOB=\"0\""));
    }

    #[test]
    fn warnings_accumulate_across_knobs() {
        let mut warnings = Vec::new();
        env_knob(
            |_| Some("bad".into()),
            "GMP_KNOB_A",
            1usize,
            "is not an integer",
            "default 1",
            |raw| raw.parse().ok(),
            &mut warnings,
        );
        env_knob(
            |_| Some("worse".into()),
            "GMP_KNOB_B",
            2.0f64,
            "is not a number",
            "default 2",
            |raw| raw.parse().ok(),
            &mut warnings,
        );
        assert_eq!(warnings.len(), 2);
        assert!(warnings[0].contains("GMP_KNOB_A"));
        assert!(warnings[1].contains("GMP_KNOB_B"));
    }
}
