//! A library whose `pub fn`s have callers of every kind, for
//! `no-test-only-pub`.

/// Called by the integration test and this crate's own tests only.
pub fn only_tests() -> u32 {
    1
}

/// Named only in comments, strings and a re-export, none of which
/// calls it: `only_mentioned()`.
pub fn only_mentioned() -> &'static str {
    "only_mentioned"
}

pub mod reexport {
    pub use super::only_mentioned;
}

/// Called from an example.
pub fn for_example() -> u32 {
    3
}

/// Called from a binary target.
pub fn for_bin() -> u32 {
    4
}

/// Called from a bench under `crates/bench`.
pub fn for_bench() -> u32 {
    5
}

/// Called from other library code.
pub fn for_lib() -> u32 {
    6
}

/// The library caller of [`for_lib`]; an example calls it.
pub fn total() -> u32 {
    for_lib() + 1
}

/// Not public API, so the rule does not look at it.
pub(crate) fn internal() -> u32 {
    8
}

// fastg-lint: allow(no-test-only-pub) — kept on purpose, and this says why
pub fn allowed() -> u32 {
    9
}

// fastg-lint: allow(no-test-only-pub)
pub fn allowed_without_reason() -> u32 {
    10
}

// fastg-lint: allow(no-test-only-pubb) — a mistyped rule allows nothing
pub fn mistyped() -> u32 {
    11
}

#[cfg(test)]
mod tests {
    #[test]
    fn only_tests_is_one() {
        assert_eq!(super::only_tests(), 1);
    }
}
