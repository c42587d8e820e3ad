//! `gp-lint` — repo-specific static analysis for the graphical-passwords
//! workspace.
//!
//! The serving stack's correctness rests on invariants that ordinary
//! compilers cannot see: acks may only follow the WAL group-commit barrier,
//! locks are taken in the canonical `snap → accounts → wal` order, `unsafe`
//! lives only in `gp-netauth::sys` and `gp-crypto::sha_ni`, hot-path modules never panic, and the
//! reactor event-loop thread never blocks on the filesystem. This crate
//! machine-checks all five with a hand-rolled lexer and a lightweight
//! per-function model — zero dependencies, so it runs in the same offline
//! environment as the rest of the workspace.
//!
//! Run it over the repo with `cargo run -p gp-lint -- --workspace`, or embed
//! it via [`lint_sources`] (used by the fixture tests).

#![warn(missing_docs)]

pub mod lexer;
pub mod model;
pub mod rules;

pub use rules::{AllowUse, Diagnostic, Report, Rule, ALL_RULES};

/// One in-memory source file to lint.
///
/// The `path` is used verbatim for rule scoping (e.g. L4's hot-path module
/// list matches on path suffixes) and in diagnostics, so virtual paths work —
/// fixture tests pass paths like `crates/gp-netauth/src/reactor.rs` with
/// fixture content.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path used for scoping and diagnostics.
    pub path: String,
    /// Full file content.
    pub content: String,
}

/// Lint a set of source files and return the combined report.
pub fn lint_sources(sources: &[SourceFile]) -> Report {
    let pairs: Vec<(String, String)> = sources
        .iter()
        .map(|s| (s.path.clone(), s.content.clone()))
        .collect();
    let model = model::build(&pairs);
    rules::run(&model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_clean() {
        let report = lint_sources(&[]);
        assert!(report.diagnostics.is_empty());
        assert!(report.allows.is_empty());
    }

    #[test]
    fn allow_directives_are_counted_even_when_nothing_fires() {
        let report = lint_sources(&[SourceFile {
            path: "crates/gp-netauth/src/reactor.rs".into(),
            content: "// gp-lint: allow(L4, documented contract)\nfn quiet() {}\n".into(),
        }]);
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.allows.len(), 1);
        assert_eq!(report.allows[0].rule, Rule::L4);
        assert_eq!(report.allows[0].reason, "documented contract");
    }
}
