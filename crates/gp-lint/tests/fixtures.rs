//! Fixture tests: each rule L1–L9 is proven live against a seeded-violation
//! fixture (exact file, line, and rule asserted) and proven quiet against a
//! clean counterpart. Fixtures live in `fixtures/` and are linted under
//! virtual hot-path paths, exactly as the CLI would see the real modules.

use gp_lint::{lint_sources, Rule, SourceFile};

fn file(path: &str, content: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        content: content.to_string(),
    }
}

const L1_VIOLATION: &str = include_str!("../fixtures/l1_violation.rs");
const L1_CLEAN: &str = include_str!("../fixtures/l1_clean.rs");
const L2_VIOLATION: &str = include_str!("../fixtures/l2_violation.rs");
const L2_CLEAN: &str = include_str!("../fixtures/l2_clean.rs");
const L3_UNSAFE: &str = include_str!("../fixtures/l3_unsafe.rs");
const L4_VIOLATION: &str = include_str!("../fixtures/l4_violation.rs");
const L4_CLEAN: &str = include_str!("../fixtures/l4_clean.rs");
const L5_VIOLATION: &str = include_str!("../fixtures/l5_violation.rs");
const L5_CLEAN: &str = include_str!("../fixtures/l5_clean.rs");
const L6_VIOLATION: &str = include_str!("../fixtures/l6_violation.rs");
const L6_CLEAN: &str = include_str!("../fixtures/l6_clean.rs");
const L7_VIOLATION: &str = include_str!("../fixtures/l7_violation.rs");
const L7_CLEAN: &str = include_str!("../fixtures/l7_clean.rs");
const L8_VIOLATION: &str = include_str!("../fixtures/l8_violation.rs");
const L8_CLEAN: &str = include_str!("../fixtures/l8_clean.rs");
const L9_VIOLATION: &str = include_str!("../fixtures/l9_violation.rs");
const L9_CLEAN: &str = include_str!("../fixtures/l9_clean.rs");

#[test]
fn l1_fires_on_ack_before_barrier() {
    let report = lint_sources(&[file("crates/gp-netauth/src/handlers.rs", L1_VIOLATION)]);
    assert_eq!(report.diagnostics.len(), 1, "{:#?}", report.diagnostics);
    let d = &report.diagnostics[0];
    assert_eq!(d.rule, Rule::L1);
    assert_eq!(d.file, "crates/gp-netauth/src/handlers.rs");
    assert_eq!(d.line, 4);
    assert!(d.message.contains("EnrollOk"), "{}", d.message);
    assert_eq!(
        d.render(),
        format!(
            "crates/gp-netauth/src/handlers.rs:4: error[L1]: {}",
            d.message
        )
    );
}

#[test]
fn l1_is_quiet_when_barrier_precedes_ack() {
    let report = lint_sources(&[file("crates/gp-netauth/src/handlers.rs", L1_CLEAN)]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn l1_is_scoped_to_gp_netauth() {
    // The same early-ack pattern outside gp-netauth is not L1's business.
    let report = lint_sources(&[file("crates/gp-bench/src/driver.rs", L1_VIOLATION)]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn l2_fires_on_wal_before_accounts() {
    let report = lint_sources(&[file("crates/gp-passwords/src/store.rs", L2_VIOLATION)]);
    assert_eq!(report.diagnostics.len(), 1, "{:#?}", report.diagnostics);
    let d = &report.diagnostics[0];
    assert_eq!(d.rule, Rule::L2);
    assert_eq!(d.line, 5, "flags the out-of-order `.write()` line");
    assert!(
        d.message
            .contains("`accounts` acquired while holding `wal`"),
        "{}",
        d.message
    );
}

#[test]
fn l2_is_quiet_in_canonical_order() {
    let report = lint_sources(&[file("crates/gp-passwords/src/store.rs", L2_CLEAN)]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn l3_fires_outside_sys_and_is_quiet_inside() {
    let outside = lint_sources(&[file("crates/gp-passwords/src/digest.rs", L3_UNSAFE)]);
    assert_eq!(outside.diagnostics.len(), 1, "{:#?}", outside.diagnostics);
    let d = &outside.diagnostics[0];
    assert_eq!(d.rule, Rule::L3);
    assert_eq!(d.line, 4);

    let inside = lint_sources(&[file("crates/gp-netauth/src/sys.rs", L3_UNSAFE)]);
    assert!(inside.diagnostics.is_empty(), "{:#?}", inside.diagnostics);
}

#[test]
fn l3_allows_the_sha_ni_kernel_but_not_the_rest_of_gp_crypto() {
    let kernel = lint_sources(&[file("crates/gp-crypto/src/sha_ni.rs", L3_UNSAFE)]);
    assert!(kernel.diagnostics.is_empty(), "{:#?}", kernel.diagnostics);

    let caller = lint_sources(&[file("crates/gp-crypto/src/iterated.rs", L3_UNSAFE)]);
    assert_eq!(caller.diagnostics.len(), 1, "{:#?}", caller.diagnostics);
    let d = &caller.diagnostics[0];
    assert_eq!((d.rule, d.line), (Rule::L3, 4));
}

#[test]
fn l4_fires_per_site_with_exact_lines() {
    let report = lint_sources(&[file("crates/gp-netauth/src/reactor.rs", L4_VIOLATION)]);
    let got: Vec<(u32, Rule)> = report
        .diagnostics
        .iter()
        .map(|d| (d.line, d.rule))
        .collect();
    assert_eq!(
        got,
        vec![(4, Rule::L4), (5, Rule::L4), (7, Rule::L4)],
        "{:#?}",
        report.diagnostics
    );
    assert!(report.diagnostics[0].message.contains("`unwrap`"));
    assert!(report.diagnostics[1].message.contains("`expect`"));
    assert!(report.diagnostics[2].message.contains("`panic!`"));
    // The allow-suppressed site at line 13 is absent but inventoried.
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, Rule::L4);
    assert_eq!(report.allows[0].line, 12);
    assert_eq!(report.allows[0].reason, "fixture-proven escape hatch");
}

#[test]
fn l4_is_quiet_outside_hot_path_modules() {
    // Same content, but the path is not one of the six hot-path modules.
    let report = lint_sources(&[file("crates/gp-netauth/src/codec.rs", L4_VIOLATION)]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn l4_is_quiet_on_defensive_code() {
    let report = lint_sources(&[file("crates/gp-netauth/src/reactor.rs", L4_CLEAN)]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn l5_fires_on_blocking_call_two_hops_from_root() {
    let report = lint_sources(&[file("crates/gp-netauth/src/reactor.rs", L5_VIOLATION)]);
    assert_eq!(report.diagnostics.len(), 1, "{:#?}", report.diagnostics);
    let d = &report.diagnostics[0];
    assert_eq!(d.rule, Rule::L5);
    assert_eq!(
        d.line, 13,
        "flags the `File::open` inside `refresh_snapshot`"
    );
    assert!(
        d.message.contains("reachable from the reactor event loop"),
        "{}",
        d.message
    );
}

#[test]
fn l5_allow_on_call_site_cuts_the_edge() {
    let report = lint_sources(&[file("crates/gp-netauth/src/reactor.rs", L5_CLEAN)]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, Rule::L5);
    assert_eq!(report.allows[0].line, 9);
}

#[test]
fn l6_fires_on_load_bearing_relaxed_only() {
    let report = lint_sources(&[file("crates/gp-netauth/src/metrics.rs", L6_VIOLATION)]);
    let got: Vec<(u32, Rule)> = report
        .diagnostics
        .iter()
        .map(|d| (d.line, d.rule))
        .collect();
    assert_eq!(
        got,
        vec![(4, Rule::L6), (10, Rule::L6)],
        "{:#?}",
        report.diagnostics
    );
    assert!(
        report.diagnostics[0].message.contains("gates control flow"),
        "{}",
        report.diagnostics[0].message
    );
    assert!(
        report.diagnostics[1].message.contains("result consumed"),
        "{}",
        report.diagnostics[1].message
    );
    // The discarded stat-counter fetch_add on line 14 is deliberately legal.
}

#[test]
fn l6_is_quiet_on_ordered_atomics_and_reasoned_allows() {
    let report = lint_sources(&[file("crates/gp-netauth/src/metrics.rs", L6_CLEAN)]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, Rule::L6);
}

#[test]
fn l7_fires_on_naked_waits_with_exact_lines() {
    let report = lint_sources(&[file("crates/gp-netauth/src/queue.rs", L7_VIOLATION)]);
    let got: Vec<(u32, Rule)> = report
        .diagnostics
        .iter()
        .map(|d| (d.line, d.rule))
        .collect();
    assert_eq!(
        got,
        vec![(13, Rule::L7), (21, Rule::L7)],
        "{:#?}",
        report.diagnostics
    );
    assert!(report.diagnostics[0].message.contains("`.wait()`"));
    assert!(report.diagnostics[1].message.contains("`.wait_timeout()`"));
}

#[test]
fn l7_is_quiet_on_loops_wait_while_and_non_condvar_waits() {
    let report = lint_sources(&[file("crates/gp-netauth/src/queue.rs", L7_CLEAN)]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, Rule::L7);
}

#[test]
fn l8_fires_on_direct_transitive_and_channel_blocking() {
    let report = lint_sources(&[file("crates/gp-passwords/src/store.rs", L8_VIOLATION)]);
    let got: Vec<(u32, Rule)> = report
        .diagnostics
        .iter()
        .map(|d| (d.line, d.rule))
        .collect();
    assert_eq!(
        got,
        vec![(6, Rule::L8), (11, Rule::L8), (16, Rule::L8)],
        "{:#?}",
        report.diagnostics
    );
    assert!(report.diagnostics[0].message.contains("`wal` lock"));
    assert!(
        report.diagnostics[1]
            .message
            .contains("transitively blocks"),
        "{}",
        report.diagnostics[1].message
    );
    assert!(report.diagnostics[2].message.contains("`snap` lock"));
}

#[test]
fn l8_is_quiet_when_io_is_hoisted_or_allowed() {
    let report = lint_sources(&[file("crates/gp-passwords/src/store.rs", L8_CLEAN)]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, Rule::L8);
}

#[test]
fn l9_fires_per_uncovered_opcode() {
    let report = lint_sources(&[file("crates/gp-netauth/src/replication.rs", L9_VIOLATION)]);
    assert_eq!(report.diagnostics.len(), 1, "{:#?}", report.diagnostics);
    let d = &report.diagnostics[0];
    assert_eq!(d.rule, Rule::L9);
    assert_eq!(d.line, 2, "flags the uncovered TAG_PONG const");
    assert!(d.message.contains("TAG_PONG"), "{}", d.message);
    assert!(d.message.contains("ReplicaMessage::Pong"), "{}", d.message);
    assert!(d.message.contains("round-trip"), "{}", d.message);
    assert!(d.message.contains("truncation"), "{}", d.message);
}

#[test]
fn l9_coverage_follows_helper_indirection() {
    let report = lint_sources(&[file("crates/gp-netauth/src/replication.rs", L9_CLEAN)]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn l9_is_scoped_to_replication_files() {
    let report = lint_sources(&[file("crates/gp-netauth/src/framing.rs", L9_VIOLATION)]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn all_violations_fire_together_and_sort_stably() {
    // One lint run over every violation fixture at once: each rule still
    // fires exactly as it does in isolation, and the report is ordered by
    // (file, line, rule).
    let report = lint_sources(&[
        file("crates/gp-netauth/src/handlers.rs", L1_VIOLATION),
        file("crates/gp-passwords/src/store.rs", L2_VIOLATION),
        file("crates/gp-passwords/src/digest.rs", L3_UNSAFE),
        file("crates/gp-netauth/src/reactor.rs", L4_VIOLATION),
        file("crates/gp-netauth/src/cluster.rs", L5_VIOLATION),
    ]);
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    let locations: Vec<(&str, u32, Rule)> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.rule))
        .collect();
    assert_eq!(
        locations,
        vec![
            ("crates/gp-netauth/src/cluster.rs", 13, Rule::L5),
            ("crates/gp-netauth/src/handlers.rs", 4, Rule::L1),
            ("crates/gp-netauth/src/reactor.rs", 4, Rule::L4),
            ("crates/gp-netauth/src/reactor.rs", 5, Rule::L4),
            ("crates/gp-netauth/src/reactor.rs", 7, Rule::L4),
            ("crates/gp-passwords/src/digest.rs", 4, Rule::L3),
            ("crates/gp-passwords/src/store.rs", 5, Rule::L2),
        ],
        "{rendered:#?}"
    );
}

#[test]
fn clean_fixtures_are_clean_together() {
    let report = lint_sources(&[
        file("crates/gp-netauth/src/handlers.rs", L1_CLEAN),
        file("crates/gp-passwords/src/store.rs", L2_CLEAN),
        file("crates/gp-netauth/src/sys.rs", L3_UNSAFE),
        file("crates/gp-netauth/src/server.rs", L4_CLEAN),
        file("crates/gp-netauth/src/reactor.rs", L5_CLEAN),
    ]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}
