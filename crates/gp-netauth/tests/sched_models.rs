//! Exhaustive interleaving model tests for gp-netauth's one coordination
//! kernel, the `PendingAccounts` enrollment barrier, driven by the
//! gp-sched deterministic scheduler.
//!
//! Only compiled under `RUSTFLAGS="--cfg gp_sched"` — that flag switches
//! `gp_sched::sync` (which `PendingAccounts` is built against) from std
//! primitives to the instrumented shims, so every lock and atomic access
//! below is a scheduling choice point the explorer enumerates. See
//! CONCURRENCY.md for the protocol inventory and README.md for how to
//! replay a failing schedule trace.
#![cfg(gp_sched)]

use gp_netauth::pending::PendingAccounts;
use gp_sched::{shim, thread, Explorer};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// PendingAccounts: a login parked on its own account's enrollment
/// barrier must always unpark.  Nothing blocks on the table: the reactor
/// checks `is_pending` when it prepares the login, and again when it
/// re-drives the parked connection after applying completions — and the
/// enroll's group commit calls `end` before it posts the completion that
/// triggers that re-drive.  Under every interleaving of the login's checks
/// with the commit, a check that runs after the commit is observable (here:
/// after `committed` is set) must see the barrier down, so the re-drive
/// never re-parks forever.
#[test]
fn pending_accounts_login_always_unparks() {
    let exploration = Explorer::new().explore(|| {
        let pending = Arc::new(PendingAccounts::new());
        let committed = Arc::new(shim::AtomicBool::new(false));
        pending.begin("alice");

        let (p2, c2) = (Arc::clone(&pending), Arc::clone(&committed));
        let login = thread::spawn(move || {
            // The prepare-time check may land on either side of the commit.
            p2.is_pending("alice");
            // `committed` is set only after `end` returns, and this model
            // has exactly one enrollment: once the login observes the
            // commit, its re-drive check must find the barrier down.
            if c2.load(Ordering::SeqCst) {
                assert!(!p2.is_pending("alice"), "barrier still up after its commit");
            }
        });

        pending.end("alice");
        committed.store(true, Ordering::SeqCst);
        login.join();
        // The re-drive that follows the commit's completion.
        assert!(!pending.is_pending("alice"));
    });
    assert!(
        exploration.schedules > 5,
        "the race must branch the schedule"
    );
    assert_eq!(
        exploration.pruned, 0,
        "exploration must be exhaustive, not truncated"
    );
}

/// PendingAccounts refcounting: with two racing enrollments of one name,
/// the barrier stays up until *both* commit (each holds a reference), and
/// a login polling `is_pending` meanwhile can never make the table drop
/// the second enrollment's reference.
#[test]
fn pending_accounts_refcount_requires_all_commits() {
    let exploration = Explorer::new().explore(|| {
        let pending = Arc::new(PendingAccounts::new());
        pending.begin("alice");

        let p2 = Arc::clone(&pending);
        let second_enroll = thread::spawn(move || {
            p2.begin("alice");
            // This thread holds a reference: the barrier must be up no
            // matter what the first enrollment's commit is doing.
            assert!(
                p2.is_pending("alice"),
                "barrier dropped while a ref is held"
            );
            p2.end("alice");
        });

        let p3 = Arc::clone(&pending);
        let login = thread::spawn(move || {
            // A parked login's prepare and re-drive checks.
            p3.is_pending("alice");
            p3.is_pending("alice");
        });

        pending.end("alice");
        second_enroll.join();
        login.join();
        assert!(
            !pending.is_pending("alice"),
            "all enrollments ended, table must be clear"
        );
    });
    assert!(exploration.schedules > 10);
    assert_eq!(exploration.pruned, 0);
}
