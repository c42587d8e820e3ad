//! Per-account enrollment write barrier.
//!
//! Extracted into its own module so the coordination kernel can be model
//! tested: the sync primitives come from [`gp_sched::sync`], which is
//! `std::sync` in release builds and the gp-sched deterministic-scheduler
//! shims under `--cfg gp_sched` (see `tests/sched_models.rs`).

use gp_sched::sync::Mutex;
use std::collections::HashMap;
use std::fmt;

/// Accounts with an enrollment accepted into a turn but not yet
/// group-committed.
///
/// Under group commit an enrollment becomes visible in memory *before*
/// its WAL record is fsynced, so a login racing it could be acknowledged
/// against a record a crash would lose.  `AuthServer::prepare_turn`
/// consults this table so only a login for the *same* account parks until
/// its enroll's barrier; every other account's traffic keeps flowing
/// (the per-connection write barrier this replaces split the whole
/// pipeline at every enrollment).  Nothing blocks on the table: the
/// reactor re-checks [`PendingAccounts::is_pending`] for each parked
/// connection after applying completions, and the group commit that
/// clears an account posts the completion that wakes it.
///
/// Entries are reference-counted: concurrent enrollments of one name
/// (only one can win the duplicate check) each hold the account pending
/// until their own settle/commit releases it.
#[derive(Default)]
pub struct PendingAccounts {
    accounts: Mutex<HashMap<String, usize>>,
}

impl fmt::Debug for PendingAccounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingAccounts")
            .field("pending", &self.accounts.lock().len())
            .finish()
    }
}

impl PendingAccounts {
    /// An empty barrier table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark an enrollment in flight for `username` (at prepare time).
    pub fn begin(&self, username: &str) {
        let mut accounts = self.accounts.lock();
        *accounts.entry(username.to_string()).or_insert(0) += 1;
    }

    /// Release one in-flight enrollment for `username` (after its group
    /// commit, or at settle time if the insert was refused).
    pub fn end(&self, username: &str) {
        let mut accounts = self.accounts.lock();
        if let Some(count) = accounts.get_mut(username) {
            *count -= 1;
            if *count == 0 {
                accounts.remove(username);
            }
        }
    }

    /// Whether `username` has an enrollment awaiting its group commit.
    pub fn is_pending(&self, username: &str) -> bool {
        self.accounts.lock().contains_key(username)
    }
}
