//! Per-account consecutive-failure tracking (the online-attack throttle).
//!
//! §5.1: "The system may limit the number of incorrect login attempts for
//! individual accounts, slowing or stopping the attack."  The tracker
//! counts consecutive failures per account; once the limit is reached the
//! account is locked until an administrator (or test) resets it.
//!
//! Two serving-scale properties are layered on top of the paper's policy:
//!
//! * **Sharding** — failure state is partitioned into independently locked
//!   shards keyed by the same account hash the password store uses
//!   ([`gp_passwords::shard_index`]), so the tracker is never a global
//!   contention point for the serving threads.
//! * **Bounded memory** — a username-spraying online attacker (one failure
//!   each against millions of *distinct* names) must not grow the tracker
//!   without bound.  Each shard keeps two generations of entries; when the
//!   live generation reaches its budget the older generation is swept, and
//!   *locked* entries are pinned: up to half the budget is carried into
//!   the fresh generation, so spraying one-failure noise cannot unlock an
//!   account — displacing a lock requires locking half a budget's worth
//!   of other accounts first, while the cap keeps rotations amortized
//!   O(1) per failure.  Successful logins evict immediately, so
//!   well-behaved accounts cost nothing at rest.

use gp_passwords::shard_index;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Default cap on tracked accounts (across all shards, per generation).
const DEFAULT_CAPACITY: usize = 65_536;

/// Default shard count for the failure map.
const DEFAULT_SHARDS: usize = 8;

/// Two-generation failure map for one shard: `current` receives writes,
/// `previous` is read-only and dropped wholesale on rotation.
#[derive(Debug, Default)]
struct LockoutShard {
    current: HashMap<String, u32>,
    previous: HashMap<String, u32>,
    /// Entries swept (forgotten from `previous`) over the shard's lifetime.
    swept: u64,
}

impl LockoutShard {
    fn failures(&self, username: &str) -> u32 {
        self.current
            .get(username)
            .or_else(|| self.previous.get(username))
            .copied()
            .unwrap_or(0)
    }

    /// Move an entry's count into `current` (migrating from `previous` if
    /// needed), add one failure, and rotate generations when the live one
    /// exceeds `budget`.
    ///
    /// Rotation pins *locked* entries (count ≥ `max_failures`): up to half
    /// the budget is carried back into the fresh generation, so a sprayer
    /// cannot unlock an account with one-failure noise — displacing a lock
    /// requires locking half a budget of other accounts first, which
    /// multiplies the attack cost by the threshold and lights up every
    /// counter.  The half-budget cap keeps rotation amortized O(1) per
    /// failure: the fresh generation always has at least `budget / 2` free
    /// slots, so the O(budget) rotation cost is paid at most once per
    /// `budget / 2` insertions even when the shard is saturated with
    /// locked entries.
    fn record_failure(&mut self, username: &str, budget: usize, max_failures: u32) -> u32 {
        let count = self
            .current
            .remove(username)
            .or_else(|| self.previous.remove(username))
            .unwrap_or(0)
            .saturating_add(1);
        self.current.insert(username.to_string(), count);
        if self.current.len() > budget {
            let retired = std::mem::take(&mut self.current);
            self.swept += self.previous.len() as u64;
            self.previous = retired;
            if max_failures > 0 {
                let locked: Vec<String> = self
                    .previous
                    .iter()
                    .filter(|&(_, &c)| c >= max_failures)
                    .map(|(name, _)| name.clone())
                    .take((budget / 2).max(1))
                    .collect();
                for name in locked {
                    if let Some(c) = self.previous.remove(&name) {
                        self.current.insert(name, c);
                    }
                }
            }
        }
        count
    }

    fn remove(&mut self, username: &str) {
        self.current.remove(username);
        self.previous.remove(username);
    }

    fn tracked(&self) -> usize {
        self.current.len() + self.previous.len()
    }
}

/// Thread-safe per-account failure counter with a lockout threshold,
/// sharded for concurrency and bounded in memory (generation sweep).
#[derive(Debug)]
pub struct LockoutTracker {
    max_failures: u32,
    /// Per-shard, per-generation entry budget.
    shard_budget: usize,
    shards: Vec<Mutex<LockoutShard>>,
}

impl LockoutTracker {
    /// Create a tracker that locks accounts after `max_failures` consecutive
    /// failed attempts.  `max_failures == 0` disables lockout.  Uses the
    /// default capacity (65 536 tracked accounts) and shard count (8).
    pub fn new(max_failures: u32) -> Self {
        Self::with_limits(max_failures, DEFAULT_CAPACITY, DEFAULT_SHARDS)
    }

    /// Create a tracker with an explicit tracked-account capacity and shard
    /// count.  `capacity` is a per-generation total across shards; at most
    /// `2 × capacity` entries are ever resident.  Both are clamped to ≥ 1.
    pub fn with_limits(max_failures: u32, capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let shard_budget = (capacity.max(1)).div_ceil(shards);
        Self {
            max_failures,
            shard_budget,
            shards: (0..shards)
                .map(|_| Mutex::new(LockoutShard::default()))
                .collect(),
        }
    }

    /// The configured threshold (0 = disabled).
    pub fn max_failures(&self) -> u32 {
        self.max_failures
    }

    /// Number of independently locked shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Maximum accounts tracked at once (both generations, all shards).
    pub fn capacity(&self) -> usize {
        2 * self.shard_budget * self.shards.len()
    }

    fn shard_for(&self, username: &str) -> &Mutex<LockoutShard> {
        &self.shards[shard_index(username, self.shards.len())]
    }

    /// Whether the account is currently locked.
    pub fn is_locked(&self, username: &str) -> bool {
        if self.max_failures == 0 {
            return false;
        }
        self.shard_for(username).lock().failures(username) >= self.max_failures
    }

    /// Current consecutive-failure count for an account.
    pub fn failures(&self, username: &str) -> u32 {
        self.shard_for(username).lock().failures(username)
    }

    /// Record a failed attempt; returns the new failure count.
    pub fn record_failure(&self, username: &str) -> u32 {
        self.shard_for(username).lock().record_failure(
            username,
            self.shard_budget,
            self.max_failures,
        )
    }

    /// Record a successful login, clearing the failure count (and freeing
    /// the tracked entry — successful accounts cost no memory at rest).
    pub fn record_success(&self, username: &str) {
        self.shard_for(username).lock().remove(username);
    }

    /// Atomically settle one attempt under a single shard-lock
    /// acquisition: returns `(was_already_locked, failures_after)`.
    ///
    /// If the account is already locked, nothing is recorded (the lock
    /// decision stands and the count stays at the threshold); otherwise a
    /// success clears the entry and a failure increments it.  The serving
    /// layer uses this instead of a separate `is_locked` +
    /// `record_failure` pair so that concurrent wrong attempts from
    /// different connections can never push the reported count past the
    /// threshold.
    pub fn settle_attempt(&self, username: &str, success: bool) -> (bool, u32) {
        let mut shard = self.shard_for(username).lock();
        let current = shard.failures(username);
        if self.max_failures > 0 && current >= self.max_failures {
            return (true, current);
        }
        if success {
            shard.remove(username);
            (false, 0)
        } else {
            (
                false,
                shard.record_failure(username, self.shard_budget, self.max_failures),
            )
        }
    }

    /// Administrative unlock.
    pub fn reset(&self, username: &str) {
        self.shard_for(username).lock().remove(username);
    }

    /// Accounts currently tracked (both generations, all shards).
    pub fn tracked_accounts(&self) -> usize {
        self.shards.iter().map(|s| s.lock().tracked()).sum()
    }

    /// Entries forgotten by generation sweeps over the tracker's lifetime
    /// (observability: non-zero under spraying attacks).
    pub fn swept_accounts(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().swept).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locks_after_threshold() {
        let tracker = LockoutTracker::new(3);
        assert!(!tracker.is_locked("alice"));
        tracker.record_failure("alice");
        tracker.record_failure("alice");
        assert!(!tracker.is_locked("alice"));
        tracker.record_failure("alice");
        assert!(tracker.is_locked("alice"));
        assert_eq!(tracker.failures("alice"), 3);
        // Other accounts are unaffected.
        assert!(!tracker.is_locked("bob"));
    }

    #[test]
    fn success_clears_failures() {
        let tracker = LockoutTracker::new(3);
        tracker.record_failure("alice");
        tracker.record_failure("alice");
        tracker.record_success("alice");
        assert_eq!(tracker.failures("alice"), 0);
        assert!(!tracker.is_locked("alice"));
        assert_eq!(tracker.tracked_accounts(), 0, "success evicts the entry");
    }

    #[test]
    fn reset_unlocks() {
        let tracker = LockoutTracker::new(1);
        tracker.record_failure("alice");
        assert!(tracker.is_locked("alice"));
        tracker.reset("alice");
        assert!(!tracker.is_locked("alice"));
    }

    #[test]
    fn zero_threshold_disables_lockout() {
        let tracker = LockoutTracker::new(0);
        for _ in 0..100 {
            tracker.record_failure("alice");
        }
        assert!(!tracker.is_locked("alice"));
        assert_eq!(tracker.failures("alice"), 100);
    }

    #[test]
    fn concurrent_failures_are_counted() {
        use std::sync::Arc;
        let tracker = Arc::new(LockoutTracker::new(1000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&tracker);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    t.record_failure("shared");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tracker.failures("shared"), 400);
    }

    #[test]
    fn username_spraying_cannot_grow_memory_unboundedly() {
        // One failure each against 50× more distinct names than the
        // capacity: resident entries must stay within the documented bound.
        let tracker = LockoutTracker::with_limits(3, 64, 4);
        for i in 0..(64 * 50) {
            tracker.record_failure(&format!("sprayed-{i}"));
        }
        assert!(
            tracker.tracked_accounts() <= tracker.capacity(),
            "tracked {} must stay within capacity {}",
            tracker.tracked_accounts(),
            tracker.capacity()
        );
        assert!(tracker.swept_accounts() > 0, "sweeps must have happened");
    }

    #[test]
    fn concurrent_settles_never_exceed_the_threshold() {
        use std::sync::Arc;
        let tracker = Arc::new(LockoutTracker::new(3));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&tracker);
            handles.push(std::thread::spawn(move || {
                let mut max_seen = 0;
                for _ in 0..50 {
                    let (_, failures) = t.settle_attempt("shared", false);
                    max_seen = max_seen.max(failures);
                }
                max_seen
            }));
        }
        for h in handles {
            assert!(
                h.join().unwrap() <= 3,
                "no thread may ever observe a count past the threshold"
            );
        }
        assert_eq!(tracker.failures("shared"), 3);
        assert!(tracker.is_locked("shared"));
        // A correct password settled against a locked account changes
        // nothing.
        assert_eq!(tracker.settle_attempt("shared", true), (true, 3));
        assert!(tracker.is_locked("shared"));
    }

    #[test]
    fn spraying_cannot_unlock_a_locked_account() {
        // Lock the victim, then flood the (single) shard with 50× the
        // budget in one-failure noise: the lock must survive every sweep.
        let tracker = LockoutTracker::with_limits(3, 16, 1);
        for _ in 0..3 {
            tracker.record_failure("victim");
        }
        assert!(tracker.is_locked("victim"));
        for i in 0..(16 * 50) {
            tracker.record_failure(&format!("sprayed-{i}"));
        }
        assert!(
            tracker.is_locked("victim"),
            "one-failure spraying must not displace a locked account"
        );
        assert!(tracker.tracked_accounts() <= tracker.capacity());
    }

    #[test]
    fn failure_counts_survive_one_generation_rotation() {
        // A near-locked account must not lose its count the moment a sweep
        // rotates generations: `previous` entries still count and migrate
        // back on the next failure.
        let tracker = LockoutTracker::with_limits(3, 8, 1);
        tracker.record_failure("victim");
        tracker.record_failure("victim");
        // Force one rotation (budget is 8 for the single shard).
        for i in 0..9 {
            tracker.record_failure(&format!("noise-{i}"));
        }
        assert_eq!(tracker.failures("victim"), 2, "count survives rotation");
        tracker.record_failure("victim");
        assert!(tracker.is_locked("victim"));
    }

    #[test]
    fn locked_accounts_spread_across_shards() {
        let tracker = LockoutTracker::with_limits(1, 1024, 4);
        for i in 0..64 {
            tracker.record_failure(&format!("user{i}"));
        }
        for i in 0..64 {
            assert!(tracker.is_locked(&format!("user{i}")));
        }
        assert_eq!(tracker.tracked_accounts(), 64);
        assert_eq!(tracker.shard_count(), 4);
    }
}
