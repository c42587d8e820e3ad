//! L3 fixture: an `unsafe` block. Flagged outside `gp-netauth/src/sys.rs`
//! and `gp-crypto/src/sha_ni.rs`; the tests lint it under both kinds of path.
fn read_raw(ptr: *const u8) -> u8 {
    unsafe { *ptr }
}
