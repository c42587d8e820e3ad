//! Records the compiler flags (and so the pinned `target-cpu`) the
//! benchmark was built with, for the host facts it prints.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let flags = flags.replace('\u{1f}', " ");
    let flags = if flags.is_empty() {
        "none".into()
    } else {
        flags
    };
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
