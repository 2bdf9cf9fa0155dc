//! Records the compiler version and target CPU into the binary, so every
//! result can state the build it came from.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    println!("cargo:rustc-env=E2E_RUSTC_VERSION={version}");

    // CARGO_ENCODED_RUSTFLAGS carries `[build] rustflags` and RUSTFLAGS,
    // separated by 0x1f.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let flags: Vec<&str> = flags.split('\u{1f}').collect();
    let target_cpu = flags
        .iter()
        .enumerate()
        .find_map(|(i, f)| {
            f.strip_prefix("target-cpu=")
                .or_else(|| f.strip_prefix("-Ctarget-cpu="))
                .map(str::to_string)
                .or_else(|| {
                    (*f == "-C")
                        .then(|| flags.get(i + 1).and_then(|n| n.strip_prefix("target-cpu=")))
                        .flatten()
                        .map(str::to_string)
                })
        })
        .unwrap_or_else(|| "default".into());
    println!("cargo:rustc-env=E2E_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=RUSTFLAGS");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
