//! Stamps the run manifest's build facts into the binary: the compiler
//! version and, when the sources sit in a git checkout, the commit.

use std::path::Path;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        git_rev(Path::new("../.git"))
    );
    println!("cargo:rerun-if-changed=build.rs");
}

/// Asks cargo to rerun when `path` changes. Only for paths that exist: a
/// missing one would count as changed and rebuild the benchmark on every
/// run.
fn watch(path: &Path) {
    if path.exists() {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}

/// Resolves `HEAD` by reading the git directory (no git binary needed);
/// "unknown" outside a checkout.
fn git_rev(git: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    watch(&git.join("HEAD"));
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    watch(&git.join(reference));
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    watch(&git.join("packed-refs"));
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
