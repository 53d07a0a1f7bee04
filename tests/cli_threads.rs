//! `--threads 0` is a usage error (exit 2) at every subcommand that takes a
//! thread count, never a panic deep inside the executor builder; so are a
//! zero replica count, window or timeout for `galois lockstep`, rather than
//! a silently raised window or a session that times out every replica.

use std::process::Command;

const MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/bfs_n2000_t1.manifest.json"
);

fn assert_usage_exit(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_galois"))
        .args(args)
        .output()
        .expect("run galois");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
}

#[test]
fn zero_threads_exit_with_usage() {
    let out = std::env::temp_dir().join("galois-cli-threads.json");
    let out = out.to_str().unwrap();
    for args in [
        &["bfs", "--threads", "0"][..],
        &["record", "bfs", "--out", out, "--threads", "0"],
        &["replay", MANIFEST, "--threads", "0"],
        &["replay", MANIFEST, "--lockstep", "1,0"],
        &["lockstep", MANIFEST, "--replicas", "2", "--threads", "1,0"],
        &["replicate", "--join", "127.0.0.1:9", "--threads", "0"],
    ] {
        assert_usage_exit(args);
    }
    assert!(!std::path::Path::new(out).exists(), "record ran anyway");
}

#[test]
fn zero_lockstep_sizes_exit_with_usage() {
    for flag in ["--replicas", "--window", "--timeout-ms"] {
        assert_usage_exit(&["lockstep", MANIFEST, flag, "0"]);
    }
}
