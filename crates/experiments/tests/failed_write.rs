//! A write that fails is an error, never a silent skip: with a
//! directory named `E2.csv` in the out dir, E2 cannot write its CSV,
//! so `run_by_id` returns an error naming the file and the CLI exits 1.

use sociolearn_experiments::{run_by_id, ExpContext};
use std::path::PathBuf;
use std::process::Command;

/// An out dir holding a directory where E2's CSV should go.
fn blocked_out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sociolearn_failed_write_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("E2.csv")).expect("create the blocking dir");
    dir
}

#[test]
fn run_by_id_reports_a_failed_write() {
    let dir = blocked_out_dir("lib");
    let err = run_by_id("E2", &ExpContext::new(&dir, true, 20170508))
        .expect_err("writing E2.csv over a directory must fail");
    assert!(
        err.contains("E2.csv"),
        "error does not name the file: {err}"
    );
    assert!(
        !dir.join("E2.md").exists(),
        "E2.md written after a failed write"
    );
}

#[test]
fn cli_exits_1_on_a_failed_write() {
    let dir = blocked_out_dir("cli");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["E2", "--quick", "--out"])
        .arg(&dir)
        .output()
        .expect("run the experiments binary");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("E2.csv"));
}
