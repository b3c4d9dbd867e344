//! The `figures` command line: bad input exits with code 2 and a
//! message, never a panic.

use std::process::Command;

/// A CSV directory that cannot be created stops the binary before it
/// runs any figure.
#[test]
fn csv_dir_under_a_file_exits_with_a_message_not_a_panic() {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures-cli-not-a-dir");
    std::fs::write(&file, "").expect("create the blocking file");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("tables")
        .arg("--csv")
        .arg(file.join("sub"))
        .output()
        .expect("run figures");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("CSV directory"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "a figure ran first");
}
