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

/// `--help` and `-h` print the usage and the figure names to stdout and
/// exit 0, running no figure; an unknown figure prints them to stderr and
/// exits 2.
#[test]
fn help_goes_to_stdout_and_bad_input_to_stderr() {
    for (arg, code) in [("--help", 0), ("-h", 0), ("fig99", 2)] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .arg(arg)
            .output()
            .expect("run figures");
        let (usage, other) = match code {
            0 => (&out.stdout, &out.stderr),
            _ => (&out.stderr, &out.stdout),
        };
        let usage = String::from_utf8_lossy(usage);
        assert_eq!(out.status.code(), Some(code), "{arg}: {usage}");
        assert!(usage.contains("usage: figures"), "{arg}: {usage}");
        assert!(usage.contains("names: fig7"), "{arg}: {usage}");
        assert!(other.is_empty(), "{arg}");
    }
}
