//! The `instant-ads` command line: bad input exits with code 2 and a
//! message, never a panic.

use std::process::Command;

#[test]
fn zero_seeds_exit_with_usage_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_instant-ads"))
        .args(["--seeds", "0", "--peers", "20", "--duration", "60"])
        .output()
        .expect("run instant-ads");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--seeds"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Flags that break a scenario rule report the rule and exit 2.
#[test]
fn scenario_rules_exit_with_their_message_not_a_panic() {
    for (flag, value, rule) in [
        ("--peers", "0", "need at least one mobile peer"),
        ("--round", "0", "round_time must be positive"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_instant-ads"))
            .args([flag, value, "--duration", "60"])
            .output()
            .expect("run instant-ads");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(rule), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}

/// `--help` and `-h` print the options to stdout and exit 0; bad input
/// prints them to stderr and exits 2.
#[test]
fn help_goes_to_stdout_and_bad_input_to_stderr() {
    for (arg, code) in [("--help", 0), ("-h", 0), ("--bogus", 2)] {
        let out = Command::new(env!("CARGO_BIN_EXE_instant-ads"))
            .arg(arg)
            .output()
            .expect("run instant-ads");
        let (usage, other) = match code {
            0 => (&out.stdout, &out.stderr),
            _ => (&out.stderr, &out.stdout),
        };
        let usage = String::from_utf8_lossy(usage);
        assert_eq!(out.status.code(), Some(code), "{arg}: {usage}");
        assert!(usage.contains("--protocol KIND"), "{arg}: {usage}");
        assert!(other.is_empty(), "{arg}");
    }
}
