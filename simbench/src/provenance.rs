//! Where a number came from: FNV-1a digests that pin a scenario and a
//! run's outcome, and the host, toolchain and source identity printed
//! with every report.

use std::fmt;
use std::path::Path;
use std::process::Command;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Digest of a value's `Debug` rendering. `RunResult` and `Scenario`
/// print every field, floats in shortest round-trip form, so equal
/// digests mean bit-identical values.
pub fn digest_of(value: &impl fmt::Debug) -> u64 {
    fnv1a(FNV_OFFSET, format!("{value:?}").as_bytes())
}

/// The machine, toolchain and code a report was measured with.
pub struct Host {
    git_commit: String,
    source_digest: String,
    rustc: String,
    cpu: String,
    nproc: usize,
}

impl Host {
    pub fn detect() -> Host {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let git_commit = if root.join(".git").exists() {
            first_line(Command::new("git").arg("-C").arg(&root).args([
                "rev-parse",
                "--short",
                "HEAD",
            ]))
        } else {
            None
        };
        Host {
            git_commit: git_commit.unwrap_or_else(unknown),
            source_digest: source_digest(&root).map_or_else(unknown, |d| format!("{d:016x}")),
            rustc: first_line(Command::new("rustc").arg("-V")).unwrap_or_else(unknown),
            cpu: cpu_model().unwrap_or_else(unknown),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "git_commit={} source_digest={} rustc=\"{}\" cpu=\"{}\" nproc={}",
            self.git_commit, self.source_digest, self.rustc, self.cpu, self.nproc
        )
    }
}

fn unknown() -> String {
    "unknown".to_string()
}

/// First stdout line of a command that succeeded.
fn first_line(command: &mut Command) -> Option<String> {
    let out = command.output().ok().filter(|out| out.status.success())?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|line| line.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split(':').nth(1))
        .map(|model| model.trim().to_string())
}

/// Digest of the simulator's sources (`crates/`, `vendor/` and the root
/// manifest, in path order). It names the code under test where no git
/// metadata exists.
fn source_digest(root: &Path) -> Option<u64> {
    let mut files = vec![root.join("Cargo.toml")];
    let mut dirs = vec![root.join("crates"), root.join("vendor")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).ok()? {
            let path = entry.ok()?.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    files.iter().try_fold(FNV_OFFSET, |hash, file| {
        let name = file.strip_prefix(root).ok()?.to_string_lossy();
        Some(fnv1a(
            fnv1a(hash, name.as_bytes()),
            &std::fs::read(file).ok()?,
        ))
    })
}
