//! The environment guard: refuse to measure a build whose release
//! profile differs from the one users build with, and record what the
//! numbers were measured on.

use crate::json::{obj, Json};
use crate::procfs;
use std::path::PathBuf;
use std::process::Command;

/// The repository root: the benchmark package lives one level below it.
pub fn root_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Where reports, spans and counts are written: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The `key = value` lines of a manifest's `[profile.release]` table,
/// comments and blanks dropped, sorted.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

/// Build settings change speed without changing code, so the benchmark
/// only runs when its copy of `[profile.release]` is the root's.
pub fn check_profile_parity() -> Result<(), String> {
    let root = root_dir().join("Cargo.toml");
    let root_manifest =
        std::fs::read_to_string(&root).map_err(|e| format!("read {}: {e}", root.display()))?;
    let own = release_profile(include_str!("../Cargo.toml"));
    let theirs = release_profile(&root_manifest);
    if own == theirs {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] differs: {} has {theirs:?}, benchmark/Cargo.toml has {own:?}; \
             copy the root table so the benchmark measures the code users build",
            root.display()
        ))
    }
}

/// The parsed `BENCHMARK.json` at the repository root.
pub fn benchmark_json() -> Result<Json, String> {
    let path = root_dir().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(root_dir()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What a report records about where it was measured. `commit` is
/// `unknown` outside a git checkout.
pub fn capture() -> Json {
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    obj([
        ("commit", Json::Str(commit)),
        ("dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()))),
        ("nproc", Json::Num(nproc() as f64)),
        ("DYNAGG_THREADS", Json::Str("1".into())),
        ("load_average_1m", procfs::load_average().map_or(Json::Null, Json::Num)),
    ])
}

/// Warn when something else is already using the cores.
pub fn warn_if_loaded() {
    if let Some(load) = procfs::load_average() {
        if load > nproc() as f64 {
            eprintln!(
                "WARNING: 1-minute load average {load:.2} exceeds nproc {}; timings will be noisy",
                nproc()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_tables_compare_ignoring_comments_and_order() {
        let a = "[package]\nname = \"x\"\n[profile.release]\n# why\nlto = \"thin\"\ncodegen-units = 1\n\n[profile.bench]\nlto = \"thin\"\n";
        let b = "[profile.release]\ncodegen-units=1 # one unit\nlto   = \"thin\"\n";
        assert_eq!(release_profile(a), release_profile(b));
        assert_ne!(release_profile(a), release_profile("[profile.release]\nlto = \"fat\"\n"));
        assert!(release_profile("[package]\n").is_empty());
    }
}
