//! Workspace discovery: which `.rs` files exist, and what role each one
//! plays (library vs. test target vs. example vs. bench), so every rule
//! can scope itself without re-deriving path semantics.

use std::fs;
use std::path::{Path, PathBuf};

/// What a source file is compiled into — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Part of a library target (`crates/*/src`, `shims/*/src`, root
    /// `src/`). The full rule set applies.
    Library,
    /// An integration-test target (`tests/` of any package).
    TestTarget,
    /// An example (`examples/`) — wall-clock and hash rules are relaxed.
    Example,
    /// A bench target (`benches/`) — same relaxations as examples.
    BenchTarget,
}

/// Everything a rule needs to know about the file it is looking at.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Path relative to the workspace root (display + allow tracking).
    pub path: String,
    /// Package the file belongs to (`veda`, `veda-model`, `rand`, …).
    pub crate_name: String,
    /// Compilation role (see [`FileRole`]).
    pub role: FileRole,
    /// Under `shims/` — offline registry stand-ins are exempt from crate
    /// hygiene (they mirror external APIs, docs and all).
    pub is_shim: bool,
    /// In the measurement scope (`crates/bench`) where wall-clock reads
    /// are the point.
    pub is_bench_crate: bool,
    /// Is this a library crate root (`src/lib.rs`) that must carry the
    /// hygiene headers?
    pub is_crate_root: bool,
}

impl FileContext {
    /// A synthetic context for linting an in-memory source as library
    /// code of `crate_name` — used by the fixture suite and the
    /// injected-violation tests.
    pub fn synthetic_library(crate_name: &str) -> Self {
        FileContext {
            path: format!("<synthetic:{crate_name}>"),
            crate_name: crate_name.to_string(),
            role: FileRole::Library,
            is_shim: false,
            is_bench_crate: false,
            is_crate_root: false,
        }
    }
}

/// One discovered source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Rule-relevant classification.
    pub context: FileContext,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
}

/// Walk the workspace at `root` and classify every `.rs` file the pass
/// audits. Deterministic: directory entries are sorted, so violation
/// order and ratchet counts never depend on filesystem enumeration
/// order.
///
/// Skipped subtrees: `target/` (build output) and any directory named
/// `fixtures` (the linter's own deliberately-violating test corpus).
pub fn discover(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    // Package roots: crates/*, shims/*, and the workspace root package.
    for dir in ["crates", "shims"] {
        let base = root.join(dir);
        if !base.is_dir() {
            continue;
        }
        for pkg in sorted_dirs(&base)? {
            let crate_name = package_name(&pkg)
                .unwrap_or_else(|| pkg.file_name().unwrap_or_default().to_string_lossy().into_owned());
            collect_package(root, &pkg, &crate_name, dir == "shims", &mut files)?;
        }
    }
    collect_package(root, root, &package_name(root).unwrap_or_else(|| "root".into()), false, &mut files)?;
    Ok(files)
}

/// Collect one package's source trees (`src/`, `tests/`, `examples/`,
/// `benches/`).
fn collect_package(
    root: &Path,
    pkg: &Path,
    crate_name: &str,
    is_shim: bool,
    out: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    let is_bench_crate = crate_name == "veda-bench";
    let trees = [
        ("src", FileRole::Library),
        ("tests", FileRole::TestTarget),
        ("examples", FileRole::Example),
        ("benches", FileRole::BenchTarget),
    ];
    for (tree, role) in trees {
        let base = pkg.join(tree);
        if !base.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        walk_rs(&base, &mut paths)?;
        paths.sort();
        for abs in paths {
            let rel = abs.strip_prefix(root).unwrap_or(&abs).to_string_lossy().replace('\\', "/");
            let is_crate_root = role == FileRole::Library
                && abs.file_name().is_some_and(|n| n == "lib.rs")
                && abs.parent() == Some(base.as_path());
            out.push(SourceFile {
                context: FileContext {
                    path: rel,
                    crate_name: crate_name.to_string(),
                    role,
                    is_shim,
                    is_bench_crate,
                    is_crate_root,
                },
                abs_path: abs,
            });
        }
    }
    Ok(())
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn sorted_dirs(base: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut dirs: Vec<PathBuf> =
        fs::read_dir(base)?.filter_map(|e| e.ok()).map(|e| e.path()).filter(|p| p.is_dir()).collect();
    dirs.sort();
    Ok(dirs)
}

/// Read the `[package] name` out of a `Cargo.toml` without a TOML
/// dependency: first `name = "…"` line inside the `[package]` section.
fn package_name(pkg_dir: &Path) -> Option<String> {
    let manifest = fs::read_to_string(pkg_dir.join("Cargo.toml")).ok()?;
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return rest.trim().trim_matches('"').to_string().into();
                }
            }
        }
    }
    None
}

/// Find the workspace root by walking up from `start` until a
/// `Cargo.toml` containing a `[workspace]` section appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_context_is_library() {
        let ctx = FileContext::synthetic_library("veda-model");
        assert_eq!(ctx.role, FileRole::Library);
        assert!(!ctx.is_shim);
        assert_eq!(ctx.crate_name, "veda-model");
    }
}
