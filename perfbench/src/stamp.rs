//! The provenance stamp every result carries: source revision, machine
//! and build facts that decide whether a number is comparable.

use aiga::gpu::engine::simd::{detect_path, GemmPath};
use aiga::util::json::Json;
use std::process::Command;

#[derive(Clone, Debug)]
pub struct Stamp {
    /// `HEAD` of the checkout, or `None` outside a git work tree.
    pub git_rev: Option<String>,
    /// Uncommitted changes in the work tree (`None` outside git).
    pub dirty: Option<bool>,
    pub nproc: usize,
    pub gemm_path: GemmPath,
    /// Every `AIGA_*` environment variable, sorted.
    pub aiga_env: Vec<(String, String)>,
    pub rustc: String,
}

/// Runs a command to completion and returns its trimmed stdout, or
/// `None` if it could not run or failed.
fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Stamp {
    pub fn collect() -> Stamp {
        // Only a work tree rooted exactly here counts: a checkout
        // nested inside some other repository must not borrow its rev.
        let here = std::env::current_dir()
            .ok()
            .and_then(|d| d.canonicalize().ok());
        let top = output_of("git", &["rev-parse", "--show-toplevel"])
            .and_then(|t| std::path::PathBuf::from(t).canonicalize().ok());
        let in_git = here.is_some() && here == top;
        let git_rev = in_git
            .then(|| output_of("git", &["rev-parse", "HEAD"]))
            .flatten();
        let dirty = in_git
            .then(|| output_of("git", &["status", "--porcelain"]).map(|s| !s.is_empty()))
            .flatten();
        let mut aiga_env: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("AIGA_"))
            .collect();
        aiga_env.sort();
        Stamp {
            git_rev,
            dirty,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            gemm_path: detect_path(),
            aiga_env,
            rustc: output_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// `"baseline"` only for a SIMD build from a clean git tree with no
    /// `AIGA_*` overrides; otherwise the first reason it is not one.
    pub fn label(&self) -> &'static str {
        if !self.gemm_path.is_simd() {
            "scalar-path"
        } else if !self.aiga_env.is_empty() {
            "env-override"
        } else if self.git_rev.is_none() {
            "no-git-rev"
        } else if self.dirty == Some(true) {
            "dirty-tree"
        } else {
            "baseline"
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label())),
            (
                "git_rev",
                self.git_rev.clone().map_or(Json::Null, Json::str),
            ),
            ("dirty", self.dirty.map_or(Json::Null, Json::Bool)),
            ("nproc", Json::num(self.nproc as f64)),
            ("gemm_path", Json::str(format!("{:?}", self.gemm_path))),
            (
                "aiga_env",
                Json::obj(
                    self.aiga_env
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.clone()))),
                ),
            ),
            ("rustc", Json::str(self.rustc.clone())),
        ])
    }
}
