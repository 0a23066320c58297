//! Host and provenance record printed with every run.

use std::path::{Path, PathBuf};

pub struct Host {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism`, which also honours cgroup
    /// CPU quotas.
    pub available: usize,
    pub cpu_model: String,
    /// The git commit of the checkout, when it is a git checkout.
    pub commit: String,
    /// FNV-1a over the repository's manifests and crate sources: names
    /// the code measured when no git metadata is present.
    pub source_digest: String,
}

impl Host {
    pub fn probe(repo_root: &Path) -> Host {
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            nproc: allowed_cpus().unwrap_or(available),
            available,
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            commit: git_commit(repo_root)
                .unwrap_or_else(|| "none (not a git checkout)".to_string()),
            source_digest: source_digest(repo_root),
        }
    }

    /// Cores the benchmark may count on: the smaller of the two probes.
    pub fn cores(&self) -> usize {
        self.nproc.min(self.available).max(1)
    }

    pub fn describe(&self) -> String {
        format!(
            "host: nproc={} available_parallelism={} cpu=\"{}\" commit={} source_fnv={}",
            self.nproc, self.available, self.cpu_model, self.commit, self.source_digest
        )
    }
}

/// Counts `Cpus_allowed_list` of `/proc/self/status` (e.g. `0-1,4`).
fn allowed_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut n = 0;
    for part in list.split(',') {
        n += match part.split_once('-') {
            Some((a, b)) => b.trim().parse::<usize>().ok()? - a.trim().parse::<usize>().ok()? + 1,
            None => {
                part.trim().parse::<usize>().ok()?;
                1
            }
        };
    }
    (n > 0).then_some(n)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// Resolves `.git/HEAD` by reading the ref files directly.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
}

fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut count = 0;
    for path in files {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        count += 1;
        let name = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
        for b in name.as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}/{count}files")
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "s")
        {
            out.push(path);
        }
    }
}
