//! The provenance header printed with every result: host, ISA tier as
//! compiled, threads, actual record counts, workload seed and commit.

use std::path::Path;

use er_obs::json::Value;

use crate::Args;

/// Available hardware threads (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name") || l.starts_with("Model"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The SIMD tier this binary was compiled for (the repository builds
/// with `-C target-cpu=native`, so this is the build host's tier).
fn isa_tier() -> String {
    let features: &[(&str, bool)] = &[
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    let on: Vec<&str> = features.iter().filter(|f| f.1).map(|f| f.0).collect();
    format!("{} [{}]", std::env::consts::ARCH, on.join(" "))
}

/// The checked-out commit, read from `.git` when the tree is a git
/// checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_owned())
            .ok()
            .or_else(|| packed_ref(r)),
        None if !head.is_empty() => Some(head.to_owned()),
        None => None,
    };
    id.unwrap_or_else(|| "none (not a git checkout)".to_owned())
}

fn packed_ref(name: &str) -> Option<String> {
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, r) = l.split_once(' ')?;
        (r == name).then(|| id.to_owned())
    })
}

/// FNV-1a over the sources the benchmark builds from, so results from
/// a tree that is not a git checkout still name the code they measured.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() {
                if name != "target" && name != "out" {
                    walk(&p, out);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["src", "crates", "vendor", "perfbench"] {
        walk(Path::new(root), &mut files);
    }
    files.extend(
        ["Cargo.toml", "Cargo.lock", ".cargo/config.toml"]
            .iter()
            .map(std::path::PathBuf::from),
    );
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv1a64:{h:016x} over {} files", files.len())
}

/// The header object for one run.
pub fn header(args: &Args, threads: usize, notes: &[(String, Value)]) -> Value {
    let mut fields = vec![
        ("workload".to_owned(), Value::Str(args.workload.to_owned())),
        ("seed".to_owned(), Value::Num(args.seed as f64)),
        ("seconds".to_owned(), Value::Num(args.seconds.as_secs_f64())),
        ("trace".to_owned(), Value::Bool(args.trace)),
        ("host_cpu".to_owned(), Value::Str(cpu_model())),
        ("nproc".to_owned(), Value::Num(threads as f64)),
        ("isa".to_owned(), Value::Str(isa_tier())),
        ("commit".to_owned(), Value::Str(commit())),
        ("source".to_owned(), Value::Str(source_fingerprint())),
    ];
    fields.extend(notes.iter().cloned());
    Value::Obj(fields)
}
