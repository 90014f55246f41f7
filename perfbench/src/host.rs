//! Provenance of a result (host, build, run) and the process's peak
//! resident memory.
//!
//! Host facts come from `cpuid` and the process itself, and the commit
//! from the checkout's own `.git`, so the benchmark reads nothing outside
//! its checkout.

use std::path::Path;

/// Everything a result is stamped with.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Logical cores the process may run on.
    pub cores: usize,
    /// Widest GEMM ISA the host supports (`Isa::detect`).
    pub isa: String,
    /// CPU brand string.
    pub cpu_model: String,
    /// Per-core L2 size in KiB (0 when unknown).
    pub l2_kib: usize,
    /// Shared L3 size in KiB (0 when unknown).
    pub l3_kib: usize,
    /// Commit the benchmarked tree was checked out at, or `unknown`.
    pub commit: String,
}

impl Provenance {
    /// Probes the host; `repo_root` is where `.git` is looked for.
    pub fn detect(repo_root: &Path) -> Self {
        let (l2_kib, l3_kib) = cache_kib();
        Self {
            cores: cores(),
            isa: format!("{:?}", aderdg_gemm::Isa::detect()),
            cpu_model: cpu_model(),
            l2_kib,
            l3_kib,
            commit: commit(repo_root).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_arch = "x86_64")]
fn cpuid(leaf: u32, sub: u32) -> [u32; 4] {
    let r = std::arch::x86_64::__cpuid_count(leaf, sub);
    [r.eax, r.ebx, r.ecx, r.edx]
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    if cpuid(0x8000_0000, 0)[0] < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002..=0x8000_0004 {
        for reg in cpuid(leaf, 0) {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    let s = String::from_utf8_lossy(&bytes);
    s.trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// L2 and L3 data/unified cache sizes in KiB from the deterministic
/// cache-parameter leaf (4 on Intel, 0x8000001D on AMD).
#[cfg(target_arch = "x86_64")]
fn cache_kib() -> (usize, usize) {
    let v = cpuid(0, 0);
    let amd = v[1] == u32::from_le_bytes(*b"Auth");
    let leaf = if amd { 0x8000_001D } else { 4 };
    let max = if amd { cpuid(0x8000_0000, 0)[0] } else { v[0] };
    if max < leaf {
        return (0, 0);
    }
    let (mut l2, mut l3) = (0, 0);
    for sub in 0..16 {
        let [eax, ebx, ecx, _] = cpuid(leaf, sub);
        let kind = eax & 0x1f;
        if kind == 0 {
            break;
        }
        // Data (1) or unified (3) caches only.
        if kind != 1 && kind != 3 {
            continue;
        }
        let level = (eax >> 5) & 0x7;
        let ways = ((ebx >> 22) & 0x3ff) as usize + 1;
        let partitions = ((ebx >> 12) & 0x3ff) as usize + 1;
        let line = (ebx & 0xfff) as usize + 1;
        let sets = ecx as usize + 1;
        let kib = ways * partitions * line * sets / 1024;
        match level {
            2 => l2 = kib,
            3 => l3 = kib,
            _ => {}
        }
    }
    (l2, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cache_kib() -> (usize, usize) {
    (0, 0)
}

/// The commit `HEAD` resolves to in `<root>/.git` (loose or packed ref).
fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Peak resident set size of this process so far, in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mib() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the layout of Linux's `struct rusage` on
    // 64-bit targets (two `timeval`s followed by fourteen `long`s), and
    // `getrusage(RUSAGE_SELF = 0, …)` writes only into that struct.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    // `ru_maxrss` is in KiB on Linux.
    usage.maxrss as f64 / 1024.0
}

/// Peak resident set size is not probed off Linux.
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mib() -> f64 {
    f64::NAN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_probe_reports_plausible_values() {
        assert!(cores() >= 1);
        let rss = peak_rss_mib();
        assert!(rss.is_nan() || rss > 0.0);
        let p = Provenance::detect(Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap());
        assert!(!p.cpu_model.is_empty());
    }
}
