//! Machine facts stamped on every result, so a number is only ever
//! compared with numbers from the same box and build.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// `key=value` facts about the machine and the measured source.
pub fn stamp() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        (
            "configured_threads",
            setdisc_util::pool::configured_threads().to_string(),
        ),
        ("rustc", env!("SETBENCH_RUSTC").to_string()),
        ("git_rev", git_rev()),
        ("source_digest", format!("{:016x}", source_digest())),
    ]
}

/// `git rev-parse HEAD`, or `none` outside a git checkout (only the
/// working directory's own `.git` counts, not an enclosing repository's).
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the paths and bytes of the program's sources (`crates/`,
/// `Cargo.toml`, `Cargo.lock`): identifies the measured code where no git
/// metadata exists.
fn source_digest() -> u64 {
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    collect(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// How fast the host is at the start of the run, measured with code that
/// is not the program's: a fixed integer loop (`host_cpu_ms`, median of
/// five) and one-byte echoes between two threads over loopback TCP
/// (`host_rtt_us`, median of 2000 round trips). On a shared VM both move
/// with the neighbours' load while the machine facts above stay the same;
/// compare only runs whose probes agree.
pub fn host_probe() -> Vec<(&'static str, String)> {
    let mut cpu: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for _ in 0..20_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    cpu.sort_by(f64::total_cmp);
    let rtt = loopback_rtt_us(2000).map_or_else(|e| format!("error:{e}"), |us| format!("{us:.2}"));
    vec![
        ("host_cpu_ms", format!("{:.2}", cpu[2])),
        ("host_rtt_us", rtt),
    ]
}

/// Median round trip of `n` one-byte echoes over loopback TCP, µs.
fn loopback_rtt_us(n: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut conn, _) = listener.accept()?;
        conn.set_nodelay(true)?;
        let mut b = [0u8; 1];
        while conn.read(&mut b)? == 1 {
            conn.write_all(&b)?;
        }
        Ok(())
    });
    let mut times = Vec::with_capacity(n);
    let result = (|| -> std::io::Result<()> {
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        let mut b = [7u8; 1];
        for _ in 0..n {
            let started = Instant::now();
            conn.write_all(&b)?;
            conn.read_exact(&mut b)?;
            times.push(started.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    })();
    // The client's socket is closed by now, so the echo thread sees end
    // of stream and returns.
    echo.join().expect("echo thread")?;
    result?;
    times.sort_by(f64::total_cmp);
    Ok(times[n / 2])
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
