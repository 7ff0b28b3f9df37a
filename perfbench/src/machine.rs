//! What a result was measured on: the machine and build stamp, the
//! loopback syscall floor, and the process counters read from `/proc`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Command;
use std::time::Instant;

use crate::stats::{json_str, median};

/// The machine and build a result came from.
#[derive(Debug)]
pub struct Stamp {
    pub nproc: usize,
    pub cpu: String,
    pub kernel: String,
    pub rustc: String,
    pub git_rev: String,
    pub syscall_floor_ns: f64,
}

impl Stamp {
    pub fn collect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel,
            rustc: command_line("rustc", &["-V"]),
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            syscall_floor_ns: syscall_floor_ns(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}, \"git_rev\": {}, \
             \"syscall_floor_ns\": {:.1}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.kernel),
            json_str(&self.rustc),
            json_str(&self.git_rev),
            self.syscall_floor_ns
        )
    }
}

/// First line of a command's standard output, or `unknown` when the
/// command is missing or fails (the benchmark's checkout need not be a
/// git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Nanoseconds per 1-byte loopback TCP send plus receive (`send(2)`,
/// `recv(2)`): the floor under every message the TCP transport moves.
/// Median of five batches.
pub fn syscall_floor_ns() -> f64 {
    const BATCH: u32 = 4_000;
    let measure = || -> std::io::Result<Vec<f64>> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let mut tx = TcpStream::connect(listener.local_addr()?)?;
        let (mut rx, _) = listener.accept()?;
        tx.set_nodelay(true)?;
        let mut byte = [0u8; 1];
        let mut batches = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                tx.write_all(&byte)?;
                rx.read_exact(&mut byte)?;
            }
            batches.push(t0.elapsed().as_nanos() as f64 / f64::from(BATCH));
        }
        Ok(batches)
    };
    measure().map_or(0.0, |b| median(&b))
}

/// A field of `/proc/self/<file>` (`name:` followed by a number), or 0.
fn proc_field(file: &str, name: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/self/{file}"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Write and read syscalls the process has made (`/proc/self/io`
/// `syscw`/`syscr`: `write(2)`, `writev(2)`, `read(2)` and kin;
/// `send(2)`, `recv(2)`, `accept(2)` and the like are not in them).
pub fn syscalls() -> (u64, u64) {
    (proc_field("io", "syscw"), proc_field("io", "syscr"))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("status", "VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_read_back_numbers() {
        assert!(peak_rss_mb() > 0.0);
        assert!(syscall_floor_ns() > 0.0);
        let (mut b, mut a) = std::io::pipe().unwrap();
        let (w0, r0) = syscalls();
        let mut byte = [0u8; 1];
        for _ in 0..100 {
            a.write_all(&byte).unwrap();
            b.read_exact(&mut byte).unwrap();
        }
        let (w1, r1) = syscalls();
        assert!(w1 >= w0 + 100, "syscw {w0} -> {w1}");
        assert!(r1 >= r0 + 100, "syscr {r0} -> {r1}");
    }
}
