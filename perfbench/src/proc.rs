//! Child processes: timed, captured runs with a deadline, and a seeded
//! random stream for schedules.

use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// A finished child run.
#[derive(Debug)]
pub struct Captured {
    /// Spawn to end of stdout (the child closes it when it exits).
    pub wall: Duration,
    pub stdout: Vec<u8>,
    pub stderr: String,
    /// Exited with status 0 before the deadline.
    pub ok: bool,
    /// The child's own user + system CPU seconds.
    pub cpu_s: f64,
    /// The child's own peak resident set, MiB.
    pub peak_rss_mb: f64,
}

/// `struct rusage` from `<sys/resource.h>` (64-bit Linux layout).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// Reaps child `pid`, returning whether it exited with status 0, and its
/// CPU seconds and peak resident set (MiB).
pub fn reap(pid: u32) -> std::io::Result<(bool, f64, f64)> {
    let mut status = 0i32;
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    let pid = i32::try_from(pid).map_err(std::io::Error::other)?;
    loop {
        // SAFETY: `status` and `u` are writable, properly aligned and
        // outlive the call; `pid` is a child of this process that has not
        // been reaped yet.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut u) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Ok((
        exited_zero,
        secs(u.utime) + secs(u.stime),
        u.maxrss_kib as f64 / 1024.0,
    ))
}

/// Runs `cmd` to completion, capturing stdout, killing it after
/// `deadline`. The wall time ends when the child's stdout reaches EOF.
pub fn run_captured(cmd: &mut Command, deadline: Duration) -> std::io::Result<Captured> {
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut out = child.stdout.take().expect("stdout is piped");
    let mut err = child.stderr.take().expect("stderr is piped");
    let (tx, rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        let mut buf = Vec::new();
        let res = out.read_to_end(&mut buf);
        let end = Instant::now();
        let mut ebuf = Vec::new();
        let _ = err.read_to_end(&mut ebuf);
        let _ = tx.send(());
        (res.map(|_| buf), end, ebuf)
    });
    let timed_out = rx.recv_timeout(deadline).is_err();
    if timed_out {
        let _ = child.kill();
    }
    // Reaped here rather than by `Child::wait`, which reports no
    // resource usage; `Child` never waits on drop.
    let (exited_zero, cpu_s, peak_rss_mb) = reap(child.id())?;
    let (stdout, end, ebuf) = reader.join().expect("stdout reader does not panic");
    Ok(Captured {
        wall: end.saturating_duration_since(start),
        stdout: stdout.unwrap_or_default(),
        stderr: String::from_utf8_lossy(&ebuf).into_owned(),
        ok: !timed_out && exited_zero,
        cpu_s,
        peak_rss_mb,
    })
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, all threads) a running process has used.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// SplitMix64: a small seeded generator, enough for schedules and mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given rate (events per second).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_seeded_and_keeps_every_item() {
        let deck = |seed| {
            let mut v: Vec<u32> = (0..12).collect();
            Rng::new(seed, 1).shuffle(&mut v);
            v
        };
        assert_eq!(deck(5), deck(5));
        assert_ne!(deck(5), deck(6));
        let mut sorted = deck(5);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<u32>>());
    }
}
