//! `layers exec`: runs one command and reports what it cost — wall
//! time, CPU time and peak resident memory — as a JSON line.
//!
//! The benchmark launches every end-to-end pass through this small
//! process rather than from its Python harness, because Linux carries a
//! process's peak RSS across `exec`: a child forked from the harness
//! would report at least the harness's own peak.

use std::io;
use std::os::raw::{c_int, c_long};
use std::process::Command;
use std::time::Instant;

#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// Linux's `struct rusage`: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// What one finished command cost.
pub struct Usage {
    /// Exit code, or `128 + signal` when a signal ended it.
    pub code: i32,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub maxrss_kb: c_long,
}

impl Usage {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":{},\"wall_s\":{},\"cpu_s\":{},\"maxrss_kb\":{}}}",
            self.code, self.wall_s, self.cpu_s, self.maxrss_kb
        )
    }
}

/// Runs `argv` with inherited standard streams and waits for it.
pub fn run(argv: &[String]) -> io::Result<Usage> {
    let (prog, args) = argv.split_first().ok_or_else(|| io::Error::other("empty command"))?;
    let start = Instant::now();
    let child = Command::new(prog).args(args).spawn()?;
    let pid = c_int::try_from(child.id()).map_err(io::Error::other)?;
    let mut status: c_int = 0;
    let zero = Timeval { sec: 0, usec: 0 };
    let mut ru = Rusage { utime: zero, stime: zero, maxrss: 0, rest: [0; 13] };
    loop {
        // SAFETY: `status` and `ru` are live, aligned and writable for
        // the whole call, and `Rusage` has the layout of the `struct
        // rusage` that `wait4` fills. `pid` is our own unreaped child:
        // `std` never waits for a `Child` it drops.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    let code = if status & 0x7f == 0 { (status >> 8) & 0xff } else { 128 + (status & 0x7f) };
    Ok(Usage { code, wall_s, cpu_s: secs(&ru.utime) + secs(&ru.stime), maxrss_kb: ru.maxrss })
}
