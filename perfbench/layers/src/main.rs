//! Verifier and traced per-layer runner behind `perfbench/run.py`.
//!
//! ```text
//! layers verify-fig5 --dir DIR [--jobs N]
//! layers verify-long --insts N --seed S [--jobs N] BENCH:POLICY:FILE...
//! layers trace --workload W --seed S --seconds T --work DIR [--jobs N]
//! layers exec --usage FILE -- PROGRAM ARGS...
//! ```
//!
//! `verify-*` re-run the cells of an end-to-end pass under the full
//! conformance check and compare the outputs `run` wrote, byte for
//! byte. `trace` reproduces one workload in-process with a span around
//! every call into a layer and prints the per-layer metrics as the
//! benchmark's result line. `exec` runs one command and writes its wall
//! time, CPU time and peak RSS to FILE (see `child.rs`). Exit status 1 means a check failed, 2 a
//! usage error.

mod child;
mod grid;
mod spans;
mod traced;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    flags: Vec<(String, String)>,
    rest: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut rest = Vec::new();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            if a == "--" {
                rest.extend(args.by_ref());
                break;
            }
            match a.strip_prefix("--") {
                Some(name) => {
                    let v = args.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), v));
                }
                None => rest.push(a),
            }
        }
        Ok(Args { flags, rest })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn req<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.get(name).ok_or_else(|| format!("missing --{name}"))?;
        v.parse().map_err(|_| format!("--{name}: bad value `{v}`"))
    }

    fn jobs(&self) -> Result<usize, String> {
        match self.get("jobs") {
            Some(_) => self.req::<usize>("jobs").map(|j| j.max(1)),
            None => Ok(1),
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    match Args::parse(argv).and_then(|a| dispatch(&cmd, &a)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("layers: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one subcommand; `Ok(false)` when its check failed.
fn dispatch(cmd: &str, a: &Args) -> Result<bool, String> {
    match cmd {
        "verify-fig5" => {
            let v = verify::figure5(&PathBuf::from(a.req::<String>("dir")?), a.jobs()?);
            v.print();
            Ok(v.failures.is_empty())
        }
        "verify-long" => {
            let cells = a
                .rest
                .iter()
                .map(|c| match c.splitn(3, ':').collect::<Vec<_>>()[..] {
                    [b, p, f] => Ok((b.to_string(), p.to_string(), f.to_string())),
                    _ => Err(format!("bad cell `{c}` (want BENCH:POLICY:FILE)")),
                })
                .collect::<Result<Vec<_>, _>>()?;
            let v = verify::long_trace(&cells, a.req("insts")?, a.req("seed")?, a.jobs()?);
            v.print();
            Ok(v.failures.is_empty())
        }
        "trace" => {
            let name: String = a.req("workload")?;
            let workload = traced::Workload::parse(&name)
                .ok_or_else(|| format!("unknown workload `{name}`"))?;
            let work = PathBuf::from(a.req::<String>("work")?);
            std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
            let report = traced::run(workload, a.req("seed")?, a.req("seconds")?, a.jobs()?, &work);
            println!("{}", report.to_json());
            Ok(report.failed == 0)
        }
        "exec" => {
            let path = PathBuf::from(a.req::<String>("usage")?);
            let usage = child::run(&a.rest).map_err(|e| format!("{}: {e}", a.rest.join(" ")))?;
            std::fs::write(&path, usage.to_json() + "\n")
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(usage.code == 0)
        }
        _ => Err(format!("unknown subcommand `{cmd}` (verify-fig5 | verify-long | trace | exec)")),
    }
}
