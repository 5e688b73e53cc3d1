#!/usr/bin/env python3
"""The repository benchmark: end-to-end passes through the `run` CLI, or a
traced in-process run that times every layer.

Run from the repository root:

    python3 perfbench/run.py --workload fig5 --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each one was chosen):

  fig5        `run figure5 --jobs 2`: the paper's 224-cell Figure 5 grid.
  long-trace  `run <bench> --strategy <p> --insts 2000000 --json`, four
              single cells, one after another.
  conform     `run fuzz --seeds 1000 --jobs 1`: 1000 random programs
              under all six policies through the full conformance check.

The traced fig5 run also times the cell cache in-process: one pass that
fills it, then passes served from it (`run figure5 --cache-dir`).

`--seed` sets the long-trace trace seed and the conform fuzz base seed
(both derived from it with SplitMix64); fig5 always runs the paper's
fixed grid, whose seed the `figure5` CLI does not expose. The
default seed is 1; seed 9 is held out for checking a claimed gain.

With `--trace 0` the benchmark times whole passes of the `run` binary for
`--seconds` seconds and reports the end-to-end metrics; every output is
checked afterwards (untimed) against a conformance-checked re-run. With
`--trace 1` it runs `perfbench/layers` instead, which reproduces the
workload in-process with a span around each call into a layer and
reports the per-layer metrics.

Everything the benchmark writes goes under `.bench_work/` in the current
directory; the build goes to `$CARGO_TARGET_DIR` (default `.bench_build`).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import glob
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("fig5", "long-trace", "conform")
DEFAULT_SEED = 1

FIG5_CELLS = 224
LONG_TRACE = (("gcc", "cf"), ("go", "dd"), ("li", "bb"), ("swim", "cf"))
LONG_TRACE_INSTS = 2_000_000
CONFORM_SEEDS = 1000
CONFORM_POLICIES = 6

# Set-up is repeated this many times per run and reported as the median.
SETUP_REPS = 3
# At least this many timed passes, however long they take.
MIN_PASSES = 3
# A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 120

WORK = ".bench_work"


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def splitmix64(x):
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def jobs_for(workload):
    """fig5 runs on two workers (fewer on a one-CPU host); the rest on one."""
    return min(2, len(os.sched_getaffinity(0))) if workload == "fig5" else 1


# ---------------------------------------------------------------- build


def build():
    """Builds `run` and the layer helper; returns their paths."""
    for need in ("Cargo.toml", "crates/bench/Cargo.toml", "perfbench/layers/Cargo.toml"):
        if not os.path.isfile(need):
            raise BenchError(f"{need} not found: run from the root of the repository")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "ms-bench", "--bin", "run"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         "perfbench/layers/Cargo.toml"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return (os.path.join(target, "release", "run"),
            os.path.join(target, "release", "ms-perfbench-layers"))


# ---------------------------------------------------------------- children


def spawn(argv, stdout_path, env):
    """Runs `argv` in its own process group, standard output to
    `stdout_path`; kills the whole group if it outlives the timeout.
    Returns the exit code and the output."""
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, env=env, start_new_session=True)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    with open(stdout_path, "rb") as f:
        return rc, f.read()


class Child:
    """One finished command, launched through `layers exec` so that its
    peak RSS is its own: wall and CPU seconds, peak RSS, output."""

    def __init__(self, layers_bin, argv, stdout_path, env):
        usage_path = stdout_path + ".usage"
        try:
            os.remove(usage_path)
        except FileNotFoundError:
            pass
        try:
            _, self.stdout = spawn([layers_bin, "exec", "--usage", usage_path, "--"] + argv,
                                   stdout_path, env)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(argv)} ran past {CHILD_TIMEOUT_S} s") from None
        try:
            with open(usage_path, encoding="utf-8") as f:
                usage = json.load(f)
        except (OSError, ValueError):
            raise BenchError(f"could not run {' '.join(argv)}") from None
        self.rc = usage["code"]
        self.wall_s = usage["wall_s"]
        self.cpu_s = usage["cpu_s"]
        self.rss_mb = usage["maxrss_kb"] / 1024.0


class Pass:
    """One end-to-end pass: its cost, and its outputs by cell id."""

    def __init__(self, children, outputs, cells, failed_ids=()):
        self.walls = [c.wall_s for c in children]
        self.cpus = [c.cpu_s for c in children]
        self.rss_mb = max(c.rss_mb for c in children)
        self.outputs = outputs
        self.cells = cells
        self.failed_ids = set(failed_ids)


def read_artifacts(dir_):
    out = {}
    for path in sorted(glob.glob(os.path.join(dir_, "*.json"))):
        with open(path, "rb") as f:
            out[os.path.basename(path)[: -len(".json")]] = f.read()
    return out


class Runner:
    """Runs the passes of one workload through the `run` binary."""

    def __init__(self, workload, seed, run_bin, layers_bin, work):
        self.workload = workload
        self.run_bin = run_bin
        self.layers_bin = layers_bin
        self.work = work
        self.jobs = jobs_for(workload)
        self.derived_seed = splitmix64(seed)
        self.runs_dir = os.path.join(work, "runs")
        self.env = dict(os.environ, MS_RUNS_DIR=self.runs_dir, MS_NO_PROGRESS="1")
        self.out = os.path.join(work, "out")

    def child(self, args, name):
        argv = [self.run_bin] + args + ["--quiet", "--out", self.out]
        c = Child(self.layers_bin, argv, os.path.join(self.work, f"{name}.stdout"), self.env)
        if c.rc != 0:
            tail = c.stdout.decode(errors="replace")[-2000:]
            log(f"`{' '.join(argv)}` exited {c.rc}:\n{tail}")
        return c

    def records(self):
        """The run records `run` has left (under `MS_RUNS_DIR`, or under
        `--out` should the ledger follow it); each pass removes those of
        the pass before."""
        found = glob.glob(os.path.join(self.runs_dir, "*.jsonl"))
        return set(found + glob.glob(os.path.join(self.out, "**", "*.jsonl"), recursive=True))

    def figure5(self, extra):
        dir_ = os.path.join(self.out, "figure5")
        c = self.child(["figure5", "--jobs", str(self.jobs)] + extra, "figure5")
        arts = read_artifacts(dir_)
        failed = {k for k in arts if os.stat(os.path.join(dir_, f"{k}.json")).st_mtime_ns == 0}
        if c.rc != 0:
            failed |= set(arts) | {"<exit status>"}
        return c, arts, failed

    def pass_fig5(self):
        c, arts, failed = self.figure5([])
        return Pass([c], arts, FIG5_CELLS, failed)

    def pass_long_trace(self):
        children, outputs, failed = [], {}, set()
        for bench, policy in LONG_TRACE:
            cell = f"{bench}-{policy}"
            c = self.child([bench, "--strategy", policy, "--insts", str(LONG_TRACE_INSTS),
                            "--seed", str(self.derived_seed), "--json"], cell)
            children.append(c)
            outputs[cell] = c.stdout
            if c.rc != 0:
                failed.add(cell)
        return Pass(children, outputs, len(LONG_TRACE), failed)

    def pass_conform(self):
        c = self.child(["fuzz", "--seeds", str(CONFORM_SEEDS), "--jobs", "1",
                        "--seed", str(self.derived_seed)], "fuzz")
        text = c.stdout.decode(errors="replace")
        failed = set(re.findall(r"^FAIL seed (\S+) \[(\S+)\]", text, re.M))
        verdict = f"fuzz: {CONFORM_SEEDS} seed(s) x {CONFORM_POLICIES} policies conform"
        if (c.rc != 0 or verdict not in text) and not failed:
            failed = {"<no verdict>"}
        return Pass([c], {"verdict": verdict.encode()}, CONFORM_SEEDS * CONFORM_POLICIES, failed)

    def one_pass(self):
        """One pass into the run's output directory, which later passes
        overwrite, as a user re-running a sweep does. Before it, what
        earlier passes wrote is written back and their run records are
        removed, so that each pass starts from the same file-system
        state."""
        for path in self.records():
            os.remove(path)
        # Artifacts of earlier passes are dated to the epoch, so that one
        # this pass fails to rewrite shows.
        for path in glob.glob(os.path.join(self.out, "figure5", "*.json")):
            os.utime(path, ns=(0, 0))
        os.sync()
        if self.workload == "fig5":
            return self.pass_fig5()
        if self.workload == "long-trace":
            return self.pass_long_trace()
        return self.pass_conform()

    def verify(self, reference_pass):
        """Untimed: the reference outputs against conformance-checked re-runs."""
        if self.workload == "fig5":
            cmd = ["verify-fig5", "--dir", os.path.join(self.work, "reference")]
        elif self.workload == "long-trace":
            cells = []
            for bench, policy in LONG_TRACE:
                path = os.path.join(self.work, "reference", f"{bench}-{policy}.json")
                cells.append(f"{bench}:{policy}:{path}")
            cmd = ["verify-long", "--insts", str(LONG_TRACE_INSTS),
                   "--seed", str(self.derived_seed)] + cells
        else:
            return set()
        os.makedirs(os.path.join(self.work, "reference"), exist_ok=True)
        for cell, data in reference_pass.outputs.items():
            with open(os.path.join(self.work, "reference", f"{cell}.json"), "wb") as f:
                f.write(data)
        rc, stdout = spawn([self.layers_bin] + cmd + ["--jobs", str(jobs_for("fig5"))],
                           os.path.join(self.work, "verify.stdout"), self.env)
        lines = stdout.decode(errors="replace").splitlines()
        failed = {ln.split()[1].rstrip(":") for ln in lines if ln.startswith("FAIL ")}
        for ln in lines:
            if ln.startswith("FAIL "):
                log(ln)
        if rc != 0 and not failed:
            failed = {"<verifier>"}
        return failed


# ---------------------------------------------------------------- modes


def end_to_end(workload, seed, seconds, run_bin, layers_bin, work):
    r = Runner(workload, seed, run_bin, layers_bin, work)
    # Set-up: everything before the first timed pass, that is one untimed
    # pass, repeated.
    reference = None
    setup_s, timed = [], []
    bad = []  # per pass: the cells whose output was wrong

    def check(p):
        # Every pass must agree with the first, cell for cell; only the
        # first is kept in memory.
        wrong = set(p.failed_ids)
        wrong |= {k for k in reference.outputs if p.outputs.get(k) != reference.outputs[k]}
        wrong |= set(p.outputs) - set(reference.outputs)
        if not reference.outputs:
            wrong.add("<no outputs>")
        bad.append((p.cells, wrong))
        if p is not reference:
            p.outputs = None

    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        p = r.one_pass()
        setup_s.append(time.perf_counter() - start)
        reference = reference or p
        check(p)
    deadline = time.perf_counter() + seconds
    while len(timed) < MIN_PASSES or time.perf_counter() < deadline:
        timed.append(r.one_pass())
        check(timed[-1])

    # Untimed: the first pass against a conformance-checked re-run of
    # every cell; a cell it fails is wrong in every pass.
    bad_reference = r.verify(reference)
    attempted = sum(cells for cells, _ in bad)
    failed = sum(min(len(wrong | bad_reference), cells) for cells, wrong in bad)

    # A pass of several processes (long-trace) costs the sum of each
    # process's median over the passes.
    cells = reference.cells
    wall_s = sum(statistics.median(w) for w in zip(*(p.walls for p in timed)))
    cpu_s = sum(statistics.median(c) for c in zip(*(p.cpus for p in timed)))
    walls = [sum(p.walls) for p in timed]
    metrics = {
        "cells_per_s": (cells / wall_s, "1/s"),
        "cpu_ms_per_cell": (cpu_s * 1e3 / cells, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in timed), "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    print(f"{workload}: {len(timed)} timed passes of {cells} cells "
          f"(pass wall median {wall_s * 1e3:.1f} ms, "
          f"min {min(walls) * 1e3:.1f}, max {max(walls) * 1e3:.1f}); "
          f"{SETUP_REPS} set-ups; failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    return attempted, failed, metrics


def traced(workload, seed, seconds, layers_bin, work):
    rc, stdout = spawn([layers_bin, "trace", "--workload", workload,
                        "--seed", str(splitmix64(seed)), "--seconds", str(seconds),
                        "--work", os.path.join(work, "trace"), "--jobs", str(jobs_for(workload))],
                       os.path.join(work, "trace.stdout"), os.environ)
    lines = stdout.decode(errors="replace").splitlines()
    if not lines:
        raise BenchError(f"traced run printed nothing (exit {rc})")
    doc = json.loads(lines[-1])
    metrics = {k: (v["value"], v["unit"]) for k, v in doc["metrics"].items()}
    print(f"{workload}: traced run, spans in {os.path.join(work, 'trace', 'spans.jsonl')}")
    return doc["attempted"], doc["failed"], metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        run_bin, layers_bin = build()
        work = os.path.abspath(os.path.join(WORK, args.workload))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        # Start from clean page-cache state: the previous run's files are
        # written back (and their deletion committed) before anything is
        # timed.
        os.sync()
        experiments_before = os.path.exists(os.path.join("target", "experiments"))
        if args.trace:
            attempted, failed, metrics = traced(args.workload, args.seed, args.seconds,
                                                layers_bin, work)
        else:
            attempted, failed, metrics = end_to_end(args.workload, args.seed, args.seconds,
                                                    run_bin, layers_bin, work)
    except BenchError as e:
        log(str(e))
        return 2
    if not experiments_before and os.path.exists(os.path.join("target", "experiments")):
        log("a run wrote to target/experiments despite --out and MS_RUNS_DIR")
        failed = max(failed, 1)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
