//! The sweep service daemon (`run -- serve`) and its clients
//! (`run -- submit` / `jobs` / `shutdown`).
//!
//! The daemon turns the one-shot sweep driver into a long-running
//! local service: it listens on a Unix domain socket, accepts typed
//! [`crate::api`] requests as newline-delimited JSON, queues submitted
//! jobs FIFO, and executes them one at a time on the existing worker
//! pool — cells within a job run in parallel, jobs serialise, so two
//! clients never fight over the same cores. Every job:
//!
//! * streams its results back incrementally — one [`JobEvent::Cell`]
//!   line per finished cell, carrying the *exact artifact bytes* the
//!   one-shot CLI writes, in grid order, then a final
//!   [`JobEvent::Done`] with the job's [`JobStatus`];
//! * writes its artifacts under `<out>/serve/<job-id>/<sweep>/`,
//!   byte-identical to a one-shot run of the same sweep (pinned by
//!   `tests/service.rs`);
//! * shares the daemon-wide content-addressed cell cache
//!   ([`crate::cache`]), so a resubmitted or overlapping grid recomputes
//!   nothing — the second identical submission completes with zero
//!   cells simulated, which its cache-hit telemetry proves;
//! * appends a `cmd: "serve"` run-ledger record (one per job) with
//!   per-cell events and the cache-hit footer counters, queryable via
//!   `run -- runs` like any one-shot run.
//!
//! Wire protocol, job lifecycle and a multi-client walkthrough are
//! documented in `docs/SERVICE.md`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ms_prof::jsonv::Value;
use ms_prof::ledger::{ProgressSink, RunLedger, RunMeta};

use crate::api::{CellResult, JobEvent, JobState, JobStatus, Request, SweepRequest};
use crate::cache::CellCache;
use crate::error::BenchError;
use crate::perfcmd;
use crate::progress::SweepObserver;
use crate::sweeps::run_sweep;

/// How the daemon runs: where it listens, where artifacts and the
/// cache live, and how wide the per-job worker pool is.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The Unix socket path to listen on.
    pub socket: PathBuf,
    /// Default worker threads per job (a submit's `jobs` overrides).
    pub jobs: usize,
    /// Artifact root; jobs write under `<out>/serve/<job-id>/`.
    pub out: PathBuf,
    /// Content-addressed cell cache directory.
    pub cache_dir: PathBuf,
    /// Run-ledger directory (one record per job).
    pub runs_dir: PathBuf,
    /// Suppress the daemon's stdout log lines.
    pub quiet: bool,
}

/// One tracked job: its public status plus the submit's optional
/// worker-count override (the queue position is implicit in
/// [`State::queue`]).
#[derive(Debug)]
struct JobRecord {
    status: JobStatus,
    workers: Option<usize>,
}

/// Mutable server state behind one mutex: the job table (append-only,
/// `job-<n>` ids index it) and the FIFO of queued jobs with the client
/// connections their events stream to.
struct State {
    jobs: Vec<JobRecord>,
    queue: VecDeque<(usize, UnixStream)>,
    shutdown: bool,
}

struct Inner {
    opts: ServeOptions,
    state: Mutex<State>,
    cv: Condvar,
    cache: CellCache,
}

/// A running daemon: bind with [`Server::start`], block until a client
/// asks it to exit with [`Server::join`]. Tests drive it in-process;
/// `run -- serve` runs it in the foreground.
pub struct Server {
    inner: Arc<Inner>,
    accept: JoinHandle<()>,
    dispatch: JoinHandle<()>,
}

impl Server {
    /// Binds the socket and starts the accept and dispatcher threads.
    /// A stale socket file from a dead daemon is replaced; a *live*
    /// daemon on the same path is an error.
    pub fn start(opts: ServeOptions) -> Result<Server, BenchError> {
        if opts.socket.exists() {
            if UnixStream::connect(&opts.socket).is_ok() {
                return Err(BenchError::Usage(format!(
                    "a daemon is already listening on {} (run -- shutdown first)",
                    opts.socket.display()
                )));
            }
            std::fs::remove_file(&opts.socket)?;
        }
        if let Some(dir) = opts.socket.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let listener = UnixListener::bind(&opts.socket)?;
        let cache = CellCache::at(&opts.cache_dir)?;
        let inner = Arc::new(Inner {
            opts,
            state: Mutex::new(State { jobs: Vec::new(), queue: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
            cache,
        });

        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_inner.state.lock().unwrap().shutdown {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let conn_inner = Arc::clone(&accept_inner);
                std::thread::spawn(move || handle_conn(&conn_inner, stream));
            }
        });
        let dispatch_inner = Arc::clone(&inner);
        let dispatch = std::thread::spawn(move || dispatcher(&dispatch_inner));

        Ok(Server { inner, accept, dispatch })
    }

    /// The socket the daemon listens on.
    pub fn socket(&self) -> &Path {
        &self.inner.opts.socket
    }

    /// Blocks until a `shutdown` request has drained the queue, then
    /// removes the socket file. Returns the number of jobs served.
    pub fn join(self) -> Result<usize, BenchError> {
        self.accept.join().map_err(|_| BenchError::Usage("accept thread panicked".into()))?;
        self.dispatch.join().map_err(|_| BenchError::Usage("dispatcher panicked".into()))?;
        let _ = std::fs::remove_file(&self.inner.opts.socket);
        Ok(self.inner.state.lock().unwrap().jobs.len())
    }
}

fn send_line(stream: &mut UnixStream, ev: &JobEvent) -> std::io::Result<()> {
    stream.write_all((ev.to_json() + "\n").as_bytes())
}

fn log(inner: &Inner, msg: &str) {
    if !inner.opts.quiet {
        println!("serve: {msg}");
    }
}

/// One client connection: read a single request line, answer it.
/// `submit` hands the connection to the dispatcher (the job's event
/// stream); everything else answers inline and closes.
fn handle_conn(inner: &Arc<Inner>, stream: UnixStream) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let req = match Request::from_json(line.trim_end()) {
        Ok(r) => r,
        Err(e) => {
            let _ =
                send_line(&mut stream, &JobEvent::Error { message: format!("bad request: {e}") });
            return;
        }
    };
    match req {
        Request::Ping => {
            let _ = send_line(&mut stream, &JobEvent::Pong);
        }
        Request::Jobs => {
            let jobs = inner.state.lock().unwrap().jobs.iter().map(|j| j.status.clone()).collect();
            let _ = send_line(&mut stream, &JobEvent::Jobs { jobs });
        }
        Request::Status { job } => {
            let found = inner
                .state
                .lock()
                .unwrap()
                .jobs
                .iter()
                .find(|j| j.status.id == job)
                .map(|j| j.status.clone());
            let _ = match found {
                Some(status) => send_line(&mut stream, &JobEvent::Jobs { jobs: vec![status] }),
                None => send_line(
                    &mut stream,
                    &JobEvent::Error { message: format!("unknown job `{job}`") },
                ),
            };
        }
        Request::Shutdown => {
            let queued = {
                let mut st = inner.state.lock().unwrap();
                st.shutdown = true;
                st.queue.len()
            };
            inner.cv.notify_all();
            // Wake the accept loop so it can observe the flag.
            let _ = UnixStream::connect(&inner.opts.socket);
            log(inner, &format!("shutdown requested, draining {queued} queued job(s)"));
            let _ = send_line(&mut stream, &JobEvent::Ok);
        }
        Request::Submit(req) => submit_job(inner, req, stream),
    }
}

/// Validates and enqueues a submission; the connection moves into the
/// queue so the dispatcher can stream the job's events over it.
fn submit_job(inner: &Arc<Inner>, req: SweepRequest, mut stream: UnixStream) {
    if let Err(e) = req.resolve() {
        let _ = send_line(&mut stream, &JobEvent::Error { message: e.to_string() });
        return;
    }
    let mut st = inner.state.lock().unwrap();
    if st.shutdown {
        drop(st);
        let _ = send_line(
            &mut stream,
            &JobEvent::Error { message: "daemon is shutting down".to_string() },
        );
        return;
    }
    let id = format!("job-{}", st.jobs.len() + 1);
    let queue_depth = st.queue.len() as u64;
    let status = JobStatus {
        id: id.clone(),
        state: JobState::Queued,
        sweeps: req.sweeps.clone(),
        cells_done: 0,
        cache_hits: 0,
        cache_misses: 0,
        artifacts_root: inner.opts.out.join("serve").join(&id).display().to_string(),
    };
    st.jobs.push(JobRecord { status, workers: req.jobs });
    let idx = st.jobs.len() - 1;
    let accepted = JobEvent::Accepted { job: id.clone(), queue_depth };
    // A failed write means the client vanished between connect and
    // accept: run the job anyway — it warms the cache and leaves its
    // ledger record.
    let _ = send_line(&mut stream, &accepted);
    st.queue.push_back((idx, stream));
    drop(st);
    inner.cv.notify_all();
    log(inner, &format!("{id} submitted (queue depth {queue_depth})"));
}

/// The dispatcher: pops queued jobs FIFO and runs each to completion;
/// exits once shutdown is requested and the queue is drained.
fn dispatcher(inner: &Arc<Inner>) {
    loop {
        let (idx, stream) = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if let Some(next) = st.queue.pop_front() {
                    break next;
                }
                if st.shutdown {
                    return;
                }
                st = inner.cv.wait(st).unwrap();
            }
        };
        run_job(inner, idx, stream);
    }
}

/// Executes one job: per-job ledger, shared cache, incremental cell
/// stream, final status. Never panics the dispatcher — failures close
/// the job as `Failed`.
fn run_job(inner: &Arc<Inner>, idx: usize, stream: UnixStream) {
    let (job_id, sweeps, workers) = {
        let mut st = inner.state.lock().unwrap();
        st.jobs[idx].status.state = JobState::Running;
        (
            st.jobs[idx].status.id.clone(),
            st.jobs[idx].status.sweeps.clone(),
            st.jobs[idx].workers.unwrap_or(inner.opts.jobs).max(1),
        )
    };
    let req = SweepRequest { sweeps: sweeps.clone(), jobs: None };
    let specs = req.resolve().expect("validated at submit");
    let out_root = inner.opts.out.join("serve").join(&job_id);

    let meta = RunMeta {
        cmd: "serve".to_string(),
        argv: std::iter::once(job_id.clone()).chain(sweeps.iter().cloned()).collect(),
        git: perfcmd::git_short(),
        params: vec![
            ("job".to_string(), job_id.clone()),
            ("sweeps".to_string(), sweeps.join(",")),
            ("jobs".to_string(), workers.to_string()),
            ("socket".to_string(), inner.opts.socket.display().to_string()),
            ("cache_dir".to_string(), inner.opts.cache_dir.display().to_string()),
            ("out".to_string(), out_root.display().to_string()),
        ],
    };
    let led = RefCell::new(match RunLedger::open(&inner.opts.runs_dir, &meta) {
        Ok(l) => Some(l),
        Err(e) => {
            log(inner, &format!("warning: run ledger disabled for {job_id}: {e}"));
            None
        }
    });

    let sink = ProgressSink::new(workers);
    let stream = RefCell::new(stream);
    let on_cell = |res: &CellResult| {
        let _ = send_line(
            &mut stream.borrow_mut(),
            &JobEvent::Cell { job: job_id.clone(), result: res.clone() },
        );
        if let Some(l) = led.borrow_mut().as_mut() {
            l.event(
                "cell",
                vec![
                    ("sweep", Value::Str(res.sweep.clone())),
                    ("cell", Value::Str(res.cell.clone())),
                    ("cached", Value::Bool(res.cached)),
                ],
            );
            let path = out_root.join(&res.sweep).join(format!("{}.json", res.cell));
            l.artifact(&path.display().to_string());
        }
        let mut st = inner.state.lock().unwrap();
        let s = &mut st.jobs[idx].status;
        s.cells_done += 1;
        if res.cached {
            s.cache_hits += 1;
        } else {
            s.cache_misses += 1;
        }
    };
    let obs = SweepObserver {
        sink: &sink,
        on_tick: &|| {},
        cache: Some(&inner.cache),
        on_cell: &on_cell,
    };

    let mut code = 0;
    for spec in &specs {
        let before = sink.snapshot();
        let _ = send_line(
            &mut stream.borrow_mut(),
            &JobEvent::SweepStarted { job: job_id.clone(), sweep: spec.name().to_string() },
        );
        match run_sweep(*spec, workers, &out_root, &obs) {
            Ok(report) => {
                let after = sink.snapshot();
                let _ = send_line(
                    &mut stream.borrow_mut(),
                    &JobEvent::SweepDone {
                        job: job_id.clone(),
                        sweep: spec.name().to_string(),
                        cells: report.cells as u64,
                        cache_hits: after.cache_hits - before.cache_hits,
                        cache_misses: after.cache_misses - before.cache_misses,
                    },
                );
                if let Some(l) = led.borrow_mut().as_mut() {
                    l.artifact(&out_root.join(report.name).join("report.md").display().to_string());
                }
            }
            Err(e) => {
                let _ = send_line(
                    &mut stream.borrow_mut(),
                    &JobEvent::Error { message: format!("sweep {}: {e}", spec.name()) },
                );
                code = 1;
                break;
            }
        }
    }

    let status = {
        let mut st = inner.state.lock().unwrap();
        let s = &mut st.jobs[idx].status;
        s.state = if code == 0 { JobState::Done } else { JobState::Failed };
        s.clone()
    };
    if let Some(l) = led.into_inner() {
        let outcome = if code == 0 { "ok" } else { "failed" };
        if let Err(e) = l.close(outcome, code, &sink.snapshot()) {
            log(inner, &format!("warning: run record for {job_id} not closed: {e}"));
        }
    }
    log(
        inner,
        &format!(
            "{job_id} {}: {} cells, {} cached, {} computed",
            status.state.label(),
            status.cells_done,
            status.cache_hits,
            status.cache_misses
        ),
    );
    let _ = send_line(&mut stream.borrow_mut(), &JobEvent::Done { status });
}

// ---------------------------------------------------------------- client

fn connect(socket: &Path) -> Result<UnixStream, BenchError> {
    UnixStream::connect(socket).map_err(|e| {
        BenchError::Usage(format!(
            "cannot reach daemon at {} ({e}); start one with `run -- serve`",
            socket.display()
        ))
    })
}

fn send_request(stream: &mut UnixStream, req: &Request) -> Result<(), BenchError> {
    stream.write_all((req.to_json() + "\n").as_bytes())?;
    Ok(())
}

fn read_event(reader: &mut impl BufRead) -> Result<JobEvent, BenchError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(BenchError::Usage("daemon closed the connection".to_string()));
    }
    JobEvent::from_json(line.trim_end())
        .map_err(|e| BenchError::Usage(format!("bad event from daemon: {e}")))
}

/// `run -- submit`: sends a sweep request, prints the streamed
/// progress (unless `quiet`), and returns the final job status.
pub fn submit(socket: &Path, req: &SweepRequest, quiet: bool) -> Result<JobStatus, BenchError> {
    let mut stream = connect(socket)?;
    send_request(&mut stream, &Request::Submit(req.clone()))?;
    let mut reader = BufReader::new(stream);
    loop {
        match read_event(&mut reader)? {
            JobEvent::Accepted { job, queue_depth } => {
                if !quiet {
                    println!("submitted {job} (queue depth {queue_depth})");
                }
            }
            JobEvent::SweepDone { sweep, cells, cache_hits, cache_misses, .. } => {
                if !quiet {
                    println!("sweep {sweep}: {cells} cells ({cache_hits} cached, {cache_misses} computed)");
                }
            }
            JobEvent::Done { status } => {
                if !quiet {
                    println!(
                        "job {} {}: {} cells, {} cached, {} computed",
                        status.id,
                        status.state.label(),
                        status.cells_done,
                        status.cache_hits,
                        status.cache_misses
                    );
                    println!("[artifacts    -> {}]", status.artifacts_root);
                }
                if status.state == JobState::Failed {
                    return Err(BenchError::Usage(format!("job {} failed", status.id)));
                }
                return Ok(status);
            }
            JobEvent::Error { message } => return Err(BenchError::Usage(message)),
            JobEvent::SweepStarted { .. } | JobEvent::Cell { .. } => {}
            other => {
                return Err(BenchError::Usage(format!("unexpected event: {}", other.to_json())))
            }
        }
    }
}

/// `run -- jobs [id]`: the daemon's job table (all jobs, or one).
pub fn jobs_table(socket: &Path, job: Option<&str>) -> Result<String, BenchError> {
    let mut stream = connect(socket)?;
    let req = match job {
        Some(id) => Request::Status { job: id.to_string() },
        None => Request::Jobs,
    };
    send_request(&mut stream, &req)?;
    let mut reader = BufReader::new(stream);
    match read_event(&mut reader)? {
        JobEvent::Jobs { jobs } => {
            let mut out = format!(
                "{:<8} {:<8} {:>6} {:>6} {:>6}  {}\n",
                "job", "state", "cells", "hits", "miss", "sweeps"
            );
            for s in &jobs {
                out.push_str(&format!(
                    "{:<8} {:<8} {:>6} {:>6} {:>6}  {}\n",
                    s.id,
                    s.state.label(),
                    s.cells_done,
                    s.cache_hits,
                    s.cache_misses,
                    s.sweeps.join(",")
                ));
            }
            if jobs.is_empty() {
                out.push_str("(no jobs submitted yet)\n");
            }
            Ok(out)
        }
        JobEvent::Error { message } => Err(BenchError::Usage(message)),
        other => Err(BenchError::Usage(format!("unexpected event: {}", other.to_json()))),
    }
}

/// `run -- shutdown`: asks the daemon to drain its queue and exit.
pub fn shutdown(socket: &Path) -> Result<(), BenchError> {
    let mut stream = connect(socket)?;
    send_request(&mut stream, &Request::Shutdown)?;
    let mut reader = BufReader::new(stream);
    match read_event(&mut reader)? {
        JobEvent::Ok => Ok(()),
        JobEvent::Error { message } => Err(BenchError::Usage(message)),
        other => Err(BenchError::Usage(format!("unexpected event: {}", other.to_json()))),
    }
}

/// Liveness probe (the smoke gate polls this while the daemon boots).
pub fn ping(socket: &Path) -> Result<(), BenchError> {
    let mut stream = connect(socket)?;
    send_request(&mut stream, &Request::Ping)?;
    let mut reader = BufReader::new(stream);
    match read_event(&mut reader)? {
        JobEvent::Pong => Ok(()),
        other => Err(BenchError::Usage(format!("unexpected event: {}", other.to_json()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(tag: &str) -> ServeOptions {
        let root = std::env::temp_dir().join(format!("ms-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        ServeOptions {
            socket: root.join("serve.sock"),
            jobs: 2,
            out: root.join("out"),
            cache_dir: root.join("cellcache"),
            runs_dir: root.join("runs"),
            quiet: true,
        }
    }

    #[test]
    fn ping_jobs_and_shutdown_round_trip() {
        let server = Server::start(opts("ping")).unwrap();
        let socket = server.socket().to_path_buf();
        ping(&socket).unwrap();
        let table = jobs_table(&socket, None).unwrap();
        assert!(table.contains("(no jobs submitted yet)"), "{table}");
        assert!(jobs_table(&socket, Some("job-9")).is_err(), "unknown job errors");
        shutdown(&socket).unwrap();
        assert_eq!(server.join().unwrap(), 0);
        assert!(ping(&socket).is_err(), "socket is gone after join");
    }

    #[test]
    fn second_daemon_on_a_live_socket_is_rejected() {
        let server = Server::start(opts("dup")).unwrap();
        let socket = server.socket().to_path_buf();
        ping(&socket).unwrap();
        let err = Server::start(ServeOptions { socket: socket.clone(), ..opts("dup2") });
        assert!(err.is_err(), "live socket must not be stolen");
        shutdown(&socket).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn bad_submissions_error_without_queueing() {
        let server = Server::start(opts("bad")).unwrap();
        let socket = server.socket().to_path_buf();
        let req = SweepRequest { sweeps: vec!["figur5".to_string()], jobs: None };
        let err = submit(&socket, &req, true).unwrap_err().to_string();
        assert!(err.contains("figure5"), "suggestion crosses the wire: {err}");
        let table = jobs_table(&socket, None).unwrap();
        assert!(table.contains("(no jobs submitted yet)"), "{table}");
        shutdown(&socket).unwrap();
        server.join().unwrap();
    }
}
