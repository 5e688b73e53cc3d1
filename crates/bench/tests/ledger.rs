//! End-to-end tests for the run ledger (`docs/OBSERVABILITY.md`): a
//! golden `runs` table over hand-written fixture records, a
//! process-level schema round-trip (sweep → record → `runs-validate`),
//! and the determinism contract — the emitted event stream and every
//! sweep artifact must be bit-identical between `--jobs 1` and
//! `--jobs 8`, progress machinery notwithstanding.
//!
//! The golden file regenerates with:
//!
//! ```text
//! MS_BLESS=1 cargo test -p ms-bench --test ledger
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use ms_bench::runscmd;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ms-ledger-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_bin(runs_dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_run"))
        .env("MS_RUNS_DIR", runs_dir)
        .args(args)
        .output()
        .expect("spawn run binary")
}

/// A complete, validating run record as literal JSONL — fixed
/// `duration_ns` and timestamps keep the rendered table reproducible
/// (a live `close()` measures real wall time, which never is).
fn fixture_record(id: &str, ts: u64, cmd: &str, cells: usize, duration_ns: u64) -> String {
    let mut lines = vec![format!(
        "{{\"schema_version\":1,\"format\":\"ms-run-ledger\",\"record\":\"header\",\
         \"id\":\"{id}\",\"ts\":{ts},\"git\":\"abc1234\",\"cmd\":\"{cmd}\",\
         \"argv\":[\"{cmd}\"],\"params\":{{\"jobs\":\"8\"}},\
         \"machine\":{{\"os\":\"linux\",\"arch\":\"x86_64\",\"cpus\":8}}}}"
    )];
    let mut artifacts = Vec::new();
    for i in 0..cells {
        lines.push(format!("{{\"record\":\"event\",\"event\":\"cell\",\"cell\":\"cell-{i}\"}}"));
        artifacts.push(format!("\"target/x/cell-{i}.json\""));
    }
    lines.push(format!(
        "{{\"record\":\"footer\",\"outcome\":\"ok\",\"exit_code\":0,\
         \"duration_ns\":{duration_ns},\"events\":{cells},\"cells\":{cells},\
         \"artifacts\":[{}],\"progress\":{{\"queued\":{cells},\"started\":{cells},\
         \"finished\":{cells},\"warm_hits\":0,\"workers\":[{{\"busy_ns\":1000,\
         \"items\":{cells}}}]}}}}",
        artifacts.join(",")
    ));
    lines.join("\n") + "\n"
}

#[test]
fn runs_table_is_golden() {
    let runs = tmp_dir("golden");
    for (id, ts, cmd, cells, dur) in [
        ("20250801T000000Z-abc1234-forwarding", 1_754_006_400_u64, "forwarding", 12, 1_500_000_000),
        ("20250808T000000Z-abc1234-perf", 1_754_611_200, "perf", 6, 32_000_000_000),
        ("20250815T000000Z-abc1234-fuzz", 1_755_216_000, "fuzz", 0, 4_250_000_000),
    ] {
        std::fs::write(runs.join(format!("{id}.jsonl")), fixture_record(id, ts, cmd, cells, dur))
            .unwrap();
    }
    // An interrupted invocation (header only) surfaces as `open`, and
    // junk as `invalid` — neither may vanish from the table.
    std::fs::write(
        runs.join("20250822T000000Z-abc1234-targets.jsonl"),
        "{\"schema_version\":1,\"format\":\"ms-run-ledger\",\"record\":\"header\",\
         \"id\":\"20250822T000000Z-abc1234-targets\",\"ts\":1755820800,\"git\":\"abc1234\",\
         \"cmd\":\"targets\",\"argv\":[\"targets\"],\"params\":{},\
         \"machine\":{\"os\":\"linux\",\"arch\":\"x86_64\",\"cpus\":8}}\n",
    )
    .unwrap();
    std::fs::write(runs.join("20250829T000000Z-zzzzzzz-junk.jsonl"), "not json\n").unwrap();

    let got = runscmd::list_runs(&runs, 20, None);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/runs_list.txt");
    if std::env::var_os("MS_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file exists (MS_BLESS=1 to create)");
    assert_eq!(
        got, want,
        "runs table changed; if intentional, re-bless with MS_BLESS=1 and \
         update docs/OBSERVABILITY.md"
    );
    let _ = std::fs::remove_dir_all(&runs);
}

#[test]
fn sweep_leaves_a_validating_record_the_listing_finds() {
    let runs = tmp_dir("roundtrip");
    let out = tmp_dir("roundtrip-out");

    let sweep = run_bin(&runs, &["forwarding", "--jobs", "2", "--out", out.to_str().unwrap()]);
    assert!(sweep.status.success(), "{}", String::from_utf8_lossy(&sweep.stderr));
    let stdout = String::from_utf8_lossy(&sweep.stdout);
    assert!(stdout.contains("[run record   -> "), "stdout should name the record: {stdout}");

    // The record validates against the ledger schema...
    let validate = run_bin(&runs, &["runs-validate"]);
    assert!(validate.status.success(), "{}", String::from_utf8_lossy(&validate.stdout));
    assert!(String::from_utf8_lossy(&validate.stdout).contains("valid ms-run-ledger record"));

    // ...the listing finds it with reconciled counts (12 cells, 12
    // cell artifacts + report.md)...
    let list = run_bin(&runs, &["runs", "--last", "1"]);
    assert!(list.status.success());
    let listing = String::from_utf8_lossy(&list.stdout).to_string();
    let row = listing.lines().nth(1).expect("one data row");
    assert!(row.contains("forwarding") && row.contains("ok"), "{row}");
    assert!(row.ends_with("12    12        13"), "events/cells/artifacts reconcile: {row}");

    // ...and every artifact path the footer lists actually exists.
    let record_path = runscmd::record_files(&runs).pop().expect("one record");
    let text = std::fs::read_to_string(&record_path).unwrap();
    let rec = ms_prof::ledger::validate_record(&text).unwrap();
    assert_eq!(rec.cells, 12);
    for artifact in &rec.artifacts {
        assert!(Path::new(artifact).exists(), "footer lists a missing artifact: {artifact}");
    }

    let _ = std::fs::remove_dir_all(&runs);
    let _ = std::fs::remove_dir_all(&out);
}

/// Without `MS_RUNS_DIR`, records follow `--out`: a sweep run with
/// `--out D` writes its record under `D/runs/`, where `runs-validate
/// --out D` finds it.
#[test]
fn records_go_under_out_without_ms_runs_dir() {
    let out = tmp_dir("follow-out");
    let out_arg = out.to_str().unwrap();
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_run"))
            .env_remove("MS_RUNS_DIR")
            .args(args)
            .output()
            .expect("spawn run binary")
    };
    let sweep = run(&["forwarding", "--jobs", "2", "--quiet", "--out", out_arg]);
    assert!(sweep.status.success(), "{}", String::from_utf8_lossy(&sweep.stderr));
    let records = runscmd::record_files(&out.join("runs"));
    assert_eq!(records.len(), 1, "one record under <out>/runs: {records:?}");
    let text = std::fs::read_to_string(&records[0]).unwrap();
    assert_eq!(ms_prof::ledger::validate_record(&text).unwrap().cells, 12);
    let validate = run(&["runs-validate", "--out", out_arg]);
    assert!(validate.status.success(), "{}", String::from_utf8_lossy(&validate.stdout));
    let _ = std::fs::remove_dir_all(&out);
}

/// The determinism contract: `--jobs 1` and `--jobs 8` must emit the
/// same event lines (scheduling order may differ internally, but
/// events are recorded on the coordinator in grid order) and
/// bit-identical sweep artifacts — with the progress sink live in
/// both runs.
#[test]
fn event_stream_and_artifacts_are_identical_across_jobs() {
    let (runs1, runs8) = (tmp_dir("det-runs1"), tmp_dir("det-runs8"));
    let (out1, out8) = (tmp_dir("det-out1"), tmp_dir("det-out8"));

    let r1 = run_bin(&runs1, &["forwarding", "--jobs", "1", "--out", out1.to_str().unwrap()]);
    let r8 = run_bin(&runs8, &["forwarding", "--jobs", "8", "--out", out8.to_str().unwrap()]);
    assert!(r1.status.success(), "{}", String::from_utf8_lossy(&r1.stderr));
    assert!(r8.status.success(), "{}", String::from_utf8_lossy(&r8.stderr));

    let events = |dir: &Path| -> Vec<String> {
        let record = runscmd::record_files(dir).pop().expect("one record");
        std::fs::read_to_string(record)
            .unwrap()
            .lines()
            .filter(|l| l.contains("\"record\":\"event\""))
            .map(str::to_string)
            .collect()
    };
    let (e1, e8) = (events(&runs1), events(&runs8));
    assert_eq!(e1.len(), 12, "{e1:?}");
    assert_eq!(e1, e8, "event streams must not depend on --jobs");

    let mut files: Vec<PathBuf> =
        std::fs::read_dir(out1.join("forwarding")).unwrap().map(|e| e.unwrap().path()).collect();
    files.sort();
    assert!(!files.is_empty());
    for f1 in &files {
        let rel = f1.file_name().unwrap();
        let f8 = out8.join("forwarding").join(rel);
        assert_eq!(
            std::fs::read(f1).unwrap(),
            std::fs::read(&f8).unwrap(),
            "{} differs between --jobs 1 and --jobs 8",
            rel.to_string_lossy()
        );
    }

    for d in [&runs1, &runs8, &out1, &out8] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// `MS_NO_PROGRESS` / `--quiet` must not change a single artifact
/// byte (the progress line is stderr-only decoration; here stdio is
/// piped anyway, so this also pins the TTY-detection default path).
#[test]
fn quiet_flag_does_not_change_artifacts() {
    let (runs_a, runs_b) = (tmp_dir("quiet-a"), tmp_dir("quiet-b"));
    let (out_a, out_b) = (tmp_dir("quiet-outa"), tmp_dir("quiet-outb"));
    let a = run_bin(&runs_a, &["forwarding", "--jobs", "2", "--out", out_a.to_str().unwrap()]);
    let b = run_bin(
        &runs_b,
        &["forwarding", "--jobs", "2", "--out", out_b.to_str().unwrap(), "--quiet"],
    );
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout.len(), b.stdout.len(), "stdout must not carry progress output");
    let report_a = std::fs::read(out_a.join("forwarding/report.md")).unwrap();
    let report_b = std::fs::read(out_b.join("forwarding/report.md")).unwrap();
    assert_eq!(report_a, report_b);
    for d in [&runs_a, &runs_b, &out_a, &out_b] {
        let _ = std::fs::remove_dir_all(d);
    }
}
