//! The sharing contract of the sweep scheduler at the artifact level:
//! a sweep shares one analysis context per program and one decoded
//! image per group of cells that differ only in machine configuration,
//! and a whole sweep's artifacts must not depend on `--jobs`. (That
//! each grouped cell equals the cell run alone is checked on small
//! Figure 5- and predication-shaped grids by the unit tests in
//! `sweeps.rs`, which can choose the grid.)

use ms_bench::progress::SweepObserver;
use ms_bench::sweeps::{run_sweep, SweepSpec};

/// One real sweep, run end-to-end at `--jobs 1` and `--jobs 4`: every
/// artifact file must be bit-identical.
#[test]
fn sweep_artifacts_are_bit_identical_across_jobs() {
    let root1 = tempdir("ctx-equiv-j1");
    let root4 = tempdir("ctx-equiv-j4");
    run_sweep(SweepSpec::Targets, 1, &root1, &SweepObserver::silent()).expect("serial sweep runs");
    run_sweep(SweepSpec::Targets, 4, &root4, &SweepObserver::silent())
        .expect("parallel sweep runs");

    let files1 = artifact_files(&root1);
    let files4 = artifact_files(&root4);
    assert_eq!(files1, files4, "artifact file sets differ between --jobs 1 and --jobs 4");
    assert!(!files1.is_empty(), "sweep produced no artifacts");
    for rel in &files1 {
        let a = std::fs::read(root1.join(rel)).unwrap();
        let b = std::fs::read(root4.join(rel)).unwrap();
        assert_eq!(a, b, "{rel}: artifact differs between --jobs 1 and --jobs 4");
    }
    std::fs::remove_dir_all(&root1).ok();
    std::fs::remove_dir_all(&root4).ok();
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ms-bench-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn artifact_files(root: &std::path::Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path.strip_prefix(root).unwrap().to_string_lossy().into_owned());
            }
        }
    }
    out.sort();
    out
}
