//! Every byte `experiments all --quick` writes, pinned.
//!
//! `tests/golden/quick/` holds each file the command writes plus its
//! standard output (`stdout.txt`). This test reruns the command at two
//! worker threads and fails on any missing, extra or differing file.
//! Standard error is not compared: it carries wall-clock times.
//!
//! A change that means to move a figure regenerates the goldens on
//! purpose, from the repository root, with [`REGENERATE`].

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::process::Command;

const REGENERATE: &str =
    "rm -rf crates/bench/tests/golden/quick && mkdir -p crates/bench/tests/golden/quick && \
     cargo run --release -p gmp-bench --bin experiments -- all --quick --threads 1 \
     --out crates/bench/tests/golden/quick > crates/bench/tests/golden/quick/stdout.txt";

fn file_names(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn all_quick_reproduces_the_golden_files() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_quick");
    let _ = fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["all", "--quick", "--threads", "2", "--out"])
        .arg(&out)
        .output()
        .expect("experiments starts");
    assert!(
        run.status.success(),
        "experiments all --quick failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    fs::write(out.join("stdout.txt"), &run.stdout).unwrap();

    let expected = file_names(&golden);
    let written = file_names(&out);
    let mut problems: Vec<String> = Vec::new();
    for name in expected.difference(&written) {
        problems.push(format!("{name}: not written"));
    }
    for name in written.difference(&expected) {
        problems.push(format!("{name}: written but has no golden file"));
    }
    for name in expected.intersection(&written) {
        if fs::read(golden.join(name)).unwrap() != fs::read(out.join(name)).unwrap() {
            problems.push(format!("{name}: differs"));
        }
    }
    assert!(
        problems.is_empty(),
        "`experiments all --quick` no longer reproduces tests/golden/quick:\n  {}\n\
         compare with `diff -r {} {}`; if the change means to move these figures, \
         regenerate them from the repository root with:\n  {REGENERATE}",
        problems.join("\n  "),
        golden.display(),
        out.display(),
    );
}
