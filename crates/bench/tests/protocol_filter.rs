//! `experiments --protocols` is honored by `guarantees` and rejected
//! everywhere else: a command that ignores the flag, an unknown name or a
//! list that selects nothing prints the usage, exits 1 and writes nothing.

use std::fs;
use std::path::Path;
use std::process::Command;

#[test]
fn misused_protocol_filters_exit_1_and_write_nothing() {
    let cases: [&[&str]; 3] = [
        &["fig15", "--protocols", "GMP"],
        &["guarantees", "--protocols", "gmp,bogus"],
        &["guarantees", "--protocols", ","],
    ];
    for (i, args) in cases.into_iter().enumerate() {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("protocol_filter_{i}"));
        let _ = fs::remove_dir_all(&out);
        fs::create_dir_all(&out).unwrap();
        let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .args(["--quick", "--out"])
            .arg(&out)
            .output()
            .expect("experiments starts");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        let written: Vec<_> = fs::read_dir(&out).unwrap().collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}
