//! Hostile values for every synopsis flag, shared by the tests of the
//! `memcontend`, `bench` and `repro` binaries.
//!
//! [`check`] reads a binary's usage text from its `--help` output and
//! takes each command's flags with [`synopsis_options`], the rule
//! [`mc_cli::Args::only_as_in`] checks a command line by. It then runs
//! the command once per flag and hostile value, with stdin closed and in
//! a scratch directory, on a command line that is complete without the
//! flag ([`base`]). Every run must exit 2, 3 or 4 within [`TIME_BOUND`]
//! and never panic. A pair whose value the flag's parser accepts never
//! runs: it is listed in [`EXEMPT`] with the reason.

use std::ffi::OsString;
use std::fs::File;
use std::os::unix::ffi::OsStringExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mc_cli::args::synopsis_options;

/// How long one case may run. A rejected value fails in milliseconds.
const TIME_BOUND: Duration = Duration::from_secs(10);

/// The values every flag is fed, each named for the exemptions. The
/// paths are relative to the scratch directory the cases run in.
fn hostile_values() -> Vec<(&'static str, OsString)> {
    vec![
        ("empty", "".into()),
        ("negative", "-1".into()),
        ("overflowing float", "1e400".into()),
        ("NaN", "NaN".into()),
        ("2^64", "18446744073709551616".into()),
        ("non-UTF-8", OsString::from_vec(vec![b'a', 0xff, 0xfe])),
        ("missing path", MISSING.into()),
        ("directory", DIRECTORY.into()),
    ]
}

/// A path that does not exist in the scratch directory.
const MISSING: &str = "missing.jsonl";
/// A directory in the scratch directory.
const DIRECTORY: &str = "dir";
/// A valid job queue in the scratch directory, for `schedule`'s base.
const QUEUE: &str = "queue.jsonl";

/// Pairs that never run: `(program, flag, value or "*" for every value,
/// why)`.
#[rustfmt::skip]
const EXEMPT: &[(&str, &str, &str, &str)] = &[
    ("memcontend", "save", "*", "an output path, written after calibrating"),
    ("memcontend", "gantt", "*", "an output path, written after the replay"),
    ("memcontend", "save-trace", "*", "an output path, written during the replay"),
    ("memcontend", "report", "*", "an output path, written after the run"),
    ("memcontend", "max-slowdown", "2^64", "a finite bound of at least 1"),
    ("bench", "max-slowdown", "2^64", "a finite bound of at least 1"),
    ("bench", "rate", "2^64", "a finite positive rate"),
    ("bench", "zipf", "2^64", "a finite skew of at least 0"),
    ("repro", "out", "*", "an output directory, made before the targets run"),
    ("repro", "metrics", "*", "an output path, written after the targets run"),
    ("repro", "trace", "*", "an output path, written after the targets run"),
];

/// Base options dropped when the flag under test replaces them: `(flag,
/// the option it stands instead of)`.
const INSTEAD: &[(&str, &str)] = &[
    ("input", "generate"),
    ("model", "platform"),
    ("fleet", "platform"),
];

/// The command line a case of `flag` starts from: the command to run for
/// the synopsis word `word` of `program`, and the options that complete
/// it without the flag.
fn base<'w>(program: &str, word: &'w str, flag: &str) -> (&'w str, &'static str) {
    let options = match (program, word) {
        ("repro", _) if flag == "trace-format" => "--trace trace.jsonl",
        ("memcontend", "bench" | "calibrate" | "evaluate") => "--platform henri",
        ("memcontend", "predict") => "--platform henri --cores 4 --comp-numa 0 --comm-numa 0",
        ("memcontend", "advise") => "--platform henri --compute-gb 1 --comm-gb 1",
        ("memcontend", "replay") => "--generate halo2d --platform henri",
        ("memcontend", "schedule") => "--jobs queue.jsonl --platform henri",
        // The listen options are read only with `--listen`.
        ("memcontend", "serve") => "--listen 127.0.0.1:0",
        ("bench", "replay") => "--pattern halo2d --ranks 2",
        ("bench", "loadgen") => "--addr 127.0.0.1:1",
        _ => "",
    };
    let command = match (program, flag) {
        // Only this target reads the sweep; any other is cheap.
        ("repro", "sweep-csv") => "evaluate-csv",
        ("repro", _) => "gantt",
        _ => word,
    };
    (command, options)
}

/// Run every case of `program`, built at `bin`; panics with every failed
/// case. Returns how many cases ran.
pub fn check(bin: &str, program: &str) -> usize {
    let scratch = scratch_dir(program);
    let help = Command::new(bin)
        .arg("--help")
        .output()
        .expect("--help runs");
    assert!(help.status.success(), "{program} --help fails");
    let usage = String::from_utf8(help.stdout).expect("the usage text is UTF-8");

    let mut failures = Vec::new();
    let mut used = vec![false; EXEMPT.len()];
    let mut ran = 0;
    for word in usage.lines().filter_map(|line| {
        let mut words = line.split_whitespace();
        (words.next() == Some(program))
            .then(|| words.next())
            .flatten()
    }) {
        for flag in synopsis_options(&usage, program, word).expect("a synopsis line") {
            let (command, options) = base(program, word, flag);
            for (label, value) in hostile_values() {
                let exempt = EXEMPT.iter().position(|&(p, f, v, _)| {
                    p == program && f == flag && (v == "*" || v == label)
                });
                if let Some(i) = exempt {
                    used[i] = true;
                    continue;
                }
                let mut argv: Vec<OsString> = vec![command.into()];
                let mut base_options = options.split_whitespace();
                while let (Some(key), Some(base_value)) = (base_options.next(), base_options.next())
                {
                    let name = &key[2..];
                    if name != flag && !INSTEAD.contains(&(flag, name)) {
                        argv.extend([key.into(), base_value.into()]);
                    }
                }
                let value = match (flag, label) {
                    ("warm", "missing path" | "directory") => {
                        let mut entry = OsString::from("henri=");
                        entry.push(&value);
                        entry
                    }
                    _ => value,
                };
                argv.extend([format!("--{flag}").into(), value]);
                ran += 1;
                if let Err(why) = run_case(bin, &argv, &scratch) {
                    failures.push(format!("{program} {argv:?}: {why}"));
                }
            }
        }
    }
    for (i, exemption) in EXEMPT.iter().enumerate() {
        assert!(
            used[i] || exemption.0 != program,
            "exemption {exemption:?} matches no case"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(
        failures.is_empty(),
        "{} of {ran} cases failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    ran
}

/// A fresh scratch directory holding [`DIRECTORY`] and [`QUEUE`].
fn scratch_dir(program: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hostile-{program}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join(DIRECTORY)).expect("create the scratch directory");
    std::fs::write(
        dir.join(QUEUE),
        "{\"name\":\"a\",\"compute_gb\":1,\"comm_gb\":1,\"max_cores\":4}\n",
    )
    .expect("write the queue");
    dir
}

/// Run one case in `dir`: it must exit 2, 3 or 4 within [`TIME_BOUND`],
/// print no panic, and fail for its own flag rather than for a base
/// option it lacks.
fn run_case(bin: &str, argv: &[OsString], dir: &Path) -> Result<(), String> {
    let (out, err) = (dir.join("stdout"), dir.join("stderr"));
    let mut child = Command::new(bin)
        .args(argv)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(File::create(&out).expect("create stdout file"))
        .stderr(File::create(&err).expect("create stderr file"))
        .spawn()
        .expect("the binary starts");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for the binary") {
            break status;
        }
        if start.elapsed() > TIME_BOUND {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("still running after {TIME_BOUND:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let output = std::fs::read(&out).unwrap_or_default();
    let stderr = String::from_utf8_lossy(&std::fs::read(&err).unwrap_or_default()).into_owned();
    let printed = String::from_utf8_lossy(&output) + stderr.as_str();
    if printed.contains("panicked at") {
        return Err(format!("panicked:\n{stderr}"));
    }
    let incomplete = [
        "missing required option",
        "needs --",
        "mutually exclusive",
        "only applies to",
    ];
    if incomplete.iter().any(|why| stderr.contains(why)) {
        return Err(format!("its base command line is incomplete:\n{stderr}"));
    }
    match status.code() {
        Some(2..=4) => Ok(()),
        code => Err(format!("exit {code:?}, want 2, 3 or 4:\n{stderr}")),
    }
}
