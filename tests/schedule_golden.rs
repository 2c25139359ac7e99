//! Golden test for the scheduler: `memcontend schedule --policy all` on
//! two bundled job queues must render byte-identical reports. Every
//! placement, finish time, slowdown and the node-simulation count are
//! pinned, so a change to the node simulation, its solver memo or the
//! annealing search that moves any result shows up here.
//!
//! Regenerate the golden after an intentional scheduler change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test schedule_golden
//! ```

use mc_cli::{run, Args};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
const GOLDEN: &str = "tests/golden/schedule_mixed.txt";

/// `(queue file, henri node count)` for each pinned invocation: the CI
/// smoke queue on two nodes and a twelve-job queue on four.
const RUNS: [(&str, &str); 2] = [
    ("tests/golden/schedule_smoke.jobs.jsonl", "2"),
    ("tests/golden/schedule_mixed12.jobs.jsonl", "4"),
];

fn render() -> String {
    let mut out = String::new();
    for (queue, nodes) in RUNS {
        let path = format!("{ROOT}/{queue}");
        let argv = [
            "schedule",
            "--jobs",
            &path,
            "--platform",
            "henri",
            "--nodes",
            nodes,
            "--policy",
            "all",
        ];
        let report = run(&Args::parse(argv).unwrap()).expect("schedule runs");
        out.push_str(&format!(
            "$ memcontend schedule --jobs {queue} --platform henri --nodes {nodes} --policy all\n"
        ));
        out.push_str(&report);
    }
    out
}

#[test]
fn schedule_reports_match_the_golden() {
    let rendered = render();
    let path = format!("{ROOT}/{GOLDEN}");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("golden written");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden present");
    assert_eq!(
        rendered, golden,
        "schedule reports diverged from {GOLDEN} \
         (rerun with UPDATE_GOLDEN=1 if the change is intentional)"
    );
}
