//! The two surfaces of the model ops — `memcontend` flags and serve
//! requests — answer each invalid input with the same error class: the
//! same exit code on the command line as the `exit_code` of the serve
//! response. One table, each input spelled once per surface, keeps the
//! surfaces from drifting apart.

use std::io::Cursor;

use mc_cli::serve::serve_loop;
use mc_cli::{run, Args};
use mc_json::Json;

/// Each invalid input as flags and as a request.
const CASES: &[(&str, &str)] = &[
    (
        "predict --platform henri --cores 0 --comp-numa 0 --comm-numa 0",
        r#"{"op":"predict","platform":"henri","cores":0,"comp_numa":0,"comm_numa":0}"#,
    ),
    (
        "predict --platform henri --cores 1025 --comp-numa 0 --comm-numa 0",
        r#"{"op":"predict","platform":"henri","cores":1025,"comp_numa":0,"comm_numa":0}"#,
    ),
    (
        "predict --platform henri --cores 150 --comp-numa 0 --comm-numa 0",
        r#"{"op":"predict","platform":"henri","cores":150,"comp_numa":0,"comm_numa":0}"#,
    ),
    (
        "predict --platform henri --cores 200 --comp-numa 0 --comm-numa 0",
        r#"{"op":"predict","platform":"henri","cores":200,"comp_numa":0,"comm_numa":0}"#,
    ),
    (
        "predict --platform henri --cores 1024 --comp-numa 0 --comm-numa 0",
        r#"{"op":"predict","platform":"henri","cores":1024,"comp_numa":0,"comm_numa":0}"#,
    ),
    (
        "predict --platform henri --cores 4 --comp-numa 9 --comm-numa 0",
        r#"{"op":"predict","platform":"henri","cores":4,"comp_numa":9,"comm_numa":0}"#,
    ),
    (
        "advise --platform henri --compute-gb -1 --comm-gb 1",
        r#"{"op":"recommend","platform":"henri","compute_gb":-1,"comm_gb":1}"#,
    ),
    (
        "advise --platform henri --compute-gb 1e10 --comm-gb 1",
        r#"{"op":"recommend","platform":"henri","compute_gb":1e10,"comm_gb":1}"#,
    ),
    (
        "predict --platform atlantis --cores 4 --comp-numa 0 --comm-numa 0",
        r#"{"op":"predict","platform":"atlantis","cores":4,"comp_numa":0,"comm_numa":0}"#,
    ),
    (
        "replay --platform henri --generate zzz",
        r#"{"op":"replay","platform":"henri","pattern":"zzz"}"#,
    ),
    (
        "replay --platform henri --generate halo2d --cores 1025",
        r#"{"op":"replay","platform":"henri","pattern":"halo2d","cores":1025}"#,
    ),
    (
        "replay --platform henri --input app.trace.jsonl --ranks 4",
        r#"{"op":"replay","platform":"henri","trace_file":"app.trace.jsonl","ranks":4}"#,
    ),
    (
        "evaluate --platform atlantis",
        r#"{"op":"evaluate","platform":"atlantis"}"#,
    ),
    (
        "predict --model /nonexistent/model.txt --cores 4 --comp-numa 0 --comm-numa 0",
        r#"{"op":"predict","model":"/nonexistent/model.txt","cores":4,"comp_numa":0,"comm_numa":0}"#,
    ),
];

/// The serve response to each request, in order.
fn serve_responses(requests: &[&str]) -> Vec<Json> {
    let input: String = requests.iter().map(|r| format!("{r}\n")).collect();
    let mut out = Vec::new();
    serve_loop(
        &Args::parse(["serve"]).unwrap(),
        Cursor::new(input),
        &mut out,
    )
    .unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|line| Json::parse(line).unwrap())
        .collect()
}

/// The error class and exit code of the serve response to each request,
/// in order.
fn serve_errors(requests: &[&str]) -> Vec<(String, u64)> {
    serve_responses(requests)
        .iter()
        .map(|response| {
            let error = response
                .get("error")
                .unwrap_or_else(|| panic!("{}", response.render()));
            let class = error.get("class").and_then(Json::as_str).unwrap();
            (
                class.to_string(),
                error.get("exit_code").and_then(Json::as_u64).unwrap(),
            )
        })
        .collect()
}

#[test]
fn every_invalid_input_gets_the_same_class_on_both_surfaces() {
    let requests: Vec<&str> = CASES.iter().map(|(_, request)| *request).collect();
    let served = serve_errors(&requests);
    assert_eq!(served.len(), CASES.len());
    for ((flags, request), (class, code)) in CASES.iter().zip(served) {
        let e = run(&Args::parse(flags.split(' ')).unwrap()).expect_err(flags);
        assert_eq!(u64::from(e.exit_code()), code, "{flags} vs {request}: {e}");
        let expected = match code {
            2 => "usage",
            3 => "data",
            _ => "io",
        };
        assert_eq!(class, expected, "{request}");
    }
}

#[test]
fn a_core_count_past_the_model_is_refused_by_name_on_both_surfaces() {
    // henri's local compute curve reaches zero past about 125 cores: the
    // model has no answer there, though 2^10 cores pass the ceiling.
    let predict = |cores: u64| {
        let flags = format!("predict --platform henri --cores {cores} --comp-numa 0 --comm-numa 0");
        let request = format!(
            r#"{{"op":"predict","platform":"henri","cores":{cores},"comp_numa":0,"comm_numa":0}}"#
        );
        let cli = run(&Args::parse(flags.split(' ')).unwrap());
        let served = serve_responses(&[&request]).remove(0);
        (cli, served)
    };
    for cores in [150, 200, 1024] {
        let (cli, served) = predict(cores);
        let e = cli.unwrap_err();
        assert!(e.is_usage(), "{e}");
        assert!(e.to_string().contains(&format!("--cores {cores} ")), "{e}");
        let message = served
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{}", served.render()));
        assert!(message.contains(&format!("'cores' {cores} ")), "{message}");
    }
    let (cli, served) = predict(100);
    let out = cli.unwrap();
    assert!(out.contains("overlap keeps 85 % of compute"), "{out}");
    assert_eq!(
        served.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        served.render()
    );
    assert!(served.get("comp_alone").and_then(Json::as_f64).unwrap() > 0.0);
}
