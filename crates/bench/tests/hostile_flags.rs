//! Every flag of the `bench` and `repro` synopses, fed values their
//! parsers must reject: a usage, data or I/O exit, never a panic or a
//! hang.

#[path = "../../cli/tests/hostile/mod.rs"]
mod hostile;

#[test]
fn every_bench_synopsis_flag_rejects_hostile_values() {
    let ran = hostile::check(env!("CARGO_BIN_EXE_bench"), "bench");
    assert_eq!(ran, 197);
}

#[test]
fn every_repro_synopsis_flag_rejects_hostile_values() {
    let ran = hostile::check(env!("CARGO_BIN_EXE_repro"), "repro");
    assert_eq!(ran, 32);
}
