//! Every flag of `memcontend`'s synopsis, fed values its parser must
//! reject: a usage, data or I/O exit, never a panic or a hang.

mod hostile;

#[test]
fn every_synopsis_flag_rejects_hostile_values() {
    let ran = hostile::check(env!("CARGO_BIN_EXE_memcontend"), "memcontend");
    assert_eq!(ran, 351);
}
