#!/usr/bin/env bash
# Replay the mutants in this directory: each `*.patch` breaks the code on
# purpose, and its `Killed-by:` header holds the `cargo test` arguments
# that select the one test which must then fail.
#
# The script copies the checkout (tracked and untracked files, not
# ignored ones) into a temporary directory and works only there. The
# copies are stamped with the time of the copy, so a CARGO_TARGET_DIR
# shared between runs never serves a mutant built by an earlier run. It
# first runs every named test on the clean copy, where each must pass;
# then, one patch at a time, it applies the patch, runs the named test
# and reverts the patch, so each mutant rebuilds only the crates it
# touches. It exits 1 if a named test fails clean or selects no test,
# if a patch no longer applies or its mutant does not build, or if a
# mutant survives its test.
#
# Usage: tests/mutants/run.sh [PATCH...]   (default: every patch here)
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
copy="$work/src"
mkdir "$copy"
(
    cd "$root"
    git ls-files -z --cached --others --exclude-standard |
        while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
        tar --null -T - -c | tar -x -m -C "$copy"
)
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"

if [ "$#" -eq 0 ]; then
    set -- "$here"/*.patch
fi
patches=()
for patch in "$@"; do
    patches+=("$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")")
done
set -- "${patches[@]}"

killed_by() {
    sed -n 's/^Killed-by: //p' "$1"
}

# `cargo test` in the copy with patch $1's Killed-by: arguments and then
# the remaining arguments; prints cargo's output.
cargo_test() {
    local args
    read -r -a args <<< "$(killed_by "$1")"
    shift
    (cd "$copy" && cargo test -q "${args[@]}" "$@" 2>&1)
}

failed=0
for patch in "$@"; do
    if [ -z "$(killed_by "$patch")" ]; then
        echo "BAD      $(basename "$patch"): no Killed-by: header"
        failed=1
        continue
    fi
    if ! out=$(cargo_test "$patch" -- --exact) || ! grep -q 'test result: ok. 1 passed' <<< "$out"; then
        echo "BAD      $(basename "$patch"): its test does not pass alone on the clean copy"
        echo "$out" | tail -n 20
        failed=1
    fi
done
[ "$failed" -eq 0 ] || exit 1

total=0
killed=0
for patch in "$@"; do
    name=$(basename "$patch")
    total=$((total + 1))
    if ! (cd "$copy" && git apply "$patch"); then
        echo "STALE    $name: the patch no longer applies"
        failed=1
        continue
    fi
    if ! cargo_test "$patch" --no-run > "$work/out.txt"; then
        echo "BROKEN   $name: the mutant does not build"
        tail -n 20 "$work/out.txt"
        failed=1
    elif cargo_test "$patch" -- --exact > "$work/out.txt"; then
        echo "SURVIVED $name: $(killed_by "$patch") passed"
        failed=1
    else
        echo "KILLED   $name"
        killed=$((killed + 1))
    fi
    (cd "$copy" && git apply -R "$patch")
done
echo "$killed of $total mutants killed"
exit "$failed"
