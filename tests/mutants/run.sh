#!/bin/sh
# The mutation check: each tests/mutants/NN-name.patch is a plain `git diff`
# that plants one known bug, under a header naming the tier-1 test that
# must kill it:
#
#   Mutant: <what the patch breaks>
#   Killed by: cargo test <arguments>
#
# In one scratch `git worktree` of HEAD, this script first runs every named
# test on the clean tree (each must pass there), then for each patch resets
# the tree, `git apply`s the patch, builds the named test and runs it. It
# fails if a patch no longer applies or builds, or if its mutant survives.
#
#   tests/mutants/run.sh                 every patch
#   tests/mutants/run.sh PATCH...        only these
#
# All runs share one CARGO_TARGET_DIR (default: target/mutants under the
# repository root), so each mutant rebuilds only what its patch touches.
set -u
root=$(git rev-parse --show-toplevel) || exit 2
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/mutants}"
[ $# -gt 0 ] || set -- "$root"/tests/mutants/*.patch

scratch=$(mktemp -d) || exit 2
work="$scratch/tree"
git -C "$root" worktree add -q --detach "$work" HEAD || exit 2
trap 'git -C "$root" worktree remove --force "$work"; rm -rf "$scratch"' EXIT

killer() { sed -n 's/^Killed by: cargo test //p' "$1"; }
# Run `cargo test -q` with a patch's named arguments in the worktree.
run() { (cd "$work" && cargo test -q $1 >/dev/null 2>&1); }
build() { (cd "$work" && cargo test -q --no-run $(printf '%s\n' "$1" | sed 's/ -- .*//') >/dev/null 2>&1); }

fail=0
for patch in "$@"; do
    args=$(killer "$patch")
    if [ -z "$args" ]; then
        echo "$(basename "$patch"): no 'Killed by:' line"
        fail=1
    elif ! run "$args"; then
        echo "$(basename "$patch"): its test fails on the clean tree: cargo test $args"
        fail=1
    fi
done
[ $fail -eq 0 ] || exit 1

for patch in "$@"; do
    name=$(basename "$patch" .patch)
    args=$(killer "$patch")
    git -C "$work" reset -q --hard HEAD && git -C "$work" clean -qfd
    if ! git -C "$work" apply "$patch"; then
        echo "$name: no longer applies"
        fail=1
    elif ! build "$args"; then
        echo "$name: does not build"
        fail=1
    elif run "$args"; then
        echo "$name: SURVIVED cargo test $args"
        fail=1
    else
        echo "$name: killed by cargo test $args"
    fi
done
exit $fail
