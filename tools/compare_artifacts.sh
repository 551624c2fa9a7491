#!/bin/sh
# Compare the CLI proof set of git revision REV with that of the working
# tree this script sits in:
#   OUT/parent            REV's tree, extracted with `git archive`;
#   OUT/parent_artifacts  tools/artifacts.sh of that tree;
#   OUT/work_artifacts    tools/artifacts.sh of the working tree.
# Prints `diff -r` of the two proof sets and exits 1 on any difference.
# It changes no git state: no worktree, branch or checkout. The three
# directories above are replaced on each run.
#
# Usage: tools/compare_artifacts.sh REV OUT
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 REV OUT" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
rm -rf "$out/parent" "$out/parent_artifacts" "$out/work_artifacts"
mkdir "$out/parent"
git -C "$root" archive "$1" | tar -x -C "$out/parent"

sh "$out/parent/tools/artifacts.sh" "$out/parent_artifacts"
sh "$root/tools/artifacts.sh" "$out/work_artifacts"

if diff -r "$out/parent_artifacts" "$out/work_artifacts"; then
    echo "no difference between the proof sets of $1 and the working tree"
else
    exit 1
fi
