#!/bin/sh
# Compare the CLI proof set of git revision REV with that of the working
# tree this script sits in, and the working tree's proof set under one BLAS
# thread with that under OpenBLAS's default thread count:
#   OUT/parent                    REV's tree, extracted with `git archive`;
#   OUT/parent_artifacts          the working tree's tools/artifacts.sh, copied
#                                 into that tree and run there, so that both
#                                 sides run the same commands;
#   OUT/work_artifacts            tools/artifacts.sh of the working tree;
#   OUT/work_artifacts_1thread    the same with OPENBLAS_NUM_THREADS=1;
#   OUT/parent_stripped, OUT/work_stripped
#                                 copies of the first two proof sets without
#                                 `# config:` lines, without `config` and
#                                 `seed` in each summary.json, and without
#                                 the replays (every `*_replay` directory,
#                                 stdout file and exit code), which replay a
#                                 recorded config and so stand or fall with it.
# The first three run with OPENBLAS_NUM_THREADS and OMP_NUM_THREADS unset.
# Prints the line count of src/adaptive_nmpc/*.py on both sides, `diff -r`
# of each pair (parent and working tree, the stripped copies, default and
# one BLAS thread) and a verdict line. It exits 1 on
# any difference, and also when a command of the working tree's
# proof set exits non-zero, naming it: two sides that fail alike would
# otherwise compare clean. A change to what a command records shows in the
# first diff only; a change to what it computes shows in the second too.
# It changes no git state: no worktree, branch or checkout. The six
# directories above are replaced on each run.
#
# Usage: tools/compare_artifacts.sh REV OUT
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 REV OUT" >&2
    exit 2
fi
unset OPENBLAS_NUM_THREADS OMP_NUM_THREADS
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
rm -rf "$out/parent" "$out/parent_artifacts" "$out/work_artifacts" "$out/work_artifacts_1thread" \
    "$out/parent_stripped" "$out/work_stripped"
mkdir "$out/parent"
git -C "$root" archive "$1" | tar -x -C "$out/parent"
mkdir -p "$out/parent/tools"
cp "$root/tools/artifacts.sh" "$out/parent/tools/artifacts.sh"

sh "$out/parent/tools/artifacts.sh" "$out/parent_artifacts"
sh "$root/tools/artifacts.sh" "$out/work_artifacts"
OPENBLAS_NUM_THREADS=1 sh "$root/tools/artifacts.sh" "$out/work_artifacts_1thread"

# copy proof set $1 to $2 without what records a command's config
strip_records() {
    cp -r "$1" "$2"
    rm -rf "$2"/*_replay "$2"/*_replay.stdout
    sed -i '/^[^ ]*_replay/d' "$2/exit_codes.txt"
    find "$2" -type f ! -name '*.json' -exec sed -i '/^# config:/d' {} +
    find "$2" -name summary.json -exec python3 -c '
import json, sys
for path in sys.argv[1:]:
    summary = json.load(open(path))
    summary.pop("config", None)
    summary.pop("seed", None)
    json.dump(summary, open(path, "w"), indent=2, sort_keys=True)
' {} +
}
strip_records "$out/parent_artifacts" "$out/parent_stripped"
strip_records "$out/work_artifacts" "$out/work_stripped"

echo "lines of src/adaptive_nmpc/*.py: $(cat "$out"/parent/src/adaptive_nmpc/*.py | wc -l) at $1," \
    "$(cat "$root"/src/adaptive_nmpc/*.py | wc -l) in the working tree"
status=0
if diff -r "$out/parent_artifacts" "$out/work_artifacts"; then
    echo "no difference between the proof sets of $1 and the working tree"
else
    status=1
fi
if diff -r "$out/parent_stripped" "$out/work_stripped"; then
    echo "no difference between the proof sets of $1 and the working tree once config records and the replays are left out"
else
    echo "the proof sets of $1 and the working tree differ beyond config records and the replays"
    status=1
fi
if diff -r "$out/work_artifacts" "$out/work_artifacts_1thread"; then
    echo "no difference between the working tree's proof sets under default and one BLAS thread"
else
    status=1
fi
failed=$(awk '$2 != 0 { print $1 " (exit " $2 ")" }' "$out/work_artifacts/exit_codes.txt")
if [ -n "$failed" ]; then
    echo "proof set commands that failed in the working tree:" $failed
    status=1
fi
exit $status
