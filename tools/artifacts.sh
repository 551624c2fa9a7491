#!/bin/sh
# Write the CLI proof set of the checkout this script sits in to OUT:
#   simulate: agg1 fixed, agg1 adaptive exp, diamond adaptive linear
#             (lambda 0.01), agg2 with noise sigma 2 and seed 3, a circle
#             read back from a CSV file written by to_csv, and agg1
#             adaptive linear (lambda 0.01) with noise sigma 50, where a
#             weight ends a tick at the cap LINEAR_Q_MAX, and two more
#             agg1 adaptive linear runs with noise whose weights reach that
#             cap (lambda 1e-6, sigma 5, seed 3; lambda 1e-300, sigma 3,
#             seed 1), where the active-set loop runs long;
#   table:    tables 1 and 2, and table 3 at two runs per cell;
#   plotdata: the agg1 fixed and agg1 exp logs side by side;
#   library:  agg2 adaptive exp under the benchmark's `saturated` box
#             (thrust in [7, 12.5], |rates| <= 1), which no CLI flag sets,
#             so that bounds bind; its log goes through cli.write_simlog_csv
#             to agg2_saturated/log.csv;
#   replay:   agg2 with noise again, from the config in its summary.json
#             (written to agg2_replay/config.json) into agg2_replay, and
#             table 3 again, from the `# config:` line of its report
#             (written to table3_replay/config.json) into table3_replay;
#             the exit code of `cmp` of each pair of files, log.csv and
#             table3_report.csv, goes to exit_codes.txt as agg2_replay_cmp
#             and table3_replay_cmp.
# Every path the commands see is relative to OUT, so two checkouts' outputs
# compare byte for byte with `diff -r OUT_A OUT_B`. Each command's exit code
# goes to OUT/exit_codes.txt, writing circle.csv's as circle_csv; a failing
# command does not stop the rest.
#
# Usage: tools/artifacts.sh OUT
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
cd "$1"
export PYTHONPATH="$root/src"
: > exit_codes.txt

run() {
    name=$1
    shift
    rc=0
    python3 -c 'import sys; from adaptive_nmpc.cli import main; sys.exit(main(sys.argv[1:]))' "$@" > "$name.stdout" || rc=$?
    echo "$name $rc" >> exit_codes.txt
}

# py: NAME CODE, the exit code of a Python snippet as NAME in exit_codes.txt
py() {
    rc=0
    python3 -c "$2" || rc=$?
    echo "$1 $rc" >> exit_codes.txt
}

py circle_csv 'from adaptive_nmpc import preset; preset("circle").to_csv("circle.csv")'

run agg1_fixed simulate --trajectory agg1 --mode fixed --out agg1_fixed
run agg1_exp simulate --trajectory agg1 --mode adaptive --variant exp --out agg1_exp
run diamond_linear simulate --trajectory diamond --mode adaptive --variant linear --lambda 0.01 --out diamond_linear
run agg2_noise simulate --trajectory agg2 --noise-sigma 2 --seed 3 --out agg2_noise
run circle_file simulate --trajectory file:circle.csv --out circle_file
run agg1_linear_cap simulate --trajectory agg1 --mode adaptive --variant linear --lambda 0.01 --noise-sigma 50 --out agg1_linear_cap
run agg1_cap_sigma5 simulate --trajectory agg1 --mode adaptive --variant linear --lambda 1e-6 --noise-sigma 5 --seed 3 --out agg1_cap_sigma5
run agg1_cap_sigma3 simulate --trajectory agg1 --mode adaptive --variant linear --lambda 1e-300 --noise-sigma 3 --seed 1 --out agg1_cap_sigma3
run table1 table --table 1 --out table1
run table2 table --table 2 --out table2
run table3 table --table 3 --runs 2 --out table3
run plot plotdata --log agg1_fixed/log.csv --log agg1_exp/log.csv --out plots
mkdir -p agg2_saturated
py agg2_saturated '
from pathlib import Path
from adaptive_nmpc import AdaptConfig, ControlLimits, ControllerConfig, cli, harness, preset
box = dict(c_min=7.0, c_max=12.5, omega_min=-1.0, omega_max=1.0)
cfg = ControllerConfig(limits=ControlLimits(**box), adapt=AdaptConfig(lam=1.0, sub_horizon=8, variant="exponential"))
log = harness.run_closed_loop(preset("agg2"), cfg)
config = {"trajectory": "agg2", "mode": "adaptive", "variant": "exp", "lambda": 1.0, "sub_horizon": 8, **box}
cli.write_simlog_csv(log, Path("agg2_saturated/log.csv"), config)
'

# compare: NAME FILE_A FILE_B, the exit code of `cmp` as NAME in exit_codes.txt
compare() {
    rc=0
    cmp "$2" "$3" > /dev/null 2>&1 || rc=$?
    echo "$1 $rc" >> exit_codes.txt
}

mkdir -p agg2_replay table3_replay
python3 -c 'import json; json.dump(json.load(open("agg2_noise/summary.json"))["config"], open("agg2_replay/config.json", "w"))' || :
run agg2_replay simulate --config agg2_replay/config.json --out agg2_replay
compare agg2_replay_cmp agg2_noise/log.csv agg2_replay/log.csv
sed -n '1s/^# config: //p' table3/table3_report.csv > table3_replay/config.json || :
run table3_replay table --table 3 --config table3_replay/config.json --out table3_replay
compare table3_replay_cmp table3/table3_report.csv table3_replay/table3_report.csv
