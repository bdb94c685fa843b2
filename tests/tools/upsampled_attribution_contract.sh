#!/bin/sh
# The 1 ms attribution contract: 10 ms monitoring attributed over 1 ms
# slices (the slice table's counting pass, scatter and usage pass) must
# characterize identically at 1, 2 and 8 threads (--det-check 8), and the
# report must be the same at --threads 1 and 4.
#
#   upsampled_attribution_contract.sh <g10_run> <g10_analyze> <work dir>
set -eu
run=$1
analyze=$2
work=$3
rm -rf "$work"
mkdir -p "$work"
"$run" --engine pregel --dataset rmat:8 --iterations 20 --monitor-ms 10 \
  --out "$work/upsampled" > "$work/run.out"
flags="--model $work/upsampled/model.g10 --log $work/upsampled/run.log \
  --timeslice-ms 1 --lenient"
# shellcheck disable=SC2086
"$analyze" $flags --det-check 8 > "$work/det-check.out"
cat "$work/det-check.out"
grep -q '^det-check: identical per-phase hashes' "$work/det-check.out"
# shellcheck disable=SC2086
"$analyze" $flags --threads 1 > "$work/report.t1"
# shellcheck disable=SC2086
"$analyze" $flags --threads 4 > "$work/report.t4"
cmp "$work/report.t1" "$work/report.t4"
