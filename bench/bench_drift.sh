#!/usr/bin/env bash
# Checks regenerated BENCH_*.json files against their committed copies
# on the deterministic fields only:
#
#   bash bench/bench_drift.sh BENCH_fleet.json BENCH_restart.json ...
#
# Each named file in the working tree is compared with
# `git show HEAD:<file>` after both are stripped of the fields a rerun
# may change: the host's core count, wall-clock times and the verdicts
# drawn from them. Prints each difference and exits 1 if any
# deterministic field differs.
set -eu

strip='walk(if type == "object" then
  with_entries(select(.key | test("^(host_cores|cpu_seconds|histogram|pass|guard_ns)$|pause.*_ns$|_ns_|_wall_s$|_(delta|overhead|path)_pct$") | not))
else . end)'

status=0
for f in "$@"; do
  if diff <(git show "HEAD:$f" | jq -S "$strip") <(jq -S "$strip" "$f"); then
    echo "$f: deterministic fields match the committed copy"
  else
    echo "$f: deterministic fields differ from the committed copy; regenerate and commit it"
    status=1
  fi
done
exit $status
