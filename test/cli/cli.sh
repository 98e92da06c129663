#!/usr/bin/env bash
# Golden transcript of the leakpruner command line: the plain help of
# the group and of every subcommand (it lists every flag with its
# default), then the standard error and exit code of every rejected
# setting, and the full output of runs that must end cleanly.
# Usage: cli.sh PATH/TO/leakpruner.exe
lp=$1
unset OCAMLRUNPARAM

help() {
  echo "\$ leakpruner${*:+ $*} --help=plain"
  "$lp" "$@" --help=plain
  echo "[exit $?]"
}

# standard output is dropped: only the diagnostic and the exit code count
err() {
  echo "\$ leakpruner $*"
  "$lp" "$@" 2>&1 >/dev/null
  echo "[exit $?]"
}

# standard output and standard error, interleaved as written
out() {
  echo "\$ leakpruner $*"
  "$lp" "$@" 2>&1
  echo "[exit $?]"
}

help
for cmd in list run trace chaos serve experiment; do help "$cmd"; done

err run NoSuchWorkload
err run ListLeak --policy bogus
err run ListLeak --pause-slo-p99 0
err run ListLeak --heap=0
err run ListLeak --cap=-5

err trace
err trace -w NoSuchWorkload
err trace -w ListLeak --pause-slo-p99 0
err trace -w ListLeak --heap=0
err trace -w ListLeak --buffer=0

err chaos --seeds=-1
err chaos --steps=-1
err chaos --pause-slo-p99 0
err chaos --liveness bogus

err serve --tenants 0
err serve --rounds 0
err serve --workload NoSuchWorkload
err serve --kill 3
err serve --rounds 20 --seed 2 --kill 0:1
err serve --rounds 20 --seed 2 --kill 21:1
err serve --rounds 20 --seed 2 --force-safe=-1
err serve --heap=0
err serve --rate=-5
err serve --disk-capacity=-1
err serve --rounds 1 --quota=-1
err serve --seeds=-2
err serve --rounds 20 --seed 2 --kill 5:9
err serve --rounds 20 --seed 2 --force-safe 7
err serve --admission-retry-cap=-1
err serve --backoff-base 0
err serve --backoff-base 4 --backoff-ceiling 2
err serve --offload-deadline 0
err serve --warm-limit=-1
err serve --warm-limit 5
err serve --storm-trip-permille 0
err serve --storm-trip-permille 1001

err experiment NoSuchExperiment

# a heap too small for the workload's setup: a clean out-of-memory
# outcome after 0 iterations, not an uncaught exception
out run ListLeak --heap=8
out trace -w ListLeak --heap=8
