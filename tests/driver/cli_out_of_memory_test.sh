#!/usr/bin/env bash
# A failed allocation must leave `emdpa` with its own documented exit code
# (5) and a message naming the invocation, not the generic exit 1.  The
# address space is capped at 256 MiB, so a 20M-atom workload (about 1.4 GB
# of particle state) cannot be allocated.
#
#   tests/driver/cli_out_of_memory_test.sh path/to/emdpa
set -u
emdpa=$1
ulimit -v 262144
stderr=$("$emdpa" run --backend host-parallel --atoms 20000000 --steps 1 \
  2>&1 >/dev/null)
code=$?
echo "exit $code: $stderr"
[ "$code" -eq 5 ] || { echo "expected exit 5"; exit 1; }
case $stderr in
  *"out of memory"*"run --backend host-parallel --atoms 20000000"*) ;;
  *) echo "expected the message to name the invocation"; exit 1 ;;
esac
