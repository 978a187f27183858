#!/bin/sh
# Usage: expect_same_output.sh BINARY GOLDEN
#
# Passes when BINARY exits 0 and its stdout is byte-identical to the file
# GOLDEN. On a difference, prints a unified diff (golden first).
bin=$1
golden=$2
out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$bin" > "$out"
status=$?
if [ "$status" -ne 0 ]; then
  echo "$bin exited with status $status"
  exit 1
fi
if cmp -s "$golden" "$out"; then
  exit 0
fi
diff -u "$golden" "$out"
exit 1
