#!/bin/sh
# pinned.sh FILE CMD... — run CMD, which regenerates the committed output
# FILE, and fail with the diff if FILE moved. The pinned files hold virtual-
# time results only (no wall clock, no host data), so a difference is a
# behaviour change: either a bug, or a deliberate one whose new FILE (left
# in place) is committed with the change that explains it.
set -eu
file="$1"
shift
expected="$(mktemp)"
trap 'rm -f "$expected"' EXIT
cp "$file" "$expected"
"$@"
if ! cmp -s "$expected" "$file"; then
	diff "$expected" "$file" | head -40 || true
	echo "$file moved (committed version '<', regenerated '>')"
	exit 1
fi
