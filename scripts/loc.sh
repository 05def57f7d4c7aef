#!/usr/bin/env bash
# Usage: scripts/loc.sh <base-ref>
#
# Prints the Go lines the working tree adds and removes relative to
# <base-ref>, non-test and test files separately — the figures ROADMAP
# item 5 asks every simplification PR to report. benchmark/ is its own
# module with its own change rules and is excluded. New files count once
# they are staged (`git add`).
set -euo pipefail
base=${1:?usage: scripts/loc.sh <base-ref>}
cd "$(git rev-parse --show-toplevel)"
git diff --numstat "$base" -- '*.go' ':(exclude)benchmark/' | awk '
	$1 == "-" { next }
	$NF ~ /_test\.go}?$/ { ta += $1; tr += $2; next }
	{ na += $1; nr += $2 }
	END {
		printf "non-test Go lines: +%d -%d (net %+d)\n", na, nr, na - nr
		printf "test Go lines:     +%d -%d (net %+d)\n", ta, tr, ta - tr
	}'
