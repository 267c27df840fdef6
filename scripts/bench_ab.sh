#!/bin/sh
# bench_ab.sh <parent-rev> <pairs> <workloads> <seconds>
#
# A/B the GQ benchmark: the committed files of <parent-rev> against this
# working tree, as alternating pairs (parent first on odd pairs, the change
# first on even ones) of `go run ./bench -workload ... -json`, then
# `go run ./bench -compare`. The parent is a `git archive` extract in a
# temporary directory, removed on exit, so neither side's checkout nor .git
# is touched. Each side's runs accumulate in one -json file; -compare takes
# one observation per run. An empty <workloads> runs all of them.
set -eu
if [ $# -ne 4 ]; then
	echo "usage: $0 <parent-rev> <pairs> <workloads> <seconds>" >&2
	exit 2
fi
parent=$1 pairs=$2 workloads=$3 seconds=$4
if [ "$pairs" -lt 10 ]; then
	echo "bench-ab: $pairs pairs cannot support a claim; run at least 10" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM
mkdir "$tmp/parent"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"

# run <side> <dir>: one invocation, appended to that side's results file.
run() {
	(cd "$2" && go run ./bench -workload "$workloads" -seconds "$seconds" -json "$tmp/$1.json" >/dev/null)
}
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$tmp/parent"
		run change "$root"
	else
		run change "$root"
		run parent "$tmp/parent"
	fi
	echo "bench-ab: pair $i/$pairs" >&2
	i=$((i + 1))
done
cd "$root"
go run ./bench -compare "$tmp/parent.json" "$tmp/change.json"
