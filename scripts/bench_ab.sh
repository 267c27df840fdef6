#!/bin/sh
# bench_ab.sh <parent-rev> <pairs> <workloads> <seconds>
#
# A/B the GQ benchmark: the committed files of <parent-rev> against this
# working tree. Each side's benchmark is built once (`go build -o`), the
# parent's from a `git archive` extract in a temporary directory, so neither
# side's checkout nor .git is touched. The two binaries then run as
# alternating pairs (parent first on odd pairs, the change first on even
# ones), each side's runs appended to its own -json file. An empty
# <workloads> runs all of them.
#
# Then `bench -compare` judges the bounds and the same-seed simulation, and
# scripts/abstat pairs the runs by index: both medians, pairs won and the
# parent's interquartile range, per workload and end-to-end metric.
#
# Environment:
#   AB_SEED=7      the seed both sides run at (default 1)
#   AB_OUT=dir     keep parent.json and change.json in dir (default: removed)
#   CLAIM=flow_churn:alloc_mb:15
#                  print the claim rule's verdict for that workload and metric:
#                  at least that many percent better, at least 9 of 10 pairs
#                  won, a median gain larger than the parent's IQR
set -eu
if [ $# -ne 4 ]; then
	echo "usage: $0 <parent-rev> <pairs> <workloads> <seconds>" >&2
	exit 2
fi
parent=$1 pairs=$2 workloads=$3 seconds=$4
seed=${AB_SEED:-1}
if [ "$pairs" -lt 10 ]; then
	echo "bench-ab: $pairs pairs cannot support a claim; run at least 10" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM
out=${AB_OUT:-$tmp}
mkdir -p "$out" "$tmp/parent"
out=$(cd "$out" && pwd)
rm -f "$out/parent.json" "$out/change.json"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
(cd "$tmp/parent" && go build -o "$tmp/bench-parent" ./bench)
(cd "$root" && go build -o "$tmp/bench-change" ./bench && go build -o "$tmp/abstat" ./scripts/abstat)

# run <side> <dir>: one invocation in its own tree, appended to that side's
# results file.
run() {
	(cd "$2" && "$tmp/bench-$1" -seed "$seed" -workload "$workloads" -seconds "$seconds" -json "$out/$1.json" >/dev/null)
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
	echo "bench-ab: pair $i/$pairs (seed $seed)" >&2
	i=$((i + 1))
done
cd "$root"
status=0
"$tmp/bench-change" -compare "$out/parent.json" "$out/change.json" || status=$?
echo
"$tmp/abstat" ${CLAIM:+-claim "$CLAIM"} "$out/parent.json" "$out/change.json" || status=$?
exit $status
