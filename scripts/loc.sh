#!/bin/sh
# loc.sh [parent-rev] — non-test Go lines per package and in total, so "this
# change is net-negative" is a number. Lines are raw `wc -l` lines of *.go
# files that are not *_test.go. bench/ (the frozen benchmark harness) is
# reported separately and left out of the total. Given a revision, its
# committed files are extracted with `git archive` (as bench_ab.sh does) and
# each row reads before -> after -> delta against the working tree.
set -eu
root=$(git rev-parse --show-toplevel)

# tally <tree>: "<lines> <package dir>" per package with non-test Go files.
tally() {
	(cd "$1" && find . -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u |
		while read -r dir; do
			n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
			echo "$n ${dir#./}"
		done)
}

if [ $# -eq 0 ] || [ -z "$1" ]; then
	tally "$root" | awk '
		$2 == "bench" || $2 ~ /^bench\// { bench += $1; next }
		{ printf "%7d  %s\n", $1, $2; total += $1 }
		END {
			printf "%7d  total (non-test Go, bench/ excluded)\n", total
			printf "%7d  bench/\n", bench
		}'
	exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM
mkdir "$tmp/parent"
git -C "$root" archive "$1" | tar -x -C "$tmp/parent"
{
	tally "$tmp/parent" | sed 's/^/a /'
	tally "$root" | sed 's/^/b /'
} | awk -v rev="$1" '
	{ side = $1; pkg = $3; if ($3 == "bench" || $3 ~ /^bench\//) pkg = "bench/" }
	side == "a" { before[pkg] += $2 }
	side == "b" { after[pkg] += $2 }
	{ seen[pkg] = 1 }
	function row(name, a, b) { printf "%7d -> %7d  %+6d  %s\n", a, b, b - a, name }
	END {
		n = 0
		for (p in seen) if (p != "bench/") names[++n] = p
		for (i = 2; i <= n; i++) # insertion sort: awk has no portable sort
			for (j = i; j > 1 && names[j] < names[j-1]; j--) { t = names[j]; names[j] = names[j-1]; names[j-1] = t }
		printf " before ->   after   delta  package (before = %s)\n", rev
		for (i = 1; i <= n; i++) {
			p = names[i]; ta += before[p]; tb += after[p]
			row(p, before[p], after[p])
		}
		row("total (non-test Go, bench/ excluded)", ta, tb)
		row("bench/", before["bench/"], after["bench/"])
	}'
