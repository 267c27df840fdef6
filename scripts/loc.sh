#!/bin/sh
# loc.sh — non-test Go lines per package and in total, so "this change is
# net-negative" is a number. Lines are raw `wc -l` lines of *.go files that
# are not *_test.go. bench/ (the frozen benchmark harness) is reported
# separately and left out of the total.
set -eu
cd "$(git rev-parse --show-toplevel)"
count() { # count <dir>: lines of the non-test Go files directly in <dir>
	find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}
total=0 bench=0
for dir in $(find . -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u); do
	n=$(count "$dir")
	case "$dir" in
	./bench | ./bench/*) bench=$((bench + n)) ;;
	*)
		printf '%7d  %s\n' "$n" "${dir#./}"
		total=$((total + n))
		;;
	esac
done
printf '%7d  total (non-test Go, bench/ excluded)\n' "$total"
printf '%7d  bench/\n' "$bench"
