#!/bin/sh
# examples_check.sh [-update] — build the programs under examples/, run each
# once, and compare the SHA-256 of its stdout and its exit status with the
# line pinned for it in examples/testdata/stdout.sha256. Every example runs a
# seeded farm on the discrete-event simulator, so its output is byte-stable;
# a mismatch names the example and exits 1. With -update the file is
# rewritten from this run instead. Run from anywhere in the repository
# (make examples).
set -eu
root=$(git rev-parse --show-toplevel)
pins="$root/examples/testdata/stdout.sha256"
update=0
case "${1:-}" in
-update) update=1 ;;
"") ;;
*)
	echo "usage: $0 [-update]" >&2
	exit 2
	;;
esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM

(cd "$root" && go build -o "$tmp/bin/" ./examples/...)

# One line per example: "<sha256 of stdout> <exit status> <name>".
for dir in "$root"/examples/*/; do
	name=$(basename "$dir")
	[ -x "$tmp/bin/$name" ] || continue
	status=0
	(cd "$tmp" && "$tmp/bin/$name" >"$tmp/$name.out" 2>/dev/null) || status=$?
	sum=$(sha256sum <"$tmp/$name.out" | cut -d' ' -f1)
	echo "$sum $status $name"
done >"$tmp/got"

if [ "$update" = 1 ]; then
	mkdir -p "$(dirname "$pins")"
	cp "$tmp/got" "$pins"
	echo "examples: wrote $(wc -l <"$pins") digests to examples/testdata/stdout.sha256"
	exit 0
fi

[ -f "$pins" ] || {
	echo "examples: $pins is missing; run $0 -update" >&2
	exit 1
}
fail=0
while read -r sum status name; do
	want=$(awk -v n="$name" '$3 == n { print $1 " " $2 }' "$pins")
	if [ -z "$want" ]; then
		echo "examples: $name: no pinned digest" >&2
		fail=1
	elif [ "$want" != "$sum $status" ]; then
		echo "examples: $name: stdout sha256/exit $sum $status, pinned $want" >&2
		fail=1
	fi
done <"$tmp/got"
while read -r _ _ name; do
	grep -q " $name\$" "$tmp/got" || {
		echo "examples: $name: pinned but not built" >&2
		fail=1
	}
done <"$pins"
[ "$fail" = 0 ] || exit 1
echo "examples: $(wc -l <"$tmp/got") outputs match"
