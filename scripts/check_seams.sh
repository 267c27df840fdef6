#!/bin/sh
# check_seams.sh — the rule for crossing a simulation-domain boundary lives
# in internal/sim and nowhere else (DESIGN.md §3e): code in a domain reaches
# another through sim.Hop, an outside goroutine enters through sim.Inject.
# Fails when a non-test Go file outside internal/sim (bench/, the frozen
# benchmark harness, aside) posts across domains itself, or when one of the
# retired doorways reappears.
set -eu
cd "$(git rev-parse --show-toplevel)"
status=0
bad() { # bad <message> <matching lines>
	if [ -n "$2" ]; then
		printf '%s\n%s\n' "check_seams: $1" "$2" >&2
		status=1
	fi
}
files=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/sim/*' ! -path './bench/*')
# shellcheck disable=SC2086
bad "cross-domain post outside internal/sim (use Simulator.Hop)" \
	"$(grep -n '\.PostTo(' $files || true)"
# shellcheck disable=SC2086
bad "retired doorway (use Simulator.Inject / ops.Driver.Do)" \
	"$(grep -nE '\) DoIn\(|\.DoIn\(|[Cc]oord(inator)?\.Post\(' $files || true)"
bad "retired doorway in internal/sim" \
	"$(grep -nE 'func \(c \*Coordinator\) Post\(|ctlPost|drainPosted' internal/sim/*.go || true)"
exit $status
