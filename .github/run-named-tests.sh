#!/usr/bin/env bash
# Runs named tests of one package and fails if any name is not a test,
# benchmark or fuzz target there. `go test -run` (and `-fuzz`) with a
# pattern that matches nothing exits 0, so without this check a renamed or
# retired test would drop out of a CI step unnoticed.
#
# Usage: run-named-tests.sh PKG NAME... [-- GO_TEST_FLAG...]
#
# Test names run together as one anchored -run pattern. A single Fuzz name
# runs as the fuzz target instead, with no unit tests; pass -fuzztime and
# other flags after --.
set -euo pipefail

pkg=$1
shift
names=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
	names+=("$1")
	shift
done
[ $# -gt 0 ] && shift # the --
[ ${#names[@]} -gt 0 ] || { echo "usage: $0 PKG NAME... [-- GO_TEST_FLAG...]" >&2; exit 2; }

listed=$(go test -list '.*' "$pkg")
for name in "${names[@]}"; do
	if ! grep -qx -- "$name" <<<"$listed"; then
		echo "$pkg has no test named $name" >&2
		exit 1
	fi
done

pattern="^($(IFS='|'; echo "${names[*]}"))\$"
if [ ${#names[@]} -eq 1 ] && [[ ${names[0]} == Fuzz* ]]; then
	exec go test -run '^$' -fuzz "$pattern" "$@" "$pkg"
fi
exec go test -run "$pattern" "$@" "$pkg"
