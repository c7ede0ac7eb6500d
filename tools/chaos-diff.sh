#!/usr/bin/env bash
# Shows that the working tree runs the same executions as revision REV:
# builds the `chaos` binary at REV and at the working tree, writes
# `chaos --digest --seeds 500` from each, and `cmp`s the two outputs.
#
#   tools/chaos-diff.sh REV
#
# REV is exported with `git archive` into a temporary directory (under
# $TMPDIR, default /tmp), removed on exit. Each build has its own target
# directory there, so neither a stale binary nor the working tree's
# build cache can stand in for the code under test. Exits 0 when the
# outputs are identical; otherwise prints the first line that differs
# and exits 1.
set -euo pipefail

rev=${1:?usage: tools/chaos-diff.sh REV}
root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/chaos-diff.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

echo "building chaos at $rev ($sha) in $tmp" >&2
mkdir "$tmp/src"
git -C "$root" archive "$sha" | tar -x -C "$tmp/src"
cargo build --release --quiet -p prever-bench --bin chaos \
    --manifest-path "$tmp/src/Cargo.toml" --target-dir "$tmp/base"
echo "building chaos at the working tree" >&2
cargo build --release --quiet -p prever-bench --bin chaos \
    --manifest-path "$root/Cargo.toml" --target-dir "$tmp/head"

echo "running --digest --seeds 500 on both" >&2
"$tmp/base/release/chaos" --digest --seeds 500 > "$tmp/base.txt"
"$tmp/head/release/chaos" --digest --seeds 500 > "$tmp/head.txt"

lines=$(wc -l < "$tmp/head.txt")
if cmp -s "$tmp/base.txt" "$tmp/head.txt"; then
    echo "identical: $lines lines" >&2
    exit 0
fi
first=$(cmp "$tmp/base.txt" "$tmp/head.txt" 2>/dev/null | sed -n 's/.* line \([0-9]*\).*/\1/p' || true)
if [[ -z "$first" ]]; then
    # `cmp` reports EOF instead of a line when one output is a prefix of
    # the other.
    first=$(( $(wc -l < "$tmp/base.txt") < lines ? $(wc -l < "$tmp/base.txt") + 1 : lines + 1 ))
fi
echo "outputs differ; first difference at line $first:" >&2
echo "  $rev: $(sed -n "${first}p" "$tmp/base.txt")" >&2
echo "  working tree: $(sed -n "${first}p" "$tmp/head.txt")" >&2
exit 1
