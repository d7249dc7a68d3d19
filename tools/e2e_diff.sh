#!/usr/bin/env bash
# Check that the working tree's seeded pipeline outputs are byte-identical to
# those of a git revision: archive REV into a temporary directory, run
# tools/e2e_outputs.sh on its src/ and on the working tree's, and compare the
# two output trees with `diff -r`.
#
# Usage: tools/e2e_diff.sh REV
#   REV  any git revision of this repository (a commit, branch or tag)
#
# Exits 0 when every output is identical, 1 when any differs (diff prints
# what), and 2 on a usage error. The temporary directory (under $TMPDIR) is
# removed on exit.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git -C "$root" archive "$1" | tar -x -C "$tmp/rev"
"$root/tools/e2e_outputs.sh" "$tmp/rev/src" "$tmp/out_rev"
"$root/tools/e2e_outputs.sh" "$root/src" "$tmp/out_tree"
diff -r "$tmp/out_rev" "$tmp/out_tree"
echo "outputs of $1 and the working tree are identical"
