#!/usr/bin/env bash
# Check that the working tree's seeded pipeline outputs are byte-identical to
# those of a git revision: archive REV into a temporary directory, run
# tools/e2e_outputs.sh on its src/ and on the working tree's, and compare the
# two output trees with `diff -r`. Before the diff it prints the lines of
# src/ added and removed against REV, and their net (`git diff --numstat`
# of the working tree's tracked files).
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
git -C "$root" diff --numstat "$1" -- src/ | awk -v rev="$1" '
    { added += $1; removed += $2 }
    END { printf "src/ lines against %s: +%d -%d, net %+d\n", rev, added, removed, added - removed }'
diff -r "$tmp/out_rev" "$tmp/out_tree"
echo "outputs of $1 and the working tree are identical"
