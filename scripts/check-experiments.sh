#!/usr/bin/env bash
# Checks that EXPERIMENTS.md quotes its experiment binaries verbatim.
#
# A fenced block that follows a line of the form
#
#     Verbatim output of `<command>`:
#
# is part of that command's output. For each labelled command the
# script runs `target/release/<command>` once and requires its output
# to equal the command's blocks joined in document order, blank lines
# dropped on both sides. So a block may quote one section of the output,
# but together the blocks must quote all of it. Unlabelled blocks
# (measured timings, command listings) are not checked.
#
# Usage: scripts/check-experiments.sh   (build with
# `cargo build --release --workspace` first)
#
# Exits 1 on any difference, printing it as a diff (document first).

set -euo pipefail
cd "$(dirname "$0")/.."
doc=EXPERIMENTS.md
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Writes each labelled command's quoted lines to $tmp/<n>.doc and the
# command itself, in first-seen order, to $tmp/commands.
awk -v dir="$tmp" '
    function fail(msg) { printf "%s:%d: %s\n", FILENAME, NR, msg > "/dev/stderr"; bad = 1; exit 1 }
    /^```/ {
        if (inblock) { inblock = 0; cur = ""; next }
        inblock = 1
        if (pending != "") { cur = pending; pending = "" }
        next
    }
    inblock {
        if (cur != "" && $0 !~ /^[ \t]*$/) print > (dir "/" id[cur] ".doc")
        next
    }
    /^Verbatim output of `[^`]+`:$/ {
        if (pending != "") fail("label without a block")
        pending = $0
        sub(/^Verbatim output of `/, "", pending)
        sub(/`:$/, "", pending)
        if (!(pending in id)) { id[pending] = ++n; print pending > (dir "/commands") }
        next
    }
    pending != "" && $0 !~ /^[ \t]*$/ { fail("label `" pending "` is not followed by a block") }
    END {
        if (bad) exit 1
        if (inblock) fail("unterminated block")
        if (pending != "") fail("label without a block")
        if (n == 0) fail("no labelled block")
    }
' "$doc"

status=0
n=0
while IFS= read -r cmd; do
    n=$((n + 1))
    read -ra words <<< "$cmd"
    bin="target/release/${words[0]}"
    if [ ! -x "$bin" ]; then
        echo "$doc: \`$cmd\`: no $bin (build with cargo build --release --workspace)" >&2
        exit 1
    fi
    "$bin" "${words[@]:1}" | grep -v '^[[:space:]]*$' > "$tmp/$n.out"
    if diff -u --label "$doc ($cmd)" --label "$cmd" "$tmp/$n.doc" "$tmp/$n.out"; then
        echo "ok: $cmd ($(wc -l < "$tmp/$n.out") lines)"
    else
        status=1
    fi
done < "$tmp/commands"
exit "$status"
