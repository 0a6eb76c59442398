#!/usr/bin/env bash
# Non-test Rust line count: the measure of ROADMAP aim 2 ("the same
# behaviour and speed from less code").
# For each tracked crates/*/src/**/*.rs it counts the lines before the first
# line whose trimmed text starts with `#[cfg(test)]`, skipping blank lines and
# lines whose trimmed text starts with `//` (comments and doc comments).
# Prints each file's count, then each crate's subtotal, then the total.
# Run from anywhere; the script cd's to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -d '' files < <(git ls-files -z ':(glob)crates/*/src/**/*.rs')
awk '
    FNR == 1 { files[++nfiles] = FILENAME; lines[FILENAME] = 0; in_tests = 0 }
    in_tests { next }
    {
        t = $0
        sub(/^[ \t]+/, "", t)
        sub(/[ \t\r]+$/, "", t)
    }
    t ~ /^#\[cfg\(test\)\]/ { in_tests = 1; next }
    t == "" || t ~ /^\/\// { next }
    { lines[FILENAME]++ }
    END {
        for (i = 1; i <= nfiles; i++) {
            f = files[i]
            printf "%7d  %s\n", lines[f], f
            split(f, part, "/")
            if (!(part[2] in crate)) order[++ncrates] = part[2]
            crate[part[2]] += lines[f]
            total += lines[f]
        }
        print ""
        for (i = 1; i <= ncrates; i++) printf "%7d  %s\n", crate[order[i]], order[i]
        printf "%7d  total, %d files\n", total, nfiles
    }' "${files[@]}"
