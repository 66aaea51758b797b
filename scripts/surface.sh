#!/usr/bin/env bash
# Prints each crate's size and public surface: its non-test Rust lines
# (counted as ROADMAP counts them: the lines of each file under `src/`
# before its first `#[cfg(test)]`), and how many of those lines declare
# a `pub` item and how many a `pub(crate)` one. It gates nothing.
# Run from anywhere: scripts/surface.sh
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%-12s %7s %5s %10s\n' crate lines pub 'pub(crate)'
total_lines=0 total_pub=0 total_crate=0
for dir in crates/*/ ./; do
    name=$(basename "$dir")
    [ "$dir" = ./ ] && name=facade
    read -r lines pubs crates < <(
        find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
            FNR == 1 { live = 1 }
            /#\[cfg\(test\)\]/ { live = 0 }
            live { lines++ }
            live && /^[ \t]*pub[ \t]/ { pubs++ }
            live && /^[ \t]*pub\(crate\)/ { crates++ }
            END { print lines + 0, pubs + 0, crates + 0 }'
    )
    printf '%-12s %7d %5d %10d\n' "$name" "$lines" "$pubs" "$crates"
    total_lines=$((total_lines + lines))
    total_pub=$((total_pub + pubs))
    total_crate=$((total_crate + crates))
done
printf '%-12s %7d %5d %10d\n' total "$total_lines" "$total_pub" "$total_crate"
