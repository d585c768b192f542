#!/bin/sh
# The north star's tracked number (ROADMAP.md): non-test lines of the three
# crates a search or an ingest runs through — every line of
# crates/{query,cluster,index}/src/*.rs above the file's first top-level
# `#[cfg(test)]` (the line that opens its test modules).
# Prints the count per crate and in total; with --check (CI) it also fails
# when the total is above CEILING. The count should only go down: a PR that
# lowers it lowers CEILING to its result in the same change.
set -eu
CEILING=14235
cd "$(dirname "$0")/.."
total=0
for crate in query cluster index; do
    lines=$(awk 'FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }' \
        crates/$crate/src/*.rs)
    printf '%-8s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-8s %6d  (ceiling %d)\n' total "$total" "$CEILING"
if [ "${1:-}" = --check ] && [ "$total" -gt "$CEILING" ]; then
    echo "tracked lines grew past the ceiling: $total > $CEILING" >&2
    exit 1
fi
