#!/bin/sh
# Net Rust LOC, the figure every simplicity PR reports in CHANGES.md: lines
# under crates/*/src that are not blank, not `//` comments, and not at or
# after the file's first `#[cfg(test)]`. Prints one line per crate, a total,
# and one line per file named as an argument (path relative to the repo).
# Informational — it never fails a build.
#
#   tests/loc.sh [crates/sqldb/src/table.rs ...]
cd "$(dirname "$0")/.." || exit 1
find crates/*/src -name '*.rs' | sort | xargs awk -v want=" $* " '
    FNR == 1 { in_tests = 0 }
    /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[ \t]*$/ || /^[ \t]*\/\// { next }
    {
        split(FILENAME, part, "/")
        crate[part[2]]++
        total++
        if (index(want, " " FILENAME " ")) file[FILENAME]++
    }
    END {
        for (c in crate) printf "%-12s %6d\n", c, crate[c] | "sort"
        close("sort")
        printf "%-12s %6d\n", "total", total
        for (f in file) printf "%s %d\n", f, file[f]
    }
'
