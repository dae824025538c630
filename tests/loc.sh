#!/bin/sh
# Net Rust LOC, the figure every simplicity PR reports in CHANGES.md: lines
# under crates/*/src that are not blank, not `//` comments, and not in a
# file's test module — from a `#[cfg(test)]` that is on a `mod name {` item
# to the end of the file. A `#[cfg(test)]` on anything else (a helper among
# the code) hides nothing; on a `mod name;` it hides that line. Prints one
# line per crate, a total, and one line per file named as an argument (path
# relative to the repo). Informational — it never fails a build.
#
#   tests/loc.sh [crates/sqldb/src/table.rs ...]
cd "$(dirname "$0")/.." || exit 1
find crates/*/src -name '*.rs' | sort | xargs awk -v want=" $* " '
    function count(n) {
        split(FILENAME, part, "/")
        crate[part[2]] += n
        total += n
        if (index(want, " " FILENAME " ")) file[FILENAME] += n
    }
    FNR == 1 { in_tests = 0; held = 0 }
    in_tests || /^[ \t]*$/ || /^[ \t]*\/\// { next }
    # A `#[cfg(test)]` and the attributes after it wait for their item.
    /^[ \t]*#\[cfg\(test\)\]/ || (held && /^[ \t]*#\[/) { held++; next }
    held && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/ { in_tests = 1; next }
    held && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ { held = 0; next }
    held { count(held); held = 0 }
    { count(1) }
    END {
        for (c in crate) printf "%-12s %6d\n", c, crate[c] | "sort"
        close("sort")
        printf "%-12s %6d\n", "total", total
        for (f in file) printf "%s %d\n", f, file[f]
    }
'
