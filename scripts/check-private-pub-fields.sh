#!/usr/bin/env bash
# Fails on a `pub` field of a struct that is not itself `pub`.
#
#   scripts/check-private-pub-fields.sh [dir...]    (default: crates src shims)
#
# rustc's `unreachable_pub` lint flags unreachable `pub` items but not the
# `pub` fields of a private or `pub(crate)` struct, which nothing outside the
# crate can reach either. Such a field says `pub` and means `pub(crate)`; this
# script finds them, one `file:line: field` per finding, and exits 1 if there
# is any. It reads rustfmt-formatted code: a struct body ends at the first
# `}` indented like its `struct` line.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
[[ $# -gt 0 ]] || set -- crates src shims

found=$(find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { head = 0; body = 0 }
    # A struct declared with restricted or no visibility.
    !head && !body && /^[ \t]*(pub\([^)]*\) +)?struct [A-Za-z0-9_]+/ {
        indent = $0
        sub(/[^ \t].*/, "", indent)
        head = 1
    }
    # Its header, up to the `{` of a named-field body or the `;` of a
    # tuple or unit struct; a tuple field is `pub` right after `(` or `,`.
    head {
        if ($0 ~ /[(,][ \t]*pub /) {
            print FILENAME ":" FNR ": " $0
        }
        if ($0 ~ /\{[ \t]*$/) {
            head = 0
            body = 1
        } else if ($0 ~ /;[ \t]*$/) {
            head = 0
        }
        next
    }
    body && $0 == indent "}" { body = 0; next }
    body && /^[ \t]*pub +[A-Za-z0-9_]+ *:/ { print FILENAME ":" FNR ": " $0 }
')

if [[ -n "$found" ]]; then
    echo "pub fields of structs that are not pub (make them pub(crate)):" >&2
    echo "$found" >&2
    exit 1
fi
