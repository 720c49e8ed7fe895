#!/bin/sh
# Prints the size of the library the way ROADMAP.md quotes it: the
# non-blank lines of src/**/*.{hpp,cpp} that do not start (after
# indentation) with a // comment. Run from anywhere inside the repo:
#   scripts/src_lines.sh
set -eu
cd "$(dirname "$0")/.."
find src \( -name '*.hpp' -o -name '*.cpp' \) -print0 |
  xargs -0 cat |
  grep -v '^[[:space:]]*$' |
  grep -cv '^[[:space:]]*//'
