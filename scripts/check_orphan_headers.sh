#!/bin/sh
# Orphan-header guard: fails when a header under src/ is included by no
# library, bench, example or perfbench file other than its own .cc. Such a
# header (and its .cc) is reached only by tests, so it is dead library
# code; keep a test-only oracle under tests/ instead.
#
# Usage: scripts/check_orphan_headers.sh   (from the repository root)
set -eu

status=0
for path in $(find src -name '*.h' | sort); do
  header=${path#src/}
  own="src/${header%.h}.cc"
  if ! grep -rlF "#include \"$header\"" src bench examples perfbench \
         --include='*.h' --include='*.cc' --include='*.cpp' \
       | grep -vxF "$own" | grep -q .; then
    echo "orphan header: $path (included by no library, bench, example or perfbench file)" >&2
    status=1
  fi
done
exit $status
