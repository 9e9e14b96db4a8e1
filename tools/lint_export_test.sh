#!/usr/bin/env bash
# The invariant linter must pass on a source export (ctest label `lint`): a
# copy of the tree with no .git, holding the build/ tree that the tier-1
# build command leaves behind. Without git metadata there is no history for
# no-committed-build-dir to judge, so the scan must be clean.
# Usage: lint_export_test.sh <repo-root> <python3>
set -euo pipefail

ROOT="$1"
PYTHON="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

# The whole tree, as an export holds it: everything but .git and the
# root-level build trees.
tar -C "${ROOT}" --anchored --exclude=./.git --exclude='./build*' -cf - . |
  tar -C "${WORK}" -xf -
mkdir "${WORK}/build"
echo "# This is the CMakeCache file." > "${WORK}/build/CMakeCache.txt"

"${PYTHON}" "${ROOT}/tools/check_invariants.py" --root "${WORK}"
