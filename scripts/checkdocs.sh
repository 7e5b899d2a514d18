#!/bin/sh
# checkdocs.sh — run the repository's documentation checks locally:
#
#   - godoc coverage: every exported identifier in internal/store,
#     internal/wire, and internal/repl carries a doc comment
#   - markdown links: every relative link in every *.md resolves
#   - flag coverage: every eyewnder-server / -sim / -eval flag is
#     mentioned in README.md, and every flag a README flag-table row
#     names is defined by some cmd/ binary
#   - package guide: every internal/ package has an entry in
#     internal/README.md
#
# CI's docs job runs exactly this script; the lint job additionally
# runs the godoc check on its own. The checks are plain Go tests in
# internal/docscheck — hermetic, no network, no extra tools.
set -eu
cd "$(dirname "$0")/.."
exec go test -count=1 -v ./internal/docscheck/
