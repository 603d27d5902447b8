#!/usr/bin/env bash
# Standalone runner for the project-specific static-analysis suite
# (internal/lint, docs/ANALYSIS.md). Arguments are passed through to
# easyhps-vet, so `scripts/lint.sh -rules lock-hierarchy ./internal/fleet`
# or `scripts/lint.sh -json` (machine-readable) work; with no arguments the
# whole repository is checked, exactly as scripts/ci.sh does.
set -euo pipefail
cd "$(dirname "$0")/.."

exec go run ./cmd/easyhps-vet "$@"
