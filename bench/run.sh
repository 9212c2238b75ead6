#!/usr/bin/env bash
# One command for the end-to-end study benchmark (see bench/README.md):
#
#   bench/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick]
#   bench/run.sh selfcheck [--seed S] [--seconds N] [--quick]
#
# Builds the driver from bench/Cargo.toml (its own workspace and lockfile,
# offline) and runs it from the checkout root. Prints every metric as
# `workload name value unit`, writes bench/out/<workload>.json (or
# trace-<workload>.json), and exits non-zero on any correctness check.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- "$@"
