#!/bin/bash
# The repository benchmark: builds bench/suite into build-bench/ and
# runs it.  See bench/suite/README.md, or run.sh --help.
#
#   bench/suite/run.sh                      all workloads, pinned seeds
#   bench/suite/run.sh --agree A B          compare two result sets
#   bench/suite/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
exec python3 "$(dirname "$0")/runner.py" "$@"
