#!/bin/sh
# The console-script checks: reach the [project.scripts] entry point the way
# a user does (the tests call cli.run in process) and check each exit code.
# Usage: sh ci/console.sh SCRATCH_DIR, with `scvoting` on PATH; the files the
# commands write go to SCRATCH_DIR.
set -e
tmp=${1:?usage: sh ci/console.sh SCRATCH_DIR}
scvoting gen --model uniform --seed 7 --voters 6 --sizes 3,3 --quotas 1,1 --p 0.5 -o "$tmp/gen.json"
scvoting validate "$tmp/gen.json"
scvoting --json solve --rule greedy "$tmp/gen.json"
scvoting --json solve --rule sw-pav "$tmp/gen.json"
scvoting --json solve --rule iw-pav "$tmp/gen.json"
# a parsed encoding, then a document that declares a name twice (exit 2)
echo '{"ground": 4, "subsets": [[0, 1], [1, 2], [2, 3], [3, 0]], "budget": 2}' > "$tmp/cover.json"
scvoting encode-setcover "$tmp/cover.json" -o "$tmp/encoded.json"
scvoting --json exists --axiom sw-jr "$tmp/encoded.json"
echo '{"voters": 1, "subsets": [{"name": "C1", "candidates": ["a"], "quota": 1}, {"name": "C2", "candidates": ["a"], "quota": 1}], "ballots": [["a"]]}' > "$tmp/twice.json"
code=0; scvoting validate "$tmp/twice.json" || code=$?
test "$code" -eq 2
# the other exit codes run picks: a usage error (1), an enumeration
# budget below the 6 committees of the encoding (4), and the same
# cover with budget 1, which has no cover (3)
code=0; scvoting gen --model uniform --seed 7 || code=$?
test "$code" -eq 1
code=0; scvoting --json exists --axiom sw-jr --budget 1 "$tmp/encoded.json" || code=$?
test "$code" -eq 4
echo '{"ground": 4, "subsets": [[0, 1], [1, 2], [2, 3], [3, 0]], "budget": 1}' > "$tmp/cover1.json"
scvoting encode-setcover "$tmp/cover1.json" -o "$tmp/encoded1.json"
code=0; scvoting exists --axiom sw-jr "$tmp/encoded1.json" || code=$?
test "$code" -eq 3
