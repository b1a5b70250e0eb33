#!/bin/sh
# The offline steps of the CI workflow, one per call, so that a local run
# runs the commands the workflow runs.
# Usage: sh ci/run.sh STEP [SCRATCH_DIR], from the root of the repository.
# STEP is lines, tier1, console, mutants, bench-tests, smoke, second-seed,
# or all (each of those in turn); console, mutants, smoke and second-seed
# write their files to SCRATCH_DIR, which the other steps may leave empty.
# Every command runs the first python on PATH; to run the steps on another
# interpreter, put its directory first on PATH.
# Not here: the install step, which fetches its build backend. The console
# step runs ci/console.sh through a shim for the entry point, so it needs
# no install; the workflow runs the same checks on the installed one.
set -e
usage="usage: sh ci/run.sh lines|tier1|console|mutants|bench-tests|smoke|second-seed|all [SCRATCH_DIR]"
step=${1:?$usage}
tmp=${2:-}

case $step in
lines)
    # printed only, gating nothing: the line budget in ROADMAP.md and
    # every CHANGES.md entry are measured in these lines
    wc -l src/scvoting/*.py
    ;;
tier1)
    # the slowest tests (the hypothesis round trips and differentials) are
    # named in the log, so a slowdown in an exponential path shows early;
    # the 2,000-seat maximize pins its node counts instead; -X dev
    # turns on the interpreter's debug checks, such as warnings for files
    # never closed (the benchmark steps run without it)
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -X dev -m pytest -q --continue-on-collection-errors --durations=10
    ;;
console)
    : "${tmp:?$usage}"
    # an `scvoting` on PATH that runs the package as `python -m scvoting`,
    # which calls the entry point's function, cli.main
    mkdir -p "$tmp/bin"
    printf '#!/bin/sh\nexec python -m scvoting "$@"\n' > "$tmp/bin/scvoting"
    chmod +x "$tmp/bin/scvoting"
    PATH="$tmp/bin:$PATH" PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} sh ci/console.sh "$tmp"
    ;;
mutants)
    : "${tmp:?$usage}"
    # every kept mutant of a fast path must fail the tests it names, which
    # first pass on an unmutated copy of src/ and tests/ under SCRATCH_DIR
    TMPDIR="$tmp" python mutants/run.py
    ;;
bench-tests)
    python -m pytest -q perfbench/tests
    ;;
smoke)
    : "${tmp:?$usage}"
    # every workload must report correct results; the timings are not judged here
    python perfbench/run.py --workload all --seconds 2 --trace 0 > "$tmp/bench.out"
    cat "$tmp/bench.out"
    tail -n 1 "$tmp/bench.out" | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
    ;;
second-seed)
    : "${tmp:?$usage}"
    # four workloads on other random inputs; the timings are not judged
    # here, and a wrong answer in any of them fails the step:
    # - exists: random encodings, each answer checked against the cover oracle
    # - optimize: random instances, each committee re-scored and its score checked
    # - audit: random instances, every verdict's witness re-validated and
    #   greedy's two guarantees checked
    # - cli: scvoting.cli.run in process on generated files; each exit code,
    #   --json output and written file checked against the library's own
    #   answer, and every check verdict's witness re-validated
    for workload in exists optimize audit cli; do
        python perfbench/run.py --workload "$workload" --seed 7 --seconds 2 --trace 0 > "$tmp/$workload.out"
        cat "$tmp/$workload.out"
        tail -n 1 "$tmp/$workload.out" | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
    done
    ;;
all)
    for each in lines tier1 console mutants bench-tests smoke second-seed; do
        echo "== $each"
        sh "$0" "$each" "$tmp"
    done
    ;;
*)
    echo "$usage" >&2
    exit 1
    ;;
esac
