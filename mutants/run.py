"""Apply each kept mutant to a copy of the library and check that its tests catch it.

    python mutants/run.py

Run from any directory.  Each mutant is one edit of one file under
``src/scvoting``: an exact source text, which must occur there exactly once,
and its replacement.  The runner copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory (``tempfile``'s, so ``TMPDIR``
places it) and there runs every mutant's tests with hypothesis seed 1:

    python -m pytest -q -x -p no:cacheprovider --hypothesis-seed=1 TEST_ID ...

First all of them on the unmutated copy, which must pass (exit 0), or no
result below could tell a caught mutant from a broken copy; then, for each
mutant in turn, the mutant's own tests with its edit made and undone after.
Exit 1 (a test failed) counts as caught, exit 0 as missed, and anything
else, a collection error or a run past ``TIMEOUT_S`` included, as an error.
One line per mutant gives its name, its result and its seconds; the runner
exits 1 on any miss or error, and stops at once, with exit 2, when the
unmutated run fails or a text does not occur exactly once.  Nothing in the
working tree changes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

PERMUTED_VOTERS = ("tests/test_metamorphic.py::"
                   "test_permuting_voters_keeps_every_verdict_with_renumbered_witness_voters")
RELABELLING = ("tests/test_metamorphic.py::"
               "test_relabelling_candidates_keeps_every_verdict_score_and_existence_answer")
REPEATED_NAME = "tests/test_core.py::test_a_name_repeated_within_a_ballot_counts_once"

# (name, file, exact text, replacement, the test ids that must catch it)
MUTANTS = [
    # voters past 64 are never unrepresented
    ("unrepresented-capped-at-64", "src/scvoting/axioms.py",
     "return ((1 << inst.num_voters) - 1) & ~represented",
     "return ((1 << min(inst.num_voters, 64)) - 1) & ~represented",
     [PERMUTED_VOTERS]),
    # a pool's capacity drop taken from its largest gain, not its smallest kept one
    ("capacity-drop-from-top-gain", "src/scvoting/search.py",
     "drops[j] = gains[left - 1]", "drops[j] = gains[0]", [RELABELLING]),
    # a later pool's floor sums one gain short of its quota
    ("later-pool-floor-short", "src/scvoting/pav.py",
     "reverse=True)[:quota])", "reverse=True)[:quota - 1])", [RELABELLING]),
    # the t >= 2 node cut one voter eager
    ("eager-t2-node-cut", "src/scvoting/search.py",
     "if most < size - t + 1:", "if most < size - t + 1 + (t >= 2):",
     ["tests/test_search.py::test_search_matches_enumeration_on_planted_deadlocks",
      "tests/test_metamorphic.py::test_cloning_keeps_the_existence_answer_on_planted_deadlocks"]),
    # the t >= 2 child cut one voter eager
    ("eager-t2-child-cut", "src/scvoting/search.py",
     "+ drops[j] >= bound:", "+ drops[j] >= bound - (t >= 2):",
     ["tests/test_search.py::test_search_matches_enumeration_on_planted_deadlocks"]),
    # the last parse out turns the collector on even when it was off
    ("collector-always-reenabled", "src/scvoting/core.py",
     "if not _pausing[0] and _pausing[1]:", "if not _pausing[0]:",
     ["tests/test_core.py::test_a_parse_leaves_the_collector_as_it_found_it"]),
    # the name-by-name pass adds a repeated name's bit twice
    ("name-pass-adds-bits", "src/scvoting/core.py",
     "rows[i] |= bit_of[name]", "rows[i] += bit_of[name]", [REPEATED_NAME]),
    # a repeated name is never looked for, so its carried sum is kept
    ("repeated-name-unchecked", "src/scvoting/core.py",
     "if sum(map(int.bit_count, rows)) == total:", "if True:", [REPEATED_NAME]),
    # a directly built ballot is frozen whatever it holds, merging 0.0 into 0
    ("every-ballot-frozen", "src/scvoting/core.py",
     "if isinstance(b, tuple) and all(map(int.__instancecheck__, b)) else b",
     "if isinstance(b, tuple) else b",
     ["tests/test_axioms.py::test_jr_wrapper_names_a_bad_ballot_id"]),
    # raw ballots are embedded with a quota of 1, whatever k is
    ("jr-embedding-quota-one", "src/scvoting/axioms.py",
     "tuple(range(num_candidates)), k),)", "tuple(range(num_candidates)), 1),)",
     ["tests/test_axioms.py::test_jr_wrapper_examples"]),
    # a mapping or a string subset entry is typed field by field, as a triple
    ("entry-shape-unchecked", "src/scvoting/core.py",
     "all(map(_listlike, map(type, subsets)))", "True",
     ["tests/test_contract.py::test_each_wrong_input_raises_the_error_its_contract_names"]),
    # validation writes the rows of an instance built from ids one bit off
    ("id-rows-one-bit-off", "src/scvoting/core.py",
     "sum(map((1).__lshift__, b))", "sum(map((2).__lshift__, b))",
     ["tests/test_core.py::test_validation_writes_the_rows_and_masks_of_an_instance_built_from_ids"]),
    # a party-list model reads its records but leaves the names in them unread
    ("model-names-unread", "src/scvoting/core.py",
     "tuple(map(_tupled, r)) if _listlike(type(r)) else r", "_tupled(r)",
     ["tests/test_core.py::test_a_party_list_model_reads_its_records_and_names_once"]),
    # of candidates tied on support, the last one wins
    ("last-maximum-wins", "src/scvoting/core.py",
     "if count > best_count:", "if count >= best_count:",
     ["tests/test_axioms.py::test_tied_support_breaks_to_lowest_id"]),
    # supporters exactly at n/k fall short of the size threshold
    ("size-threshold-strict", "src/scvoting/core.py",
     "best_count * quota < inst.num_voters", "best_count * quota <= inst.num_voters",
     ["tests/test_acceptance.py::test_criterion_1_unsatisfiable_span_wide_fixture"]),
    # the transpose drops column 63 of every word column
    ("lost-column-63", "src/scvoting/core.py",
     "min(64, width - 64 * w)", "min(63, width - 64 * w)",
     ["tests/test_axioms.py::test_weak_check_walks_thousands_of_subsets"]),
    # the transpose makes five of its six delta swaps
    ("dropped-swap", "src/scvoting/core.py",
     "for j in (32, 16, 8, 4, 2, 1))", "for j in (32, 16, 8, 4, 2))",
     ["tests/test_core.py::test_a_one_block_transpose_reads_the_columns_of_two_blocks"]),
    # the swap masks are tiled one block short
    ("tiled-one-block-short", "src/scvoting/core.py",
     "(blocks - copies)) - 1", "(blocks - copies - 1)) - 1",
     ["tests/test_core.py::test_rows_and_masks_match_a_naive_resolver[1-2100]"]),
    # a count plane ORs in the carry instead of adding it
    ("count-plane-carry-or", "src/scvoting/pav.py",
     "plane ^ carry, plane & carry", "plane | carry, plane & carry",
     ["tests/test_acceptance.py::test_criterion_4_diversity_scoring_fixture"]),
    # voters moving up to a count already held are never merged into that class
    ("dropped-merge", "src/scvoting/pav.py",
     "voters |= up", "pass",
     ["tests/test_acceptance.py::test_criterion_4_diversity_scoring_fixture"]),
    # the capacity test cuts a node whose completions can still represent the group
    ("capacity-test-eager", "src/scvoting/search.py",
     "if most < size - t + 1:", "if most <= size - t + 1:",
     ["tests/test_acceptance.py::test_criterion_3_score_eight_rivalry_fixture"]),
]


def stop(message: str):
    print(message, file=sys.stderr)
    sys.exit(2)


def run_tests(copy: str, tests: list[str]) -> subprocess.CompletedProcess | None:
    """The named tests run in ``copy``; None when they outrun ``TIMEOUT_S``."""
    # no bytecode is written, so an edit that keeps a file's size and
    # timestamp cannot be run from a stale cached module
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(copy, "src")),
                                                        os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=1", *tests]
    try:
        return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def run_mutant(copy: str, name: str, file: str, text: str, replacement: str,
               tests: list[str]) -> str:
    """``caught``, ``missed`` or ``error``: the mutant's tests run with its edit made."""
    target = Path(copy, file)
    source = target.read_text(encoding="utf-8")
    if source.count(text) != 1:
        stop(f"mutant {name}: {text!r} occurs {source.count(text)} times in {file}, not once")
    target.write_text(source.replace(text, replacement), encoding="utf-8")
    try:
        done = run_tests(copy, tests)
    finally:
        target.write_text(source, encoding="utf-8")
    if done is None:
        return "error"
    if done.returncode not in (0, 1):
        print(done.stdout[-2000:], end="")
    return {1: "caught", 0: "missed"}.get(done.returncode, "error")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="scvoting-mutants-") as copy:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(copy, part), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        clean = run_tests(copy, list(dict.fromkeys(t for mutant in MUTANTS for t in mutant[4])))
        if clean is None or clean.returncode != 0:
            stop((clean.stdout[-2000:] if clean else "")
                 + "the mutants' tests do not pass on the unmutated copy")
        failed = 0
        for mutant in MUTANTS:
            start = time.perf_counter()
            result = run_mutant(copy, *mutant)
            print(f"{mutant[0]:<28} {result:<6} {time.perf_counter() - start:5.1f} s", flush=True)
            failed += result != "caught"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
