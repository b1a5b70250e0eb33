"""Encoding set-cover questions as span-wide representation questions.

Deciding whether a span-wide representative committee exists is as hard as
set cover: voters play the ground elements, the covering collection becomes
one candidate subset, and the budget becomes its quota.  The search is exact
and answers both directions.  The problem is NP-complete, so some inputs
must take exponential time, but a coverage-capacity prune refutes the
hostile family below at the root of the search, and a packing cut keeps
random questions on a ground set of 30 to a few thousand nodes.
"""

import time

import scvoting as sv

# A concrete question: cover {0,1,2} with two of {0,1}, {1,2}, {2}.
sc = sv.SetCoverInstance.of(3, [{0, 1}, {1, 2}, {2}], budget=2)
inst = sv.encode_set_cover(sc)
print("encoded instance:")
print(sv.serialize_instance(inst))

committee = sv.sw_jr_exists(inst)
print("committee found:", ",".join(inst.names_of(committee.members)))
print("decoded cover (collection indices):", sorted(sv.decode_committee_to_cover(sc, committee)))
print()

# An impossible question comes back as plain non-existence.
sc_no = sv.SetCoverInstance.of(3, [{0}, {1}, {2}], budget=2)
print("three singletons, budget two:", sv.sw_jr_exists(sv.encode_set_cover(sc_no)))
print()

# A hostile family: the collection holds all pairs of a ground set of size g
# and the budget is one pair short of any possible cover.  The number of
# selections grows combinatorially, but the search counts what the open
# slots can still cover (budget times the best pair, two voters each) and
# finds it short of the g uncovered voters before choosing anything, so
# each refutation takes one node.
print("ground  pairs  budget  selections  nodes      time")
for g in (4, 6, 8, 10, 12):
    pairs = [frozenset({i, j}) for i in range(g) for j in range(i + 1, g)]
    budget = g // 2 - 1
    sc_hard = sv.SetCoverInstance.of(g, pairs, budget=budget)
    encoded = sv.encode_set_cover(sc_hard)
    stats = sv.SearchStats()
    started = time.perf_counter()
    answer = sv.sw_jr_exists(encoded, stats=stats)
    elapsed = time.perf_counter() - started
    assert answer is None
    print(
        f"{g:6d} {len(pairs):6d} {budget:7d}"
        f" {sv.count_feasible_committees(encoded):11d} {stats.nodes:6d} {elapsed:8.4f}s"
    )
print()

# Random questions are harder: the capacity test only weighs the budget
# against the best coverage, so many branches survive it.  The packing cut
# takes the lowest uncovered voter, drops every voter that shares a
# remaining entry with it, and repeats; the voters taken need distinct
# entries, so a branch is cut once they outnumber the budget left.  Each row
# sums seeds 1-8 of one model; "worst" is the most nodes one seed took.
print("ground  entries  budget  covers  nodes   capacity  packing  worst   time")
for g, entries, p, budget in ((20, 27, 0.15, 5), (25, 33, 0.13, 6), (30, 40, 0.12, 7)):
    model = sv.SetCoverModel(g, entries, p, budget)
    stats, covers, worst = sv.SearchStats(), 0, 0
    started = time.perf_counter()
    for seed in range(1, 9):
        before = stats.nodes
        encoded = sv.encode_set_cover(sv.generate_set_cover(model, seed))
        covers += sv.sw_jr_exists(encoded, budget=10**12, stats=stats) is not None
        worst = max(worst, stats.nodes - before)
    elapsed = time.perf_counter() - started
    print(
        f"{g:6d} {entries:8d} {budget:7d} {covers:7d} {stats.nodes:6d}"
        f" {stats.pruned_capacity:9d} {stats.pruned_packing:8d} {worst:6d} {elapsed:6.2f}s"
    )
