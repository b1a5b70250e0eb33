"""Checks on op outputs, run after the timed loop and outside every timing.

Witnesses and covers are re-validated here against the definitions, with
code that shares nothing with the checkers under test.  The expected CLI
bytes come from the library's own serialization functions.
"""

from __future__ import annotations

from itertools import combinations

import scvoting as sv


def witness_problems(inst: sv.ScvInstance, members, verdict: dict) -> list[str]:
    """Problems with one ``verdict_to_json`` verdict for the given committee."""
    axiom, witness = verdict["axiom"], verdict["witness"]
    if verdict["satisfied"]:
        return [] if witness is None else [f"{axiom}: a passing verdict carries a witness"]
    if witness is None:
        return [f"{axiom}: a failing verdict has no witness"]
    id_of = {name: cid for cid, name in enumerate(inst.candidate_names)}
    voters = witness["voters"]
    cands = [id_of[name] for name in witness["candidates"]]
    n = inst.num_voters
    problems = []
    if not voters or len(set(voters)) != len(voters) or not all(0 <= v < n for v in voters):
        return [f"{axiom}: witness voters {voters[:5]}... are not a group of voters"]
    if axiom == sv.IW_JR:
        j = [sub.name for sub in inst.subsets].index(witness["subset"])
        sub = inst.subsets[j]
        scope = frozenset(members) & frozenset(sub.members)
        big_enough = len(voters) * sub.quota >= n
        shape_ok = len(cands) == 1 and cands[0] in sub.members
    else:
        scope = frozenset(members)
        big_enough = len(voters) * inst.committee_size >= n
        if axiom == sv.WEAK_SW_JR:
            shape_ok = len(cands) == len(inst.subsets) and all(
                c in sub.members for c, sub in zip(cands, inst.subsets)
            )
        else:
            shape_ok = len(cands) == 1
    if not big_enough:
        problems.append(f"{axiom}: witness group of {len(voters)} is below the threshold")
    if not shape_ok:
        problems.append(f"{axiom}: witness candidates {witness['candidates']} have the wrong shape")
    if not all(c in inst.ballots[v] for v in voters for c in cands):
        problems.append(f"{axiom}: a witness voter does not approve every witness candidate")
    if any(inst.ballots[v] & scope for v in voters):
        problems.append(f"{axiom}: a witness voter is represented")
    return problems


def _masks(sc: sv.SetCoverInstance) -> list[int]:
    return [sum(1 << e for e in entry) for entry in sc.collection]


def is_cover(sc: sv.SetCoverInstance, chosen) -> bool:
    """Do the chosen collection entries cover the ground set within budget?"""
    chosen = list(chosen)
    masks = _masks(sc)
    if len(chosen) > sc.budget or not all(0 <= j < len(masks) for j in chosen):
        return False
    union = 0
    for j in chosen:
        union |= masks[j]
    return union == (1 << sc.ground_size) - 1


def cover_exists(sc: sv.SetCoverInstance) -> bool:
    """Exhaustive: does any selection of at most ``budget`` entries cover?"""
    masks = _masks(sc)
    full = (1 << sc.ground_size) - 1
    for size in range(1, sc.budget + 1):
        for chosen in combinations(masks, size):
            union = 0
            for mask in chosen:
                union |= mask
            if union == full:
                return True
    return False


# -- the command line -----------------------------------------------------------


def _committee(inst, spec: str) -> sv.Committee:
    return sv.Committee.of(inst, [inst.candidate_id(name) for name in spec.split(",")])


def _axioms(inst, committee) -> dict:
    return {
        axiom: sv.verdict_to_json(inst, sv.check_axiom(inst, committee, axiom))
        for axiom in sv.ALL_AXIOMS
    }


def expected_cli(ctx: dict) -> tuple[int, str, list[str]]:
    """Exit code, stdout and written files the op in ``ctx`` should produce."""
    argv = ctx["argv"]
    command = argv[1]
    text = sv.core.to_json_text
    if command == "gen":
        return 0, "", [sv.serialize_instance(sv.generate_instance(ctx["model"], ctx["seed"]))]
    if command == "encode-setcover":
        cover = sv.parse_set_cover(ctx["cover_text"])
        return 0, "", [sv.serialize_instance(sv.encode_set_cover(cover))]
    inst = sv.parse_instance(ctx["text"])
    if command == "validate":
        return 0, text({"valid": True, "problems": []}), []
    if command == "check":
        committee = _committee(inst, ctx["committee"])
        verdicts = [sv.check_axiom(inst, committee, axiom) for axiom in sv.ALL_AXIOMS]
        code = 0 if all(v.satisfied for v in verdicts) else 3
        return code, text([sv.verdict_to_json(inst, v) for v in verdicts]), []
    if command == "score":
        variant = argv[argv.index("--variant") + 1]
        committee = _committee(inst, ctx["committee"])
        scorer = sv.sw_pav_score if variant == sv.SW_PAV else sv.iw_pav_score
        payload = {
            "variant": variant,
            "committee": list(inst.names_of(committee.members)),
            "score": sv.score_to_json(scorer(inst, committee)),
        }
        return 0, text(payload), []
    if command == "exists":
        committee = sv.sw_jr_exists(inst)
        if committee is None:
            return 3, text({"exists": False, "committee": None}), []
        return 0, text({"exists": True, "committee": list(inst.names_of(committee.members))}), []
    if command == "solve":
        rule = argv[argv.index("--rule") + 1]
        if rule == "greedy":
            committee, trace = sv.solve_greedy(inst)
            payload = {"rule": "greedy", "committee": list(inst.names_of(committee.members)),
                       "axioms": _axioms(inst, committee)}
            return 0, text(payload), [sv.trace_to_json_lines(inst, trace)]
        committee, score = sv.maximize(inst, rule)
        payload = {"variant": rule, "committee": list(inst.names_of(committee.members)),
                   "score": sv.score_to_json(score), "axioms": _axioms(inst, committee)}
        return 0, text(payload), []
    raise ValueError(f"no expectation for command {command!r}")


def cli_verdict_problems(ctx: dict, verdicts: list[dict]) -> list[str]:
    """Witness checks on a ``check --axiom all`` payload and, for the small
    fixtures, agreement with ``brute_force_axiom``."""
    inst = sv.parse_instance(ctx["text"])
    committee = _committee(inst, ctx["committee"])
    problems = []
    for verdict in verdicts:
        problems += witness_problems(inst, committee.members, verdict)
        if ctx.get("oracle"):
            oracle = sv.brute_force_axiom(inst, committee, verdict["axiom"])
            if oracle.satisfied != verdict["satisfied"]:
                problems.append(f"{verdict['axiom']}: disagrees with brute_force_axiom")
    return problems
