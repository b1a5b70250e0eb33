"""The four workloads: their inputs, their ops and the checks on each op's output.

Every input is drawn from the repository's seeded generators and fixtures,
keyed by the workload seed.  Every op starts from an instance's JSON text,
so nothing cached on a parsed instance carries over between ops.

Each workload repeats one cycle of ops.  Op kinds take fixed shares of the
cycle, chosen from the measured op times so that the median and the 90th
percentile each land near the middle of one kind, never on the boundary
between two, where they would jump between kinds from run to run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable

import scvoting as sv
from scvoting import cli, fixtures

import checks


@dataclass
class Op:
    kind: str  # the class of op, which decides where it ranks by time
    key: str  # the distinct input; repeats of a key must give equal outputs
    path: str  # the code path, warmed up once on its smallest input
    call: Callable[[], object]
    size: int
    ctx: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    cycle: list[Op]
    check: Callable[[Op, object], list[str]]
    canonical: Callable[[Op, object], object]
    # kinds where the median and the 90th percentile are meant to land
    p50_kind: str
    p90_kind: str
    # kinds whose cost does not depend on the seed, which warm-up draws on
    warm_kinds: tuple[str, ...]


def interleave(groups: list[list[Op]]) -> list[Op]:
    """One cycle with each group's ops spread evenly over it."""
    slots = [
        ((i + 0.5) / len(ops), g, op)
        for g, ops in enumerate(groups)
        for i, op in enumerate(ops)
    ]
    slots.sort(key=lambda slot: slot[:2])
    return [op for _, _, op in slots]


def _sub_seeds(name: str, seed: int):
    rng = random.Random(f"{name}/{seed}")
    return rng, lambda: rng.randrange(2**32)


def _uniform(voters, sizes, quotas, prob, seed) -> sv.ScvInstance:
    return sv.generate_instance(sv.UniformModel(voters, sizes, quotas, prob), seed)


def _random_committee(rng, inst) -> tuple[int, ...]:
    members = []
    for sub in inst.subsets:
        members.extend(rng.sample(sorted(sub.members), sub.quota))
    return tuple(sorted(members))


def _fraction_text(score: Fraction) -> str:
    return f"{score.numerator}/{score.denominator}"


# -- audit --------------------------------------------------------------------


def _party_list(rng, voters=5000, parties=4, subsets=10) -> tuple[sv.ScvInstance, tuple]:
    """Identical-ballot blocks, one candidate per party in every subset, and a
    proposed committee drawn from the two smallest parties only, so the
    larger blocks go unrepresented."""
    weights = [rng.randint(2, 6) for _ in range(parties)]
    sizes = [voters * w // sum(weights) for w in weights]
    sizes[0] += voters - sum(sizes)
    layout = tuple(
        (f"S{j + 1}", tuple(f"p{b + 1}s{j + 1}" for b in range(parties)), 1)
        for j in range(subsets)
    )
    blocks = tuple(
        (size, tuple(f"p{b + 1}s{j + 1}" for j in range(subsets)))
        for b, size in enumerate(sizes)
    )
    inst = sv.generate_instance(sv.PartyListModel(layout, blocks), 0)
    smallest = sorted(range(parties), key=lambda b: (sizes[b], b))[:2]
    proposed = tuple(
        sorted(inst.candidate_id(f"p{rng.choice(smallest) + 1}s{j + 1}") for j in range(subsets))
    )
    return inst, proposed


def audit_op(text: str, proposed: tuple[int, ...]) -> dict:
    inst = sv.parse_instance(text)
    greedy, trace = sv.solve_greedy(inst)
    committees = (greedy, sv.Committee.of(inst, proposed))
    verdicts, scores = [], []
    for committee in committees:
        found = [sv.check_axiom(inst, committee, axiom) for axiom in sv.ALL_AXIOMS]
        scores.append((sv.sw_pav_score(inst, committee), sv.iw_pav_score(inst, committee)))
        verdicts.append([sv.verdict_to_json(inst, v) for v in found])
    return {"committees": committees, "trace": trace, "verdicts": verdicts, "scores": scores}


def _audit_canonical(op, out):
    return {
        "committees": [list(c.sorted_members) for c in out["committees"]],
        "trace": [
            [s.phase, s.candidate, s.subset, s.support, list(s.newly_represented)]
            for s in out["trace"].steps
        ],
        "verdicts": out["verdicts"],
        "scores": [[_fraction_text(s) for s in pair] for pair in out["scores"]],
    }


def _audit_check(op, out) -> list[str]:
    inst = sv.parse_instance(op.ctx["text"])
    problems = []
    greedy_verdicts = {v["axiom"]: v for v in out["verdicts"][0]}
    for axiom in (sv.IW_JR, sv.WEAK_SW_JR):
        if not greedy_verdicts[axiom]["satisfied"]:
            problems.append(f"greedy committee fails {axiom}")
    for committee, verdicts in zip(out["committees"], out["verdicts"]):
        for verdict in verdicts:
            problems += checks.witness_problems(inst, committee.members, verdict)
    return problems


def build_audit(seed: int, workdir: str) -> Workload:
    rng, sub_seed = _sub_seeds("audit", seed)

    def uniform_ops(kind, voters, instances, repeats, sizes=(20, 20, 20), quotas=(3, 3, 3), prob=0.12):
        ops = []
        for i in range(instances):
            inst = _uniform(voters, sizes, quotas, prob, sub_seed())
            ops += [_audit_op_of(kind, f"{kind}/{i}", inst, _random_committee(rng, inst))] * repeats
        return ops

    party, proposed = _party_list(rng)
    groups = [
        uniform_ops("uniform-20000", 20000, 1, 1),
        [_audit_op_of("party-5000", "party-5000/0", party, proposed)],
        uniform_ops("uniform-5000", 5000, 4, 3),
        uniform_ops("uniform-2000", 2000, 13, 4),
        uniform_ops("uniform-12x3", 200, 7, 2, (3,) * 12, (1,) * 12, 0.6),
    ]
    return Workload("audit", interleave(groups), _audit_check, _audit_canonical,
                    p50_kind="uniform-2000", p90_kind="uniform-5000", warm_kinds=("uniform-12x3",))


def _audit_op_of(kind, key, inst, proposed) -> Op:
    text = sv.serialize_instance(inst)
    return Op(kind, key, "audit", lambda: audit_op(text, proposed), len(text), {"text": text})


# -- optimize -----------------------------------------------------------------


def optimize_op(text: str, variant: str):
    return sv.maximize(sv.parse_instance(text), variant)


def _optimize_canonical(op, out):
    committee, score = out
    return [list(committee.sorted_members), _fraction_text(score)]


def _optimize_check(op, out) -> list[str]:
    inst = sv.parse_instance(op.ctx["text"])
    committee, score = out
    scorer = sv.sw_pav_score if op.ctx["variant"] == sv.SW_PAV else sv.iw_pav_score
    try:
        rescored = scorer(inst, committee)
    except sv.InfeasibleCommittee as exc:
        return [f"maximize returned an infeasible committee: {exc}"]
    if rescored != score:
        return [f"maximize reported {score}, its committee scores {rescored}"]
    return []


def build_optimize(seed: int, workdir: str) -> Workload:
    _, sub_seed = _sub_seeds("optimize", seed)

    def ops(variant, sizes, quotas, instances, repeats, voters=100, prob=0.3):
        kind = f"{variant}-{'x'.join(map(str, sizes))}"
        out = []
        for i in range(instances):
            text = sv.serialize_instance(_uniform(voters, sizes, quotas, prob, sub_seed()))
            op = Op(kind, f"{kind}/{i}", variant, lambda t=text: optimize_op(t, variant), len(text),
                    {"text": text, "variant": variant})
            out += [op] * repeats
        return out

    groups = [
        ops(sv.IW_PAV, (16, 16), (3, 3), 2, 2),
        ops(sv.SW_PAV, (7, 7), (2, 2), 6, 2),
        ops(sv.IW_PAV, (8, 8), (2, 2), 2, 1),
        ops(sv.IW_PAV, (6, 6, 6), (2, 1, 2), 2, 1),
    ]
    return Workload("optimize", interleave(groups), _optimize_check, _optimize_canonical,
                    p50_kind="sw-pav-7x7", p90_kind="iw-pav-16x16",
                    warm_kinds=("sw-pav-7x7", "iw-pav-8x8"))


# -- exists -------------------------------------------------------------------


def exists_op(text: str):
    return sv.sw_jr_exists(sv.parse_instance(text))


def all_pairs(ground: int, budget: int) -> sv.SetCoverInstance:
    """Demo 04's family: every pair of a ground set of the given size."""
    pairs = [frozenset({i, j}) for i, j in combinations(range(ground), 2)]
    return sv.SetCoverInstance.of(ground, pairs, budget)


def _exists_canonical(op, out):
    return None if out is None else list(out.sorted_members)


def _exists_check(op, out) -> list[str]:
    sc = op.ctx["cover"]
    if out is None:
        if checks.cover_exists(sc):
            return ["sw_jr_exists found no committee, but a cover exists"]
        return []
    inst = sv.parse_instance(op.ctx["text"])
    if not sv.check_sw_jr(inst, out).satisfied:
        return ["the committee found fails check_sw_jr"]
    if not checks.is_cover(sc, [c - sc.ground_size for c in out.members if c >= sc.ground_size]):
        return ["the committee found does not decode to a cover"]
    return []


def build_exists(seed: int, workdir: str) -> Workload:
    _, sub_seed = _sub_seeds("exists", seed)

    def op_of(kind, key, sc):
        text = sv.serialize_instance(sv.encode_set_cover(sc))
        return Op(kind, key, "exists", lambda: exists_op(text), len(text), {"text": text, "cover": sc})

    def random_op(ground, i):
        model, seed = sv.SetCoverModel(ground, 20, 0.2, 4), sub_seed()
        text = sv.serialize_instance(sv.generate_instance(model, seed))
        return Op("setcover-random", f"setcover-random/{ground}/{i}", "exists",
                  lambda: exists_op(text), len(text),
                  {"text": text, "cover": sv.generate_set_cover(model, seed)})

    randoms = [random_op(ground, i) for ground in (12, 14, 16) for i in range(4)]
    groups = [
        [op_of("pairs-9-none", "pairs-9-none", all_pairs(9, 4))] * 8,
        [op_of("pairs-8-found", "pairs-8-found", all_pairs(8, 4))] * 20,
        [op_of("pairs-8-none", "pairs-8-none", all_pairs(8, 3))] * 4,
        randoms,
    ]
    return Workload("exists", interleave(groups), _exists_check, _exists_canonical,
                    p50_kind="pairs-8-found", p90_kind="pairs-9-none", warm_kinds=("pairs-8-none",))


# -- cli ----------------------------------------------------------------------


def cli_op(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_canonical(op, out):
    code, stdout, _ = out
    return [code, stdout, [_read(path) for path in op.ctx.get("writes", ())]]


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _cli_check(op, out) -> list[str]:
    code, stdout, stderr = out
    want_code, want_stdout, want_files = checks.expected_cli(op.ctx)
    problems = []
    if (code, stdout) != (want_code, want_stdout):
        problems.append(
            f"exit {code} and {len(stdout)} bytes, expected exit {want_code} "
            f"and {len(want_stdout)} bytes; stderr {stderr.strip()!r}"
        )
    for path, want in zip(op.ctx.get("writes", ()), want_files):
        if _read(path) != want:
            problems.append(f"{os.path.basename(path)} differs from the library's serialization")
    if op.ctx["argv"][1] == "check":
        problems += checks.cli_verdict_problems(op.ctx, json.loads(stdout))
    return problems


FIXTURES = {
    "no-swjr": fixtures.no_swjr_instance,
    "axiom-split": fixtures.axiom_split_instance,
    "pav-vs-swjr": fixtures.pav_vs_swjr_instance,
    "swpav-vs-iwjr": fixtures.swpav_vs_iwjr_instance,
    "iwpav-vs-weak": fixtures.iwpav_vs_weak_instance,
}


def build_cli(seed: int, workdir: str) -> Workload:
    rng, sub_seed = _sub_seeds("cli", seed)
    insts: dict[str, sv.ScvInstance] = {}

    def write(name: str, text: str) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def instance_file(name: str, inst) -> str:
        insts[name] = inst
        return write(f"{name}.json", sv.serialize_instance(inst))

    def op_of(kind, key, argv, **ctx):
        argv = ["--json"] + argv
        size = sum(os.path.getsize(a) for a in argv if os.path.isfile(a))
        path = argv[1]
        for flag in ("--rule", "--model"):
            if flag in argv:
                path += " " + argv[argv.index(flag) + 1]
        return Op(kind, key, path, lambda: cli_op(argv), size, dict(ctx, argv=argv))

    def committee_arg(name: str) -> str:
        inst = insts[name]
        return ",".join(inst.names_of(_random_committee(rng, inst)))

    big = [instance_file(f"u5000-{i}", _uniform(5000, (20, 20, 20), (3, 3, 3), 0.15, sub_seed()))
           for i in range(6)]
    mid = instance_file("u2000", _uniform(2000, (20, 20, 20), (3, 3, 3), 0.15, sub_seed()))
    fixture_files = {name: instance_file(name, build()) for name, build in FIXTURES.items()}
    cover = sv.generate_set_cover(sv.SetCoverModel(12, 20, 0.2, 4), sub_seed())
    cover_file = write("cover.json", sv.serialize_set_cover(cover))
    encoded = instance_file("pairs-encoded", sv.encode_set_cover(all_pairs(6, 3)))

    def check_op(kind, name, path):
        committee = committee_arg(name)
        return op_of(kind, f"check/{name}", ["check", "--axiom", "all", "--committee", committee, path],
                     text=_read(path), committee=committee, oracle=name in FIXTURES)

    solve_greedy = []
    for i, path in enumerate(big):
        trace = os.path.join(workdir, f"trace-{i}.jsonl")
        solve_greedy += [op_of("solve-greedy-5000", f"solve-greedy/{i}",
                               ["solve", "--rule", "greedy", "--trace", trace, path],
                               text=_read(path), writes=[trace])] * 2
    check_big = []
    for i, path in enumerate(big):
        check_big += [check_op("check-5000", f"u5000-{i}", path)] * 6

    gen_seed = sub_seed()
    party = sv.PartyListModel(
        subsets=(("A", ("a1", "a2", "a3"), 1), ("B", ("b1", "b2", "b3"), 2)),
        blocks=tuple(zip((rng.randint(5, 40) for _ in range(3)),
                         (("a1", "b1"), ("a2", "b2", "b3"), ("a3", "b1", "b3")))),
    )
    party_argv = [arg for name, members, quota in party.subsets
                  for arg in ("--subset", f"{name}:{quota}:{','.join(members)}")]
    party_argv += [arg for count, members in party.blocks
                   for arg in ("--block", f"{count}:{','.join(members)}")]
    score_committee = {name: committee_arg(name) for name in ("u5000-0", "u2000")}
    light = [
        op_of("light", "validate", ["validate", mid], text=_read(mid)),
        op_of("light", "score/sw-pav", ["score", "--variant", sv.SW_PAV, "--committee",
                                        score_committee["u5000-0"], big[0]],
              text=_read(big[0]), committee=score_committee["u5000-0"]),
        op_of("light", "score/iw-pav", ["score", "--variant", sv.IW_PAV, "--committee",
                                        score_committee["u2000"], mid],
              text=_read(mid), committee=score_committee["u2000"]),
        op_of("light", "solve/sw-pav", ["solve", "--rule", sv.SW_PAV, fixture_files["pav-vs-swjr"]],
              text=_read(fixture_files["pav-vs-swjr"])),
        op_of("light", "solve/iw-pav", ["solve", "--rule", sv.IW_PAV, fixture_files["iwpav-vs-weak"]],
              text=_read(fixture_files["iwpav-vs-weak"])),
        op_of("light", "exists", ["exists", "--axiom", sv.SW_JR, encoded], text=_read(encoded)),
        op_of("light", "gen/uniform",
              ["gen", "--model", "uniform", "--seed", str(gen_seed), "--voters", "2000",
               "--sizes", "20,20,20", "--quotas", "3,3,3", "--p", "0.15",
               "-o", os.path.join(workdir, "gen-uniform.json")],
              writes=[os.path.join(workdir, "gen-uniform.json")], seed=gen_seed,
              model=sv.UniformModel(2000, (20, 20, 20), (3, 3, 3), 0.15)),
        op_of("light", "gen/party-list",
              ["gen", "--model", "party-list", "--seed", str(gen_seed)] + party_argv
              + ["-o", os.path.join(workdir, "gen-party.json")],
              writes=[os.path.join(workdir, "gen-party.json")], seed=gen_seed, model=party),
        op_of("light", "encode-setcover",
              ["encode-setcover", cover_file, "-o", os.path.join(workdir, "encoded.json")],
              cover_text=_read(cover_file), writes=[os.path.join(workdir, "encoded.json")]),
    ] + [check_op("light", name, path) for name, path in fixture_files.items()]
    return Workload("cli", interleave([solve_greedy, check_big, light]), _cli_check, _cli_canonical,
                    p50_kind="check-5000", p90_kind="solve-greedy-5000",
                    warm_kinds=("light", "solve-greedy-5000"))


BUILDERS = {
    "audit": build_audit,
    "optimize": build_optimize,
    "exists": build_exists,
    "cli": build_cli,
}
