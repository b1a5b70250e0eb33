"""Command-line front end.

Thin adapters only: every subcommand parses its inputs, calls one library
operation, and returns ``(payload, human lines, exit code)``.  ``run`` alone
prints: the payload as JSON with ``--json``, else the lines unless
``--quiet``.  The lines are read off the payload, which holds the library's
own JSON serializations, so both renderings say the same thing.  A handler
that writes a file returns ``None`` as its payload.  Exit codes classify the
outcome:

* 0 - success, or all requested checks passed
* 1 - usage error
* 2 - invalid input (unparsable file, unknown name, infeasible committee)
* 3 - negative decision (an axiom fails, or no committee exists)
* 4 - enumeration budget exceeded
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import axioms, greedy, pav, search
from .core import (
    Committee,
    PartyListModel,
    ScvInstance,
    UniformModel,
    generate_instance,
    parse_instance,
    parse_set_cover,
    serialize_instance,
    to_json_text,
)
from .errors import (
    BudgetExceeded,
    ParseError,
    ScvError,
    SemanticError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_NEGATIVE = 3
EXIT_BUDGET = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage problems; this CLI reserves 2 for
    # invalid input files, so usage errors are rerouted to exit code 1
    def error(self, message):
        raise _UsageError(message)


@cache  # parsing leaves the parser unchanged, so one serves every call of run
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scvoting", description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--quiet", action="store_true", help="suppress human summaries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")

    p = sub.add_parser("check", help="verify axioms for a given committee")
    p.add_argument("--axiom", required=True, choices=list(axioms.ALL_AXIOMS) + ["all"])
    p.add_argument("--committee", required=True, help="comma-separated candidate names")
    p.add_argument("instance")

    p = sub.add_parser("solve", help="construct or optimize a committee")
    p.add_argument("--rule", required=True, choices=["greedy", pav.SW_PAV, pav.IW_PAV])
    p.add_argument("--budget", type=int, default=pav.DEFAULT_MAXIMIZE_BUDGET)
    p.add_argument("--trace", help="write the greedy step trace to this file (JSON lines)")
    p.add_argument("instance")

    p = sub.add_parser("score", help="score a committee exactly")
    p.add_argument("--variant", required=True, choices=list(pav.VARIANTS))
    p.add_argument("--committee", required=True, help="comma-separated candidate names")
    p.add_argument("instance")

    p = sub.add_parser("exists", help="decide committee existence for an axiom")
    p.add_argument("--axiom", required=True, choices=[axioms.SW_JR])
    p.add_argument("--budget", type=int, default=search.DEFAULT_SEARCH_BUDGET)
    p.add_argument("instance")

    p = sub.add_parser("gen", help="generate an instance from a seeded model")
    p.add_argument("--model", required=True, choices=["uniform", "party-list"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--voters", type=int, help="uniform: voter count")
    p.add_argument("--sizes", help="uniform: comma-separated subset sizes")
    p.add_argument("--quotas", help="uniform: comma-separated quotas")
    p.add_argument("--p", type=float, help="uniform: approval probability")
    p.add_argument(
        "--subset",
        action="append",
        default=[],
        metavar="NAME:QUOTA:c1,c2,...",
        help="party-list: declare a candidate subset (repeatable)",
    )
    p.add_argument(
        "--block",
        action="append",
        default=[],
        metavar="COUNT:c1,c2,...",
        help="party-list: a block of identical ballots (repeatable)",
    )

    p = sub.add_parser("encode-setcover", help="encode a set-cover file as an instance")
    p.add_argument("setcover")
    p.add_argument("-o", "--output", default="-")

    return parser


def run(argv) -> int:
    """Execute one invocation; returns the exit code instead of exiting."""
    try:
        args = build_parser().parse_args(argv)
        payload, lines, code = _HANDLERS[args.command](args)
        if args.json:
            sys.stdout.write("" if payload is None else to_json_text(payload))
        elif not args.quiet:
            sys.stdout.writelines(f"{line}\n" for line in lines)
        return code
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (_UsageError, ScvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _UsageError):
            return EXIT_USAGE
        return EXIT_BUDGET if isinstance(exc, BudgetExceeded) else EXIT_INVALID


def main() -> None:
    sys.exit(run(sys.argv[1:]))


# -- helpers ------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _write_instance(path: str, inst):
    _write(path, serialize_instance(inst))
    return None, [] if path == "-" else [f"wrote {path}"], EXIT_OK


def _parse_committee(inst: ScvInstance, spec: str) -> Committee:
    names = [name.strip() for name in spec.split(",") if name.strip()]
    members = [inst.candidate_id(name) for name in names]
    return Committee.of(inst, members)


def _check(inst: ScvInstance, committee: Committee, requested) -> tuple[list, list[str]]:
    """Check each requested axiom once: its JSON verdicts, and a line read
    off each."""
    verdicts = [axioms.verdict_to_json(inst, axioms.check_axiom(inst, committee, axiom))
                for axiom in requested]
    lines = []
    for verdict in verdicts:
        wit = verdict["witness"]
        if verdict["satisfied"]:
            lines.append(f"{verdict['axiom']}: pass")
        else:
            where = "" if wit["subset"] is None else f" in {wit['subset']}"
            lines.append(f"{verdict['axiom']}: FAIL (voters {wit['voters']} share "
                         f"{','.join(wit['candidates'])}{where})")
    return verdicts, lines


# -- subcommands ---------------------------------------------------------------


def _cmd_validate(args):
    try:
        inst = parse_instance(_read(args.instance))
    except (ParseError, SemanticError) as exc:
        problems = list(getattr(exc, "problems", [])) or [str(exc)]
        lines = [f"invalid: {p}" for p in problems]
        return {"valid": False, "problems": problems}, lines, EXIT_INVALID
    line = (f"ok: {inst.num_voters} voters, {inst.num_subsets} subsets, "
            f"{inst.num_candidates} candidates, committee size {inst.committee_size}")
    return {"valid": True, "problems": []}, [line], EXIT_OK


def _cmd_check(args):
    inst = parse_instance(_read(args.instance))
    committee = _parse_committee(inst, args.committee)
    requested = list(axioms.ALL_AXIOMS) if args.axiom == "all" else [args.axiom]
    verdicts, lines = _check(inst, committee, requested)
    code = EXIT_OK if all(v["satisfied"] for v in verdicts) else EXIT_NEGATIVE
    return verdicts if args.axiom == "all" else verdicts[0], lines, code


def _cmd_solve(args):
    inst = parse_instance(_read(args.instance))
    if args.rule == "greedy":
        committee, trace = greedy.solve_greedy(inst)
        if args.trace:
            _write(args.trace, greedy.trace_to_json_lines(inst, trace))
        payload = {"rule": "greedy", "committee": list(inst.names_of(committee.members))}
    else:
        committee, score = pav.maximize(inst, args.rule, budget=args.budget)
        payload = {"variant": args.rule, "committee": list(inst.names_of(committee.members)),
                   "score": pav.score_to_json(score)}
    verdicts, verdict_lines = _check(inst, committee, axioms.ALL_AXIOMS)
    payload["axioms"] = dict(zip(axioms.ALL_AXIOMS, verdicts))
    lines = [f"committee: {','.join(payload['committee'])}"]
    if "score" in payload:
        lines.append("score: {num}/{den}".format_map(payload["score"]))
    return payload, lines + verdict_lines, EXIT_OK


def _cmd_score(args):
    inst = parse_instance(_read(args.instance))
    committee = _parse_committee(inst, args.committee)
    scorer = pav.sw_pav_score if args.variant == pav.SW_PAV else pav.iw_pav_score
    score = pav.score_to_json(scorer(inst, committee))
    payload = {"variant": args.variant, "committee": list(inst.names_of(committee.members)),
               "score": score}
    return payload, ["{num}/{den}".format_map(score)], EXIT_OK


def _cmd_exists(args):
    inst = parse_instance(_read(args.instance))
    committee = search.sw_jr_exists(inst, budget=args.budget)
    if committee is None:
        return {"exists": False, "committee": None}, ["none"], EXIT_NEGATIVE
    names = list(inst.names_of(committee.members))
    return {"exists": True, "committee": names}, [",".join(names)], EXIT_OK


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"{what} must be comma-separated integers, got {text!r}")


def _cmd_gen(args):
    if args.model == "uniform":
        missing = [f"--{name}" for name in ("voters", "sizes", "quotas", "p")
                   if getattr(args, name) is None]
        if missing:
            raise _UsageError(f"uniform model requires {', '.join(missing)}")
        model = UniformModel(
            num_voters=args.voters,
            sizes=_parse_int_list(args.sizes, "--sizes"),
            quotas=_parse_int_list(args.quotas, "--quotas"),
            approval_prob=args.p,
        )
    else:
        if not args.subset or not args.block:
            raise _UsageError("party-list model requires --subset and --block")
        subsets = []
        for spec in args.subset:
            try:
                name, quota, members = spec.split(":", 2)
                subsets.append(
                    (name, tuple(c for c in members.split(",") if c), int(quota))
                )
            except ValueError:
                raise _UsageError(f"bad --subset {spec!r}, expected NAME:QUOTA:c1,c2")
        blocks = []
        for spec in args.block:
            try:
                count, members = spec.split(":", 1)
                blocks.append(
                    (int(count), tuple(c for c in members.split(",") if c))
                )
            except ValueError:
                raise _UsageError(f"bad --block {spec!r}, expected COUNT:c1,c2")
        model = PartyListModel(subsets=tuple(subsets), blocks=tuple(blocks))
    return _write_instance(args.output, generate_instance(model, args.seed))


def _cmd_encode_setcover(args):
    sc = parse_set_cover(_read(args.setcover))
    return _write_instance(args.output, search.encode_set_cover(sc))


_HANDLERS = {"validate": _cmd_validate, "check": _cmd_check, "solve": _cmd_solve,
             "score": _cmd_score, "exists": _cmd_exists, "gen": _cmd_gen,
             "encode-setcover": _cmd_encode_setcover}


if __name__ == "__main__":
    main()
