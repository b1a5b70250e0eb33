"""Exact toolkit for approval-based sub-committee voting.

Build instances that elect one sub-committee per candidate subset under
quotas, verify four justified-representation axioms with concrete violation
witnesses, construct committees greedily, optimize two harmonic scoring
rules exactly, decide span-wide representative existence, and encode
set-cover questions into that decision problem.
"""

from .axioms import (
    ALL_AXIOMS,
    IW_JR,
    JR,
    SW_JR,
    WEAK_SW_JR,
    AxiomVerdict,
    Violation,
    brute_force_axiom,
    check_axiom,
    check_iw_jr,
    check_jr,
    check_sw_jr,
    check_weak_sw_jr,
    verdict_to_json,
)
from .core import (
    CandidateSubset,
    Committee,
    PartyListModel,
    ScvInstance,
    SetCoverInstance,
    SetCoverModel,
    UniformModel,
    count_feasible_committees,
    generate_instance,
    generate_set_cover,
    instance_from_document,
    instance_to_document,
    iter_feasible_committees,
    parse_instance,
    parse_set_cover,
    serialize_instance,
    serialize_set_cover,
    set_cover_from_document,
    set_cover_to_document,
    validate_instance,
    validate_set_cover,
)
from .errors import (
    BadBallot,
    BadSpec,
    BudgetExceeded,
    EmptySequence,
    InfeasibleCommittee,
    InvalidInstance,
    InvalidSetCover,
    NotACover,
    NotMember,
    ParseError,
    PartitionBroken,
    QuotaInfeasible,
    ScvError,
    SemanticError,
    TooLarge,
)
from .greedy import (
    GreedyStep,
    GreedyTrace,
    lemma1_gap,
    solve_greedy,
    trace_to_json_lines,
)
from .pav import (
    IW_PAV,
    MaximizeStats,
    SW_PAV,
    VARIANTS,
    harmonic,
    iw_pav_score,
    marginal_contribution,
    maximize,
    score_to_json,
    sw_pav_score,
)
from .search import (
    SearchStats,
    decode_committee_to_cover,
    encode_set_cover,
    sw_jr_exists,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
