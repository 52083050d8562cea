"""Constructive extraction of a bipartition from a near-bipartite spectrum.

When the bottom adjacency eigenvalue of a connected Cayley graph lies within
zeta of -1, the two-step product multiset S' = S.S concentrates on a half-set
A whose right-translate overlaps are sharply bimodal. Thresholding that
profile yields H = {g : |A cap Ag| >= r|A|}, which the pipeline certifies to
be an index-2 subgroup disjoint from S, i.e. an explicit bipartition. Every
stage re-verifies its counting bound with exact set arithmetic against the
derived constants; nothing is assumed from theory.

Constants, for expansion eps and degree d (the pipeline takes eps = h, the
exact vertex Cheeger constant):

    beta = d^2 sqrt(2 zeta (2 - zeta))      boundary-ratio bound for A
    z    = (d beta / eps^2)(eps + d + 2)    overlap dichotomy width
    r    = 1 - z                            subgroup threshold

The admissible-zeta ceilings are eps^2/(4 d^4) for the half-set stage and
eps^4/(2^9 d^6 (d+1)^2) for the full subgroup extraction; a zeta above the
latter runs in exploratory "forced" mode and the trace says so.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cayley import (
    CayleyGraph,
    left_translate,
    mask_members,
    mask_of,
    multiset_image_excess,
    right_translate,
    set_image,
    square_multiset,
)
from .cheeger import MAX_EXACT_DEFAULT, _crossing_search, vertex_cheeger
from .errors import CapExceededError
from .spectral import spectrum
from .subgroups import index2_subgroups, is_bipartite_structural

_SAMPLE_SEED = 0x5E7C0DE
_EXHAUSTIVE_LIMIT = 12               # large-set check: all 2^n sets up to here
_SAMPLES = 10_000                    # ... else this many seeded draws


def main_bound_constant(d: int) -> int:
    """The constant gamma = 2^9 d^6 (d+1)^2 of the main bound
    lambda_n <= 2 - h^4 / gamma, and of zeta_max."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    return 2**9 * d**6 * (d + 1) ** 2


def zeta_max(eps: Fraction | int, d: int) -> Fraction:
    """Largest zeta for which the full subgroup extraction is guaranteed."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps**4 / main_bound_constant(d)


def zeta_max_candidate(eps: Fraction | int, d: int) -> Fraction:
    """Largest zeta for which the half-set stage bounds are guaranteed."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if d < 1:
        raise ValueError("degree must be at least 1")
    return eps**2 / (4 * d**4)


def beta_of_zeta(zeta: Fraction | float, d: int) -> float:
    """Boundary-ratio constant beta = d^2 sqrt(2 zeta (2 - zeta))."""
    z = float(zeta)
    if not 0.0 < z <= 2.0:
        raise ValueError(f"zeta must lie in (0, 2], got {zeta}")
    if d < 1:
        raise ValueError("degree must be at least 1")
    return d * d * math.sqrt(2.0 * z * (2.0 - z))


@dataclass(frozen=True)
class ProofParameters:
    eps: Fraction
    zeta: float
    beta: float
    z: float
    r: float
    candidate_regime: bool   # zeta <= eps^2 / (4 d^4)
    subgroup_regime: bool    # zeta <= eps^4 / (2^9 d^6 (d+1)^2)
    threshold_regime: bool   # beta <= eps^2 / (8 sqrt2 d (d+1))

    @property
    def forced(self) -> bool:
        return not self.subgroup_regime


def make_parameters(eps: Fraction, d: int, zeta: Fraction | float) -> ProofParameters:
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    beta = beta_of_zeta(zeta, d)
    eps_f = float(eps)
    z = (d * beta / (eps_f * eps_f)) * (eps_f + d + 2)
    zeta_exact = Fraction(zeta)
    return ProofParameters(
        eps=eps,
        zeta=float(zeta),
        beta=beta,
        z=z,
        r=1.0 - z,
        candidate_regime=zeta_exact <= zeta_max_candidate(eps, d),
        subgroup_regime=zeta_exact <= zeta_max(eps, d),
        threshold_regime=beta <= eps_f * eps_f / (8 * math.sqrt(2) * d * (d + 1)),
    )


# ---------------------------------------------------------------------------
# Candidate half-set from the two-step multiset


@dataclass(frozen=True)
class CandidateReport:
    hypothesis_met: bool
    t_min: float
    gap: float                        # 1 + t_min, distance of t_min above -1
    a_mask: int | None = None
    a_set: tuple[int, ...] = ()
    identified_excess: int | None = None
    weighted_excess: int | None = None
    ratio_ok: bool | None = None      # weighted excess < beta |A|, strict


def find_candidate_set(
    graph: CayleyGraph,
    params: ProofParameters,
    *,
    max_exact: int = MAX_EXACT_DEFAULT,
) -> CandidateReport:
    """Half-set minimising the weighted crossing ratio of the S'-support graph.

    The weighted minimiser dominates the spectral existence argument for the
    boundary bound, so when the hypothesis holds in regime the strict ratio
    check is expected to pass; it is verified, never assumed.

    The components of the support graph are the cosets of K = <S·S>. When K
    has index 2 (the structural certificate H = K exists) each coset has
    crossing weight zero and n/2 vertices, so the minimiser is the one with
    the smaller mask, which the crossing search would also find, only
    slower; otherwise the crossing search runs on the group table and the
    square multiset's counts.
    """
    n = graph.n
    if n > max_exact:
        raise CapExceededError("max_exact", max_exact, n)
    t_min = spectrum(graph).t_min
    gap = 1.0 + t_min
    if not t_min < -1.0 + params.zeta:
        return CandidateReport(False, t_min, gap)
    counts = square_multiset(graph.gens, graph.group)
    cert = is_bipartite_structural(graph)
    if cert is not None:
        h_mask = mask_of(cert)
        a_mask = min(h_mask, graph.full_mask ^ h_mask)
        size = n // 2
    else:
        _, size, a_mask, _ = _crossing_search(graph.group.mult, counts)
    excess = multiset_image_excess(graph.group, counts, a_mask)
    ratio_ok = excess.weighted < params.beta * size
    return CandidateReport(
        True,
        t_min,
        gap,
        a_mask=a_mask,
        a_set=mask_members(a_mask),
        identified_excess=excess.identified,
        weighted_excess=excess.weighted,
        ratio_ok=ratio_ok,
    )


# ---------------------------------------------------------------------------
# Half-set structure checks


@dataclass(frozen=True)
class SetPropertyReport:
    size_ok: bool                    # n / (2 + beta + d beta / eps) <= |A| <= n/2
    overlap_ok: bool                 # |SA cap A| <= (beta/eps)|A|
    translate_ok: bool               # all s,g: |sAg delta (Ag)^c|
                                     #   <= beta (1 + d/eps + 2/eps) |A|

    @property
    def all_ok(self) -> bool:
        return self.size_ok and self.overlap_ok and self.translate_ok


def set_property_check(
    graph: CayleyGraph, a_mask: int, params: ProofParameters
) -> SetPropertyReport:
    """The three structural properties of the candidate half-set."""
    if a_mask == 0:
        raise ValueError("candidate set must be nonempty")
    group = graph.group
    n = graph.n
    d = graph.d
    full = graph.full_mask
    eps_f = float(params.eps)
    beta = params.beta
    size = a_mask.bit_count()

    overlap = (set_image(graph, a_mask) & a_mask).bit_count()
    translate_threshold = beta * (1 + d / eps_f + 2 / eps_f) * size
    return SetPropertyReport(
        size_ok=size >= n / (2 + beta + d * beta / eps_f) and 2 * size <= n,
        overlap_ok=overlap <= (beta / eps_f) * size,
        # x -> xg commutes with x -> sx, so |sAg delta (Ag)^c| = |sA delta A^c|.
        translate_ok=all(
            (left_translate(group, a_mask, s) ^ (~a_mask & full)).bit_count()
            <= translate_threshold
            for s in graph.gens
        ),
    )


def translate_profile(graph: CayleyGraph, a_mask: int) -> tuple[int, ...]:
    """|A cap Ag| for every g, indexed by g; entry at the identity is |A|."""
    group = graph.group
    return tuple(
        (a_mask & right_translate(group, a_mask, g)).bit_count()
        for g in range(graph.n)
    )


@dataclass(frozen=True)
class DichotomyReport:
    valid: bool
    case_low: tuple[int, ...]        # g with overlap <= z|A|
    case_high: tuple[int, ...]       # g with overlap >= (1-z)|A|
    violations: tuple[int, ...]      # g strictly between the thresholds


def dichotomy_check(
    profile: tuple[int, ...], params: ProofParameters
) -> DichotomyReport:
    """Classify every g by its overlap profile[g] = |A cap Ag| (see
    translate_profile): at most z|A| or at least (1-z)|A|. Meaningless when
    z >= 1/2, which is rejected."""
    if params.z >= 0.5:
        raise ValueError(
            f"overlap dichotomy needs z < 1/2, got z = {params.z:.6g}"
        )
    size = profile[0]                # |A cap A·e| = |A|, 0 being the identity
    low = params.z * size
    high = (1.0 - params.z) * size
    case_low, case_high, violations = [], [], []
    for g, count in enumerate(profile):
        if count <= low:
            case_low.append(g)
        elif count >= high:
            case_high.append(g)
        else:
            violations.append(g)
    return DichotomyReport(
        valid=not violations,
        case_low=tuple(case_low),
        case_high=tuple(case_high),
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class AgreementBoundsReport:
    """Bounds on B = (A cap Ag) | (A | Ag)^c, the set where membership in A
    and Ag agrees; its complement is the symmetric difference A delta Ag."""

    g: int
    delta_ok: bool                   # |SB delta B| and |SB^c delta B^c|
                                     #   <= 2 d beta (1 + d/eps + 2/eps) |A|
    size_ok: bool                    # min(|B|, |G \ B|) <= 2 z |A|

    @property
    def all_ok(self) -> bool:
        return self.delta_ok and self.size_ok


def agreement_set_bounds_check(
    graph: CayleyGraph, a_mask: int, g: int, params: ProofParameters
) -> AgreementBoundsReport:
    group = graph.group
    n = graph.n
    full = graph.full_mask
    eps_f = float(params.eps)
    beta = params.beta
    d = graph.d
    size = a_mask.bit_count()

    ag = right_translate(group, a_mask, g)
    b_mask = (a_mask & ag) | (~(a_mask | ag) & full)
    bc_mask = ~b_mask & full

    def delta(mask: int) -> int:
        return (set_image(graph, mask) ^ mask).bit_count()

    delta_threshold = 2 * d * beta * (1 + d / eps_f + 2 / eps_f) * size
    b_size = b_mask.bit_count()
    return AgreementBoundsReport(
        g=g,
        delta_ok=(delta(b_mask) <= delta_threshold
                  and delta(bc_mask) <= delta_threshold),
        size_ok=min(b_size, n - b_size) <= 2 * params.z * size,
    )


# ---------------------------------------------------------------------------
# Subgroup extraction


@dataclass(frozen=True)
class SubgroupExtraction:
    h_mask: int
    h_set: tuple[int, ...]
    identity_ok: bool
    symmetric_ok: bool
    closed: bool
    large_ok: bool                   # 3|H| > n
    proper_ok: bool                  # H != G
    index: int | None                # n / |H| when H is a genuine subgroup
    triangle_ok: bool                # g,h in H: |A cap A(gh)| >= (2r-1)|A|

    @property
    def is_index_two(self) -> bool:
        return (
            self.identity_ok
            and self.symmetric_ok
            and self.closed
            and self.large_ok
            and self.proper_ok
            and self.index == 2
        )


def construct_subgroup(
    graph: CayleyGraph, profile: tuple[int, ...], params: ProofParameters
) -> SubgroupExtraction:
    """Threshold the overlap profile (see translate_profile) at r|A| and
    verify the result is an index-2 subgroup: identity, inverses, closure,
    |H| > n/3, H != G."""
    group = graph.group
    n = graph.n
    size = profile[0]
    members = [g for g in range(n) if profile[g] >= params.r * size]
    h_mask = mask_of(members)

    identity_ok = bool(h_mask & 1)
    symmetric_ok = all((h_mask >> group.inv[g]) & 1 for g in members)
    products = [group.mult[g][h] for g in members for h in members]
    closed = all((h_mask >> gh) & 1 for gh in products)
    large_ok = 3 * len(members) > n
    proper_ok = h_mask != graph.full_mask
    index = None
    if identity_ok and symmetric_ok and closed and members and n % len(members) == 0:
        index = n // len(members)

    triangle_threshold = (2 * params.r - 1) * size
    return SubgroupExtraction(
        h_mask=h_mask,
        h_set=tuple(members),
        identity_ok=identity_ok,
        symmetric_ok=symmetric_ok,
        closed=closed,
        large_ok=large_ok,
        proper_ok=proper_ok,
        index=index,
        triangle_ok=all(profile[gh] >= triangle_threshold for gh in products),
    )


@dataclass(frozen=True)
class ConflictRecord:
    """What both counting claims would say about a generator inside H."""

    t: int
    count: int                       # |tA cap A| (left translate)
    upper_ok: bool                   # count <= (beta/eps)|A|
    lower_ok: bool                   # count >= r|A|


@dataclass(frozen=True)
class FinalReport:
    s_cap_h: tuple[int, ...]
    disjoint: bool
    structural_match: bool | None    # H equals a structural index-2 certificate
    conflicts: tuple[ConflictRecord, ...]
    r_exceeds_ratio: bool            # r > beta/eps, the numeric impossibility


def disjointness_check(
    graph: CayleyGraph,
    h_mask: int,
    a_mask: int,
    params: ProofParameters,
) -> FinalReport:
    """S cap H decides the outcome: empty means the graph is bipartite with
    parts H and G \\ H (cross-checked against the structural enumeration);
    a generator t inside H would have to satisfy two incompatible counts on
    |tA cap A|, and the report records which one fails."""
    group = graph.group
    eps_f = float(params.eps)
    size = a_mask.bit_count()
    s_cap_h = tuple(s for s in graph.gens if (h_mask >> s) & 1)
    disjoint = not s_cap_h
    structural_match: bool | None = None
    if disjoint:
        h_set = mask_members(h_mask)
        structural_match = any(
            cert == h_set and not set(graph.gens).intersection(cert)
            for cert in index2_subgroups(group)
        )
    conflicts = []
    for t in s_cap_h:
        count = (left_translate(group, a_mask, t) & a_mask).bit_count()
        conflicts.append(
            ConflictRecord(
                t=t,
                count=count,
                upper_ok=count <= (params.beta / eps_f) * size,
                lower_ok=count >= params.r * size,
            )
        )
    return FinalReport(
        s_cap_h=s_cap_h,
        disjoint=disjoint,
        structural_match=structural_match,
        conflicts=tuple(conflicts),
        r_exceeds_ratio=params.r > params.beta / eps_f,
    )


# ---------------------------------------------------------------------------
# Large-set expansion check


def _candidate_sets(n: int) -> np.ndarray:
    """The tested sets, in test order, as an (n, count) boolean matrix whose
    row v marks the sets that hold vertex v: every mask 0 .. 2^n - 1 for
    n <= _EXHAUSTIVE_LIMIT, otherwise the first _SAMPLES values of
    random.Random(_SAMPLE_SEED).getrandbits(n), cut out of one getrandbits
    call for all of them, which returns the same 32-bit generator outputs in
    the same order, least significant first."""
    if n <= _EXHAUSTIVE_LIMIT:
        masks = np.arange(1 << n, dtype=np.uint16)   # n <= 12 bits suffice
        return (masks >> np.arange(n, dtype=np.uint16)[:, None] & 1).astype(bool)
    width = 32 * -(-n // 32)
    raw = random.Random(_SAMPLE_SEED).getrandbits(width * _SAMPLES)
    bits = np.unpackbits(
        np.frombuffer(raw.to_bytes(width * _SAMPLES // 8, "little"), np.uint8),
        bitorder="little",
    ).reshape(_SAMPLES, width)
    # getrandbits(n) takes ceil(n/32) outputs and drops the width - n lowest
    # bits of the last one. unpackbits gives only 0s and 1s.
    keep = np.arange(n)
    keep[width - 32:] += width - n
    return bits.T[keep].view(bool)


@dataclass(frozen=True)
class LargeSetExpansionReport:
    """Least slack (left side minus right side, an integer) of each
    inequality over the tested sets; ok when neither is negative."""

    ok: bool
    exhaustive: bool
    tested: int
    main_slack: int | None           # d q |SA\A| - p |G\A| over 2|A| >= n
    internal_slack: int              # d |SA\A| - |SA^c \ A^c| over all A


def large_set_expansion_check(
    graph: CayleyGraph, *, max_exact: int = MAX_EXACT_DEFAULT
) -> LargeSetExpansionReport:
    """Check |SA \\ A| >= (eps/d)|G \\ A| on every set of at least half the
    vertices, plus the sidedness step d|SA \\ A| >= |SA^c \\ A^c| on all sets,
    with eps = h, the graph's exact vertex Cheeger constant.

    Exhaustive over all 2^n subsets for n <= 12, otherwise the first 10 000
    draws of a fixed seed. The sets are the columns of one boolean matrix
    with a row per vertex; whether v lies in S·A or S·A^c is read off the
    rows of its neighbors s v, gathered once per generator, and every count
    is a column sum. A count is at most n <= ELEMENT_CAP = 10 000 < 2^15, so
    it is summed exactly in int16 and then widened to int64. h = p/q in
    lowest terms is the boundary ratio of some set of at most n/2 vertices,
    so q <= n/2 and p <= n; with d <= n the main slack
    d q |SA \\ A| - p |G \\ A| is at most n^3 <= 10^12 < 2^63 in size, and
    the internal one at most d n, so both slacks are exact.
    """
    n = graph.n
    d = graph.d
    eps = vertex_cheeger(graph, max_exact=max_exact).value
    p, q = eps.numerator, eps.denominator

    sets = _candidate_sets(n)
    steps = graph.group.table[list(graph.gens)]

    def over_neighbors(op) -> np.ndarray:
        """op folded over the rows s v, s in S, for every vertex v."""
        out = sets[steps[0]]
        for step in steps[1:]:
            op(out, sets[step], out=out)
        return out

    def count(x: np.ndarray) -> np.ndarray:
        return x.sum(axis=0, dtype=np.int16).astype(np.int64)

    # S is symmetric, so v is in S·A exactly when s v is in A for some s in
    # S, and outside S·A^c exactly when s v is in A for every s in S. For
    # booleans, a > b is a & ~b.
    exc = count(over_neighbors(np.logical_or) > sets)
    internal = d * exc - count(sets > over_neighbors(np.logical_and))
    size = count(sets)
    main = (d * q * exc - p * (n - size))[2 * size >= n]

    main_slack = int(main.min()) if main.size else None
    internal_slack = int(internal.min())
    exhaustive = n <= _EXHAUSTIVE_LIMIT
    return LargeSetExpansionReport(
        ok=(main_slack is None or main_slack >= 0) and internal_slack >= 0,
        exhaustive=exhaustive,
        tested=1 << n if exhaustive else _SAMPLES,
        main_slack=main_slack,
        internal_slack=internal_slack,
    )


# ---------------------------------------------------------------------------
# Pipeline


@dataclass(frozen=True)
class ProofTrace:
    params: ProofParameters
    candidate: CandidateReport
    properties: SetPropertyReport | None = None
    dichotomy: DichotomyReport | None = None
    agreement_bounds: tuple[AgreementBoundsReport, ...] | None = None
    subgroup: SubgroupExtraction | None = None
    final: FinalReport | None = None
    failure: str | None = None

    @property
    def hypothesis_met(self) -> bool:
        return self.candidate.hypothesis_met

    @property
    def out_of_regime(self) -> bool:
        return self.params.forced

    @property
    def succeeded(self) -> bool:
        """Full run: subgroup extracted, disjoint from S, nothing failed."""
        return (
            self.failure is None
            and self.subgroup is not None
            and self.subgroup.is_index_two
            and self.final is not None
            and self.final.disjoint
            and bool(self.final.structural_match)
        )


def run_pipeline(
    graph: CayleyGraph,
    zeta: Fraction | float | None = None,
    *,
    max_exact: int = MAX_EXACT_DEFAULT,
) -> ProofTrace:
    """Run every stage in order, recording the first failed check.

    eps is the graph's exact vertex expansion constant h, and zeta defaults
    to the largest in-regime value for it. When the spectrum is not within
    zeta of -1 the trace stops at the hypothesis stage, which is the
    expected outcome for non-bipartite graphs in regime.
    """
    eps = vertex_cheeger(graph, max_exact=max_exact).value
    if zeta is None:
        zeta = zeta_max(eps, graph.d)
    params = make_parameters(eps, graph.d, zeta)

    candidate = find_candidate_set(graph, params, max_exact=max_exact)
    if not candidate.hypothesis_met:
        return ProofTrace(params=params, candidate=candidate)

    failure: str | None = None

    def note(msg: str) -> None:
        nonlocal failure
        if failure is None:
            failure = msg

    a_mask = candidate.a_mask
    assert a_mask is not None
    if not candidate.ratio_ok:
        note(
            f"candidate boundary ratio failed: weighted excess "
            f"{candidate.weighted_excess} >= beta |A| = "
            f"{params.beta * len(candidate.a_set):.6g}"
        )

    properties = set_property_check(graph, a_mask, params)
    if not properties.all_ok:
        note("half-set structure properties failed")

    profile = translate_profile(graph, a_mask)

    try:
        dichotomy = dichotomy_check(profile, params)
    except ValueError as exc:
        note(str(exc))
        return ProofTrace(
            params=params,
            candidate=candidate,
            properties=properties,
            failure=failure,
        )
    if not dichotomy.valid:
        note(
            "overlap dichotomy violated at g = "
            + ", ".join(str(g) for g in dichotomy.violations[:4])
        )

    agreement = tuple(
        agreement_set_bounds_check(graph, a_mask, g, params)
        for g in range(graph.n)
    )
    bad = [rep.g for rep in agreement if not rep.all_ok]
    if bad:
        note(
            "agreement-set bounds failed at g = "
            + ", ".join(str(g) for g in bad[:4])
        )

    subgroup = construct_subgroup(graph, profile, params)
    if not subgroup.is_index_two:
        note("extracted set is not an index-2 subgroup")

    final = disjointness_check(graph, subgroup.h_mask, a_mask, params)
    if not final.disjoint:
        note(
            "generators intersect the extracted subgroup: "
            + ", ".join(str(t) for t in final.s_cap_h)
        )
    elif final.structural_match is False:
        note("extracted subgroup does not match any structural certificate")

    return ProofTrace(
        params=params,
        candidate=candidate,
        properties=properties,
        dichotomy=dichotomy,
        agreement_bounds=agreement,
        subgroup=subgroup,
        final=final,
        failure=failure,
    )
