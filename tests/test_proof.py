import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cayleygap.proof
from cayleygap import (
    CapExceededError,
    CayleyGraph,
    agreement_set_bounds_check,
    beta_of_zeta,
    build,
    build_graph,
    construct_subgroup,
    dichotomy_check,
    disjointness_check,
    find_candidate_set,
    from_cyclic,
    from_dihedral,
    from_direct_product,
    is_bipartite_structural,
    large_set_expansion_check,
    make_parameters,
    mask_of,
    right_translate,
    run_pipeline,
    set_image,
    set_property_check,
    square_multiset,
    translate_profile,
    vertex_cheeger,
    zeta_max,
    zeta_max_candidate,
)
from cayleygap.cheeger import _crossing_search
from cayleygap.proof import _candidate_sets

import families
import oracles


def _graph(spec, gens):
    return build_graph(spec, gens)


# ---------------------------------------------------------------------------
# Constants


def test_zeta_max_values():
    assert zeta_max(Fraction(2, 3), 2) == Fraction(1, 1492992)
    assert zeta_max(1, 1) == Fraction(1, 2048)
    assert zeta_max(1, 2) == Fraction(1, 294912)
    assert zeta_max_candidate(Fraction(2, 3), 2) == Fraction(1, 144)
    assert zeta_max_candidate(1, 2) == Fraction(1, 64)


def test_zeta_max_domain():
    with pytest.raises(ValueError):
        zeta_max(0, 2)
    with pytest.raises(ValueError):
        zeta_max(Fraction(-1, 2), 2)
    with pytest.raises(ValueError):
        zeta_max(1, 0)
    with pytest.raises(ValueError):
        zeta_max_candidate(0, 2)


def test_beta_values():
    assert beta_of_zeta(zeta_max(Fraction(2, 3), 2), 2) == pytest.approx(
        0.006547283914650207, rel=1e-14
    )
    assert beta_of_zeta(2, 3) == 0.0
    assert beta_of_zeta(1, 1) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_beta_domain():
    with pytest.raises(ValueError):
        beta_of_zeta(0, 2)
    with pytest.raises(ValueError):
        beta_of_zeta(2.5, 2)
    with pytest.raises(ValueError, match=r"^zeta must lie in \(0, 2\], got 3$"):
        beta_of_zeta(Fraction(3), 2)
    with pytest.raises(ValueError):
        beta_of_zeta(Fraction(1, 2), 0)


def test_make_parameters_z6():
    p = make_parameters(Fraction(2, 3), 2, zeta_max(Fraction(2, 3), 2))
    assert p.beta == pytest.approx(0.006547283914650207, rel=1e-14)
    assert p.z == pytest.approx(0.13749296220765433, rel=1e-14)
    assert p.r == pytest.approx(0.8625070377923456, rel=1e-14)
    assert p.candidate_regime and p.subgroup_regime and p.threshold_regime
    assert not p.forced


def test_make_parameters_forced():
    p = make_parameters(Fraction(1), 2, Fraction(1, 4))
    assert p.forced
    assert not p.subgroup_regime
    assert p.z > 0.5


@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=8),
)
def test_in_regime_parameters_are_tame(eps_quarters, d):
    # at the zeta ceiling: beta <= eps^2/(8 sqrt2 d(d+1)) and z <= 1/(4 sqrt2)
    eps = Fraction(eps_quarters, 4)
    if eps > d:   # vertex expansion never exceeds the degree
        eps = Fraction(d)
    p = make_parameters(eps, d, zeta_max(eps, d))
    assert p.subgroup_regime
    assert p.candidate_regime
    assert p.threshold_regime
    eps_f = float(eps)
    bound = eps_f * eps_f / (8 * math.sqrt(2) * d * (d + 1))
    assert p.beta <= bound + 1e-12
    assert p.z <= 1 / (4 * math.sqrt(2)) + 1e-12
    assert p.r > 0.82
    assert p.beta / eps_f < 0.09
    assert p.r > p.beta / eps_f


# ---------------------------------------------------------------------------
# Candidate half-set


WEIGHTED_MINIMA = {
    ("cyclic:3", "±1"): (2, 1, 0b1),
    ("cyclic:5", "±1"): (2, 2, 0b101),
    ("cyclic:7", "±1"): (2, 3, 0b10101),
    ("cyclic:5", "±1,±2"): (18, 2, 0b11),
    ("cyclic:6", "±1,±2"): (20, 3, 0b1011),
    ("cyclic:7", "±1,±2"): (20, 3, 0b10011),
    ("cyclic:8", "±1,±2"): (24, 4, 0b110011),
    ("dihedral:3", "auto"): (8, 3, 0b1110),
}


def _weighted_search(graph):
    return _crossing_search(graph.group.mult, square_multiset(graph.gens, graph.group))[:3]


@pytest.mark.parametrize("key", sorted(WEIGHTED_MINIMA), ids=lambda k: f"{k[0]} {k[1]}")
def test_weighted_search_frozen(key):
    assert _weighted_search(_graph(*key)) == WEIGHTED_MINIMA[key]


@pytest.mark.parametrize("member", families.small(10), ids=lambda m: m.name)
def test_weighted_search_matches_oracle(member):
    graph = families.graph_of(member)
    assert _weighted_search(graph) == oracles.naive_weighted_edge_min(
        oracles.support_pairs(graph), graph.n
    )


def test_candidate_z6():
    graph = _graph("cyclic:6", "±1")
    params = make_parameters(Fraction(2, 3), 2, zeta_max(Fraction(2, 3), 2))
    rep = find_candidate_set(graph, params)
    assert rep.hypothesis_met
    assert rep.a_set == (0, 2, 4)
    assert rep.identified_excess == 0
    assert rep.weighted_excess == 0
    assert rep.ratio_ok


def test_candidate_hypothesis_not_met():
    graph = _graph("cyclic:5", "±1")
    params = make_parameters(Fraction(1), 2, zeta_max(1, 2))
    rep = find_candidate_set(graph, params)
    assert not rep.hypothesis_met
    assert rep.t_min == pytest.approx(-0.8090169943749476, rel=1e-14)
    assert rep.gap == pytest.approx(0.19098300562505244, rel=1e-12)
    assert rep.a_mask is None
    assert rep.a_set == ()


def test_candidate_coset_shortcut_non_identity():
    # the support of S.S generates the even-word subgroup; its smallest coset
    # here is the odd one, so A need not contain the identity
    graph = _graph("product:cyclic:2xcyclic:4", "4,1,3")
    params = make_parameters(Fraction(3, 4), 3, zeta_max(Fraction(3, 4), 3))
    rep = find_candidate_set(graph, params)
    assert rep.a_set == (1, 3, 4, 6)
    assert 0 not in rep.a_set
    assert rep.weighted_excess == 0


def test_candidate_cap():
    graph = _graph("symmetric:4", "auto")
    params = make_parameters(Fraction(5, 6), 6, zeta_max(Fraction(5, 6), 6))
    with pytest.raises(CapExceededError):
        find_candidate_set(graph, params, max_exact=12)


def _searched_candidate(graph, zeta):
    """find_candidate_set on a graph with no structural certificate, so the
    candidate comes from the S' search, and that search's result."""
    assert is_bipartite_structural(graph) is None
    params = make_parameters(Fraction(1), graph.d, zeta)
    return find_candidate_set(graph, params), _weighted_search(graph)


# The two forced zeta = 1/2 graphs of the benchmark's verify workload, with
# the S' crossing of their candidate.
@pytest.mark.parametrize("key,crossing", [
    (("cyclic:23", "±1,±2"), 28),
    (("dihedral:11", "auto"), 8),
], ids=lambda v: v[0] if isinstance(v, tuple) else str(v))
def test_forced_candidate_excess_is_the_search_crossing(key, crossing):
    # sum over g of count(g) |gA \ A| counts each S'-edge leaving A once, so
    # the candidate's weighted excess is the crossing the search minimised.
    rep, (cross, size, mask) = _searched_candidate(_graph(*key), Fraction(1, 2))
    assert rep.hypothesis_met
    assert (rep.a_mask, len(rep.a_set)) == (mask, size)
    assert rep.weighted_excess == cross == crossing


@pytest.mark.parametrize("group,seed,loop", [
    (from_cyclic(9), 1, False),
    (from_cyclic(12), 2, False),
    (from_dihedral(6), 3, False),
    (from_dihedral(7), 4, True),
    (from_cyclic(13), 10, False),
    (from_cyclic(14), 5, False),
    (from_direct_product(from_cyclic(3), from_cyclic(5)), 6, True),
    (from_dihedral(8), 7, False),
    (from_cyclic(16), 8, True),
], ids=lambda v: str(v) if isinstance(v, (int, bool)) else v.name)
def test_candidate_excess_is_the_search_crossing(group, seed, loop):
    # zeta = 2 meets the hypothesis t_min < 1 on every connected graph.
    draw = random.Random(seed).sample(range(1, group.order), 2)
    graph = build(group, families.random_generators(group, draw, loop))
    rep, (cross, size, mask) = _searched_candidate(graph, Fraction(2))
    assert rep.hypothesis_met
    assert (rep.a_mask, len(rep.a_set)) == (mask, size)
    assert rep.weighted_excess == cross


# ---------------------------------------------------------------------------
# Half-set structure, profile, dichotomy


Z6 = _graph("cyclic:6", "±1")
P6 = make_parameters(Fraction(2, 3), 2, zeta_max(Fraction(2, 3), 2))
A6 = mask_of([0, 2, 4])


def test_set_properties_z6():
    rep = set_property_check(Z6, A6, P6)
    assert rep.all_ok
    size_lower = Z6.n / (2 + P6.beta + Z6.d * P6.beta / float(P6.eps))
    assert size_lower == pytest.approx(2.961224050808927, rel=1e-14)
    assert size_lower <= A6.bit_count() == 3
    assert (set_image(Z6, A6) & A6).bit_count() == 0
    assert oracles.translate_defect(Z6, A6) == 0


D3 = _graph("dihedral:3", "auto")


@pytest.mark.parametrize("graph,eps,zeta", [
    (Z6, Fraction(2, 3), zeta_max(Fraction(2, 3), 2)),
    (Z6, Fraction(2, 3), Fraction(1, 1000)),
    (D3, Fraction(1), zeta_max(Fraction(1), 3)),
    (D3, Fraction(1), Fraction(1, 10000)),
], ids=["zeta0", "zeta1", "dihedral-zeta0", "dihedral-zeta1"])
def test_set_properties_match_recomputation(graph, eps, zeta):
    # every nonempty A, once in regime and once at a wider beta; the oracle
    # takes the translate defect over every right translate Ag, and the
    # dihedral group is where Ag and gA differ
    params = make_parameters(eps, graph.d, zeta)
    eps = float(params.eps)
    for a_mask in range(1, 1 << graph.n):
        rep = set_property_check(graph, a_mask, params)
        size = a_mask.bit_count()
        assert rep.size_ok == (
            graph.n / (2 + params.beta + graph.d * params.beta / eps)
            <= size <= graph.n / 2)
        assert rep.overlap_ok == (
            (set_image(graph, a_mask) & a_mask).bit_count()
            <= params.beta / eps * size)
        assert rep.translate_ok == (
            oracles.translate_defect(graph, a_mask)
            <= params.beta * (1 + graph.d / eps + 2 / eps) * size)


def test_set_properties_reject_empty():
    with pytest.raises(ValueError):
        set_property_check(Z6, 0, P6)


def test_set_properties_flag_bad_set():
    # {0, 1} is neither large enough nor boundary-light
    rep = set_property_check(Z6, mask_of([0, 1]), P6)
    assert not rep.size_ok
    assert not rep.overlap_ok
    assert not rep.translate_ok
    assert not rep.all_ok


def test_translate_profile_z6():
    assert translate_profile(Z6, A6) == (3, 0, 3, 0, 3, 0)


@pytest.mark.parametrize(
    "member", [m for m in families.small(12) if m.bipartite], ids=lambda m: m.name
)
def test_profile_symmetric_under_inverse(member):
    graph = families.graph_of(member)
    trace = run_pipeline(graph)
    profile = translate_profile(graph, trace.candidate.a_mask)
    inv = graph.group.inv
    for g in range(graph.n):
        assert profile[g] == profile[inv[g]]
    assert profile[0] == len(trace.candidate.a_set)


def test_dichotomy_z6():
    profile = translate_profile(Z6, A6)
    rep = dichotomy_check(profile, P6)
    assert rep.valid
    assert rep.case_low == (1, 3, 5)
    assert rep.case_high == (0, 2, 4)
    assert rep.violations == ()
    assert all(profile[g] <= P6.z * 3 for g in rep.case_low)
    assert all(profile[g] >= (1 - P6.z) * 3 for g in rep.case_high)


def test_dichotomy_rejects_wide_z():
    params = make_parameters(Fraction(1), 2, Fraction(1, 4))
    with pytest.raises(ValueError, match="z < 1/2"):
        dichotomy_check(translate_profile(Z6, A6), params)


def _complement_is_symmetric_difference(graph, a_mask: int, g: int) -> bool:
    """B^c == A delta Ag for B = (A cap Ag) | (A | Ag)^c, as the proof
    builds B, and B matches the set-based oracle."""
    ag = right_translate(graph.group, a_mask, g)
    b_mask = (a_mask & ag) | (~(a_mask | ag) & graph.full_mask)
    assert b_mask == mask_of(oracles.agreement_set(graph, a_mask, g))
    return ~b_mask & graph.full_mask == a_mask ^ ag


def test_agreement_bounds_z6():
    # g = 1: A and A+1 partition the vertices, so B is empty
    assert oracles.agreement_set(Z6, A6, 1) == set()
    rep1 = agreement_set_bounds_check(Z6, A6, 1, P6)
    assert rep1.all_ok
    # g = 2: A+2 = A, so B is everything and its complement is empty
    assert oracles.agreement_set(Z6, A6, 2) == set(range(6))
    rep2 = agreement_set_bounds_check(Z6, A6, 2, P6)
    assert rep2.all_ok
    assert _complement_is_symmetric_difference(Z6, A6, 2)


def test_agreement_bounds_flag_bad_set():
    # A = {0, 1}, g = 1: B = {1, 3, 4, 5} and SB = {0, 2, 3, 4, 5}, so
    # |SB delta B| = 3 is far above 2 d beta (1 + d/eps + 2/eps)|A| ~ 0.37
    a_mask = mask_of([0, 1])
    assert oracles.agreement_set(Z6, a_mask, 1) == {1, 3, 4, 5}
    b_mask = mask_of([1, 3, 4, 5])
    assert (set_image(Z6, b_mask) ^ b_mask).bit_count() == 3
    rep = agreement_set_bounds_check(Z6, a_mask, 1, P6)
    assert _complement_is_symmetric_difference(Z6, a_mask, 1)
    assert not rep.delta_ok
    assert not rep.size_ok
    assert not rep.all_ok


# ---------------------------------------------------------------------------
# Subgroup extraction and the final disjointness split


def test_construct_subgroup_z6():
    sub = construct_subgroup(Z6, translate_profile(Z6, A6), P6)
    assert sub.h_set == (0, 2, 4)
    assert sub.is_index_two
    assert sub.index == 2
    assert sub.identity_ok and sub.symmetric_ok and sub.closed
    assert sub.large_ok and sub.proper_ok
    assert sub.triangle_ok
    assert sub.h_set == tuple(
        g for g, count in enumerate(translate_profile(Z6, A6)) if count >= P6.r * 3)


def test_construct_subgroup_flags_non_subgroup():
    # thresholding a skewed set: A = {0, 1} has profile peaked at 0 only
    sub = construct_subgroup(Z6, translate_profile(Z6, mask_of([0, 1])), P6)
    assert sub.h_set == (0,)
    assert not sub.large_ok
    assert not sub.is_index_two


def test_construct_subgroup_flags_failed_group_laws():
    # H = {0, 1}: 1 + 1 = 2 is outside H, so is -1 = 5, and |A cap A2| = 0
    sub = construct_subgroup(Z6, (3, 3, 0, 0, 0, 0), P6)
    assert sub.h_set == (0, 1)
    assert sub.identity_ok
    assert not sub.symmetric_ok
    assert not sub.closed
    assert not sub.triangle_ok
    assert sub.index is None


def test_disjointness_bipartite_case():
    rep = disjointness_check(Z6, mask_of([0, 2, 4]), A6, P6)
    assert rep.disjoint
    assert rep.s_cap_h == ()
    assert rep.structural_match is True
    assert rep.conflicts == ()
    assert rep.r_exceeds_ratio


def test_disjointness_conflicts():
    graph = _graph("cyclic:3", "±1")
    params = make_parameters(Fraction(2), 2, zeta_max(2, 2))
    # pretend H = G: every generator conflicts; with A = G the upper count
    # fails while the lower holds, with A = {0} the other way around
    rep = disjointness_check(graph, graph.full_mask, graph.full_mask, params)
    assert not rep.disjoint
    assert rep.s_cap_h == (1, 2)
    assert rep.structural_match is None
    assert [(c.t, c.count, c.upper_ok, c.lower_ok) for c in rep.conflicts] == [
        (1, 3, False, True),
        (2, 3, False, True),
    ]
    rep2 = disjointness_check(graph, graph.full_mask, 1 << 0, params)
    assert [(c.count, c.upper_ok, c.lower_ok) for c in rep2.conflicts] == [
        (0, True, False),
        (0, True, False),
    ]


# ---------------------------------------------------------------------------
# Large-set expansion


def test_large_set_expansion_exhaustive():
    rep = large_set_expansion_check(Z6)
    assert rep.ok
    assert rep.exhaustive
    assert rep.tested == 64
    assert rep.main_slack is not None and rep.main_slack >= 0
    assert rep.internal_slack >= 0


def test_large_set_expansion_sampled_deterministic():
    graph = _graph("cyclic:14", "±1")
    rep1 = large_set_expansion_check(graph)
    rep2 = large_set_expansion_check(graph)
    assert not rep1.exhaustive
    assert rep1.tested == 10_000
    assert rep1 == rep2
    assert rep1.ok


@pytest.mark.parametrize("member", families.small(10), ids=lambda m: m.name)
def test_large_set_expansion_family(member):
    rep = large_set_expansion_check(families.graph_of(member))
    assert rep.ok


def test_large_set_expansion_default_eps_runs_one_h_search(monkeypatch):
    calls = []
    real = cayleygap.proof.vertex_cheeger

    def counting(graph, **kwargs):
        calls.append(graph.n)
        return real(graph, **kwargs)

    monkeypatch.setattr(cayleygap.proof, "vertex_cheeger", counting)
    rep = large_set_expansion_check(Z6)
    assert rep == oracles.naive_large_set_expansion(Z6, Fraction(2, 3))
    assert calls == [6]


@pytest.mark.parametrize("n", [1, 12, 13, 31, 32, 33, 63, 64, 65, 66, 97])
def test_candidate_chunks_follow_the_seeded_stream(n):
    """_candidate_sets: column j of the matrix is the j-th tested set."""
    sets = _candidate_sets(n)
    count = 1 << n if n <= 12 else 10_000
    assert sets.shape == (n, count)
    assert sets.dtype == bool
    got = [int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little")
           for col in sets.T]
    if n <= 12:
        assert got == list(range(1 << n))
    else:
        rng = random.Random(cayleygap.proof._SAMPLE_SEED)
        assert got == [rng.getrandbits(n) for _ in range(10_000)]


def _kernel_and_oracle(graph, max_exact=24):
    eps = vertex_cheeger(graph, max_exact=max_exact).value
    rep = large_set_expansion_check(graph, max_exact=max_exact)
    return rep, oracles.naive_large_set_expansion(graph, eps)


@pytest.mark.parametrize("member", families.small(16), ids=lambda m: m.name)
def test_large_set_kernel_matches_loop_on_family(member):
    rep, ref = _kernel_and_oracle(families.graph_of(member))
    assert rep == ref


@pytest.mark.parametrize(
    "spec",
    [("cyclic:66", "±1"), ("cyclic:97", "±1"), ("cyclic:7", "0,±1"),
     ("cyclic:20", "±1")],
    ids=lambda k: f"{k[0]} {k[1]}",
)
def test_large_set_kernel_matches_loop_off_family(spec):
    """Draws of three and four 32-bit outputs, a loop (identity in S), and a
    graph whose least main slack is reached only by sets of size n/2."""
    graph = _graph(*spec)
    rep, ref = _kernel_and_oracle(graph, max_exact=graph.n)
    assert rep == ref


# ---------------------------------------------------------------------------
# Pipeline


PIPELINE_CASES = [
    ("cyclic:6", "±1", (0, 2, 4), (0, 2, 4)),
    ("cyclic:4", "±1", (0, 2), (0, 2)),
    ("cyclic:2", "1", (0,), (0,)),
    ("product:cyclic:2xcyclic:4", "4,1,3", (1, 3, 4, 6), (0, 2, 5, 7)),
    ("symmetric:3", "auto", (1, 2, 3), (0, 4, 5)),
]


@pytest.mark.parametrize(
    "spec,gens,a_set,h_set", PIPELINE_CASES, ids=lambda v: str(v)
)
def test_pipeline_extracts_subgroup(spec, gens, a_set, h_set):
    trace = run_pipeline(_graph(spec, gens))
    assert trace.succeeded
    assert trace.failure is None
    assert not trace.out_of_regime
    assert trace.candidate.a_set == a_set
    assert trace.subgroup.h_set == h_set
    assert trace.subgroup.is_index_two
    assert trace.dichotomy.valid
    assert all(rep.all_ok for rep in trace.agreement_bounds)
    assert trace.final.disjoint
    assert trace.final.structural_match is True


def test_pipeline_stops_at_hypothesis_for_expanders():
    trace = run_pipeline(_graph("cyclic:5", "±1"))
    assert not trace.hypothesis_met
    assert not trace.succeeded
    assert trace.failure is None
    assert trace.properties is None
    assert trace.subgroup is None
    assert trace.candidate.gap == pytest.approx(0.19098300562505244, rel=1e-12)


def test_pipeline_forced_mode():
    trace = run_pipeline(_graph("cyclic:5", "±1"), zeta=Fraction(1, 4))
    assert trace.out_of_regime
    assert trace.hypothesis_met
    assert trace.params.z == pytest.approx(37.416573867739416, rel=1e-14)
    assert trace.candidate.a_set == (0, 2)
    assert trace.properties is not None
    assert trace.dichotomy is None
    assert trace.subgroup is None
    assert trace.failure is not None
    assert "z < 1/2" in trace.failure
    assert not trace.succeeded


@pytest.mark.parametrize(
    "member", [m for m in families.small(16) if m.bipartite], ids=lambda m: m.name
)
def test_pipeline_succeeds_on_bipartite_members(member):
    graph = families.graph_of(member)
    trace = run_pipeline(graph)
    assert trace.succeeded
    assert not set(graph.gens) & set(trace.subgroup.h_set)


@pytest.mark.parametrize(
    "member", [m for m in families.small(16) if not m.bipartite], ids=lambda m: m.name
)
def test_pipeline_rejects_hypothesis_on_expanders(member):
    trace = run_pipeline(families.graph_of(member))
    assert not trace.hypothesis_met
    assert not trace.succeeded


def test_pipeline_rejects_nonpositive_eps():
    # x <-> x+3 on Z/6: three disjoint edges, so h = 0; never produced by build()
    g = from_cyclic(6)
    graph = CayleyGraph(
        group=g,
        gens=(3,),
        nbr_masks=tuple(1 << g.mult[3][x] for x in range(6)),
    )
    assert vertex_cheeger(graph).value == 0
    with pytest.raises(ValueError, match="positive"):
        run_pipeline(graph)


def test_pipeline_cap():
    with pytest.raises(CapExceededError):
        run_pipeline(_graph("symmetric:4", "auto"), max_exact=12)
