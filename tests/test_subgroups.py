import functools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import cayleygap.proof
import cayleygap.subgroups
from cayleygap import (
    build,
    build_graph,
    closure,
    find_candidate_set,
    from_cyclic,
    from_dihedral,
    from_direct_product,
    from_symmetric,
    full_report,
    index2_subgroups,
    is_bipartite_structural,
    make_parameters,
    mask_members,
    squares_commutators_subgroup,
)
from cayleygap.groups import parse_group_spec

import families
import oracles


def test_closure_of_nothing_is_trivial():
    g = from_cyclic(6)
    assert closure(g, []) == (0,)


def test_closure_generates_subgroup():
    g = from_cyclic(6)
    assert closure(g, [2]) == (0, 2, 4)
    assert closure(g, [3]) == (0, 3)
    assert closure(g, [2, 3]) == (0, 1, 2, 3, 4, 5)


def test_closure_rejects_bad_seed():
    with pytest.raises(ValueError):
        closure(from_cyclic(6), [6])


@pytest.mark.parametrize(
    "group,expected",
    [
        (from_cyclic(4), (0, 2)),
        (from_cyclic(5), (0, 1, 2, 3, 4)),
        (from_cyclic(6), (0, 2, 4)),
    ],
    ids=["Z4", "Z5", "Z6"],
)
def test_squares_commutators_cyclic(group, expected):
    assert squares_commutators_subgroup(group) == expected


def test_squares_commutators_symmetric():
    s3 = from_symmetric(3)
    # the even permutations
    assert len(squares_commutators_subgroup(s3)) == 3
    assert len(squares_commutators_subgroup(from_symmetric(4))) == 12


def test_index2_z6():
    subs = index2_subgroups(from_cyclic(6))
    assert len(subs) == 1
    assert subs[0] == (0, 2, 4)


def test_index2_z5_none():
    assert index2_subgroups(from_cyclic(5)) == ()


def test_index2_dihedral4():
    subs = index2_subgroups(from_dihedral(4))
    assert list(subs) == [
        (0, 1, 2, 3),
        (0, 2, 4, 6),
        (0, 2, 5, 7),
    ]


def test_index2_s3_is_alternating():
    s3 = from_symmetric(3)
    subs = index2_subgroups(s3)
    assert len(subs) == 1
    assert len(subs[0]) == 3
    assert squares_commutators_subgroup(s3) == subs[0]


def test_index2_klein():
    klein = from_direct_product(from_cyclic(2), from_cyclic(2))
    subs = index2_subgroups(klein)
    assert list(subs) == [(0, 1), (0, 2), (0, 3)]


@pytest.mark.parametrize("member", families.small(12), ids=lambda m: m.name)
def test_index2_matches_brute_force(member):
    group = families.graph_of(member).group
    expected = oracles.brute_force_index2(group)
    assert list(index2_subgroups(group)) == expected


# Order 16, where the quotient G/N has rank 3 or 4 and the doubling pass
# takes three or four new bits: (Z/2)^4 with N = 1, and D4 x Z/2 and
# Z/4 x (Z/2)^2 with N of order 2.
@pytest.mark.parametrize("spec,count", [
    ("product:cyclic:2xcyclic:2xcyclic:2xcyclic:2", 15),
    ("product:dihedral:4xcyclic:2", 7),
    ("product:cyclic:4xcyclic:2xcyclic:2", 7),
])
def test_index2_matches_brute_force_at_order_16(spec, count):
    group = parse_group_spec(spec).build()
    expected = oracles.brute_force_index2(group)
    assert len(expected) == count
    assert list(index2_subgroups(group)) == expected


def test_index2_count_elementary_abelian():
    cube = from_direct_product(
        from_direct_product(from_cyclic(2), from_cyclic(2)), from_cyclic(2)
    )
    subs = index2_subgroups(cube)
    assert len(subs) == 7   # hyperplanes of F2^3


@pytest.mark.parametrize("member", families.MEMBERS, ids=families.MEMBER_IDS)
def test_structural_matches_expected_bipartiteness(member):
    graph = families.graph_of(member)
    cert = is_bipartite_structural(graph)
    assert (cert is not None) == member.bipartite
    if cert is not None:
        assert 2 * len(cert) == graph.n
        assert not set(graph.gens) & set(cert)
        # parts H and G \ H: all edges cross
        h = set(cert)
        for x, row in enumerate(oracles.neighbor_rows(graph)):
            for y in row:
                assert (x in h) != (y in h)


@pytest.mark.parametrize("member", families.MEMBERS, ids=families.MEMBER_IDS)
def test_equivalence_on_family(member):
    """The report's bipartite_equivalence row: spectral bipartiteness agrees
    with the structural certificate (tested above)."""
    report = families.report_of(member)
    assert families.rows_of(member)["bipartite_equivalence"].status == "pass"
    assert report.bipartite_spectral == member.bipartite
    assert report.bipartite_structural == member.bipartite


# The family's groups and the groups of the benchmark's spectrum_large
# workload (orders 64 to 256).
ORACLE_GROUPS = sorted({m.group_spec for m in families.MEMBERS}) + [
    "dihedral:32",
    "symmetric:5",
    "dihedral:64",
    "product:" + "x".join(["cyclic:2"] * 7),
    "cyclic:256",
]


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_squares_and_index2_match_oracles(spec):
    group = parse_group_spec(spec).build()
    squares = squares_commutators_subgroup(group)
    assert squares == oracles.squares_commutators_closure(group)
    subs = index2_subgroups(group)
    assert len(subs) == group.order // len(squares) - 1
    for sub in subs:
        oracles.validate_subgroup(group, sub)


_SPECS = st.one_of(
    st.integers(1, 40).map(lambda n: f"cyclic:{n}"),
    st.integers(2, 20).map(lambda m: f"dihedral:{m}"),
    st.integers(1, 4).map(lambda k: f"symmetric:{k}"),
    st.sampled_from([
        "product:dihedral:3xcyclic:2",
        "product:dihedral:4xcyclic:2",
        "product:symmetric:3xcyclic:2",
        "product:cyclic:2xcyclic:4",
        "product:cyclic:4xcyclic:6",
        "product:cyclic:2xcyclic:2xcyclic:2",
    ]),
)


@functools.cache
def _group(spec):
    return parse_group_spec(spec).build()


@given(_SPECS, st.booleans(), st.data())
def test_structural_and_candidate_match_references(spec, loop, data):
    """The <S·S> certificate is the first disjoint subgroup of the full
    index-2 list, and the candidate half-set of a bipartite graph is the
    least component of the S·S support graph."""
    group = _group(spec)
    draw = data.draw(st.sets(st.integers(0, group.order - 1), max_size=6))
    graph = build(group, families.random_generators(group, draw, loop))
    cert = is_bipartite_structural(graph)
    assert cert == oracles.enumerated_bipartite_certificate(graph)
    witness = oracles.support_component_witness(graph)
    assert (witness is None) == (cert is None)
    if cert is not None:
        params = make_parameters(Fraction(1), graph.d, Fraction(1, 2))
        candidate = find_candidate_set(graph, params, max_exact=graph.n)
        assert candidate.a_set == mask_members(witness)


@pytest.mark.parametrize("spec,gens,bipartite", [
    ("cyclic:7", "±1", False),
    ("product:" + "x".join(["cyclic:2"] * 7), "1,2,4,8,16,32,64", True),
])
def test_full_report_runs_no_index2_enumeration(monkeypatch, spec, gens,
                                                bipartite):
    def refuse(group):
        raise AssertionError("index2_subgroups was called")

    monkeypatch.setattr(cayleygap.subgroups, "index2_subgroups", refuse)
    monkeypatch.setattr(cayleygap.proof, "index2_subgroups", refuse)
    report = full_report(build_graph(spec, gens))
    assert report.bipartite_structural == bipartite
