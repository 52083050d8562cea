import functools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from cayleygap import (
    CapExceededError,
    CayleyGraph,
    GeneratingSetError,
    build,
    build_graph,
    closure,
    dual_cheeger,
    edge_cheeger,
    from_cyclic,
    from_dihedral,
    from_direct_product,
    full_report,
    index2_subgroups,
    is_bipartite_structural,
    mask_members,
    mask_of,
    parse_group_spec,
    spectrum,
    square_multiset,
    vertex_cheeger,
)
import cayleygap.cheeger
from cayleygap.cheeger import (
    _certified,
    _coset_union,
    _crossing_search,
    _dual_optimum,
    _dual_search,
    _front_order,
    _spectral_floor,
    _vertex_search,
)
from cayleygap.spectral import TOL
from cayleygap.subgroups import _parity_pair

import families
import oracles

# Values below were derived once from the naive all-subsets oracles in
# oracles.py and are frozen here; the oracle-agreement tests further down
# re-check the enumeration engines against the same oracles at run time.

VERTEX_EDGE_VALUES = {
    ("cyclic:3", "±1"): (Fraction(2), Fraction(1)),
    ("cyclic:4", "±1"): (Fraction(1), Fraction(1, 2)),
    ("cyclic:5", "±1"): (Fraction(1), Fraction(1, 2)),
    ("cyclic:6", "±1"): (Fraction(2, 3), Fraction(1, 3)),
    ("cyclic:7", "±1"): (Fraction(2, 3), Fraction(1, 3)),
    ("cyclic:8", "±1"): (Fraction(1, 2), Fraction(1, 4)),
    ("cyclic:9", "±1"): (Fraction(1, 2), Fraction(1, 4)),
    ("cyclic:10", "±1"): (Fraction(2, 5), Fraction(1, 5)),
    ("cyclic:12", "±1"): (Fraction(1, 3), Fraction(1, 6)),
    ("cyclic:4", "±1,±2"): (Fraction(1), Fraction(2, 3)),
    ("cyclic:5", "±1,±2"): (Fraction(3, 2), Fraction(3, 4)),
    ("cyclic:6", "±1,±2"): (Fraction(1), Fraction(1, 2)),
    ("cyclic:7", "±1,±2"): (Fraction(4, 3), Fraction(1, 2)),
    ("cyclic:8", "±1,±2"): (Fraction(1), Fraction(3, 8)),
    ("cyclic:12", "±1,±2"): (Fraction(2, 3), Fraction(1, 4)),
    ("dihedral:3", "auto"): (Fraction(1), Fraction(1, 3)),
    ("dihedral:4", "auto"): (Fraction(3, 4), Fraction(1, 3)),
    ("dihedral:6", "auto"): (Fraction(2, 3), Fraction(2, 9)),
    ("symmetric:3", "auto"): (Fraction(1), Fraction(5, 9)),
    ("product:cyclic:2xcyclic:2xcyclic:2", "4,2,1"): (Fraction(3, 4), Fraction(1, 3)),
    ("product:cyclic:2xcyclic:2xcyclic:2", "4,5,6,7"): (Fraction(1), Fraction(1, 2)),
    ("product:cyclic:3xcyclic:3", "3,6,1,2"): (Fraction(1), Fraction(1, 2)),
    ("product:cyclic:2xcyclic:4", "4,1,3"): (Fraction(3, 4), Fraction(1, 3)),
}

DUAL_VALUES = {
    ("cyclic:3", "±1"): Fraction(2, 3),
    ("cyclic:4", "±1"): Fraction(1),
    ("cyclic:5", "±1"): Fraction(4, 5),
    ("cyclic:6", "±1"): Fraction(1),
    ("cyclic:7", "±1"): Fraction(6, 7),
    ("cyclic:8", "±1"): Fraction(1),
    ("cyclic:9", "±1"): Fraction(8, 9),
    ("cyclic:4", "±1,±2"): Fraction(2, 3),
    ("cyclic:5", "±1,±2"): Fraction(3, 5),
    ("cyclic:6", "±1,±2"): Fraction(2, 3),
    ("cyclic:7", "±1,±2"): Fraction(5, 7),
    ("cyclic:8", "±1,±2"): Fraction(3, 4),
    ("dihedral:3", "auto"): Fraction(7, 9),
    ("dihedral:4", "auto"): Fraction(1),
    ("symmetric:3", "auto"): Fraction(1),
    ("product:cyclic:2xcyclic:2xcyclic:2", "4,2,1"): Fraction(1),
    ("product:cyclic:2xcyclic:2xcyclic:2", "4,5,6,7"): Fraction(1),
    ("product:cyclic:3xcyclic:3", "3,6,1,2"): Fraction(2, 3),
    ("product:cyclic:2xcyclic:4", "4,1,3"): Fraction(1),
}


def _member(group_spec, gens_spec):
    for m in families.MEMBERS:
        if (m.group_spec, m.gens_spec) == (group_spec, gens_spec):
            return m
    raise KeyError((group_spec, gens_spec))


@pytest.mark.parametrize("key", sorted(VERTEX_EDGE_VALUES), ids=lambda k: f"{k[0]} {k[1]}")
def test_frozen_vertex_and_edge_values(key):
    member = _member(*key)
    h, edge_h = VERTEX_EDGE_VALUES[key]
    assert families.h_of(member) == h
    assert families.edge_h_of(member) == edge_h


@pytest.mark.parametrize("key", sorted(DUAL_VALUES), ids=lambda k: f"{k[0]} {k[1]}")
def test_frozen_dual_values(key):
    member = _member(*key)
    assert families.dual_h_of(member) == DUAL_VALUES[key]


def test_vertex_witness_z6():
    cert = vertex_cheeger(families.graph_of(_member("cyclic:6", "±1")))
    assert cert.kind == "vertex"
    assert cert.value == Fraction(2, 3)
    assert cert.witness == (0, 1, 2)


def test_vertex_witness_z5():
    cert = vertex_cheeger(families.graph_of(_member("cyclic:5", "±1")))
    assert cert.value == Fraction(1)
    assert cert.witness == (0, 1)


def test_s4_adjacent_witnesses():
    graph = families.graph_of(_member("symmetric:4", "(0 1);(1 2);(2 3)"))
    vert = vertex_cheeger(graph)
    assert vert.value == Fraction(1, 2)
    assert vert.witness == (0, 1, 2, 4, 5, 6, 7, 8, 9, 11, 16, 17)
    edge = edge_cheeger(graph)
    assert edge.value == Fraction(1, 6)
    assert edge.witness == (0, 1, 2, 4, 5, 6, 7, 9, 11, 16, 17, 20)


def test_s4_transpositions_values():
    graph = families.graph_of(_member("symmetric:4", "auto"))
    vert = vertex_cheeger(graph)
    assert vert.value == Fraction(5, 6)
    assert vert.witness == (0, 1, 2, 3, 7, 8, 9, 10, 11, 12, 13, 14)
    edge = edge_cheeger(graph)
    assert edge.value == Fraction(1, 3)
    assert edge.witness == (0, 1, 3, 4, 5, 7, 8, 10, 15, 16, 18, 19)


def test_dual_witness_z4():
    cert = dual_cheeger(families.graph_of(_member("cyclic:4", "±1")))
    assert cert.kind == "dual"
    assert cert.value == Fraction(1)
    assert cert.witness_pair == ((0, 2), (1, 3))
    assert cert.witness == (0, 2)


# First-maximiser witness pairs above the dual oracle's reach (its 3^n scan
# takes seconds at n = 12), frozen here so that a change to the dual search's
# pruning that moves the first maximiser fails.
DUAL_PAIRS = {
    ("cyclic:11", "±1"): (Fraction(10, 11), ((0, 1, 3, 5, 7, 9), (2, 4, 6, 8, 10))),
    ("cyclic:12", "±1"): (Fraction(1), ((0, 2, 4, 6, 8, 10), (1, 3, 5, 7, 9, 11))),
    ("cyclic:13", "±1"): (
        Fraction(12, 13), ((0, 1, 3, 5, 7, 9, 11), (2, 4, 6, 8, 10, 12))),
    ("cyclic:14", "±1"): (
        Fraction(1), ((0, 2, 4, 6, 8, 10, 12), (1, 3, 5, 7, 9, 11, 13))),
    ("cyclic:11", "±1,±2"): (Fraction(8, 11), ((0, 1, 3, 4, 7, 8), (2, 5, 6, 9, 10))),
    ("cyclic:12", "±1,±2"): (
        Fraction(3, 4), ((0, 1, 4, 5, 8, 9), (2, 3, 6, 7, 10, 11))),
    ("cyclic:13", "±1,±2"): (
        Fraction(9, 13), ((0, 1, 2, 5, 6, 9, 10), (3, 4, 7, 8, 11, 12))),
    ("cyclic:14", "±1,±2"): (
        Fraction(5, 7), ((0, 1, 3, 4, 6, 7, 10, 11), (2, 5, 8, 9, 12, 13))),
    ("dihedral:6", "auto"): (Fraction(1), ((0, 2, 4, 7, 9, 11), (1, 3, 5, 6, 8, 10))),
    ("dihedral:7", "auto"): (
        Fraction(19, 21), ((0, 1, 3, 5, 8, 10, 12), (2, 4, 6, 7, 9, 11, 13))),
}


@pytest.mark.parametrize("key", list(DUAL_PAIRS), ids=lambda k: f"{k[0]} {k[1]}")
def test_frozen_dual_witness_pairs(key):
    cert = dual_cheeger(build_graph(*key))
    assert (cert.value, cert.witness_pair) == DUAL_PAIRS[key]


# (assign calls of `_dual_search`, width of `_front_order`) on every
# DUAL_VALUES and DUAL_PAIRS graph and three dense circulants, frozen so that
# a wrong floor, a lost local-optimality rule or a wider vertex order fails a
# test rather than only costing time. The counts are the same on every
# platform: the DP's int64 sums are exact and the search uses only Python
# ints. A bipartite graph's seed is the answer, with no search. Within the
# DP's work budget the search stops at its first accepted leaf; cyclic:14
# ±1,±3,±5,±6 (width 11) is over it and runs from the seed's floor.
DUAL_NODES = {
    ("cyclic:3", "±1"): (7, 2),
    ("cyclic:4", "±1"): (0, 2),
    ("cyclic:5", "±1"): (13, 2),
    ("cyclic:6", "±1"): (0, 2),
    ("cyclic:7", "±1"): (19, 2),
    ("cyclic:8", "±1"): (0, 2),
    ("cyclic:9", "±1"): (25, 2),
    ("cyclic:4", "±1,±2"): (10, 3),
    ("cyclic:5", "±1,±2"): (13, 4),
    ("cyclic:6", "±1,±2"): (28, 4),
    ("cyclic:7", "±1,±2"): (31, 4),
    ("cyclic:8", "±1,±2"): (67, 4),
    ("dihedral:3", "auto"): (16, 3),
    ("dihedral:4", "auto"): (0, 4),
    ("symmetric:3", "auto"): (0, 3),
    ("product:cyclic:2xcyclic:2xcyclic:2", "4,2,1"): (0, 4),
    ("product:cyclic:2xcyclic:2xcyclic:2", "4,5,6,7"): (0, 4),
    ("product:cyclic:3xcyclic:3", "3,6,1,2"): (133, 5),
    ("product:cyclic:2xcyclic:4", "4,1,3"): (0, 4),
    ("cyclic:11", "±1"): (31, 2),
    ("cyclic:12", "±1"): (0, 2),
    ("cyclic:13", "±1"): (37, 2),
    ("cyclic:14", "±1"): (0, 2),
    ("cyclic:11", "±1,±2"): (136, 4),
    ("cyclic:12", "±1,±2"): (481, 4),
    ("cyclic:13", "±1,±2"): (82, 4),
    ("cyclic:14", "±1,±2"): (481, 4),
    ("dihedral:6", "auto"): (0, 4),
    ("dihedral:7", "auto"): (133, 4),
    ("cyclic:13", "±1,±5"): (1720, 7),
    ("cyclic:14", "±1,±2,7"): (919, 8),
    ("cyclic:14", "±1,±3,±5,±6"): (216193, 11),
}


@pytest.mark.parametrize("key", list(DUAL_NODES), ids=lambda k: f"{k[0]} {k[1]}")
def test_frozen_dual_node_counts(key):
    graph = build_graph(*key)
    nodes = DUAL_NODES[key][0]
    assert _dual_search(graph.nbr_masks, graph.n)[4] == nodes
    cert = dual_cheeger(graph)
    assert cert == oracles.reference_dual_search(graph)
    assert (cert.value == 1) == (nodes == 0)


@pytest.mark.parametrize("key", list(DUAL_NODES), ids=lambda k: f"{k[0]} {k[1]}")
def test_frozen_dual_front_widths(key):
    graph = build_graph(*key)
    nbrs = [graph.nbr_masks[u] & ~(1 << u) for u in range(graph.n)]
    order, width = _front_order(nbrs, graph.n)
    assert sorted(order) == list(range(graph.n)) and order[0] == 0
    assert width == DUAL_NODES[key][1]
    assert (_dual_optimum(graph.nbr_masks, graph.n) is None) == (
        3**width * (graph.n + 1) > cayleygap.cheeger._FRONT_STATES)


# (crossing, size, mask) of `_crossing_search` on the generating set with
# unit counts (the edge count) and on the square multiset S' = S·S, for graphs
# above the naive oracles' reach. Frozen from the search when its only lower
# bound was the crossings to passed-over vertices, so that a pruning change
# that moves the first minimiser fails.
CROSSING_MINIMA = {
    ("symmetric:4", "auto"): ((24, 12, 886203), (0, 12, 262017)),
    ("symmetric:4", "(0 1);(1 2);(2 3)"): ((6, 12, 1247991), (0, 12, 262017)),
    ("dihedral:12", "auto"): ((4, 12, 262017), (0, 12, 5593770)),
    ("dihedral:11", "auto"): ((4, 10, 65409), (8, 11, 699734)),
    ("cyclic:23", "±1,±2"): ((6, 11, 2047), (28, 11, 2047)),
}


def _unit_counts(graph):
    """The generating set as a multiset of unit counts: the edge search's."""
    return dict.fromkeys(graph.gens, 1)


@pytest.mark.parametrize("key", list(CROSSING_MINIMA), ids=lambda k: f"{k[0]} {k[1]}")
def test_frozen_crossing_minima(key):
    graph = build_graph(*key)
    mult = graph.group.mult
    assert (
        _crossing_search(mult, _unit_counts(graph))[:3],
        _crossing_search(mult, square_multiset(graph.gens, graph.group))[:3],
    ) == CROSSING_MINIMA[key]


# Pass-1 extend calls of `_crossing_search` on the CROSSING_MINIMA graphs:
# unit counts with the spectral floor, unit counts without it, and the square
# multiset S' = S·S. Frozen so that a weaker bound or a lost first incumbent
# fails a test rather than only costing time. Pass 1 uses only Python ints
# and the coset union exact int64 sums, so the counts are the same on every
# platform. On symmetric:4 auto the union is the optimum and the floor
# certifies it before the first node.
CROSSING_NODES = {
    ("symmetric:4", "auto"): (0, 12723, 19),
    ("symmetric:4", "(0 1);(1 2);(2 3)"): (811, 811, 19),
    ("dihedral:12", "auto"): (408, 408, 19),
    ("dihedral:11", "auto"): (968, 968, 262),
    ("cyclic:23", "±1,±2"): (55, 55, 751),
}


@pytest.mark.parametrize("key", list(CROSSING_NODES), ids=lambda k: f"{k[0]} {k[1]}")
def test_frozen_crossing_node_counts(key):
    graph = build_graph(*key)
    mult, unit = graph.group.mult, _unit_counts(graph)
    floor = _spectral_floor(graph, spectrum(graph).lambda2)
    runs = (_crossing_search(mult, unit, floor), _crossing_search(mult, unit),
            _crossing_search(mult, square_multiset(graph.gens, graph.group)))
    assert tuple(run[3] for run in runs) == CROSSING_NODES[key]
    assert (runs[0][:3], runs[2][:3]) == CROSSING_MINIMA[key]


# (boundary, size, mask) of `_vertex_search` on the same graphs and on
# cyclic:24 ±1, frozen from the one-pass search whose witness was the smallest
# right translate of its first rooted minimiser, so that a change to the
# pruning or to the witness search that moves the minimum fails.
VERTEX_MINIMA = {
    ("symmetric:4", "auto"): (10, 12, 0b111111110001111),
    ("symmetric:4", "(0 1);(1 2);(2 3)"): (6, 12, 0b110000101111110111),
    ("dihedral:12", "auto"): (4, 12, 0b11111111110000011),
    ("dihedral:11", "auto"): (4, 11, 0b1111111110000011),
    ("cyclic:23", "±1,±2"): (4, 11, 0b11111111111),
    ("cyclic:24", "±1"): (2, 12, 0b111111111111),
}


@pytest.mark.parametrize("key", list(VERTEX_MINIMA), ids=lambda k: f"{k[0]} {k[1]}")
def test_frozen_vertex_minima(key):
    graph = build_graph(*key)
    assert _vertex_search(graph.nbr_masks, graph.n) == VERTEX_MINIMA[key]


@pytest.mark.parametrize("member", families.small(12), ids=lambda m: m.name)
def test_vertex_engine_matches_oracle(member):
    graph = families.graph_of(member)
    value, witness = oracles.naive_vertex_cheeger(graph.nbr_masks, graph.n)
    cert = vertex_cheeger(graph)
    assert cert.value == value
    assert cert.witness == witness


@pytest.mark.parametrize("member", families.small(12), ids=lambda m: m.name)
def test_edge_engine_matches_oracle(member):
    graph = families.graph_of(member)
    value, witness = oracles.naive_edge_cheeger(graph)
    cert = edge_cheeger(graph)
    assert cert.value == value
    assert cert.witness == witness


@pytest.mark.parametrize("member", families.small(10), ids=lambda m: m.name)
def test_dual_engine_matches_oracle(member):
    graph = families.graph_of(member)
    value, pair = oracles.naive_dual_cheeger(graph)
    cert = dual_cheeger(graph)
    assert cert.value == value
    assert cert.witness_pair == pair
    assert oracles.reference_dual_search(graph) == cert


# Seeded graphs of order 13..16, above the families.small(12) members the
# oracle checks: (group, seed of the drawn elements, loop).
_MID_GRAPHS = [
    (from_cyclic(13), 1, False),
    (from_cyclic(14), 2, True),
    (from_dihedral(7), 3, False),
    (from_cyclic(15), 4, False),
    (from_direct_product(from_cyclic(3), from_cyclic(5)), 5, True),
    (from_cyclic(16), 6, False),
    (from_dihedral(8), 7, True),
    (from_dihedral(8), 8, False),
    (from_direct_product(from_cyclic(2), from_cyclic(8)), 9, False),
    (from_direct_product(from_cyclic(4), from_cyclic(4)), 10, True),
]


# Seeded graphs of order 11..14, above the dual oracle's reach, checked
# against the dual search without seed, floor or local pruning: with a loop
# or not, and with two drawn elements (sparse S) or n // 3 (dense S), plus
# the _MID_GRAPHS of order at most 14: (group, seed, loop, elements drawn).
_DUAL_GRAPHS = [
    (group, 100 + 4 * i + 2 * dense + loop, loop, group.order // 3 if dense else 2)
    for i, group in enumerate([
        from_cyclic(11), from_cyclic(13), from_cyclic(14), from_dihedral(6),
        from_dihedral(7), from_direct_product(from_cyclic(3), from_cyclic(4)),
    ])
    for dense in (False, True)
    for loop in (False, True)
] + [(group, seed, loop, 2) for group, seed, loop in _MID_GRAPHS if group.order <= 14]


def _drawn_graph(group, seed, loop, k):
    """The Cayley graph of k elements drawn by the seed, with their inverses
    and a loop if `loop` (families.random_generators)."""
    draw = random.Random(seed).sample(range(1, group.order), k)
    return build(group, families.random_generators(group, draw, loop))


@pytest.mark.parametrize("group,seed,loop,k", _DUAL_GRAPHS,
                         ids=lambda v: str(v) if isinstance(v, (int, bool)) else v.name)
def test_dual_engine_matches_reference_above_10(group, seed, loop, k):
    graph = _drawn_graph(group, seed, loop, k)
    assert dual_cheeger(graph) == oracles.reference_dual_search(graph)


@pytest.mark.parametrize("n", [15, 16])
def test_dual_engine_matches_reference_above_the_cap(n):
    graph = build_graph(f"cyclic:{n}", "±1,±2")
    assert dual_cheeger(graph, max_dual=16) == oracles.reference_dual_search(graph)


# Graphs for the front DP's oracle test, on both sides of its work budget:
# every family graph with n <= 14, the _DUAL_GRAPHS (fronts 2 to 10) and
# cyclic:14 ±1,±3,±5,±6 (front 11).
_FRONT_GRAPHS = (
    [pytest.param(functools.partial(families.graph_of, m), id=m.name) for m in families.small(14)]
    + [pytest.param(functools.partial(_drawn_graph, *case), id=f"{case[0].name} seed={case[1]}")
       for case in _DUAL_GRAPHS]
    + [pytest.param(functools.partial(build_graph, "cyclic:14", "±1,±3,±5,±6"),
                    id="cyclic:14 ±1,±3,±5,±6")]
)


@pytest.mark.parametrize("make", _FRONT_GRAPHS)
def test_dual_optimum_matches_oracles(make):
    # The naive 3^n scan up to n = 9, the unpruned reference search above.
    graph = make()
    if graph.n <= 9:
        value = oracles.naive_dual_cheeger(graph)[0]
    else:
        value = oracles.reference_dual_search(graph).value
    optimum = _dual_optimum(graph.nbr_masks, graph.n)
    if optimum is None:   # over the work budget: the search from the seed
        assert dual_cheeger(graph).value == value
    else:
        assert Fraction(2 * optimum[0], graph.d * optimum[1]) == value


@pytest.mark.parametrize("group,seed,loop", _MID_GRAPHS,
                         ids=lambda v: str(v) if isinstance(v, (int, bool)) else v.name)
def test_vertex_engine_matches_oracle_above_12(group, seed, loop):
    # The vertex, edge and S'-weighted searches, above the n <= 12 reach of
    # the hypothesis-drawn graphs.
    draw = random.Random(seed).sample(range(1, group.order), 2)
    graph = build(group, families.random_generators(group, draw, loop))
    n = graph.n
    cert = vertex_cheeger(graph)
    assert (cert.value, cert.witness) == oracles.naive_vertex_cheeger(graph.nbr_masks, n)
    edge = edge_cheeger(graph)
    assert (edge.value, edge.witness) == oracles.naive_edge_cheeger(graph)
    counts = square_multiset(graph.gens, graph.group)
    weighted = oracles.naive_weighted_edge_min(oracles.support_pairs(graph), n)
    assert _crossing_search(graph.group.mult, counts)[:3] == weighted


@pytest.mark.parametrize("n", range(10, 15))
def test_rooted_witnesses_on_complete_graphs(n):
    # Every half-size set ties in both searches, so the witness is the
    # smallest translate over thousands of tied rooted optima.
    graph = build_graph(f"cyclic:{n}", ",".join(str(s) for s in range(1, n)))
    vert = vertex_cheeger(graph)
    assert (vert.value, vert.witness) == oracles.naive_vertex_cheeger(
        graph.nbr_masks, n
    )
    edge = edge_cheeger(graph)
    assert (edge.value, edge.witness) == oracles.naive_edge_cheeger(graph)


@pytest.fixture(params=[3, 300], ids=lambda c: f"chunk{c}")
def bulk(request, monkeypatch):
    # Dives with no budget, so every vertex pass 1 and every crossing pass 2
    # runs on the frontier: in chunks of one node (3 entries per array), or
    # of 300 // (n * width) nodes.
    monkeypatch.setattr(cayleygap.cheeger, "_VERTEX_DIVE", 0)
    monkeypatch.setattr(cayleygap.cheeger, "_CROSSING_DIVE", 0)
    monkeypatch.setattr(cayleygap.cheeger, "_CHUNK", request.param)


@pytest.mark.parametrize("key", list(VERTEX_MINIMA), ids=lambda k: f"{k[0]} {k[1]}")
def test_frozen_minima_in_bulk(key, bulk):
    test_frozen_vertex_minima(key)
    if key in CROSSING_MINIMA:
        test_frozen_crossing_minima(key)


@pytest.mark.parametrize("member", families.small(12), ids=lambda m: m.name)
def test_bulk_engines_match_oracles(member, bulk):
    graph = build_graph(member.group_spec, member.gens_spec)   # not the cached graph's memo
    n = graph.n
    cert = vertex_cheeger(graph)
    assert (cert.value, cert.witness) == oracles.naive_vertex_cheeger(graph.nbr_masks, n)
    edge = edge_cheeger(graph)
    assert (edge.value, edge.witness) == oracles.naive_edge_cheeger(graph)
    counts = square_multiset(graph.gens, graph.group)
    weighted = oracles.naive_weighted_edge_min(oracles.support_pairs(graph), n)
    assert _crossing_search(graph.group.mult, counts)[:3] == weighted


@pytest.mark.parametrize("group,seed,loop", _MID_GRAPHS,
                         ids=lambda v: str(v) if isinstance(v, (int, bool)) else v.name)
def test_bulk_engines_match_oracle_above_12(group, seed, loop, bulk):
    test_vertex_engine_matches_oracle_above_12(group, seed, loop)


@pytest.mark.parametrize("n", range(10, 15))
def test_bulk_witnesses_on_complete_graphs(n, bulk):
    test_rooted_witnesses_on_complete_graphs(n)


def test_bulk_zero_ratio_ties_keep_the_smallest_size(bulk, monkeypatch):
    test_zero_ratio_ties_keep_the_smallest_size(monkeypatch)


def test_bulk_ties_below_a_larger_tie_keep_the_smallest_size(bulk, monkeypatch):
    # The frontier's three filters share the dive's tie rule. With it the
    # vertex frontier expands at most 303 nodes in chunks of one node and
    # 743 in chunks of 300 // (n * width) nodes; exploring the ties at the
    # incumbent size too takes 418 and 837.
    expanded = []
    real_frontier = cayleygap.cheeger._frontier

    def frontier(root, n, expand):
        def counted(depth, chunk):
            expanded.append(len(chunk[0]))
            return expand(depth, chunk)
        return real_frontier(root, n, counted)

    monkeypatch.setattr(cayleygap.cheeger, "_frontier", frontier)
    graph = _coset_graph(20, 4)
    assert _vertex_search(graph.nbr_masks, 20) == (0, 5, _CYCLE_MASK)
    assert sum(expanded) <= {3: 303, 300: 743}[cayleygap.cheeger._CHUNK]
    test_ties_below_a_larger_tie_keep_the_smallest_size(monkeypatch)


@pytest.mark.parametrize("n", [64, 65, 66])
def test_no_frontier_above_the_layout_limit(n, monkeypatch):
    # A frontier set is one uint64. Above 64 vertices both dives run to the
    # end whatever their budget; at 64 a zero budget sends both to the
    # frontier. The results are the cycle's closed forms either way.
    built = []
    real_frontier = cayleygap.cheeger._frontier

    def frontier(*args):
        built.append(n)
        return real_frontier(*args)

    monkeypatch.setattr(cayleygap.cheeger, "_frontier", frontier)
    monkeypatch.setattr(cayleygap.cheeger, "_VERTEX_DIVE", 0)
    monkeypatch.setattr(cayleygap.cheeger, "_CROSSING_DIVE", 0)
    graph = build_graph(f"cyclic:{n}", "±1")
    half = n // 2
    vert = vertex_cheeger(graph, max_exact=n)
    assert (vert.value, vert.witness) == (Fraction(2, half), tuple(range(half)))
    edge = edge_cheeger(graph, max_exact=n)
    assert (edge.value, edge.witness) == (Fraction(1, half), tuple(range(half)))
    assert len(built) == (2 if n <= 64 else 0)


_SMALL_GROUPS = (
    [from_cyclic(n) for n in range(2, 13)]
    + [from_dihedral(m) for m in range(3, 7)]
    + [
        from_direct_product(from_cyclic(a), from_cyclic(b))
        for a, b in ((2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (2, 6), (3, 4))
    ]
    + [from_direct_product(from_direct_product(from_cyclic(2), from_cyclic(2)), from_cyclic(2))]
)


@st.composite
def _small_cayley_graphs(draw):
    """A group of order <= 12 with a random symmetric generating set, which
    may contain the identity (a loop)."""
    group = draw(st.sampled_from(_SMALL_GROUPS))
    picks = draw(st.sets(st.integers(0, group.order - 1), min_size=1))
    try:
        return build(group, picks | {group.inv[s] for s in picks})
    except GeneratingSetError:
        assume(False)


@settings(max_examples=60)
@given(_small_cayley_graphs())
def test_rooted_searches_match_oracles(graph):
    n = graph.n
    vert = vertex_cheeger(graph)
    assert (vert.value, vert.witness) == oracles.naive_vertex_cheeger(graph.nbr_masks, n)
    edge = edge_cheeger(graph)
    assert (edge.value, edge.witness) == oracles.naive_edge_cheeger(graph)
    counts = square_multiset(graph.gens, graph.group)
    weighted = oracles.naive_weighted_edge_min(oracles.support_pairs(graph), n)
    assert _crossing_search(graph.group.mult, counts)[:3] == weighted
    if n <= 9:   # the 3^n oracle takes 3.7 s at n = 12
        dual = dual_cheeger(graph)
        assert (dual.value, dual.witness_pair) == oracles.naive_dual_cheeger(graph)


@settings(max_examples=60)
@given(_small_cayley_graphs())
def test_dual_seed_is_a_pair_below_the_optimum(graph):
    cross, m1, m2 = _parity_pair(graph.nbr_masks)
    n = graph.n
    assert m1 & 1 and not m1 & m2
    assert m1 | m2 == (1 << n) - 1
    rows = oracles.neighbor_rows(graph)
    dist = {0: 0}
    queue = [0]
    for x in queue:
        for y in rows[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    assert set(mask_members(m1)) == {x for x in dist if dist[x] % 2 == 0}
    v2 = set(mask_members(m2))
    assert cross == sum(y in v2 for x in mask_members(m1) for y in rows[x])
    ratio = Fraction(2 * cross, graph.d * n)
    assert ratio <= dual_cheeger(graph).value
    assert (ratio == 1) == (oracles.enumerated_bipartite_certificate(graph) is not None)


def _assert_dual_witness_is_the_certificate(graph):
    """A bipartite graph's dual maximiser is (K, G \\ K), K its structural
    certificate, of ratio 1, found by the seed with no search."""
    cert = is_bipartite_structural(graph)
    assert cert is not None
    rest = tuple(sorted(set(range(graph.n)) - set(cert)))
    dual = dual_cheeger(graph, max_dual=graph.n)
    assert dual.value == 1
    assert dual.witness_pair == (cert, rest)
    assert _dual_search(graph.nbr_masks, graph.n)[4] == 0


@pytest.mark.parametrize("member", [m for m in families.MEMBERS if m.bipartite],
                         ids=lambda m: m.name)
def test_bipartite_dual_witness_is_the_certificate_on_family(member):
    _assert_dual_witness_is_the_certificate(families.graph_of(member))


@pytest.mark.parametrize("spec,gens", [
    ("cyclic:24", "±1"), ("dihedral:12", "auto"), ("symmetric:4", "auto"),
])
def test_bipartite_dual_witness_is_the_certificate_at_n_24(spec, gens):
    _assert_dual_witness_is_the_certificate(build_graph(spec, gens))


_BIPARTITE_GROUPS = [
    "cyclic:2", "cyclic:10", "cyclic:16", "dihedral:5", "dihedral:8",
    "symmetric:3", "symmetric:4", "product:cyclic:2xcyclic:2xcyclic:2",
    "product:cyclic:4xcyclic:6", "product:dihedral:4xcyclic:2",
]


@pytest.mark.parametrize("seed", range(40))
def test_bipartite_dual_witness_is_the_certificate_on_random_graphs(seed):
    # S is drawn outside a random index-2 subgroup H, so the graph is
    # bipartite and H is its only certificate. The outside generates G,
    # since it holds s and (G \ H)·s = H.
    rng = random.Random(seed)
    group = parse_group_spec(rng.choice(_BIPARTITE_GROUPS)).build()
    h = rng.choice(index2_subgroups(group))
    outside = sorted(set(range(group.order)) - set(h))
    picks = rng.sample(outside, rng.randint(1, min(3, len(outside))))
    elements = set(picks) | {group.inv[x] for x in picks}
    while len(reached := closure(group, elements)) < group.order:
        missing = min(set(outside) - set(reached))
        elements |= {missing, group.inv[missing]}
    graph = build(group, elements)
    assert is_bipartite_structural(graph) == h
    _assert_dual_witness_is_the_certificate(graph)


@st.composite
def _weighted_multisets(draw):
    """A symmetric multiset {element: count} on a group of order <= 12,
    drawn as the sum of one to four layers of weight 1-3, each an
    inverse-closed set T joining x to t·x (t in T). Layers may overlap, and
    T may hold the identity (a loop)."""
    group = draw(st.sampled_from(_SMALL_GROUPS))
    counts = {}
    for _ in range(draw(st.integers(1, 4))):
        weight = draw(st.integers(1, 3))
        picks = draw(st.sets(st.integers(0, group.order - 1), min_size=1))
        for t in picks | {group.inv[t] for t in picks}:
            counts[t] = counts.get(t, 0) + weight
    return group, counts


def _rows(mult, counts):
    """(neighbour, weight) rows of the multigraph joining x to c·x with
    weight counts[c], in the form naive_weighted_edge_min takes."""
    rows = []
    for x in range(len(mult)):
        weight = {}
        for c, w in counts.items():
            weight[mult[c][x]] = weight.get(mult[c][x], 0) + w
        rows.append(tuple(sorted(weight.items())))
    return rows


def _check_coset_union(mult, counts, least):
    """_coset_union gives None or a union of left cosets of one <g> (g in
    the multiset) of at most half the vertices, crossing what it says, with
    ratio at least that of least = (crossing, size) of the minimum."""
    union = _coset_union(mult, counts)
    if union is None:
        return
    num, size, mask = union
    members = mask_members(mask)
    assert 1 <= size == len(members) <= len(mult) // 2
    assert any(all(mask >> mult[x][g] & 1 for x in members) for g in counts if g)
    assert num == sum(w for c, w in counts.items() for x in members if not mask >> mult[c][x] & 1)
    assert num * least[1] >= least[0] * size


@settings(max_examples=60)
@given(_weighted_multisets())
def test_crossing_search_matches_oracle_on_weighted_rows(case):
    # The search's first incumbent, the best coset union, is checked too.
    group, counts = case
    least = oracles.naive_weighted_edge_min(_rows(group.mult, counts), group.order)
    assert _crossing_search(group.mult, counts)[:3] == least
    _check_coset_union(group.mult, counts, least[:2])


@pytest.mark.parametrize("member", families.small(12), ids=lambda m: m.name)
def test_spectral_floor_holds_on_family_graphs(member):
    graph = families.graph_of(member)
    floor = _spectral_floor(graph, spectrum(graph).lambda2)
    assert all(f <= c for f, c in zip(floor, oracles.min_crossing_by_size(graph)))


@pytest.mark.parametrize("loop", [False, True])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("group", _SMALL_GROUPS, ids=lambda g: g.name)
def test_spectral_floor_holds_on_random_graphs(group, seed, loop):
    draw = random.Random(seed).sample(range(group.order), 2)
    graph = build(group, families.random_generators(group, draw, loop))
    n = graph.n
    floor = _spectral_floor(graph, spectrum(graph).lambda2)
    assert len(floor) == n // 2 + 1
    assert all(f <= c for f, c in zip(floor, oracles.min_crossing_by_size(graph)))
    mult, unit = graph.group.mult, _unit_counts(graph)
    floored, plain = _crossing_search(mult, unit, floor), _crossing_search(mult, unit)
    assert floored[:3] == plain[:3] and floored[3] <= plain[3]


def _fraction_floor(n: int, d: int, lambda2: float) -> list[int]:
    lam = Fraction(lambda2) - Fraction(TOL)
    return [math.ceil(lam * d * k * (n - k) / n) for k in range(n // 2 + 1)]


@pytest.mark.parametrize("member", families.MEMBERS, ids=families.MEMBER_IDS)
def test_spectral_floor_is_the_fraction_formula(member):
    graph = families.graph_of(member)
    lambda2 = spectrum(graph).lambda2
    assert _spectral_floor(graph, lambda2) == _fraction_floor(graph.n, graph.d, lambda2)


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=40),
       st.floats(min_value=-1.0, max_value=2.0))
def test_spectral_floor_is_the_fraction_formula_on_drawn_values(n, d, lambda2):
    graph = SimpleNamespace(n=n, d=d)
    assert _spectral_floor(graph, lambda2) == _fraction_floor(n, d, lambda2)


def test_certification_rule():
    # floor[k] * size > num * k at every k: no set reaches the ratio.
    assert _certified([0, 3, 5], 2, 1)
    # A tie at k >= size only reaches the ratio at a size no smaller.
    assert _certified([0, 3, 4], 4, 2)
    assert _certified([0, 2, 4], 2, 1)
    # A tie at k < size leaves room for a smaller set of the same ratio.
    assert not _certified([0, 2, 4], 4, 2)
    # A zero floor never certifies a positive ratio, and certifies ratio 0
    # only at size 1.
    assert not _certified([0, 0, 0], 1, 2)
    assert not _certified([0, 5, 0], 1, 1)
    assert _certified([0, 0, 0], 0, 1)
    assert not _certified([0, 0, 0], 0, 2)


def test_spectral_floor_ends_the_edge_search_early(monkeypatch):
    # On symmetric:4 auto the best union of cosets is the optimum 24/12, and
    # the floor certifies it before pass 1's first node. Only a caller that
    # passes the spectrum gets the floor; full_report passes its own, and
    # edge_cheeger(g), which the cheeger command calls, proves 24/12 node by
    # node. The proof's S'-weighted search has its own binding.
    key = ("symmetric:4", "auto")
    num, size, mask = CROSSING_MINIMA[key][0]
    nodes = []
    real_search = cayleygap.cheeger._crossing_search

    def recorded(*args):
        result = real_search(*args)
        nodes.append(result[3])
        return result

    monkeypatch.setattr(cayleygap.cheeger, "_crossing_search", recorded)
    runs = ((lambda g: edge_cheeger(g), False),
            (lambda g: edge_cheeger(g, summary=spectrum(g)), True),
            (full_report, True))
    for run, floored in runs:
        nodes.clear()
        graph = build_graph(*key)
        run(graph)
        cert = edge_cheeger(graph)
        assert len(nodes) == 1 and (nodes[0] == 0) == floored
        assert (cert.value, cert.witness) == (Fraction(num, graph.d * size), mask_members(mask))


@pytest.mark.parametrize("member", families.MEMBERS, ids=families.MEMBER_IDS)
def test_coset_union_on_family_graphs(member):
    # The oracle up to n = 12; above it the search, which the oracles check.
    graph = families.graph_of(member)
    mult, n = graph.group.mult, graph.n
    for counts in (_unit_counts(graph), square_multiset(graph.gens, graph.group)):
        if n <= 12:
            least = oracles.naive_weighted_edge_min(_rows(mult, counts), n)
        else:
            least = _crossing_search(mult, counts)
        _check_coset_union(mult, counts, least[:2])


@pytest.mark.parametrize("gens,optimum", [("auto", (24, 12)), ("(0 1);(1 2);(2 3)", (6, 12))])
def test_coset_union_is_the_edge_optimum_on_symmetric_4(gens, optimum):
    # optimum: (crossing, size) of the edge minimum in CROSSING_MINIMA.
    graph = build_graph("symmetric:4", gens)
    assert _coset_union(graph.group.mult, _unit_counts(graph))[:2] == optimum


@pytest.mark.parametrize("member", families.MEMBERS, ids=families.MEMBER_IDS)
def test_witnesses_attain_reported_values(member):
    graph = families.graph_of(member)
    cert = vertex_cheeger(graph)
    a = mask_of(cert.witness)
    assert 1 <= len(cert.witness) <= graph.n // 2
    assert Fraction(oracles.vertex_boundary(graph, a).bit_count(), len(cert.witness)) == cert.value
    edge = edge_cheeger(graph)
    b = mask_of(edge.witness)
    assert Fraction(oracles.edge_boundary_count(graph, b), graph.d * len(edge.witness)) == edge.value


@given(st.integers(min_value=1, max_value=4094))
def test_no_set_beats_vertex_constant(a_mask):
    graph = families.graph_of(_member("cyclic:12", "±1,±2"))
    if a_mask.bit_count() > graph.n // 2:
        a_mask = (~a_mask) & graph.full_mask
    size = a_mask.bit_count()
    h = families.h_of(_member("cyclic:12", "±1,±2"))
    assert Fraction(oracles.vertex_boundary(graph, a_mask).bit_count(), size) >= h


# The inequalities below are decided by the report rows; these tests pin
# that every family member passes them.


@pytest.mark.parametrize("member", families.MEMBERS, ids=families.MEMBER_IDS)
def test_vertex_edge_relation(member):
    """h/d <= h_edge <= h, exactly."""
    rows = families.rows_of(member)
    assert rows["vertex_edge_lower"].status == "pass"
    assert rows["vertex_edge_upper"].status == "pass"


@pytest.mark.parametrize("member", families.MEMBERS, ids=families.MEMBER_IDS)
def test_cheeger_buser(member):
    """h_edge^2/2 <= lambda_2 <= 2 h_edge within tol."""
    rows = families.rows_of(member)
    for name in ("cheeger_buser_lower", "cheeger_buser_upper"):
        assert rows[name].status == "pass"
        assert rows[name].margin >= -1e-9


@pytest.mark.parametrize("member", families.small(14), ids=lambda m: m.name)
def test_bauer_jost(member):
    """(1 - dual)^2/2 <= 2 - lambda_n <= 2(1 - dual), and dual = 1 iff
    lambda_n = 2; test_full_report_family_passes ties dual = 1 to the
    member's bipartiteness."""
    rows = families.rows_of(member)
    for name in ("dual_cheeger_lower", "dual_cheeger_upper"):
        assert rows[name].status == "pass"
        assert rows[name].margin >= -1e-9
    assert rows["dual_cheeger_equivalence"].status == "pass"


def test_exact_cap():
    graph = families.graph_of(_member("cyclic:8", "±1"))
    with pytest.raises(CapExceededError) as exc:
        vertex_cheeger(graph, max_exact=4)
    assert exc.value.cap_name == "max_exact"
    with pytest.raises(CapExceededError):
        edge_cheeger(graph, max_exact=4)


def test_dual_cap():
    graph = families.graph_of(_member("symmetric:4", "auto"))
    with pytest.raises(CapExceededError) as exc:
        dual_cheeger(graph)
    assert exc.value.cap_name == "max_dual"
    assert exc.value.limit == 14
    assert exc.value.needed == 24


def test_trivial_graph_rejected():
    graph = build(from_cyclic(1), [0])
    with pytest.raises(ValueError, match="n >= 2"):
        vertex_cheeger(graph)
    with pytest.raises(ValueError, match="n >= 2"):
        edge_cheeger(graph)


def _coset_graph(n, step):
    """x <-> x +- step on Z/n: one component per coset of <step> (n/2
    disjoint edges when step = n/2), never produced by build()."""
    g = from_cyclic(n)
    gens = tuple(sorted({step, n - step}))
    return CayleyGraph(
        group=g,
        gens=gens,
        nbr_masks=tuple(sum(1 << g.mult[s][x] for s in gens) for x in range(n)),
    )


def test_disconnected_graph_has_zero_cheeger():
    graph = _coset_graph(6, 3)
    for cert in (vertex_cheeger(graph), edge_cheeger(graph)):
        assert cert.value == 0
        assert cert.witness == (0, 3)


def _without_coset_union(monkeypatch):
    """Starts the crossing search from {0} alone. The components of a
    _coset_graph are cosets of <step>, so the coset union is the answer and
    pass 1 would never reach the ties these tests are about."""
    monkeypatch.setattr(cayleygap.cheeger, "_coset_union", lambda mult, counts: None)


def test_zero_ratio_ties_keep_the_smallest_size(monkeypatch):
    # A union of two of the four edges also has ratio 0; pruning the
    # subtrees that only tie ratio 0 would return one of those.
    graph = _coset_graph(8, 4)
    assert _vertex_search(graph.nbr_masks, 8) == (0, 2, 0b10001)
    assert _crossing_search(graph.group.mult, _unit_counts(graph))[:3] == (0, 2, 0b10001)
    _without_coset_union(monkeypatch)
    assert _crossing_search(graph.group.mult, _unit_counts(graph))[:3] == (0, 2, 0b10001)


# Four disjoint 5-cycles, the cosets of <4> in Z/20.
_CYCLE = (0, 4, 8, 12, 16)
_CYCLE_MASK = sum(1 << v for v in _CYCLE)


def test_ties_below_a_larger_tie_keep_the_smallest_size(monkeypatch):
    # Pass 1 first finds a union of two 5-cycles (ratio 0, size 10) below
    # {0, 1}. The 5-cycle through 0 lies below {0, 4}, whose loop head and
    # subtree bounds only tie ratio 0: pruning on a tie would keep size 10.
    graph = _coset_graph(20, 4)
    assert _vertex_search(graph.nbr_masks, 20) == (0, 5, _CYCLE_MASK)
    assert _crossing_search(graph.group.mult, _unit_counts(graph))[:3] == (0, 5, _CYCLE_MASK)
    _without_coset_union(monkeypatch)
    assert _crossing_search(graph.group.mult, _unit_counts(graph))[:3] == (0, 5, _CYCLE_MASK)
    for cert in (vertex_cheeger(graph), edge_cheeger(graph)):
        assert (cert.value, cert.witness) == (0, _CYCLE)


def test_ties_that_cannot_lower_the_size_are_pruned(monkeypatch):
    # A subtree that only ties the incumbent ratio is explored only if it
    # may hold a smaller set. On the 5-cycles the dive then ends within 186
    # extend calls; exploring the ties at the incumbent size too takes 823.
    def no_bulk(*args):
        raise AssertionError("pass 1 ran past its dive")

    monkeypatch.setattr(cayleygap.cheeger, "_VERTEX_DIVE", 186)
    monkeypatch.setattr(cayleygap.cheeger, "_vertex_bulk", no_bulk)
    graph = _coset_graph(20, 4)
    assert _vertex_search(graph.nbr_masks, 20) == (0, 5, _CYCLE_MASK)
