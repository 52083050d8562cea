import pytest
from hypothesis import given, strategies as st

import cayleygap.cayley
from cayleygap import (
    GeneratingSetError,
    SpecParseError,
    build,
    build_graph,
    from_cyclic,
    from_permutations,
    from_symmetric,
    generating_set,
    left_translate,
    mask_members,
    mask_of,
    multiset_image_excess,
    parse_generators,
    right_translate,
    set_image,
    square_multiset,
)

import families
import oracles


Z8 = from_cyclic(8)
G8 = build(Z8, parse_generators(Z8, "±1,±2"))
D4 = build_graph("dihedral:4", "auto")


def test_mask_of_and_members_small():
    assert mask_of([]) == 0
    assert mask_members(0) == ()
    assert mask_of([0, 3]) == 0b1001
    assert mask_members(0b1001) == (0, 3)


@given(st.sets(st.integers(min_value=0, max_value=63)))
def test_mask_round_trip(vertices):
    assert set(mask_members(mask_of(vertices))) == vertices


def test_generating_set_sorts_and_dedups():
    g = from_cyclic(5)
    gens = generating_set(g, [4, 1, 1])
    assert gens == (1, 4)


def test_generating_set_rejects_empty():
    with pytest.raises(GeneratingSetError):
        generating_set(from_cyclic(5), [])


def test_generating_set_rejects_out_of_range():
    with pytest.raises(GeneratingSetError):
        generating_set(from_cyclic(5), [5])


def test_generating_set_rejects_asymmetric():
    with pytest.raises(GeneratingSetError, match="not symmetric"):
        generating_set(from_cyclic(5), [1])


def test_generating_set_rejects_non_generating():
    # {2, 4} only reaches the even residues of Z/6
    with pytest.raises(GeneratingSetError, match="unreachable"):
        generating_set(from_cyclic(6), [2, 4])


@pytest.mark.parametrize("spec,gens", [
    ("cyclic:8", "±1,±2"),
    ("dihedral:4", "auto"),
    ("symmetric:3", "(0 1);(1 2)"),
])
def test_build_graph_validates_the_set_once(spec, gens, monkeypatch):
    calls = []
    closure = cayleygap.cayley.closure
    monkeypatch.setattr(cayleygap.cayley, "closure",
                        lambda *args: calls.append(1) or closure(*args))
    build_graph(spec, gens)
    assert calls == [1]


def test_build_rejects_a_hand_made_generating_set():
    with pytest.raises(GeneratingSetError, match="unreachable"):
        build(from_cyclic(6), (2, 4))
    with pytest.raises(GeneratingSetError, match="not symmetric"):
        build(from_cyclic(5), (1,))


@pytest.mark.parametrize("member", families.small(16), ids=lambda m: m.name)
def test_build_regular_and_symmetric(member):
    graph = families.graph_of(member)
    d = len(graph.gens)
    mult = graph.group.mult
    for x in range(graph.n):
        row = [mult[s][x] for s in graph.gens]
        assert len(row) == d
        assert len(set(row)) == d
        assert graph.nbr_masks[x] == mask_of(row)
        for y in row:
            assert (graph.nbr_masks[y] >> x) & 1


@pytest.mark.parametrize("member", families.small(16), ids=lambda m: m.name)
def test_neighbors_are_left_multiples(member):
    graph = families.graph_of(member)
    mult = graph.group.mult
    for x in range(graph.n):
        assert mask_members(graph.nbr_masks[x]) == tuple(
            sorted(mult[s][x] for s in graph.gens))


def test_loop_iff_identity_generator():
    g = from_cyclic(3)
    with_loop = build(g, [0, 1, 2])
    for x in range(3):
        assert (with_loop.nbr_masks[x] >> x) & 1
    without = build(g, [1, 2])
    for x in range(3):
        assert not (without.nbr_masks[x] >> x) & 1


@given(st.integers(min_value=1, max_value=255))
def test_set_image_matches_neighbor_union(a_mask):
    # S·A from the group table; on D_4, s·a and a·s differ, so a set image
    # taken by right multiplication fails here.
    for graph in (G8, D4):
        mult = graph.group.mult
        expected = mask_of(mult[s][a] for s in graph.gens
                           for a in mask_members(a_mask))
        assert set_image(graph, a_mask) == expected
        assert oracles.vertex_boundary(graph, a_mask) == expected & ~a_mask


@given(st.integers(min_value=1, max_value=255))
def test_edge_boundary_counts_crossing_pairs(a_mask):
    inside = set(mask_members(a_mask))
    expected = sum(
        1 for a in inside for s in G8.gens if Z8.mult[s][a] not in inside
    )
    assert oracles.edge_boundary_count(G8, a_mask) == expected


@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=7),
)
def test_translates_are_bijections(a_mask, g):
    group = Z8
    left = left_translate(group, a_mask, g)
    right = right_translate(group, a_mask, g)
    assert left.bit_count() == a_mask.bit_count()
    assert right.bit_count() == a_mask.bit_count()
    assert left_translate(group, left, group.inv[g]) == a_mask
    assert right_translate(group, right, group.inv[g]) == a_mask


def test_translate_by_identity_fixes():
    assert left_translate(Z8, 0b10110, 0) == 0b10110
    assert right_translate(Z8, 0b10110, 0) == 0b10110


@given(st.integers(min_value=1, max_value=255))
def test_set_image_is_union_of_left_translates(a_mask):
    acc = 0
    for s in G8.gens:
        acc |= left_translate(Z8, a_mask, s)
    assert set_image(G8, a_mask) == acc


def test_square_multiset_z5():
    g = from_cyclic(5)
    graph = build(g, [1, 4])
    assert square_multiset(graph.gens, g) == {0: 2, 2: 1, 3: 1}


@pytest.mark.parametrize("member", families.small(16), ids=lambda m: m.name)
def test_square_multiset_total_and_symmetry(member):
    graph = families.graph_of(member)
    counts = square_multiset(graph.gens, graph.group)
    assert sum(counts.values()) == graph.d * graph.d
    assert counts[0] >= graph.d
    for g, c in counts.items():
        assert counts.get(graph.group.inv[g], 0) == c


def test_multiset_image_excess_z5_singleton():
    g = from_cyclic(5)
    graph = build(g, [1, 4])
    ms = square_multiset(graph.gens, g)
    identified, weighted = multiset_image_excess(g, ms, 1 << 0)
    assert identified == 2
    assert weighted == 2


def test_multiset_image_excess_full_set():
    g = from_cyclic(5)
    graph = build(g, [1, 4])
    ms = square_multiset(graph.gens, g)
    assert multiset_image_excess(g, ms, (1 << 5) - 1) == (0, 0)


def test_multiset_image_excess_rejects_empty():
    g = from_cyclic(5)
    ms = square_multiset(build(g, [1, 4]).gens, g)
    with pytest.raises(ValueError):
        multiset_image_excess(g, ms, 0)


def test_parse_generators_plus_minus():
    g = from_cyclic(5)
    assert parse_generators(g, "±1") == (1, 4)
    assert parse_generators(g, "+-1") == (1, 4)
    assert parse_generators(g, "±1,±2") == (1, 2, 3, 4)


def test_parse_generators_minus_takes_inverse():
    g = from_cyclic(5)
    assert parse_generators(g, "2,-2") == (2, 3)


def test_parse_generators_cycle_notation():
    g = from_symmetric(3)
    gens = parse_generators(g, "(0 1);(0 2);(1 2)")
    assert len(gens) == 3
    perms = {g.perms[i] for i in gens}
    assert perms == {(1, 0, 2), (2, 1, 0), (0, 2, 1)}


def test_parse_generators_cycle_requires_permutation_group():
    with pytest.raises(GeneratingSetError, match="cycle notation"):
        parse_generators(from_cyclic(5), "(0 1)")


def test_parse_generators_cycle_must_be_element():
    g = from_permutations([(1, 2, 3, 4, 0)])
    with pytest.raises(GeneratingSetError, match="not a group element"):
        parse_generators(g, "(0 1)")


def test_parse_generators_bad_token():
    with pytest.raises(SpecParseError):
        parse_generators(from_cyclic(5), "one")


def test_parse_generators_out_of_range():
    with pytest.raises(GeneratingSetError):
        parse_generators(from_cyclic(5), "±7")


def test_parse_generators_empty():
    with pytest.raises(GeneratingSetError):
        parse_generators(from_cyclic(5), "  ")


@pytest.mark.parametrize("group_spec,gens_spec", [
    ("cyclic:256", "±1,±2"),
    ("dihedral:128", "auto"),
    ("product:cyclic:2xdihedral:64", "1,63,64,128"),
])
def test_masks_above_64_vertices_match_oracle(group_spec, gens_spec):
    # The neighbour rows come from the numpy table; a numpy integer leaking
    # into `1 << y` would wrap past bit 63 and drop or move a neighbour.
    graph = build_graph(group_spec, gens_spec)
    assert graph.n > 64
    assert all(type(m) is int for m in graph.nbr_masks)
    assert graph.nbr_masks == tuple(mask_of(row) for row in oracles.neighbor_rows(graph))
