import pytest
from hypothesis import given, strategies as st

import cayleygap.groups
from cayleygap import (
    ElementCapError,
    FiniteGroup,
    GroupValidationError,
    SpecParseError,
    default_generators,
    expand_group_specs,
    from_cyclic,
    from_dihedral,
    from_direct_product,
    from_permutations,
    from_symmetric,
    from_table,
    load_table,
    parse_group_spec,
    parse_permutation,
    validate_axioms,
)

import families


def test_cyclic_structure():
    g = from_cyclic(6)
    assert g.order == 6
    assert g.identity == 0
    assert g.mult[2][3] == 5
    assert g.mult[4][5] == 3
    assert g.inv[1] == 5
    assert g.name == "cyclic:6"


def test_dihedral_structure():
    g = from_dihedral(4)
    assert g.order == 8
    # rotations 0..3 compose additively, reflections 4..7 square to identity
    assert g.mult[1][1] == 2
    for r in range(4, 8):
        assert g.mult[r][r] == 0
    assert g.inv[3] == 1


def test_dihedral_rejects_tiny():
    with pytest.raises(GroupValidationError):
        from_dihedral(1)


def test_symmetric_structure():
    g = from_symmetric(4)
    assert g.order == 24
    assert g.perms is not None
    assert g.perms[g.identity] == (0, 1, 2, 3)


def test_direct_product_structure():
    a, b = from_cyclic(2), from_cyclic(4)
    g = from_direct_product(a, b)
    assert g.order == 8
    # (x1, y1) * (x2, y2) index arithmetic: index = x * 4 + y
    assert g.mult[1][3] == 0   # (0,1)*(0,3) = (0,0)
    assert g.mult[4][4] == 0   # (1,0)^2 = (0,0)
    assert g.mult[5][5] == 2   # (1,1)^2 = (0,2)


@pytest.mark.parametrize("member", families.MEMBERS, ids=families.MEMBER_IDS)
def test_family_groups_satisfy_axioms(member):
    group = families.graph_of(member).group
    validate_axioms(group)
    e = group.identity
    for x in range(group.order):
        assert group.mult[x][group.inv[x]] == e
        assert group.mult[group.inv[x]][x] == e
        assert group.mult[x][e] == x
        assert group.mult[e][x] == x


def test_validate_axioms_rejects_broken_table():
    group = FiniteGroup(order=2, mult=((0, 1), (1, 1)), inv=(0, 1))
    with pytest.raises(GroupValidationError):
        validate_axioms(group)


def test_from_permutations_closure():
    transpositions = [(1, 0, 2), (0, 2, 1)]
    g = from_permutations(transpositions)
    assert g.order == 6


def test_from_permutations_cap(monkeypatch):
    monkeypatch.setattr(cayleygap.groups, "ELEMENT_CAP", 10)
    cycle = tuple(list(range(1, 30)) + [0])
    with pytest.raises(ElementCapError):
        from_permutations([cycle])


def test_parse_permutation_cycles():
    assert parse_permutation("(0 1)", 3) == (1, 0, 2)
    assert parse_permutation("(0 1 2)", 4) == (1, 2, 0, 3)
    # cycles compose left to right
    assert parse_permutation("(0 1)(1 2)", 3) == parse_permutation("(0 2 1)", 3)


def test_parse_group_spec_families():
    assert parse_group_spec("cyclic:5").build().order == 5
    assert parse_group_spec("dihedral:4").build().order == 8
    assert parse_group_spec("symmetric:3").build().order == 6
    assert parse_group_spec("product:cyclic:2xcyclic:4").build().order == 8
    assert (
        parse_group_spec("product:cyclic:2xcyclic:2xcyclic:2").build().order
        == 8
    )


def test_parse_group_spec_label_round_trip():
    for text in (
        "cyclic:5",
        "dihedral:4",
        "symmetric:3",
        "product:cyclic:2xcyclic:4",
    ):
        spec = parse_group_spec(text)
        assert spec.label() == text
        assert parse_group_spec(spec.label()).build().order == spec.build().order


def test_parse_group_spec_errors():
    with pytest.raises(SpecParseError):
        parse_group_spec("nonsense:9")
    with pytest.raises(SpecParseError):
        parse_group_spec("cyclic:many")
    with pytest.raises(SpecParseError):
        parse_group_spec("justaword")


def test_expand_group_specs_range():
    expanded = expand_group_specs("cyclic:3..6")
    assert [s.n for s in expanded] == [3, 4, 5, 6]
    assert all(s.family == "cyclic" for s in expanded)


def test_expand_group_specs_single_and_errors():
    assert len(expand_group_specs("dihedral:5")) == 1
    with pytest.raises(SpecParseError):
        expand_group_specs("cyclic:9..3")


def test_default_generators_per_family():
    spec = parse_group_spec("cyclic:6")
    assert sorted(default_generators(spec, spec.build())) == [1, 5]
    spec = parse_group_spec("dihedral:4")
    assert sorted(default_generators(spec, spec.build())) == [1, 3, 4]
    spec = parse_group_spec("symmetric:3")
    gens = default_generators(spec, spec.build())
    assert len(gens) == 3   # all transpositions of S3


def test_table_round_trip(tmp_path):
    g = from_cyclic(3)
    path = tmp_path / "z3.txt"
    lines = ["3"] + [" ".join(map(str, row)) for row in g.mult]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_table(str(path))
    assert loaded.order == 3
    assert [list(row) for row in loaded.mult] == [list(row) for row in g.mult]


def test_from_table_validates():
    with pytest.raises(GroupValidationError):
        from_table("2\n0 1\n1 1\n")


@given(st.integers(min_value=1, max_value=40))
def test_cyclic_inverse_involution(n):
    g = from_cyclic(n)
    for x in range(n):
        assert g.inv[g.inv[x]] == x
        assert g.mult[x][g.inv[x]] == 0


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=10_000),
)
def test_dihedral_associativity_samples(m, seed):
    import random

    g = from_dihedral(m)
    rng = random.Random(seed)
    n = g.order
    for _ in range(20):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        assert g.mult[g.mult[a][b]][c] == g.mult[a][g.mult[b][c]]
