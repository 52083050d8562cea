import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cayleygap.groups
from cayleygap import (
    CapExceededError,
    CayleyGapError,
    ElementCapError,
    FiniteGroup,
    GroupValidationError,
    SpecParseError,
    build_graph,
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
import oracles


def test_cyclic_structure():
    g = from_cyclic(6)
    assert g.order == 6
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
    assert g.perms[0] == (0, 1, 2, 3)


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
    for x in range(group.order):
        assert group.mult[x][group.inv[x]] == 0
        assert group.mult[group.inv[x]][x] == 0
        assert group.mult[x][0] == x
        assert group.mult[0][x] == x


def test_validate_axioms_rejects_broken_table():
    group = FiniteGroup(order=2, table=_table((0, 1), (1, 1)), inv=(0, 1))
    with pytest.raises(GroupValidationError):
        validate_axioms(group)


def _table(*rows, dtype=np.intp):
    return np.array(rows, dtype=dtype)


_Z3 = _table((0, 1, 2), (1, 2, 0), (2, 0, 1))
# Identity and two-sided inverses, but (1*1)*2 = 2 while 1*(1*2) = 1.
_NONASSOCIATIVE = _table((0, 1, 2), (1, 0, 0), (2, 0, 0))


@pytest.mark.parametrize("group,message", [
    (FiniteGroup(0, np.empty((0, 0), dtype=np.intp), ()), "order must be positive, got 0"),
    (FiniteGroup(2, _table(0, 1, 1, 0), (0, 1)), "multiplication table is not n x n"),
    (FiniteGroup(2, _table((0, 1)), (0, 1)), "multiplication table is not n x n"),
    # The first entry outside 0..n-1 in row-major order, not column-major.
    (FiniteGroup(3, _table((0, 1, 2), (1, 2, 7), (-1, 0, 1)), (0, 2, 1)),
     "table entry mult[1][2] = 7 outside 0..2"),
    # An entry too large for 64 bits keeps its value in an object array.
    (FiniteGroup(2, _table((0, 1), (1, 10**30), dtype=object), (0, 1)),
     f"table entry mult[1][1] = {10**30} outside 0..1"),
    # Z/3 with its identity at index 1: element 0 must be the identity.
    (FiniteGroup(3, _table((2, 0, 1), (0, 1, 2), (1, 2, 0)), (2, 1, 0)),
     "index 0 does not act as identity on 0"),
    (FiniteGroup(3, _table((0, 1, 2), (1, 2, 0), (1, 0, 2)), (0, 2, 1)),
     "index 0 does not act as identity on 2"),
    (FiniteGroup(3, _Z3, (0, 2)), "inverse array has wrong length"),
    (FiniteGroup(3, _Z3, (0, 1, 1)), "inv[1] = 1 is not a two-sided inverse"),
    (FiniteGroup(3, _Z3, (0, 2, 5)), "inv[2] = 5 is not a two-sided inverse"),
    (FiniteGroup(3, _NONASSOCIATIVE, (0, 1, 2)),
     "associativity fails at triple (1, 1, 2): (a*b)*c = 2, a*(b*c) = 1"),
])
def test_validate_axioms_messages(group, message):
    with pytest.raises(GroupValidationError) as exc:
        validate_axioms(group)
    assert str(exc.value) == message


@pytest.mark.parametrize("text,message", [
    ("", "empty table file"),
    ("2 2\n0 1\n1 0\n", "first line must contain exactly the order n"),
    ("two\n0 1\n1 0\n", "order is not an integer: 'two'"),
    ("0\n", "order must be positive, got 0"),
    ("2\n0 1\n", "expected 2 table rows, found 1"),
    ("2\n0 1\n1\n", "row 1 has 1 entries, expected 2"),
    ("2\n0 1\n1 x\n", "row 1 contains a non-integer entry"),
    # Entries are checked before inverses: row 1 has no 0 either.
    ("2\n0 1\n1 5\n", "table entry mult[1][1] = 5 outside 0..1"),
    ("3\n0 1 2\n1 2 7\n-1 0 1\n", "table entry mult[1][2] = 7 outside 0..2"),
    (f"2\n0 1\n1 {10**30}\n", f"table entry mult[1][1] = {10**30} outside 0..1"),
    # mult[2][1] = 0 but mult[1][2] = 1: a one-sided inverse is not enough.
    ("3\n0 1 2\n1 0 1\n2 0 1\n", "element 2 has no two-sided inverse"),
    ("2\n1 0\n0 1\n", "index 0 does not act as identity on 0"),
    ("3\n0 1 2\n1 0 0\n2 0 0\n",
     "associativity fails at triple (1, 1, 2): (a*b)*c = 2, a*(b*c) = 1"),
])
def test_from_table_messages(text, message):
    with pytest.raises(GroupValidationError) as exc:
        from_table(text)
    assert str(exc.value) == message


def test_from_permutations_closure():
    transpositions = [(1, 0, 2), (0, 2, 1)]
    g = from_permutations(transpositions)
    assert g.order == 6


def test_from_permutations_cap(monkeypatch):
    monkeypatch.setattr(cayleygap.groups, "ELEMENT_CAP", 10)
    cycle = tuple(list(range(1, 30)) + [0])
    with pytest.raises(ElementCapError) as exc:
        from_permutations([cycle])
    # It is a CapExceededError, with that error's message and reason.
    assert isinstance(exc.value, CapExceededError)
    assert str(exc.value) == "element cap exceeded: problem size 11 > limit 10"
    assert exc.value.reason == "cap:element=10,needed=11"


def test_element_cap_bounds_the_closure_memory():
    # 780 transpositions on 40 points: the second BFS level has 608 400
    # products (195 MB as one gather). The heads are gathered a block at a
    # time, so the cap fires after about ELEMENT_CAP products and the peak
    # stays small; the same holds for `--group symmetric:100`.
    tracemalloc.start()
    try:
        with pytest.raises(ElementCapError) as exc:
            parse_group_spec("symmetric:40").build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.reason == "cap:element=10000,needed=10001"
    assert peak < 64 * 2**20


def test_closure_cap_counts_across_blocks(monkeypatch):
    # With a cap of 100 and 10 transpositions, a gather holds 10 heads, so
    # the closure of S5 spans several blocks before the cap fires.
    monkeypatch.setattr(cayleygap.groups, "ELEMENT_CAP", 100)
    with pytest.raises(ElementCapError) as exc:
        from_symmetric(5)
    assert exc.value.reason == "cap:element=100,needed=101"


# The sha256 of the table's bytes (little-endian int64) and repr(perms) pins
# the BFS numbering at orders the naive oracle is too slow for.
# symmetric:6 (r = 15, 666 heads per gather) spans several blocks.
@pytest.mark.parametrize("spec,order,digest", [
    ("symmetric:6", 720,
     "61b6a207d1666bddc4a9998188a4315d5ef14f5aba234e664f65d9787ac8d216"),
    ("perm:(0 1 2 3 4 5 6);(0 1 2)", 2520,
     "6b77b3ae3f5e2523d395c2d9bc5bf4964a70de6475081b8bf21e36f162466d7a"),
    ("perm:(0 1 2 3 4);(5 6 7)(0 1)", 360,
     "f66e2098e31d2504488fa8df886e7ab05adc7e034e2630f27bade7f2e2d1d4dd"),
    ("perm:(0 1 2 3 4 5 6 7);(0 2 4 6)(1 3)", 576,
     "b5ad5ad0e28449e1e602ed71c83d967924d465729f43d1b32f49260a44f04378"),
])
def test_permutation_numbering_is_frozen(spec, order, digest):
    g = parse_group_spec(spec).build()
    assert g.order == order
    data = g.table.astype("<i8").tobytes() + repr(g.perms).encode()
    assert hashlib.sha256(data).hexdigest() == digest


def test_from_permutations_rejects_no_points():
    with pytest.raises(GroupValidationError) as exc:
        from_permutations([()])
    assert str(exc.value) == "generator permutations must act on at least one point"


def test_unpickled_group_is_read_only():
    g = from_symmetric(3)
    mult = g.mult
    copy = pickle.loads(pickle.dumps(g))
    assert not copy.table.flags.writeable
    assert np.array_equal(copy.table, g.table)
    assert "mult" not in vars(copy)
    assert copy.mult == mult
    assert (copy.order, copy.inv, copy.perms, copy.name, copy.abelian) == (
        g.order, g.inv, g.perms, g.name, g.abelian)


@pytest.mark.parametrize("cls", [CapExceededError, ElementCapError])
def test_cap_errors_survive_pickling(cls):
    # A process pool sends a worker's exceptions back pickled.
    error = cls("max_exact", 24, 30)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error) == "max_exact cap exceeded: problem size 30 > limit 24"
    assert copy.reason == error.reason == "cap:max_exact=24,needed=30"


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


# Every spec error a user can type, as (--group, --gens, exact message).
# `table:big.txt` names a file, written by the test, whose order is over
# the element cap.
SPEC_ERRORS = [
    ("nonsense:9", "auto", "unknown group family 'nonsense'"),
    ("justaword", "auto", "group spec needs 'family:params': 'justaword'"),
    ("cyclic:many", "auto", "cyclic parameter must be an integer: 'many'"),
    ("cyclic:1", "auto", "the trivial group has no generating set"),
    ("dihedral:5001", "auto", "element cap exceeded: problem size 10002 > limit 10000"),
    # S8, 40 320 elements from two generators: the closure stops at the 10 001st.
    ("perm:(0 1 2 3 4 5 6 7);(0 1)(2 3)", "auto",
     "element cap exceeded: problem size 10001 > limit 10000"),
    ("symmetric:0", "auto", "symmetric parameter must be >= 1, got 0"),
    ("symmetric:1", "auto", "no default generators for symmetric:1"),
    ("symmetric:3", "(0 5)", "cycle uses point 5 but the group acts on 0..2"),
    ("product:cyclic:2", "auto", "product needs at least two factors: 'product:cyclic:2'"),
    ("product:cyclic:2xflorble:3", "auto",
     "cannot parse product factors in 'product:cyclic:2xflorble:3'"),
    ("perm:;", "auto", "perm spec needs at least one permutation: 'perm:;'"),
    ("perm:e", "auto", "identity permutation needs an explicit degree"),
    ("perm:(0 1) 2", "auto", "bad cycle notation: '(0 1) 2'"),
    ("perm:(5)", "auto", "cycle needs at least two points: (5)"),
    ("perm:(0 0 1)", "auto", "repeated point inside a cycle: (0 0 1)"),
    ("perm:(-1 2)", "auto", "negative point in cycle: (-1 2)"),
    ("perm:(0 a)", "auto", "non-integer point in cycle: (0 a)"),
    ("perm:(0 ²)", "auto", "non-integer point in cycle: (0 ²)"),
    ("perm:(0 1_0)", "auto", "non-integer point in cycle: (0 1_0)"),
    ("perm:(0 +1)", "auto", "non-integer point in cycle: (0 +1)"),
    ("symmetric:3", "(0 x)", "non-integer point in cycle: (0 x)"),
    ("perm:(0 1)", "auto", "gens=auto is not defined for family 'permutation'"),
    ("table:", "auto", "table spec needs a file path"),
    ("table:big.txt", "1", "element cap exceeded: problem size 10001 > limit 10000"),
]


def test_parse_group_spec_errors(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.txt").write_text("10001\n", encoding="utf-8")
    for group, gens, message in SPEC_ERRORS:
        with pytest.raises(CayleyGapError) as exc:
            build_graph(group, gens)
        assert str(exc.value) == message, (group, gens)


def test_expand_group_specs_range():
    expanded = expand_group_specs("cyclic:3..6")
    assert [s.n for s in expanded] == [3, 4, 5, 6]
    assert all(s.family == "cyclic" for s in expanded)


def test_expand_group_specs_single_and_errors():
    assert len(expand_group_specs("dihedral:5")) == 1
    with pytest.raises(SpecParseError):
        expand_group_specs("cyclic:9..3")


def test_expand_group_specs_refuses_ranges_past_the_element_cap():
    # Such a range holds 0 or a parameter above the cap, so every one of its
    # members past the cap could only be an error; it is refused whole.
    with pytest.raises(SpecParseError, match="has 20001 members"):
        expand_group_specs("cyclic:1..20001")
    with pytest.raises(SpecParseError, match="has 10001 members"):
        expand_group_specs("dihedral:0..10000")
    assert [s.n for s in expand_group_specs("cyclic:1..10000")] == list(range(1, 10001))


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


def _assert_same_group(fast, ref):
    """Same table, inverses and permutations as the reference. The table is
    one read-only n x n np.intp array, and `mult` is that table with every
    entry a Python int: a numpy integer in `mult` would make `1 << mult[a][b]`
    wrap past bit 63."""
    n = fast.order
    assert n == ref.order
    assert fast.table.dtype == np.intp and fast.table.shape == (n, n)
    assert not fast.table.flags.writeable
    assert np.array_equal(fast.table, ref.table)
    assert fast.mult == ref.mult == tuple(map(tuple, fast.table.tolist()))
    assert fast.inv == ref.inv
    assert fast.perms == ref.perms
    assert all(type(v) is int for row in fast.mult for v in row)
    assert all(type(v) is int for v in fast.inv)


@given(st.integers(min_value=1, max_value=300))
def test_cyclic_matches_oracle(n):
    _assert_same_group(from_cyclic(n), oracles.naive_cyclic(n))


@given(st.integers(min_value=2, max_value=150))
def test_dihedral_matches_oracle(m):
    _assert_same_group(from_dihedral(m), oracles.naive_dihedral(m))


_FACTOR = st.one_of(
    st.tuples(st.just("cyclic"), st.integers(min_value=1, max_value=32)),
    st.tuples(st.just("dihedral"), st.integers(min_value=2, max_value=16)),
)
_BUILDERS = {
    "cyclic": (from_cyclic, oracles.naive_cyclic),
    "dihedral": (from_dihedral, oracles.naive_dihedral),
}


def _order(factor):
    family, k = factor
    return k if family == "cyclic" else 2 * k


@given(st.lists(_FACTOR, min_size=2, max_size=3).filter(
    lambda fs: math.prod(map(_order, fs)) <= 256))
def test_direct_product_matches_oracle(factors):
    fast = ref = None
    for family, k in factors:
        build, naive = _BUILDERS[family]
        fast = build(k) if fast is None else from_direct_product(fast, build(k))
        ref = naive(k) if ref is None else oracles.naive_direct_product(ref, naive(k))
    _assert_same_group(fast, ref)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_symmetric_matches_oracle(k):
    transpositions = [
        tuple(j if p == i else i if p == j else p for p in range(k))
        for i in range(k) for j in range(i + 1, k)
    ]
    _assert_same_group(from_symmetric(k),
                       oracles.naive_permutations(transpositions or [(0,)]))


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.lists(st.permutations(range(k)), min_size=1, max_size=3)))
def test_permutation_group_matches_oracle(gens):
    gens = [tuple(g) for g in gens]
    _assert_same_group(from_permutations(gens), oracles.naive_permutations(gens))


def _naive_symmetric(k):
    return oracles.naive_permutations(cayleygap.groups._transpositions(k))


@pytest.mark.parametrize("spec,naive", [
    ("cyclic:12", lambda: oracles.naive_cyclic(12)),
    ("dihedral:7", lambda: oracles.naive_dihedral(7)),
    ("symmetric:4", lambda: _naive_symmetric(4)),
    ("perm:(0 1 2 3 4);(0 1)", lambda: oracles.naive_permutations(
        [parse_permutation("(0 1 2 3 4)"), parse_permutation("(0 1)", 5)])),
    ("product:dihedral:5xcyclic:3", lambda: oracles.naive_direct_product(
        oracles.naive_dihedral(5), oracles.naive_cyclic(3))),
    ("product:cyclic:3xdihedral:5", lambda: oracles.naive_direct_product(
        oracles.naive_cyclic(3), oracles.naive_dihedral(5))),
])
def test_spec_table_matches_oracle(spec, naive):
    _assert_same_group(parse_group_spec(spec).build(), naive())


def test_table_file_matches_oracle(tmp_path):
    ref = oracles.naive_dihedral(6)
    path = tmp_path / "d6.txt"
    path.write_text("\n".join(["12"] + [" ".join(map(str, row)) for row in ref.mult]) + "\n")
    _assert_same_group(parse_group_spec(f"table:{path}").build(), ref)


def test_mult_is_frozen_on_first_read():
    group = from_dihedral(5)
    assert "mult" not in vars(group)
    mult = group.mult
    assert vars(group)["mult"] is mult and group.mult is mult
    assert all(type(v) is int for row in mult for v in row)
