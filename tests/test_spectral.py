import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cayleygap.spectral
from cayleygap import (
    CapExceededError,
    CayleyGraph,
    GeneratingSet,
    build,
    build_graph,
    from_cyclic,
    from_dihedral,
    from_direct_product,
    from_permutations,
    from_table,
    is_bipartite_spectral,
    is_connected,
    spectrum,
)
from cayleygap.groups import ELEMENT_CAP, parse_group_spec
from cayleygap.spectral import TOL, _cos_table, normalized_adjacency

import families
import oracles


def _disconnected_graph():
    # x <-> x+3 on Z/6: three disjoint edges, never produced by build()
    g = from_cyclic(6)
    neighbors = tuple((g.mult[3][x],) for x in range(6))
    return CayleyGraph(
        group=g,
        gens=GeneratingSet((3,)),
        neighbors=neighbors,
        nbr_masks=tuple(1 << row[0] for row in neighbors),
    )


@pytest.mark.parametrize("member", families.small(16), ids=lambda m: m.name)
def test_normalized_adjacency_is_stochastic(member):
    graph = families.graph_of(member)
    t = normalized_adjacency(graph)
    for x in range(graph.n):
        assert abs(sum(t[x]) - 1.0) < 1e-12
        for y in range(graph.n):
            assert t[x][y] == t[y][x]
            assert abs(t[x][y] * graph.d - round(t[x][y] * graph.d)) < 1e-12


@pytest.mark.parametrize("member", families.small(16), ids=lambda m: m.name)
def test_normalized_adjacency_matches_list_oracle(member):
    graph = families.graph_of(member)
    t = normalized_adjacency(graph)
    assert t.dtype == np.float64
    assert t.tolist() == oracles.normalized_adjacency_lists(graph)


def _solve(matrix) -> list[float]:
    """The in-repo solver on one dense symmetric matrix, as spectrum runs it
    on its blocks: Householder, then Sturm bisection, sorted."""
    a = np.array(matrix, dtype=np.float64)
    d, e = cayleygap.spectral._tridiagonalize(a[None])
    return np.sort(cayleygap.spectral._bisect_block(d, e)[0]).tolist()


@pytest.mark.parametrize("member", families.small(16), ids=lambda m: m.name)
def test_eigenvalues_match_numpy_on_graphs(member):
    graph = families.graph_of(member)
    ours = _solve(normalized_adjacency(graph))
    ref = oracles.numpy_eigs(normalized_adjacency(graph))
    assert max(abs(a - b) for a, b in zip(ours, ref)) < 1e-10


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2**32 - 1))
def test_eigenvalues_match_numpy_random(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    sym = (a + a.T) / 2.0
    ours = _solve(sym)
    ref = oracles.numpy_eigs(sym)
    assert max(abs(x - y) for x, y in zip(ours, ref)) < 1e-9


def _oracle_tol(matrix) -> float:
    ref = oracles.numpy_eigs(matrix)
    return 1e-12 * max(1.0, max(abs(x) for x in ref))


def _max_gap(ours, ref) -> float:
    assert len(ours) == len(ref)
    return max(abs(x - y) for x, y in zip(ours, ref))


@given(st.integers(min_value=2, max_value=48), st.integers(min_value=0, max_value=2**32 - 1))
def test_eigenvalues_oracle_random(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    sym = (a + a.T) / 2.0
    assert _max_gap(_solve(sym), oracles.numpy_eigs(sym)) <= _oracle_tol(sym)


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eigenvalues_oracle_block_diagonal(sizes, seed):
    # Off-diagonal blocks are exactly zero, so some couplings of the
    # tridiagonal are exactly zero too.
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    mat = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = rng.uniform(-3.0, 3.0, size=(size, size))
        mat[start:start + size, start:start + size] = block + block.T
        start += size
    assert _max_gap(_solve(mat), oracles.numpy_eigs(mat)) <= _oracle_tol(mat)


@pytest.mark.parametrize("gens,multiplicity", [("auto", 9), ("(0 1);(1 2);(2 3)", 3)])
def test_eigenvalues_oracle_high_multiplicity(gens, multiplicity):
    t = normalized_adjacency(build_graph("symmetric:4", gens))
    ours = _solve(t)
    ref = oracles.numpy_eigs(t)
    assert max(sum(abs(x - y) < 1e-9 for y in ref) for x in ref) == multiplicity
    assert _max_gap(ours, ref) <= _oracle_tol(t)


def test_eigenvalues_oracle_cyclic_256():
    graph = build_graph("cyclic:256", "±1,±2")
    ours = _solve(normalized_adjacency(graph))
    assert _max_gap(ours, oracles.circulant_t(graph.n, graph.gens.elements)) <= 1e-12


def test_eigenvalues_bitwise_reproducible():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1.0, 1.0, size=(40, 40))
    sym = (a + a.T) / 2.0
    first = _solve(sym)
    second = _solve(sym.copy())
    assert [x.hex() for x in first] == [x.hex() for x in second]


# ---------------------------------------------------------------------------
# Sturm bisection equals its frozen copy in tests/oracles.py bit for bit
# ---------------------------------------------------------------------------


def _assert_bisection_matches_oracle(d, e) -> None:
    d, e = np.asarray(d, dtype=np.float64), np.asarray(e, dtype=np.float64)
    ours = cayleygap.spectral._bisect_block(d[None], e[None])[0]
    assert np.array_equal(ours, oracles.frozen_bisect_block(d, e))


def _assert_blocks_match_oracle(matrix) -> int:
    """Tridiagonalise, split at exactly-zero couplings and check every block
    of two or more rows; returns the number of rows so checked."""
    d, e = cayleygap.spectral._tridiagonalize(np.array(matrix, dtype=np.float64)[None])
    d, e = d[0], e[0]
    cuts = (np.flatnonzero(e == 0.0) + 1).tolist()
    checked = 0
    for first, stop in zip([0, *cuts], [*cuts, d.size]):
        if stop - first > 1:
            _assert_bisection_matches_oracle(d[first:stop], e[first:stop - 1])
            checked += stop - first
    return checked


@pytest.mark.parametrize(
    "member", [m for m in families.MEMBERS if m.group_spec.startswith("symmetric:")],
    ids=lambda m: m.name)
def test_bisection_matches_oracle_on_dense_family(member):
    graph = families.graph_of(member)
    assert graph.group.abelian == ()
    assert _assert_blocks_match_oracle(normalized_adjacency(graph)) > 0


def test_bisection_matches_oracle_on_symmetric_5():
    # n = 120 but only 7 distinct eigenvalues (multiplicities 36, 25, 25, 16,
    # 16, 1, 1), so most rounds count far fewer distinct brackets than rows.
    t = normalized_adjacency(build_graph("symmetric:5", "auto"))
    assert _assert_blocks_match_oracle(t) == 120


_SMALL_ENTRY = st.integers(min_value=-4, max_value=4)


@given(st.lists(_SMALL_ENTRY, min_size=2, max_size=24), st.data(),
       st.sampled_from([1.0, 0.5]))
def test_bisection_matches_oracle_on_small_rational_tridiagonals(diag, data, scale):
    # Integer and half-integer entries put bracket points exactly on pivot
    # roots, so exact-zero pivots are fixed in many rounds.
    off = data.draw(st.lists(_SMALL_ENTRY.filter(bool), min_size=len(diag) - 1,
                             max_size=len(diag) - 1))
    _assert_bisection_matches_oracle(np.array(diag) * scale, np.array(off) * scale)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_bisection_matches_oracle_on_repeated_blocks(size, copies, seed):
    # copies of one block, with rows and columns permuted: each eigenvalue
    # of the block has multiplicity `copies`, as in a Cayley graph.
    rng = np.random.default_rng(seed)
    block = rng.integers(-3, 4, size=(size, size)) / 2.0
    mat = np.kron(np.eye(copies), block + block.T)
    order = rng.permutation(size * copies)
    _assert_blocks_match_oracle(mat[np.ix_(order, order)])


_TINY = float(np.finfo(np.float64).tiny)


@pytest.mark.parametrize("first", [0.0, -0.0, _TINY, -_TINY, _TINY / 2, -_TINY / 2],
                         ids=["0.0", "-0.0", "pivmin", "-pivmin", "below", "-below"])
def test_bisection_matches_oracle_on_crafted_pivots(first):
    # The Gershgorin interval is [-2, 2] and pivmin is tiny, so the padded
    # interval is symmetric and the first round's midpoint is exactly +0.0.
    # There the first pivot is first - 0.0: exactly 0.0, -0.0, +-pivmin, or
    # below pivmin in magnitude.
    _assert_bisection_matches_oracle([first, 0.0, 0.0], [1.0, 1.0])
    _assert_bisection_matches_oracle([0.0, first, 0.0, 0.0], [1.0, 1.0, 1.0])


def test_symmetric_5_dense_bits_are_pinned():
    # The solver's last bits on one unbatched 120 x 120 matrix, which
    # spectrum itself never solves.
    t = _solve(normalized_adjacency(build_graph("symmetric:5", "auto")))
    digest = hashlib.sha256("\n".join(x.hex() for x in t).encode()).hexdigest()
    assert digest == "d582ad2cff1f41327c0122e01feed3c9858d07ffa7ad07133f26c994264760a8"


def test_symmetric_5_spectrum_bits_are_pinned():
    # The cyclic-subgroup blocks (L = 6, k = 20: four 40 x 40 blocks, two
    # of them complex) in one batch.
    t = spectrum(build_graph("symmetric:5", "auto")).t
    digest = hashlib.sha256("\n".join(x.hex() for x in t).encode()).hexdigest()
    assert digest == "e1343acb4edb7c6c3cad163190acf90bf3c216961fcdffed9288f223f37d2af2"


@pytest.mark.parametrize(
    "member",
    [m for m in families.MEMBERS if m.group_spec.startswith("cyclic:")],
    ids=lambda m: m.name,
)
def test_circulant_closed_form(member):
    graph = families.graph_of(member)
    summary = families.summary_of(member)
    ref = oracles.circulant_t(graph.n, graph.gens.elements)
    assert max(abs(a - b) for a, b in zip(summary.t, ref)) < 1e-9


@pytest.mark.parametrize("member", families.MEMBERS, ids=families.MEMBER_IDS)
def test_spectrum_summary_shape(member):
    graph = families.graph_of(member)
    s = families.summary_of(member)
    n = graph.n
    assert s.n == n
    assert list(s.t) == sorted(s.t)
    assert list(s.lam) == sorted(s.lam)
    for i in range(n):
        assert s.lam[i] == 1.0 - s.t[n - 1 - i]
    assert abs(s.t_max - 1.0) < 1e-12
    assert abs(s.lam[0]) < 1e-12
    assert all(-1.0 <= t <= 1.0 for t in s.t)
    assert isinstance(s.t[0], float)


@pytest.mark.parametrize("member", families.MEMBERS, ids=families.MEMBER_IDS)
def test_connectivity_and_bipartiteness(member):
    s = families.summary_of(member)
    assert is_connected(s)
    assert is_bipartite_spectral(s) == member.bipartite


def test_spectrum_clamped_to_unit_interval():
    # The spectrum of T lies in [-1, 1]; on this bipartite graph rounding
    # must not push lambda_n = 2 above 2.
    s = spectrum(build_graph("cyclic:40", "±1"))
    assert s.lambda_max <= 2.0


def test_disconnected_graph_detected():
    s = spectrum(_disconnected_graph())
    assert not is_connected(s)
    assert s.lambda2 < 1e-12


def test_spectrum_cap(monkeypatch):
    monkeypatch.setattr(cayleygap.spectral, "MAX_SPECTRUM", 2)
    graph = families.graph_of(families.MEMBERS[0])
    with pytest.raises(CapExceededError) as exc:
        spectrum(graph)
    assert exc.value.cap_name == "max_spectrum"
    assert exc.value.needed == graph.n


@pytest.mark.parametrize("member", families.small(12), ids=lambda m: m.name)
def test_square_adjacency_is_matrix_square(member):
    graph = families.graph_of(member)
    t = np.array(normalized_adjacency(graph))
    direct = np.array(oracles.square_normalized_adjacency(graph))
    assert np.max(np.abs(direct - t @ t)) < 1e-12


@pytest.mark.parametrize("member", families.small(16), ids=lambda m: m.name)
def test_square_spectrum_consistency(member):
    assert oracles.square_spectrum_consistency(families.graph_of(member))


# ---------------------------------------------------------------------------
# Spectra from characters (an abelian subgroup of index 1 or 2)


def _assert_matches_dense(graph) -> None:
    assert _max_gap(spectrum(graph).t, oracles.numpy_eigs(normalized_adjacency(graph))) <= 1e-12


_RADICES = st.lists(st.integers(min_value=1, max_value=16), min_size=1,
                    max_size=3).filter(lambda ms: math.prod(ms) <= 64)


@given(_RADICES, st.data())
def test_abelian_spectrum_matches_dense(radices, data):
    group = from_cyclic(radices[0])
    for m in radices[1:]:
        group = from_direct_product(group, from_cyclic(m))
    assert group.abelian == tuple(radices)
    draw = data.draw(st.sets(st.integers(0, group.order - 1), max_size=6))
    loop = data.draw(st.booleans())
    _assert_matches_dense(build(group, families.random_generators(group, draw, loop)))


@given(st.integers(min_value=2, max_value=32), st.data())
def test_dihedral_spectrum_matches_dense(m, data):
    group = from_dihedral(m)
    assert group.abelian == (m,)
    draw = data.draw(st.sets(st.integers(0, group.order - 1), max_size=6))
    loop = data.draw(st.booleans())
    _assert_matches_dense(build(group, families.random_generators(group, draw, loop)))


@given(st.integers(min_value=2, max_value=12),
       st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                max_size=2).filter(lambda ks: math.prod(ks) <= 6),
       st.data())
def test_dihedral_times_abelian_spectrum_matches_dense(m, radices, data):
    # The rotations times the abelian factors have index 2, and the
    # reflection r = element |A| does not commute with every generator.
    group = from_dihedral(m)
    for k in radices:
        group = from_direct_product(group, from_cyclic(k))
    assert group.abelian == (m, *radices)
    draw = data.draw(st.sets(st.integers(0, group.order - 1), max_size=6))
    loop = data.draw(st.booleans())
    _assert_matches_dense(build(group, families.random_generators(group, draw, loop)))


@pytest.mark.parametrize("group,gens,digest", [
    ("dihedral:16", "2,3,8,13,14,19",
     "a15bf1bf1f0c522e5638c8d762d8cedc1cc892a93c440f8703102f6f7cd635d4"),
    ("dihedral:32", "4,7,11,21,25,28,57,63",
     "8245fa3ded88597390b90ff46d89f7bd76b99051edc323a78a02cfaf2090a6e2"),
])
def test_dihedral_spectrum_last_bits_are_pinned(group, gens, digest):
    # Graphs where the 2x2 block moves a last bit unless c adds its terms
    # in ascending element order and chi and its conjugate by the
    # reflection share one block. The digests are those of the dihedral
    # closed form A +- sqrt(B^2 + C^2), whose bits the block must keep.
    t = spectrum(build_graph(group, gens)).t
    assert hashlib.sha256("\n".join(x.hex() for x in t).encode()).hexdigest() == digest


@pytest.mark.parametrize("group,gens", [
    ("dihedral:32", "auto"),
    ("dihedral:64", "auto"),
    ("product:" + "x".join(["cyclic:2"] * 7), "64,32,16,8,4,2,1"),
    ("cyclic:256", "±1,±2"),
])
def test_character_spectrum_on_large_graphs(group, gens):
    graph = build_graph(group, gens)
    _assert_matches_dense(graph)
    assert all(type(x) is float for x in spectrum(graph).t + spectrum(graph).lam)


def test_character_spectrum_exact_values():
    assert spectrum(build_graph("cyclic:3", "±1")).t_min == -0.5
    assert spectrum(build_graph("cyclic:6", "±1")).lambda2 == 0.5


@pytest.mark.parametrize(
    "member",
    [m for m in families.MEMBERS if m.bipartite
     and not m.group_spec.startswith("symmetric:")],
    ids=lambda m: m.name,
)
def test_character_spectrum_bipartite_is_exactly_minus_one(member):
    s = families.summary_of(member)
    assert s.t_min == -1.0
    assert s.lambda_max == 2.0


def test_cos_table_exact_and_accurate():
    for q in (1, 2, 3, 4, 5, 6, 7, 8, 12, 24, 60, 256, 1000):
        table = _cos_table(q).tolist()
        for p, value in enumerate(table):
            assert abs(value - math.cos(2 * math.pi * p / q)) <= 1e-15
            if (12 * p) % q == 0:       # a multiple of 30 degrees
                exact = {0: 1.0, 2: 0.5, 3: 0.0, 4: -0.5, 6: -1.0, 8: -0.5,
                         9: 0.0, 10: 0.5}.get(12 * p // q)
                if exact is not None:
                    assert value == exact and math.copysign(1.0, value) == (
                        math.copysign(1.0, exact))
    # cos(2 pi p / q) depends only on p/q, bit for bit.
    assert _cos_table(12)[::3].tolist() == _cos_table(4).tolist()
    assert _cos_table(4 * 7)[::4].tolist() == _cos_table(7).tolist()


# ---------------------------------------------------------------------------
# Spectra from a cyclic subgroup (every group without a recorded A)


def _forbid_dense(monkeypatch) -> None:
    """Make building T or solving it with numpy fail inside spectrum."""
    def refuse(*args):
        raise AssertionError("dense path taken")
    monkeypatch.setattr(cayleygap.spectral, "normalized_adjacency", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


def _assert_blocks_match_dense(graph) -> None:
    assert graph.group.abelian == ()
    _assert_matches_dense(graph)


@pytest.mark.parametrize("spec", [
    "product:cyclic:2xdihedral:3",
    "product:cyclic:2xsymmetric:3",
    "symmetric:3",
    "perm:(0 1 2 3)",
])
def test_other_groups_take_the_block_path(spec, monkeypatch):
    group = parse_group_spec(spec).build()
    assert group.abelian == ()
    runs = []
    blocks = cayleygap.spectral._coset_eigenvalues
    monkeypatch.setattr(cayleygap.spectral, "_coset_eigenvalues",
                        lambda graph: runs.append(1) or blocks(graph))
    _forbid_dense(monkeypatch)
    spectrum(build(group, [x for x in range(1, group.order)]))
    assert runs == [1]
    spectrum(build_graph("product:cyclic:2xcyclic:3", "1,2,3"))
    spectrum(build_graph("dihedral:3", "auto"))
    product = parse_group_spec("product:dihedral:3xcyclic:2").build()
    assert product.abelian == (3, 2)
    spectrum(build(product, [x for x in range(1, product.order)]))
    assert runs == [1]


@pytest.mark.parametrize("spec,gens", [
    ("symmetric:3", "auto"),
    ("symmetric:4", "auto"),
    ("symmetric:4", "(0 1);(1 2);(2 3)"),
    ("symmetric:5", "auto"),
    ("product:cyclic:2xsymmetric:3", "1,2,3,4,5,6,7,8,9,10,11"),
    ("perm:(0 1);(2 3);(4 5)", "1,2,3,7"),  # L = 2: real k x k blocks
    ("symmetric:2", "auto"),
])
def test_block_spectrum_matches_dense(spec, gens):
    _assert_blocks_match_dense(build_graph(spec, gens))


def test_block_spectrum_of_a_table_group():
    # The quaternion group Q8 read from a table: L = 4 and k = 2, so chi_1
    # gives a complex block. S = {-1, +-i, +-j}.
    rules = {("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
             ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j")}
    elements = [(sign, u) for u in "1ijk" for sign in (1, -1)]

    def times(x, y):
        (a, u), (b, v) = x, y
        if u == "1" or v == "1":
            return a * b, v if u == "1" else u
        if u == v:
            return -a * b, "1"
        c, w = rules[u, v]
        return a * b * c, w

    group = from_table("\n".join(
        [str(len(elements))]
        + [" ".join(str(elements.index(times(x, y))) for y in elements) for x in elements]))
    assert group.abelian == ()
    graph = build(group, [1, 2, 3, 4, 5])
    _assert_blocks_match_dense(graph)


@given(st.integers(min_value=3, max_value=5), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=2**32 - 1), st.booleans(), st.data())
@settings(max_examples=40)
def test_block_spectrum_matches_dense_on_random_permutation_groups(
        degree, count, seed, loop, data):
    rng = np.random.default_rng(seed)
    group = from_permutations([tuple(rng.permutation(degree).tolist()) for _ in range(count)])
    assume(group.order > 1)
    draw = data.draw(st.sets(st.integers(0, group.order - 1), max_size=4))
    _assert_blocks_match_dense(build(group, families.random_generators(group, draw, loop)))


def test_mirrored_products_agree(monkeypatch):
    # The same group either way round: dihedral first records the rotations
    # times Z/2 (index 2); Z/2 first records nothing and takes the blocks
    # of an element of order 256 (k = 4), with no n x n matrix.
    _forbid_dense(monkeypatch)
    first = spectrum(build_graph("product:cyclic:2xdihedral:256", "1,255,256,512"))
    mirror = spectrum(build_graph("product:dihedral:256xcyclic:2", "2,510,512,1"))
    assert _max_gap(first.t, mirror.t) <= 1e-12


@pytest.mark.parametrize("spec,gens", [("symmetric:2", "auto"), *(
    (m.group_spec, m.gens_spec) for m in families.MEMBERS)])
def test_lambda_1_is_exactly_zero(spec, gens):
    s = spectrum(build_graph(spec, gens))
    assert s.t[-1] == 1.0 and s.lam[0] == 0.0


def _solve_alone(matrices) -> list[np.ndarray]:
    out = []
    for m in matrices:
        d, e = cayleygap.spectral._tridiagonalize(m[None].copy())
        out.append(cayleygap.spectral._bisect_block(d, e)[0])
    return out


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_solver_equals_each_matrix_alone(n, batch, seed):
    # Matrices of different scales, with some exactly zero or sparse, so the
    # batch holds matrices that skip a reflection or converge in different
    # rounds, and a zero one that is done at once.
    rng = np.random.default_rng(seed)
    matrices = []
    for b in range(batch):
        a = rng.integers(-3, 4, size=(n, n)) * rng.uniform(0.0, 1.0, size=(n, n))
        a *= rng.random((n, n)) < rng.choice([0.0, 0.3, 1.0])
        matrices.append((a + a.T) * 10.0 ** rng.integers(-3, 4))
    stack = np.array(matrices)
    d, e = cayleygap.spectral._tridiagonalize(stack.copy())
    together = cayleygap.spectral._bisect_block(d, e)
    for ours, alone in zip(together, _solve_alone(matrices)):
        assert [x.hex() for x in ours] == [x.hex() for x in alone]


# ---------------------------------------------------------------------------
# TOL is below the two spectral gaps it separates, by proof


def _eccentricity_and_bipartite(graph) -> tuple[int, bool]:
    """BFS from the identity: its eccentricity, which is the diameter of a
    vertex-transitive graph, and whether the graph is 2-colourable (a loop
    never is)."""
    depth = {0: 0}
    frontier = [0]
    bipartite = True
    while frontier:
        nxt = []
        for x in frontier:
            for y in graph.neighbors[x]:
                if y not in depth:
                    depth[y] = depth[x] + 1
                    nxt.append(y)
                elif depth[y] % 2 == depth[x] % 2:
                    bipartite = False
        frontier = nxt
    assert len(depth) == graph.n
    return max(depth.values()), bipartite


def _assert_gaps_above_proven_bounds(graph) -> None:
    """lambda_2 >= 4/(d n D) (Mohar 1991) and, unless the graph is bipartite,
    1 + t_min >= 1/(d n (D + 1)) (Alon and Sudakov 2000); both above TOL, so
    the spectral flags read the graph's true connectivity and bipartiteness."""
    n, d = graph.n, graph.d
    diameter, bipartite = _eccentricity_and_bipartite(graph)
    t = np.linalg.eigvalsh(np.array(normalized_adjacency(graph)))
    lambda2 = 1.0 - t[-2]
    assert 4 / (d * n * diameter) > TOL
    assert lambda2 >= 4 / (d * n * diameter)
    if not bipartite:
        assert 1 / (d * n * (diameter + 1)) > TOL
        assert 1.0 + t[0] >= 1 / (d * n * (diameter + 1))
    summary = spectrum(graph)
    assert is_connected(summary)
    assert is_bipartite_spectral(summary) == bipartite


def test_tol_is_below_both_bounds_at_the_element_cap():
    # Both bounds are at least about 1/(4 n^2); raising the cap past about
    # n = 15 800 would let them fall under TOL.
    assert 1 / (4 * ELEMENT_CAP**2) > TOL


@pytest.mark.parametrize("member", families.MEMBERS, ids=families.MEMBER_IDS)
def test_family_gaps_above_proven_bounds(member):
    graph = families.graph_of(member)
    assert _eccentricity_and_bipartite(graph)[1] == member.bipartite
    _assert_gaps_above_proven_bounds(graph)


_FACTOR = st.one_of(st.integers(min_value=1, max_value=16).map(from_cyclic),
                    st.integers(min_value=2, max_value=8).map(from_dihedral))
_GROUPS = st.lists(_FACTOR, min_size=1, max_size=3).filter(
    lambda fs: 2 <= math.prod(f.order for f in fs) <= 64)


@given(_GROUPS, st.booleans(), st.data())
def test_random_gaps_above_proven_bounds(factors, loop, data):
    group = factors[0]
    for factor in factors[1:]:
        group = from_direct_product(group, factor)
    draw = data.draw(st.sets(st.integers(1, group.order - 1), max_size=6))
    _assert_gaps_above_proven_bounds(
        build(group, families.random_generators(group, draw, loop)))
