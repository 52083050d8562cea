import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cayleygap.spectral
from cayleygap import (
    CapExceededError,
    CayleyGraph,
    GeneratingSet,
    build,
    build_graph,
    eigenvalues_symmetric,
    from_cyclic,
    is_bipartite_spectral,
    is_connected,
    normalized_adjacency,
    spectrum,
)

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


@pytest.mark.parametrize("member", families.small(16), ids=lambda m: m.name)
def test_eigenvalues_match_numpy_on_graphs(member):
    graph = families.graph_of(member)
    ours = eigenvalues_symmetric(normalized_adjacency(graph))
    ref = oracles.numpy_eigs(normalized_adjacency(graph))
    assert max(abs(a - b) for a, b in zip(ours, ref)) < 1e-10


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2**32 - 1))
def test_eigenvalues_match_numpy_random(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    sym = (a + a.T) / 2.0
    ours = eigenvalues_symmetric(sym)
    ref = oracles.numpy_eigs(sym)
    assert max(abs(x - y) for x, y in zip(ours, ref)) < 1e-9


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=16))
def test_eigenvalues_of_diagonal(values):
    mat = np.diag(values)
    assert eigenvalues_symmetric(mat) == sorted(values)


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
    assert _max_gap(eigenvalues_symmetric(sym), oracles.numpy_eigs(sym)) <= _oracle_tol(sym)


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eigenvalues_oracle_block_diagonal(sizes, seed):
    # Off-diagonal blocks are exactly zero, so the tridiagonal splits.
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    mat = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = rng.uniform(-3.0, 3.0, size=(size, size))
        mat[start:start + size, start:start + size] = block + block.T
        start += size
    assert _max_gap(eigenvalues_symmetric(mat), oracles.numpy_eigs(mat)) <= _oracle_tol(mat)


@pytest.mark.parametrize("gens,multiplicity", [("auto", 9), ("(0 1);(1 2);(2 3)", 3)])
def test_eigenvalues_oracle_high_multiplicity(gens, multiplicity):
    t = normalized_adjacency(build_graph("symmetric:4", gens))
    ours = eigenvalues_symmetric(t)
    ref = oracles.numpy_eigs(t)
    assert max(sum(abs(x - y) < 1e-9 for y in ref) for x in ref) == multiplicity
    assert _max_gap(ours, ref) <= _oracle_tol(t)


def test_eigenvalues_oracle_cyclic_256():
    graph = build_graph("cyclic:256", "±1,±2")
    ours = eigenvalues_symmetric(normalized_adjacency(graph))
    assert _max_gap(ours, oracles.circulant_t(graph.n, graph.gens.elements)) <= 1e-12


@pytest.mark.parametrize("exponent", [-700, 700])
def test_eigenvalues_rescaled_input(exponent):
    rng = np.random.default_rng(7)
    a = rng.uniform(-1.0, 1.0, size=(12, 12))
    sym = a + a.T
    scaled = np.ldexp(sym, exponent)
    ours = [math.ldexp(x, -exponent) for x in eigenvalues_symmetric(scaled)]
    assert _max_gap(ours, oracles.numpy_eigs(sym)) <= _oracle_tol(sym)


def test_eigenvalues_bitwise_reproducible():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1.0, 1.0, size=(40, 40))
    sym = (a + a.T) / 2.0
    first = eigenvalues_symmetric(sym)
    second = eigenvalues_symmetric(sym.copy())
    assert [x.hex() for x in first] == [x.hex() for x in second]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_eigenvalues_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        eigenvalues_symmetric([[1.0, bad], [bad, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        eigenvalues_symmetric([[bad]])


def test_eigenvalues_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        eigenvalues_symmetric([[1.0, 2.0]])


def test_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        eigenvalues_symmetric([[0.0, 1.0], [0.0, 0.0]])


def test_eigenvalues_trivial_sizes():
    assert eigenvalues_symmetric(np.zeros((0, 0))) == []
    assert eigenvalues_symmetric([[3.5]]) == [3.5]


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
