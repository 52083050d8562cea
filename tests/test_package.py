import cayleygap


def test_every_exported_name_resolves():
    assert [name for name in cayleygap.__all__ if not hasattr(cayleygap, name)] == []
    assert len(set(cayleygap.__all__)) == len(cayleygap.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from cayleygap import *", namespace)
    assert set(cayleygap.__all__) <= namespace.keys()


def test_dense_solver_is_not_exported():
    # spectrum never builds T; the dense operator stays in cayleygap.spectral
    # for the tests and the benchmark, and the dense solver is gone.
    for name in ("eigenvalues_symmetric", "normalized_adjacency"):
        assert name not in cayleygap.__all__
        assert not hasattr(cayleygap, name)
    assert not hasattr(cayleygap.spectral, "eigenvalues_symmetric")
