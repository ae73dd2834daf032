import pytest
import scipy.linalg
import scipy.sparse.linalg as spla


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts of sparse LU factorizations and tridiagonal eigensolves made
    while the test runs."""
    calls = {"splu": 0, "eigh_tridiagonal": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(spla, "splu")
    counting(scipy.linalg, "eigh_tridiagonal")
    return calls
