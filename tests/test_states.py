import pickle

import numpy as np
import pytest

from qhtbounds import (
    DomainError,
    GibbsChain,
    InvalidStateError,
    ResourceError,
    build_gibbs,
    density_matrix,
    from_bloch,
    maximally_mixed,
    product_state,
    pure_state,
    random_density,
    regularized,
    state_from_json,
    state_to_json,
    tensor_pow,
    to_bloch,
)

FIG1_A = (-0.177483, 0.365807, 0.291007)


def test_from_bloch_maximally_mixed():
    rho = from_bloch((0.0, 0.0, 0.0))
    assert np.allclose(rho.matrix, np.eye(2) / 2)


def test_from_bloch_pure_z():
    rho = from_bloch((0.0, 0.0, 1.0))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))


def test_from_bloch_reference_pair_spectrum():
    # both built-in Bloch vectors have norm 1/2, so eigenvalues (1 +- 1/2)/2
    rho = from_bloch(FIG1_A)
    norm = np.linalg.norm(FIG1_A)
    assert np.isclose(norm, 0.5, atol=1e-7)
    assert np.allclose(rho.eigenvalues, [(1 - norm) / 2, (1 + norm) / 2], atol=1e-12)


def test_from_bloch_affine_and_complement():
    r1 = np.array([0.2, -0.1, 0.4])
    r2 = np.array([-0.3, 0.2, 0.1])
    mid = from_bloch((r1 + r2) / 2).matrix
    avg = (from_bloch(r1).matrix + from_bloch(r2).matrix) / 2
    assert np.abs(mid - avg).max() <= 1e-14
    lhs = from_bloch(-r1).matrix
    rhs = np.eye(2) - from_bloch(r1).matrix
    assert np.abs(lhs - rhs).max() <= 1e-14


def test_from_bloch_rejects_long_vector():
    with pytest.raises(InvalidStateError):
        from_bloch((0.9, 0.5, 0.5))


def test_to_bloch_roundtrip():
    r = (0.3, -0.2, 0.1)
    assert np.allclose(to_bloch(from_bloch(r)), r, atol=1e-14)


def test_random_density_dim1():
    rho = random_density(1, 0)
    assert rho.matrix.shape == (1, 1)
    assert np.isclose(rho.matrix[0, 0].real, 1.0)


def test_random_density_deterministic():
    a = random_density(3, 42)
    b = random_density(3, 42)
    assert np.array_equal(a.matrix, b.matrix)


def test_random_density_mean_is_maximally_mixed():
    # unitary invariance of the Hilbert-Schmidt ensemble
    acc = np.zeros((2, 2), dtype=complex)
    for seed in range(10_000):
        acc += random_density(2, seed).matrix
    acc /= 10_000
    assert np.abs(acc - np.eye(2) / 2).max() <= 0.02


def test_random_density_diagonal_mode():
    rho = random_density(4, 5, mode="diagonal")
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    assert np.abs(off).max() == 0.0


def test_random_density_rejects_bad_input():
    with pytest.raises(DomainError):
        random_density(0, 1)
    with pytest.raises(DomainError):
        random_density(2, 1, mode="bogus")


def test_density_matrix_validation():
    with pytest.raises(InvalidStateError):
        density_matrix(np.diag([0.5, 0.6]))
    with pytest.raises(InvalidStateError):
        density_matrix(np.diag([1.5, -0.5]))


def test_tensor_pow_trivial():
    rho = random_density(2, 7)
    assert np.abs(tensor_pow(rho, 1).matrix - rho.matrix).max() == 0.0
    assert np.allclose(tensor_pow(maximally_mixed(2), 2).matrix, np.eye(4) / 4)


def test_tensor_pow_eigenvalues_kron_oracle():
    rho = random_density(2, 8)
    sq = tensor_pow(rho, 2)
    direct = np.linalg.eigvalsh(np.kron(rho.matrix, rho.matrix))
    assert np.allclose(sq.eigenvalues, direct, atol=1e-12)
    assert np.abs(sq.matrix - np.kron(rho.matrix, rho.matrix)).max() <= 1e-14


def test_tensor_pow_budget():
    with pytest.raises(ResourceError):
        tensor_pow(random_density(2, 9), 30)


def test_product_state_single_and_diagonal():
    rho = random_density(3, 10)
    assert np.abs(product_state([rho]).matrix - rho.matrix).max() == 0.0
    a = density_matrix(np.diag([0.25, 0.75]).astype(complex))
    b = density_matrix(np.diag([0.4, 0.6]).astype(complex))
    out = product_state([a, b])
    assert np.allclose(np.sort(np.diag(out.matrix).real), np.sort(np.kron([0.25, 0.75], [0.4, 0.6])))


def test_product_state_unit_trace_random_triples():
    factors = [random_density(2, s) for s in (11, 12, 13)]
    out = product_state(factors)
    assert np.isclose(np.trace(out.matrix).real, 1.0, atol=1e-12)
    assert out.eigenvalues[0] >= -1e-12


def test_product_state_matrix_is_kron_and_records_factors():
    a, b, c = random_density(2, 14), random_density(3, 15), random_density(2, 16)
    ab = product_state([a, b])
    assert np.array_equal(ab.matrix, np.kron(a.matrix, b.matrix))
    assert np.array_equal(ab.matrix, ab.matrix.conj().T)
    assert all(x is y for x, y in zip(ab.factors, (a, b))) and len(ab.factors) == 2
    nested = product_state([ab, c])
    assert np.array_equal(nested.matrix, np.kron(ab.matrix, c.matrix))
    assert np.array_equal(nested.matrix, nested.matrix.conj().T)
    assert len(nested.factors) == 3 and all(x is y for x, y in zip(nested.factors, (a, b, c)))
    assert np.all(np.diff(nested.eigenvalues) >= 0.0)
    assert tensor_pow(a, 3).factors == (a, a, a)
    assert tensor_pow(a, 1) is a


def test_non_product_states_have_no_factors():
    rho = random_density(2, 17)
    chain = GibbsChain(2, np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])).astype(complex), 0.3)
    for state in (
        rho,
        density_matrix(np.kron(rho.matrix, rho.matrix)),
        regularized(product_state([rho, rho]), 1e-3),
        build_gibbs(chain, 3),
    ):
        assert state.factors == ()


def test_pure_state():
    rho = pure_state([1.0, 1.0])
    assert np.allclose(rho.matrix, np.full((2, 2), 0.5))


def test_regularized_faithful():
    rho = pure_state([1.0, 0.0])
    reg = regularized(rho, 1e-6)
    assert reg.is_faithful()
    assert np.isclose(np.trace(reg.matrix).real, 1.0)


def test_state_json_roundtrip():
    rho = random_density(3, 20)
    back = state_from_json(state_to_json(rho))
    assert np.abs(back.matrix - rho.matrix).max() <= 1e-15
    bloch = state_from_json({"bloch": [0.1, 0.2, -0.3]})
    assert np.allclose(to_bloch(bloch), [0.1, 0.2, -0.3], atol=1e-14)


def test_state_json_errors():
    with pytest.raises(InvalidStateError):
        state_from_json({"entries": [[1, 0]]})
    with pytest.raises(InvalidStateError):
        state_from_json({"dim": 2, "entries": [[1, 0]]})
    with pytest.raises(InvalidStateError):
        state_from_json([1, 2, 3])


def test_states_compare_by_identity_and_hash():
    a, b = from_bloch([0.1, 0.2, 0.3]), from_bloch([0.1, 0.2, 0.3])
    assert np.array_equal(a.matrix, b.matrix)
    assert a != b and not (a == b)
    assert a == a
    seen = {a: "a", b: "b"}
    assert seen[a] == "a" and seen[b] == "b"
    assert tensor_pow(a, 2).factors == (a, a)


def _eager_eigenvectors(factors):
    """Kronecker product of the factors' eigenvectors, columns in the stable
    ascending order of the Kronecker product of their eigenvalues."""
    w, u = factors[0].eigenvalues, factors[0].eigenvectors
    for f in factors[1:]:
        w, u = np.kron(w, f.eigenvalues), np.kron(u, f.eigenvectors)
    return u[:, np.argsort(w, kind="stable")]


def test_product_eigenvectors_are_built_on_first_read():
    a, b, c = random_density(2, 31), random_density(3, 32), random_density(2, 33)
    prod = product_state([a, b, c])
    assert callable(prod._eigenvectors)
    unread = pickle.loads(pickle.dumps(prod))  # the pending build pickles too
    u = prod.eigenvectors
    assert u.tobytes() == _eager_eigenvectors([a, b, c]).tobytes()
    assert unread.eigenvectors.tobytes() == u.tobytes()
    assert prod.eigenvectors is u and not u.flags.writeable
    # a nested product sorts as its eager construction did: ties in a tensor
    # power keep the order of the inner product's sorted columns
    sq = tensor_pow(a, 2)
    nested = product_state([sq, a, b])
    assert nested.eigenvectors.tobytes() == _eager_eigenvectors([sq, a, b]).tobytes()
    assert np.allclose((nested.eigenvectors * nested.eigenvalues) @ nested.eigenvectors.conj().T, nested.matrix)

