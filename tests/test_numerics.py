import math

import numpy as np
import pytest

from qhtbounds import DomainError
from qhtbounds.numerics import (
    check_hermitian,
    eig_h,
    kron,
    mat_func,
    partial_trace,
    pencil_eigvals,
    trace_norm,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def test_eig_identity():
    w, _ = eig_h(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])


def test_eig_diagonal():
    w, u = eig_h(np.diag([-1.0, 3.0]))
    assert np.allclose(w, [-1.0, 3.0])
    assert np.allclose(np.abs(u), np.eye(2))


def test_eig_pauli_x():
    # characteristic polynomial x^2 - 1 by hand
    w, _ = eig_h(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_eig_rejects_non_hermitian():
    with pytest.raises(DomainError):
        eig_h(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        eig_h(np.ones((2, 3)))


def test_eig_reconstruction_batch():
    # reconstruction and orthonormality over 1000 random matrices up to dim 64
    rng = np.random.default_rng(0)
    for trial in range(1000):
        dim = int(rng.integers(1, 65))
        m = random_hermitian(dim, 10_000 + trial)
        w, u = eig_h(m)
        assert np.all(np.diff(w) >= 0)
        fro = np.linalg.norm(m)
        assert np.linalg.norm(m - (u * w) @ u.conj().T) <= 1e-10 * max(fro, 1e-30)
        assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-10


def test_mat_func_identity():
    m = random_hermitian(3, 1)
    assert np.allclose(mat_func(m, lambda x: x), m, atol=1e-12)


def test_mat_func_exp_diagonal():
    out = mat_func(np.diag([0.0, math.log(2.0)]), math.exp)
    assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-14)


def test_mat_func_log_exp_roundtrip():
    m = random_hermitian(4, 2)
    back = mat_func(mat_func(m, math.exp), math.log)
    assert np.abs(back - m).max() <= 1e-9


def test_mat_func_domain_error():
    with pytest.raises(DomainError):
        mat_func(np.diag([1.0, 0.0]), math.log)


def test_mat_func_product_rule():
    m = random_hermitian(5, 3)
    f = lambda x: math.sin(x)
    g = lambda x: math.cos(x)
    lhs = mat_func(m, f) @ mat_func(m, g)
    rhs = mat_func(m, lambda x: f(x) * g(x))
    assert np.abs(lhs - rhs).max() <= 1e-9


def test_mat_func_commutes():
    m = random_hermitian(4, 4)
    fm = mat_func(m, math.exp)
    assert np.abs(fm @ m - m @ fm).max() <= 1e-10


def test_kron_identity():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal():
    out = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_kron_trace_multiplicative():
    a = random_hermitian(3, 5)
    b = random_hermitian(2, 6)
    assert np.isclose(np.trace(kron(a, b)), np.trace(a) * np.trace(b))


def test_kron_eigenvalues_products():
    a = random_hermitian(2, 7)
    b = random_hermitian(3, 8)
    wa, _ = eig_h(a)
    wb, _ = eig_h(b)
    wk, _ = eig_h(kron(a, b))
    assert np.allclose(np.sort(np.kron(wa, wb)), wk, atol=1e-10)


def test_partial_trace_product():
    a = random_hermitian(2, 9)
    b = random_hermitian(3, 10)
    out = partial_trace(kron(a, b), [2, 3], keep=[0])
    assert np.abs(out - a * np.trace(b)).max() <= 1e-12


def test_partial_trace_everything():
    m = random_hermitian(6, 11)
    out = partial_trace(m, [2, 3], keep=[])
    assert out.shape == (1, 1)
    assert np.isclose(out[0, 0], np.trace(m))


def test_partial_trace_marginals_unit_trace():
    rng = np.random.default_rng(12)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    for keep in ([0], [1]):
        marg = partial_trace(rho, [2, 2], keep)
        assert np.isclose(np.trace(marg).real, 1.0, atol=1e-12)


def test_partial_trace_index_sum_oracle():
    # independent summation over explicit indices
    rng = np.random.default_rng(13)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    t = rho.reshape(2, 2, 2, 2)
    by_hand = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                by_hand[i, j] += t[i, k, j, k]
    assert np.abs(partial_trace(rho, [2, 2], [0]) - by_hand).max() <= 1e-14


def test_partial_trace_linear_and_trace_preserving():
    a = random_hermitian(6, 14)
    b = random_hermitian(6, 15)
    lhs = partial_trace(2.0 * a + 3.0 * b, [2, 3], [1])
    rhs = 2.0 * partial_trace(a, [2, 3], [1]) + 3.0 * partial_trace(b, [2, 3], [1])
    assert np.abs(lhs - rhs).max() <= 1e-12
    assert np.isclose(np.trace(partial_trace(a, [2, 3], [1])), np.trace(a))


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DomainError):
        partial_trace(np.eye(6), [2, 2], [0])


def test_trace_norm_examples():
    assert np.isclose(trace_norm(np.eye(5)), 5.0)
    assert np.isclose(trace_norm(np.diag([1.0, -1.0])), 2.0)
    rng = np.random.default_rng(16)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    assert np.isclose(trace_norm(rho), 1.0, atol=1e-12)


def test_check_hermitian_symmetrizes():
    m = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
    out = check_hermitian(m)
    assert np.abs(out - out.conj().T).max() == 0.0


def random_psd(dim, rank, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g @ g.conj().T


def reference_pencil(top, bottom):
    return np.sort(np.linalg.eigvals(np.linalg.solve(bottom, top)).real)


def test_pencil_eigvals_faithful_pair():
    top, bottom = random_psd(5, 5, 1), random_psd(5, 5, 2)
    w, u = np.linalg.eigh(bottom)
    got = pencil_eigvals(top, w, u)
    assert np.allclose(got, reference_pencil(top, bottom), rtol=1e-9, atol=1e-12)
    assert np.all(np.diff(got) >= 0.0)


def test_pencil_eigvals_floored_singular_bottom():
    top, bottom = random_psd(6, 6, 3), random_psd(6, 3, 4)
    w, u = np.linalg.eigh(bottom)
    assert w[0] < 1e-12
    floored = np.maximum(w, 1e-6)
    got = pencil_eigvals(top, floored, u)
    want = reference_pencil(top, (u * floored) @ u.conj().T)
    assert np.allclose(got, want, rtol=1e-7, atol=1e-9)


def test_pencil_eigvals_support_restricted_basis():
    top, bottom = random_psd(6, 6, 5), random_psd(6, 4, 6)
    w, u = np.linalg.eigh(bottom)
    mask = w > 1e-12
    assert mask.sum() == 4
    basis = u[:, mask]
    got = pencil_eigvals(top, w[mask], basis)
    want = reference_pencil(basis.conj().T @ top @ basis, basis.conj().T @ bottom @ basis)
    assert got.shape == (4,)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
