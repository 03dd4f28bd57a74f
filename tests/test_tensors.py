import re
from pathlib import Path

import numpy as np
import pytest

import chernlab
from chernlab.errors import DimensionMismatch, NotPositiveDefinite
from chernlab.tensors import (
    contract,
    curvature_in_frame,
    frame_residue,
    gram_unitary_frame,
    hermitian_inverse,
    hermitize,
    symmetrize_curvature,
)


def rand_unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_spd(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + n * np.eye(n)


def fs_normal_form(n):
    eye = np.eye(n)
    return (np.einsum("ij,kl->ijkl", eye, eye) + np.einsum("il,kj->ijkl", eye, eye)).astype(
        complex
    )


class TestHermitianInverse:
    def test_identity(self):
        assert np.allclose(hermitian_inverse(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(hermitian_inverse(np.diag([4.0, 1.0])), np.diag([0.25, 1.0]))

    def test_2x2_closed_form(self):
        # direct 2x2 inverse: det = 3, inv = [[2, -i], [i, 2]] / 3
        g = np.array([[2.0, 1j], [-1j, 2.0]])
        expected = np.array([[2.0, -1j], [1j, 2.0]]) / 3.0
        assert np.max(np.abs(hermitian_inverse(g) - expected)) < 1e-12

    def test_inverse_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rand_spd(4, rng)
            assert np.max(np.abs(g @ hermitian_inverse(g) - np.eye(4))) < 1e-10

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            hermitian_inverse(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_equals_matrices_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        g = np.array([rand_spd(n, rng) for _ in range(12)]).reshape(3, 4, n, n)
        single = np.array([hermitian_inverse(m) for m in g.reshape(12, n, n)])
        assert np.array_equal(hermitian_inverse(g).reshape(12, n, n), single)

    def test_stack_with_one_bad_matrix(self):
        with pytest.raises(NotPositiveDefinite):
            hermitian_inverse(np.array([np.eye(2), np.diag([1.0, -1.0])]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entries(self, bad):
        # Cholesky does not reject them by itself
        with pytest.raises(NotPositiveDefinite):
            hermitian_inverse(np.array([[1.0, 0.2], [0.2, bad]]))


class TestGramUnitaryFrame:
    def test_identity(self):
        assert np.allclose(gram_unitary_frame(np.eye(3)), np.eye(3))

    def test_diagonal_rescaling(self):
        e = gram_unitary_frame(np.diag([4.0, 9.0]))
        assert np.allclose(e, np.diag([0.5, 1.0 / 3.0]))

    def test_random_spd_residue(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = rand_spd(3, rng)
            assert frame_residue(gram_unitary_frame(g), g) < 1e-10

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            gram_unitary_frame(np.zeros((2, 2)))


class TestCurvatureInFrame:
    def test_zero_tensor(self):
        fm = curvature_in_frame(np.zeros((2, 2, 2, 2), dtype=complex), np.eye(2))
        assert np.all(fm.r_mat == 0) and np.all(fm.p_mat == 0)

    def test_identity_frame_extracts_entries(self):
        rng = np.random.default_rng(2)
        r = rng.standard_normal((3, 3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3, 3))
        r, _ = symmetrize_curvature(r)
        fm = curvature_in_frame(r, np.eye(3))
        expected = np.real(np.einsum("aagg->ag", r))
        assert np.max(np.abs(fm.r_mat - expected)) == 0.0

    def test_fs_normal_form_any_frame(self):
        # constant-HSC tensor is U(n)-invariant: R_mat = 1 + delta in every frame
        rng = np.random.default_rng(3)
        r = fs_normal_form(2)
        expected = 1.0 + np.eye(2)
        for _ in range(100):
            fm = curvature_in_frame(r, rand_unitary(2, rng))
            assert np.max(np.abs(fm.r_mat - expected)) < 1e-9
            assert np.max(np.abs(fm.p_mat - expected)) < 1e-9

    def test_poincare_scalar(self):
        r = np.full((1, 1, 1, 1), -2.0 + 0j)
        fm = curvature_in_frame(r, np.eye(1))
        assert fm.r_mat[0, 0] == -2.0

    def test_frame_invariance_with_complex_metric(self):
        # constant-curvature tensor at a point where g has complex entries:
        # the frame matrix must be -(1 + delta) in every unitary frame
        from chernlab.curvature import chern_curvature
        from chernlab.metrics import catalog_metric
        import scipy.linalg

        ch = catalog_metric("complex_hyperbolic", (2,))
        z = np.array([0.2 + 0.1j, 0.05 - 0.2j])
        r = chern_curvature(ch, z)
        g = ch(z)
        e0 = gram_unitary_frame(g)
        rng = np.random.default_rng(6)
        expected = -(1.0 + np.eye(2))
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = (a - a.conj().T) / 2.0
            fm = curvature_in_frame(r, e0 @ scipy.linalg.expm(a))
            assert np.max(np.abs(fm.r_mat - expected)) < 1e-8
            assert np.max(np.abs(fm.p_mat - expected)) < 1e-8

    def test_diagonals_agree(self):
        rng = np.random.default_rng(4)
        r, _ = symmetrize_curvature(
            rng.standard_normal((3, 3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3, 3))
        )
        fm = curvature_in_frame(r, rand_unitary(3, rng))
        assert np.max(np.abs(np.diag(fm.r_mat) - np.diag(fm.p_mat))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            curvature_in_frame(np.zeros((2, 2, 2, 2)), np.eye(3))


class TestSymmetrize:
    def test_residue_recorded(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
        sym, residue = symmetrize_curvature(raw)
        assert residue > 0
        # symmetrized tensor satisfies the conjugation symmetry exactly
        assert np.max(np.abs(sym - np.conj(np.transpose(sym, (1, 0, 3, 2))))) < 1e-15

    def test_hermitize(self):
        h, residue = hermitize(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert residue == 2.0
        assert np.allclose(h, [[1.0, 1.0], [1.0, 1.0]])


def package_contractions():
    """Every subscripts string passed to ``contract`` in the package source."""
    found = set()
    for path in Path(chernlab.__file__).parent.glob("*.py"):
        found.update(re.findall(r'contract\(\s*"([^"]+)"', path.read_text(encoding="utf-8")))
    return sorted(found)


class TestContract:
    def test_every_einsum_site_found(self):
        assert len(package_contractions()) >= 8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_replays_the_point_path(self, n):
        # leading stack axes: each point gets the bits of its own contraction
        rng = np.random.default_rng(n)
        h, jac = (
            rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n)) for _ in range(2)
        )
        stacked = contract("ab,ai,bj->ij", h, jac, np.conj(jac))
        single = [contract("ab,ai,bj->ij", h[k], jac[k], np.conj(jac[k])) for k in range(5)]
        assert np.array_equal(stacked, single)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("subscripts", package_contractions())
    def test_same_bits_as_einsum_optimize(self, subscripts, n):
        rng = np.random.default_rng(n)
        shapes = [(n,) * len(term) for term in subscripts.split("->")[0].split(",")]
        operands = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
        expected = np.einsum(subscripts, *operands, optimize=True)
        # the first call plans the path, the second reuses it
        for _ in range(2):
            assert np.array_equal(contract(subscripts, *operands), expected)
