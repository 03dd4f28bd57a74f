import numpy as np
import pytest

from chernlab.curvature import assemble_chern_tensor, hsc, ricci
from chernlab.errors import DimensionMismatch, NotPositiveDefinite
from chernlab.maps import map_compose, map_linear, map_power, map_product, pullback_metric
from chernlab.metrics import catalog_metric
from chernlab.tensors import (
    curvature_in_frame,
    gram_unitary_frame,
    hermitian_inverse,
    hermitize,
    symmetrize_curvature,
)


def frame_residue(e, g):
    """max|e^dag g e - I|, the unitarity defect of a frame."""
    e = np.asarray(e, dtype=complex)
    return float(np.max(np.abs(e.conj().T @ np.asarray(g, dtype=complex) @ e - np.eye(e.shape[0]))))


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


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _chern_assembly(rng, n):
    g, dg, dbar_g = rand_spd(n, rng), rand_complex(rng, n, n, n), rand_complex(rng, n, n, n)
    got = assemble_chern_tensor(g, dg, dbar_g, np.zeros((n,) * 4))
    return got, (hermitian_inverse(g), dg, dbar_g), lambda x: x


def _ricci(kind):
    def case(rng, n):
        g, r = rand_spd(n, rng), rand_complex(rng, n, n, n, n)
        return ricci(r, g, kind)[0], (hermitian_inverse(g), r), lambda x: hermitize(x)[0]

    return case


def _frame(field):
    def case(rng, n):
        r, _ = symmetrize_curvature(rand_complex(rng, n, n, n, n))
        e = gram_unitary_frame(rand_spd(n, rng)) @ rand_unitary(n, rng)
        ec = np.conj(e)
        return getattr(curvature_in_frame(r, e), field), (r, ec, e, ec, e), np.real

    return case


def _hsc_quartic(rng, n):
    g, v = rand_spd(n, rng), rand_complex(rng, n)
    r, _ = symmetrize_curvature(rand_complex(rng, n, n, n, n))
    vc = np.conj(v)
    norm_sq = np.real(v @ g @ vc)
    return np.array(hsc(r, g, v)), (r, v, vc, v, vc), lambda x: x.real / norm_sq**2


def _pullback(rng, n):
    target = catalog_metric("fubini_study", (n,))
    z, jac = 0.3 * rand_complex(rng, n), rand_complex(rng, n, n)
    f = map_linear(jac)  # its differential is jac at every point
    got = pullback_metric(f, z, target)
    return got, (target(f(z)), jac, np.conj(jac)), lambda x: hermitize(x)[0]


# each matmul kernel under the einsum subscripts it replaced: a random case
# gives (kernel result, einsum operands, map from the einsum to that result)
KERNELS = {
    "qp,ikq,jpl->ijkl": _chern_assembly,
    "lk,ijkl->ij": _ricci(1),
    "ji,ijkl->kl": _ricci(2),
    "li,ijkl->kj": _ricci(3),
    "ijkl,ia,ja,kg,lg->ag": _frame("r_mat"),
    "ijkl,ia,jg,kg,la->ag": _frame("p_mat"),
    "ijkl,i,j,k,l->": _hsc_quartic,
    "ab,ai,bj->ij": _pullback,
}


class TestContract:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("subscripts", sorted(KERNELS))
    def test_same_bits_as_einsum_optimize(self, subscripts, n):
        # a matmul sums in its own order, so the kernel agrees with einsum,
        # planned or not, to rounding rather than to the bit
        got, operands, finish = KERNELS[subscripts](np.random.default_rng(n), n)
        for optimize in (False, True):
            expected = finish(np.einsum(subscripts, *operands, optimize=optimize))
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert float(np.max(np.abs(got - expected))) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_frames_give_the_point_bits(self, n):
        rng = np.random.default_rng(n)
        r, _ = symmetrize_curvature(rand_complex(rng, n, n, n, n))
        frames = np.array([rand_unitary(n, rng) for _ in range(6)]).reshape(2, 3, n, n)
        stacked = curvature_in_frame(r, frames)
        for idx in np.ndindex(2, 3):
            single = curvature_in_frame(r, frames[idx])
            assert np.array_equal(stacked.r_mat[idx], single.r_mat)
            assert np.array_equal(stacked.p_mat[idx], single.p_mat)
        tensors = np.broadcast_to(r, (2, 3) + r.shape)
        assert np.array_equal(curvature_in_frame(tensors, frames).r_mat, stacked.r_mat)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_replays_the_point_path(self, n):
        rng = np.random.default_rng(n)
        target = catalog_metric("fubini_study", (n,))
        # differential A diag(3 z_i^2): a different Jacobian at every point
        f = map_compose(map_linear(rand_complex(rng, n, n)), map_product([map_power(3)] * n))
        z = 0.3 * rand_complex(rng, 5, n)
        stacked = pullback_metric(f, z, target)
        single = [pullback_metric(f, z[k], target) for k in range(5)]
        assert np.array_equal(stacked, single)
