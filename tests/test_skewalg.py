import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parea.skewalg as skewalg_module
from parea.skewalg import (
    SkewMatrix,
    _certified_full_rank,
    alignment_residual,
    paired_spectrum,
    rank2_audit,
    rank2_factorize,
    skew_rank,
    skew_ranks,
    spectral_pairs,
    triangle_ranks,
)

ROT2 = np.array([[0.0, 2.0], [-2.0, 0.0]])


def block_diag(*lams):
    m = 2 * len(lams)
    out = np.zeros((m, m))
    for j, lam in enumerate(lams):
        out[2 * j, 2 * j + 1] = lam
        out[2 * j + 1, 2 * j] = -lam
    return out


def random_skew(rng, m):
    a = rng.standard_normal((m, m))
    return a - a.T


def random_rank2(rng, m):
    a = rng.standard_normal(m)
    b = rng.standard_normal(m)
    return np.outer(a, b) - np.outer(b, a)


def random_rank(rng, m, rank):
    """A generic skew matrix of the given even rank (a sum of rank-2 terms),
    scaled over several decades."""
    out = np.zeros((m, m))
    for _ in range(rank // 2):
        out += random_rank2(rng, m)
    return 10.0 ** rng.uniform(-3, 3) * out


class TestBatchedRank:
    def test_stack_matches_single_matrix(self):
        # property: on stacks of rank 0/2/4/6 the batched kernel returns the
        # rank and spectrum of each matrix taken alone
        rng = np.random.default_rng(2024)
        for m in (4, 5, 6):
            for _ in range(5):
                ranks = rng.choice([r for r in (0, 2, 4, 6) if r <= m], size=(3, 20))
                stack = np.array([[random_rank(rng, m, r) for r in row]
                                  for row in ranks])
                batched = skew_ranks(stack)
                assert batched.shape == (3, 20)
                assert np.array_equal(batched, ranks)
                assert np.array_equal(triangle_ranks(triangle(stack), m), ranks)
                single = [[skew_rank(s) for s in row] for row in stack]
                assert np.array_equal(batched, single)
                spectra = paired_spectrum(stack)
                for row, srow in zip(stack, spectra):
                    for s, lam in zip(row, srow):
                        assert np.array_equal(lam, paired_spectrum(s))

    def test_single_matrix_needs_two_dimensions(self):
        with pytest.raises(ValueError, match="square"):
            skew_rank(np.zeros((2, 3, 3)))


def triangle(stack):
    """Upper-triangle entries of a stack (..., m, m), shape (npairs, ...)."""
    rows, cols = np.triu_indices(stack.shape[-1], 1)
    return np.moveaxis(stack[..., rows, cols], -1, 0)


def svd_ranks(stack, tol):
    """Reference rank, independent of skewalg: the paired singular values
    of each matrix above tol * largest, counted twice."""
    sigma = np.linalg.svd(stack, compute_uv=False)
    lams = 0.5 * (sigma[..., 0:-1:2] + sigma[..., 1::2])
    return 2 * np.count_nonzero(lams > tol * lams[..., :1], axis=-1)


def skew_with_spectrum(rng, m, lams):
    """Exactly skew Q B Q^T for random orthogonal Q, where B is block
    diagonal with the 2 x 2 blocks lam_j [[0, 1], [-1, 0]] of each row of
    lams (shape (n, floor(m/2)))."""
    n = len(lams)
    blocks = np.zeros((n, m, m))
    for j in range(m // 2):
        blocks[:, 2 * j, 2 * j + 1] = lams[:, j]
        blocks[:, 2 * j + 1, 2 * j] = -lams[:, j]
    q, _ = np.linalg.qr(rng.standard_normal((n, m, m)))
    s = q @ blocks @ np.swapaxes(q, -1, -2)
    return 0.5 * (s - np.swapaxes(s, -1, -2))


@pytest.mark.filterwarnings("error")
class TestCertifiedRank:
    """`triangle_ranks` certifies full rank by a normalized Pfaffian bound and
    sends the rest to the SVD; every rank must equal the plain SVD count."""

    @pytest.mark.parametrize("tol", [1e-14, 1e-9, 1e-6])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_svd_count(self, m, tol):
        rng = np.random.default_rng(100 * m + int(-np.log10(tol)))
        n, k = 600, m // 2
        # lambda_1 = 1, the other lambda_j / lambda_1 log-uniform on [1e-13, 1]
        lams = np.ones((n, k))
        lams[:, 1:] = 10.0 ** rng.uniform(-13, 0, (n, k - 1))
        if k > 1:  # a share with one pair within a factor 2 of tol * lambda_1
            near = rng.random(n) < 0.3
            lams[near, -1] = tol * 2.0 ** rng.uniform(-1, 1, near.sum())
        stack = skew_with_spectrum(rng, m, lams)
        for scale in (1.0, 1e-150, 1e150, 1e-310):
            scaled = stack * scale
            assert np.array_equal(triangle_ranks(triangle(scaled), m, tol),
                                  svd_ranks(scaled, tol))

    def test_blocks_keep_node_order(self, monkeypatch):
        # mixed ranks over many blocks: each SVD rank lands on its own node
        monkeypatch.setattr(skewalg_module, "_CERTIFY_BLOCK", 97)
        rng = np.random.default_rng(6)
        ranks = rng.choice([0, 2, 4, 6], size=(20, 30))
        stack = np.array([[random_rank(rng, 6, r) for r in row] for row in ranks])
        assert np.array_equal(triangle_ranks(triangle(stack), 6), ranks)

    def test_rank_stacks_m6(self):
        rng = np.random.default_rng(7)
        for rank in (0, 2, 4):
            stack = np.array([random_rank(rng, 6, rank) for _ in range(200)])
            ranks = triangle_ranks(triangle(stack), 6)
            assert np.array_equal(ranks, svd_ranks(stack, 1e-9))
            assert np.all(ranks == rank)

    def test_certificate_only_claims_full_rank(self):
        rng = np.random.default_rng(8)
        full = np.array([random_rank(rng, 6, 6) for _ in range(64)])
        deficient = np.array([random_rank(rng, 6, 4) for _ in range(64)])
        assert _certified_full_rank(triangle(full), 6, 1e-9).mean() > 0.9
        assert not _certified_full_rank(triangle(deficient), 6, 1e-9).any()
        # rank 4 and not skew: the dense kernel sees the whole matrix
        general = rng.standard_normal((64, 6, 4)) @ rng.standard_normal((64, 4, 6))
        assert np.array_equal(skew_ranks(general), svd_ranks(general, 1e-9))

    def test_huge_rank_four_is_not_certified(self):
        # squaring unscaled Pfaffians overflows at this scale and would
        # report rank 6
        rng = np.random.default_rng(9)
        s = 1e100 * random_rank(rng, 6, 4)
        stack = np.broadcast_to(s, (64, 6, 6))
        assert np.all(triangle_ranks(triangle(stack), 6) == 4)
        assert np.all(svd_ranks(stack, 1e-9) == 4)

    def test_zero_and_nonfinite_matrices(self):
        stack = np.zeros((64, 6, 6))
        assert np.all(triangle_ranks(triangle(stack), 6) == 0)
        assert np.all(skew_ranks(stack) == 0)
        stack[1:] = random_rank(np.random.default_rng(10), 6, 6)
        stack[1, 0, 1], stack[1, 1, 0] = np.inf, -np.inf
        assert np.array_equal(skew_ranks(stack), svd_ranks(stack, 1e-9))
        stack[2, 2, 3], stack[2, 3, 2] = np.nan, np.nan
        for ranks in (skew_ranks, lambda x: svd_ranks(x, 1e-9)):
            with pytest.raises(np.linalg.LinAlgError):
                ranks(stack)

    def test_triangle_needs_one_row_per_pair(self):
        with pytest.raises(ValueError, match="one row per pair"):
            triangle_ranks(np.zeros((6, 10)), 5)
        with pytest.raises(ValueError, match="one row per pair"):
            triangle_ranks(np.zeros((28, 10)), 8)


class TestSkewRank:
    def test_zero(self):
        assert skew_rank(np.zeros((3, 3))) == 0

    def test_rotation(self):
        assert skew_rank(ROT2) == 2

    def test_two_blocks(self):
        # singular values are all 2 (hand check on the block form)
        assert skew_rank(block_diag(2.0, 2.0)) == 4

    def test_always_even_random(self):
        rng = np.random.default_rng(0)
        for m in range(2, 7):
            for _ in range(200):
                assert skew_rank(random_skew(rng, m)) % 2 == 0

    def test_rank2_detected(self):
        rng = np.random.default_rng(1)
        for m in range(2, 7):
            for _ in range(50):
                assert skew_rank(random_rank2(rng, m)) == 2


class TestSpectralPairs:
    def test_rotation(self):
        assert spectral_pairs(ROT2) == pytest.approx([2.0])

    def test_zero(self):
        assert spectral_pairs(np.zeros((4, 4))) == []

    def test_two_blocks(self):
        assert spectral_pairs(block_diag(3.0, 1.0)) == pytest.approx([3.0, 1.0])

    def test_repeated_pair_multiplicity(self):
        assert spectral_pairs(block_diag(2.0, 2.0)) == pytest.approx([2.0, 2.0])

    def test_trace_identity(self):
        rng = np.random.default_rng(2)
        for m in range(2, 7):
            for _ in range(100):
                s = random_skew(rng, m)
                lams = np.asarray(spectral_pairs(s))
                tr = np.trace(s @ s)
                assert 2 * np.sum(lams ** 2) == pytest.approx(-tr, rel=1e-9)


class TestAlignmentResidual:
    def test_zero_matrix(self):
        nu = np.array([1.0, 0.0, 0.0])
        assert np.all(alignment_residual(np.zeros((3, 3)), nu) == 0.0)

    def test_constructed_rank2_annihilated(self):
        # S = a nu_perp nu^T - a nu nu_perp^T is killed by its own nu
        rng = np.random.default_rng(3)
        for m in range(2, 7):
            nu = rng.standard_normal(m)
            nu /= np.linalg.norm(nu)
            raw = rng.standard_normal(m)
            perp = raw - (raw @ nu) * nu
            perp /= np.linalg.norm(perp)
            s = 1.7 * (np.outer(perp, nu) - np.outer(nu, perp))
            res = alignment_residual(s, nu)
            assert np.max(np.abs(res)) <= 1e-12 * np.max(np.abs(s))

    def test_rank4_never_annihilated(self):
        # a rank-4 matrix admits no annihilating unit vector
        s = block_diag(2.0, 2.0)
        rng = np.random.default_rng(4)
        best = np.inf
        for _ in range(10_000):
            nu = rng.standard_normal(4)
            nu /= np.linalg.norm(nu)
            best = min(best, np.max(np.abs(alignment_residual(s, nu))))
        assert best > 0.1


class TestRank2Factorize:
    def test_rotation_closed_form(self):
        fac = rank2_factorize(ROT2)
        assert fac.lam == pytest.approx(2.0, rel=1e-12)
        basis = np.stack([fac.nu, fac.nu_perp])
        assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        for m in range(2, 7):
            for _ in range(100):
                s = random_rank2(rng, m)
                fac = rank2_factorize(s)
                err = np.linalg.norm(s - fac.reconstruct())
                assert err <= 1e-10 * np.linalg.norm(s)

    def test_eigen_relation(self):
        rng = np.random.default_rng(6)
        s = random_rank2(rng, 5)
        fac = rank2_factorize(s)
        lhs = s @ (s @ fac.nu)
        assert np.allclose(lhs, -fac.lam ** 2 * fac.nu, rtol=1e-9, atol=1e-12)

    def test_rank4_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            rank2_factorize(block_diag(2.0, 2.0))

    def test_extracted_nu_aligns(self):
        rng = np.random.default_rng(7)
        for m in range(2, 7):
            s = random_rank2(rng, m)
            fac = rank2_factorize(s)
            res = alignment_residual(s, fac.nu)
            assert np.max(np.abs(res)) <= 1e-10 * np.linalg.norm(s)


class TestRank2Audit:
    def test_rotation_hand_values(self):
        # U nu = (0, -2), U^2 nu = (-4, 0): rho = -16/4 = -4
        report = rank2_audit(ROT2, np.array([1.0, 0.0]))
        assert report.rho == pytest.approx(-4.0, rel=1e-12)
        assert report.u_nu_norm == pytest.approx(2.0)
        assert report.u2_nu_norm == pytest.approx(4.0)
        assert report.passed

    def test_rho_matches_factorization(self):
        rng = np.random.default_rng(8)
        for m in range(2, 7):
            s = random_rank2(rng, m)
            fac = rank2_factorize(s)
            probe = rng.standard_normal(m)
            report = rank2_audit(s, probe)
            assert report.rho == pytest.approx(-fac.lam ** 2, rel=1e-9)
            assert report.passed

    def test_kernel_probe_rejected(self):
        s = np.zeros((4, 4))
        s[0, 1], s[1, 0] = 1.0, -1.0
        with pytest.raises(ValueError, match="kernel"):
            rank2_audit(s, np.array([0.0, 0.0, 1.0, 0.0]))


class TestSkewMatrixType:
    def test_triangle_round_trip(self):
        s = SkewMatrix.from_matrix(block_diag(3.0, 1.0))
        assert np.array_equal(s.matrix, block_diag(3.0, 1.0))

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError, match="skew"):
            SkewMatrix.from_matrix(np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # checked before any arithmetic: no RuntimeWarning (an error here)
        with pytest.raises(ValueError, match="non-finite"):
            SkewMatrix.from_matrix([[0.0, bad], [-bad, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            SkewMatrix(m=3, triangle=(1.0, bad, 0.0))

    @pytest.mark.parametrize("m", [-3, 0, 1, 7])
    def test_rejects_dimension_out_of_range(self, m):
        # a triangle of the length m implies, so only m itself is at fault
        with pytest.raises(ValueError, match="out of range"):
            SkewMatrix(m=m, triangle=(0.0,) * (m * (m - 1) // 2 if m > 0 else 0))

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_from_matrix_rejects_dimension_out_of_range(self, n):
        # checked before any reduction: a 0x0 matrix never reaches np.max
        with pytest.raises(ValueError, match="out of range"):
            SkewMatrix.from_matrix(np.zeros((n, n)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    m=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_rank_even_and_trace_identity(m, seed):
    rng = np.random.default_rng(seed)
    s = random_skew(rng, m)
    rank = skew_rank(s)
    assert rank % 2 == 0
    lams = np.asarray(spectral_pairs(s))
    assert 2 * np.sum(lams ** 2) == pytest.approx(-np.trace(s @ s), rel=1e-9)
