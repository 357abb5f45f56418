import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from stealthreach import (
    Ellipsoid,
    minkowski_sum_many,
    sym_sqrt,
    unit_ball_volume,
    volume,
)
from stealthreach.ellipsoids import BLOCK_ROWS
from stealthreach.errors import (
    DimensionMismatch,
    EmptyTermList,
    NonSymmetric,
    NotPSD,
)

SIGMA = np.array([[2.086, 0.134], [0.134, 2.230]])


def random_spd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return scale * (A @ A.T + 0.1 * np.eye(n))


def pairwise_fold_oracle(Q1, Q2):
    """Minimum-volume member of (1 + 1/beta) Q1 + (1 + beta) Q2 over beta > 0."""

    def shape(log_beta):
        b = math.exp(log_beta)
        return (1.0 + 1.0 / b) * Q1 + (1.0 + b) * Q2

    res = minimize_scalar(lambda t: np.linalg.slogdet(shape(t))[1],
                          bounds=(-20.0, 20.0), method="bounded", options={"xatol": 1e-10})
    Q = shape(res.x)
    return (Q + Q.T) / 2.0


def boundary_samples(E, rng, count):
    g = rng.standard_normal((count, E.dim))
    u = g / np.linalg.norm(g, axis=1, keepdims=True)
    return u @ sym_sqrt(E.Q).T


class TestSymSqrt:
    def test_identity(self):
        assert np.allclose(sym_sqrt(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        assert np.allclose(sym_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_remultiplication(self):
        S = sym_sqrt(SIGMA)
        assert np.max(np.abs(S @ S - SIGMA)) <= 1e-9 * (1.0 + np.max(np.abs(SIGMA)))
        assert np.allclose(S, S.T, atol=1e-14)

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            S = sym_sqrt(random_spd(rng, 3))
            assert np.max(np.abs(sym_sqrt(S @ S) - S)) <= 1e-8

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NonSymmetric):
            sym_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            sym_sqrt(np.diag([-1.0, 1.0]))

    def test_clamps_roundoff_negatives(self):
        S = sym_sqrt(np.diag([-1e-11, 1.0]))
        assert S[0, 0] == 0.0


def one_bad_term(bad):
    """A stack of good terms with bad in the middle, as minkowski_sum_many takes it."""
    return np.stack([np.eye(len(bad)), bad, 2.0 * np.eye(len(bad))])


# Each shape check rejects a bad matrix alone, as an Ellipsoid, and as one
# term of a stack, as minkowski_sum_many checks its terms.
class TestEllipsoid:
    def test_validation(self):
        for make in (Ellipsoid, lambda Q: minkowski_sum_many(one_bad_term(Q))):
            with pytest.raises(NotPSD):
                make(np.diag([-1.0, 1.0]))
            with pytest.raises(NonSymmetric):
                make(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(DimensionMismatch):
            Ellipsoid(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            minkowski_sum_many(np.zeros((3, 2, 3)))

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    def test_validation_is_scale_free(self, scale):
        # the checks are relative to the matrix, so units cannot flip them
        rounded = np.array([[2.0, 0.5], [0.5 * (1.0 + 1e-15), 1.0]])
        assert Ellipsoid(scale * rounded).dim == 2
        assert sym_sqrt(scale * np.diag([-1e-11, 1.0]))[0, 0] == 0.0
        assert minkowski_sum_many(one_bad_term(scale * rounded)).dim == 2
        for make in (Ellipsoid, lambda Q: minkowski_sum_many(one_bad_term(Q))):
            with pytest.raises(NonSymmetric):
                make(scale * np.array([[1.0, 0.5], [0.0, 1.0]]))
            with pytest.raises(NotPSD):
                make(scale * np.diag([-1.0, 1.0]))
        with pytest.raises(NotPSD):
            sym_sqrt(scale * np.diag([-1e-9, 1.0]))


class TestLinearImage:
    """The image of E under x -> M x is the ellipsoid of shape M Q M^T."""

    def test_soundness_under_sampling(self):
        rng = np.random.default_rng(2)
        Q = random_spd(rng, 2)
        E = Ellipsoid(Q)
        M = rng.standard_normal((2, 2))
        MQM = M @ E.Q @ M.T
        img = Ellipsoid((MQM + MQM.T) / 2.0)
        inside = boundary_samples(E, rng, 200) * rng.random((200, 1))
        mapped = inside @ M.T
        assert np.max(np.atleast_1d(img.membership(mapped))) <= 1.0 + 1e-9


class TestMembershipBlocks:
    """membership scores BLOCK_ROWS rows at a time, each as it scores alone."""

    @pytest.mark.parametrize("n, rank", [(2, 2), (4, 4), (2, 1), (4, 2)])
    def test_blocks_equal_one_point_at_a_time(self, n, rank):
        rng = np.random.default_rng(10 * n + rank)
        R = np.linalg.qr(rng.standard_normal((n, n)))[0]
        E = Ellipsoid((R * np.r_[rng.uniform(0.5, 5.0, rank), np.zeros(n - rank)]) @ R.T)
        count = 2 * BLOCK_ROWS + 5
        y = rng.standard_normal((count, n)) * 10.0 ** rng.integers(-3, 4, (count, 1))
        y[::2, rank:] = 0.0  # every other point in range(Q), the rest off it when rank < n
        x = y @ R.T
        m = E.membership(x)
        assert m.shape == (count,)
        # each block's first and last rows, and a stride through all of them
        near = {b + d for b in range(0, count, BLOCK_ROWS) for d in range(-3, 4)}
        rows = sorted((near | set(range(0, count, 53))) & set(range(count)))
        one = [E.membership(x[i]) for i in rows]
        assert all(type(v) is float for v in one)
        assert np.array_equal(one, m[rows])
        # a batch that starts inside the first block and crosses the second boundary
        assert np.array_equal(E.membership(x[BLOCK_ROWS - 7:]), m[BLOCK_ROWS - 7:])
        off = np.zeros(count, dtype=bool)
        off[1::2] = rank < n
        assert np.all(np.isinf(m[off])) and np.all(np.isfinite(m[~off]))
        want = np.einsum("ij,jk,ik->i", x[~off], np.linalg.pinv(E.Q), x[~off])
        np.testing.assert_allclose(m[~off], want, rtol=1e-9)


class TestContains:
    """A point is contained when its membership is at most 1 + slack."""

    def test_boundary_inclusive(self):
        assert Ellipsoid(np.eye(2)).membership(np.array([1.0, 0.0])) <= 1.0

    def test_outside(self):
        assert Ellipsoid(np.eye(2)).membership(np.array([1.1, 0.0])) > 1.0

    def test_degenerate_range(self):
        E = Ellipsoid(np.diag([1.0, 0.0]))
        assert E.membership(np.array([0.5, 1e-12])) <= 1.0
        assert E.membership(np.array([0.5, 1e-3])) == math.inf

    @pytest.mark.parametrize("s", [1.0, 1e-6, 1e-9])
    def test_degenerate_range_is_scale_free(self, s):
        # the range test is relative to |x|, so the units of the state do
        # not decide whether a point off the range counts as inside
        E = Ellipsoid(np.diag([s**2, 0.0]))
        assert E.membership(np.array([s / 2, s / 2])) == math.inf
        assert E.membership(np.array([s / 2, 1e-12 * s])) == pytest.approx(0.25, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Ellipsoid(np.eye(2)).membership(np.array([1.0, 0.0, 0.0]))


class TestVolume:
    def test_unit_disk(self):
        assert volume(Ellipsoid(np.eye(2))) == pytest.approx(math.pi, rel=1e-12)

    def test_radius_two_disk(self):
        assert volume(Ellipsoid(4.0 * np.eye(2))) == pytest.approx(4.0 * math.pi, rel=1e-12)

    def test_degenerate(self):
        assert volume(Ellipsoid(np.diag([1.0, 0.0]))) == 0.0

    def test_unit_ball_dimensions(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


class TestMinkowskiPair:
    """The two-term case of minkowski_sum_many."""

    def test_two_unit_balls(self):
        E = minkowski_sum_many([np.eye(2), np.eye(2)])
        assert np.max(np.abs(E.Q - 4.0 * np.eye(2))) <= 1e-9

    def test_balls_radii_one_and_two(self):
        # minimizing 5 + 1/beta + 4 beta gives beta = 1/2 and shape 9 I
        E = minkowski_sum_many([np.eye(2), 4.0 * np.eye(2)])
        assert np.max(np.abs(E.Q - 9.0 * np.eye(2))) <= 1e-8

    def test_zero_identity(self):
        rng = np.random.default_rng(3)
        Q = random_spd(rng, 2)
        E = minkowski_sum_many([np.zeros((2, 2)), Q])
        assert np.array_equal(E.Q, Q)

    def test_both_degenerate(self):
        assert np.array_equal(
            minkowski_sum_many(np.zeros((2, 2, 2))).Q, np.zeros((2, 2))
        )

    def test_commutativity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            Q1, Q2 = random_spd(rng, 2), random_spd(rng, 2)
            Qa = minkowski_sum_many([Q1, Q2]).Q
            Qb = minkowski_sum_many([Q2, Q1]).Q
            assert np.max(np.abs(Qa - Qb)) <= 1e-10

    def test_outer_soundness_sampled(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            E1, E2 = Ellipsoid(random_spd(rng, 2)), Ellipsoid(random_spd(rng, 2))
            S = minkowski_sum_many([E1.Q, E2.Q])
            total = boundary_samples(E1, rng, 32) + boundary_samples(E2, rng, 32)
            assert np.max(np.atleast_1d(S.membership(total))) <= 1.0 + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            minkowski_sum_many([np.eye(2), np.eye(3)])


class TestMinkowskiMany:
    def test_three_unit_balls(self):
        E = minkowski_sum_many([np.eye(2)] * 3)
        assert np.max(np.abs(E.Q - 9.0 * np.eye(2))) <= 1e-8

    def test_stack_equals_sequence(self):
        rng = np.random.default_rng(11)
        terms = [random_spd(rng, 3) for _ in range(5)]
        assert np.array_equal(minkowski_sum_many(np.stack(terms)).Q,
                              minkowski_sum_many(terms).Q)

    def test_degenerate_terms_are_identities(self):
        rng = np.random.default_rng(6)
        Q = random_spd(rng, 2)
        E = minkowski_sum_many([Q, np.zeros((2, 2)), np.zeros((2, 2))])
        assert np.array_equal(E.Q, Q)

    def test_empty_list(self):
        with pytest.raises(EmptyTermList):
            minkowski_sum_many([])

    def test_sampling_oracle(self):
        # brute force: sums of interior samples stay inside the fitted bound
        rng = np.random.default_rng(7)
        Q1 = np.diag([1.0, 2.0])
        Q2 = np.array([[2.0, 0.5], [0.5, 1.0]])
        E1, E2 = Ellipsoid(Q1), Ellipsoid(Q2)
        S = minkowski_sum_many([Q1, Q2])
        x = boundary_samples(E1, rng, 10_000) * np.sqrt(rng.random((10_000, 1)))
        y = boundary_samples(E2, rng, 10_000) * np.sqrt(rng.random((10_000, 1)))
        assert np.max(np.atleast_1d(S.membership(x + y))) <= 1.0 + 1e-9

    def test_never_worse_than_pairwise_fold(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            count = rng.integers(2, 7)
            terms = [random_spd(rng, 2, scale=float(rng.random()) + 0.1) for _ in range(count)]
            best = minkowski_sum_many(terms)
            folded = Ellipsoid(reduce(pairwise_fold_oracle, terms))
            assert volume(best) <= volume(folded) + 1e-9

    def test_rank_deficient_large_scale_terms(self):
        # 17 rank-1/2 terms of scale 1.5e3: a pairwise fold over
        # beta in [1e-9, 1e9] once raised NotPSD (eigenvalue -1.15e-4) here
        rng = np.random.default_rng(1)
        terms = []
        for _ in range(17):
            B = np.sqrt(1.5e3) * rng.standard_normal((4, int(rng.integers(1, 3))))
            Q = B @ B.T
            terms.append(Ellipsoid((Q + Q.T) / 2.0))
        S = minkowski_sum_many([E.Q for E in terms])
        assert isinstance(S, Ellipsoid)
        total = sum(boundary_samples(E, rng, 2000) for E in terms)
        assert np.max(np.atleast_1d(S.membership(total))) <= 1.0 + 1e-9

    def test_higher_dimension_soundness(self):
        rng = np.random.default_rng(9)
        terms = [Ellipsoid(random_spd(rng, 3)) for _ in range(4)]
        S = minkowski_sum_many([E.Q for E in terms])
        total = sum(boundary_samples(E, rng, 500) for E in terms)
        assert np.max(np.atleast_1d(S.membership(total))) <= 1.0 + 1e-9


def rank_mixed_terms(rng, n, count):
    """count random PSD terms in R^n; every other one has rank below n."""
    out = []
    for i in range(count):
        B = rng.standard_normal((n, n if i % 2 == 0 else max(1, n - 1)))
        out.append(Ellipsoid(B @ B.T).Q)
    return out


# Forming T Q_i T^T rounds the mapped volume by about eps cond(Q), Q the fitted
# sum.  Over 48,000 draws (n = 2-5, count 1/2/4/8, seeds 0-2999) the largest
# error / (eps cond(Q)) was 11.3, so COND_FACTOR = 32 leaves a 2.8x margin; the
# five draws whose error passed 1e-9 reached at most 0.77.
COND_FACTOR = 32


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), count=st.integers(1, 8))
@example(seed=108, n=4, count=1)  # error 4.06e-9 at cond(Q) = 2.4e7
def test_affine_equivariance(seed, n, count):
    # weights depend only on tr(Q^-1 Q_i), which x -> T x leaves unchanged
    rng = np.random.default_rng(seed)
    terms = rank_mixed_terms(rng, n, count)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    T = U @ np.diag(np.exp(rng.uniform(-1.0, 1.0, n))) @ V
    base = minkowski_sum_many(terms)
    mapped = volume(minkowski_sum_many([(Y + Y.T) / 2.0 for Y in (T @ Q @ T.T for Q in terms)]))
    rel = max(1e-9, COND_FACTOR * np.finfo(float).eps * np.linalg.cond(base.Q))
    assert mapped == pytest.approx(abs(np.linalg.det(T)) * volume(base), rel=rel)
