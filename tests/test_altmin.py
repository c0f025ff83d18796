import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from mixmnl import (
    NumericalError,
    RankDeficiencyError,
    ValidationError,
    altmin_complete,
    symmetrize_and_eig,
)
from mixmnl import altmin
from mixmnl.altmin import _top_eigenpairs, default_iteration_count


def low_rank_offdiag(n, rank, seed):
    """Random PSD rank-r matrix with its diagonal removed, plus the truth."""
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((n, rank))
    full = factors @ factors.T
    hollow = full.copy()
    np.fill_diagonal(hollow, 0.0)
    return hollow, full


class TestCompletion:
    def test_recovers_noiseless_low_rank(self):
        hollow, full = low_rank_offdiag(40, 2, 0)
        result = altmin_complete(hollow, 2, n_iterations=30)
        sigma_r = np.linalg.svd(full, compute_uv=False)[1]
        off = ~np.eye(40, dtype=bool)
        assert np.abs(result.matrix - full)[off].max() <= 1e-6 * sigma_r

    def test_recovers_diagonal_too(self):
        # The completed matrix restores what the hollow input erased.
        hollow, full = low_rank_offdiag(30, 3, 1)
        result = altmin_complete(hollow, 3, n_iterations=40)
        np.testing.assert_allclose(np.diag(result.matrix), np.diag(full), atol=1e-5)

    def test_objective_monotone(self):
        hollow, _ = low_rank_offdiag(25, 2, 2)
        result = altmin_complete(hollow, 2, n_iterations=12)
        objectives = np.asarray(result.objectives)
        assert len(objectives) == 12
        assert (np.diff(objectives) <= 1e-9 * (1 + objectives[:-1])).all()

    def test_objective_decays_geometrically(self):
        hollow, _ = low_rank_offdiag(25, 2, 3)
        result = altmin_complete(hollow, 2, n_iterations=25)
        objectives = np.asarray(result.objectives)
        # once past the transient, each sweep should cut the residual hard
        late = objectives[5:15]
        assert late[-1] <= 1e-6 * late[0]

    def test_default_iterations_suffice(self):
        hollow, full = low_rank_offdiag(40, 2, 4)
        result = altmin_complete(hollow, 2)
        off = ~np.eye(40, dtype=bool)
        sigma_r = np.linalg.svd(full, compute_uv=False)[1]
        assert np.abs(result.matrix - full)[off].max() <= 1e-6 * sigma_r

    def test_zero_iterations_rejected(self):
        hollow, _ = low_rank_offdiag(10, 1, 5)
        with pytest.raises(ValidationError):
            altmin_complete(hollow, 1, n_iterations=0)

    def test_rejects_asymmetric(self):
        m = np.zeros((5, 5))
        m[0, 1] = 1.0
        with pytest.raises(ValidationError):
            altmin_complete(m, 1)

    @pytest.mark.parametrize("negative", [False, True])
    @pytest.mark.parametrize("where", [(0, 1), (299, 3), (130, 257)])
    def test_rejects_asymmetry_in_any_block(self, where, negative):
        # 300 rows span three tile rows of the symmetry check, so the three
        # places fall in a diagonal tile, a lower tile and a partial tile;
        # the all-negative input takes its scale from its most negative entry.
        hollow, _ = low_rank_offdiag(300, 2, 9)
        if negative:
            hollow = -np.abs(hollow)
        hollow[where] += 1e-6 * np.abs(hollow).max()
        with pytest.raises(ValidationError):
            altmin_complete(hollow, 2, n_iterations=1)

    def test_accepts_asymmetry_below_tolerance(self):
        hollow, _ = low_rank_offdiag(300, 2, 10)
        hollow[299, 3] += 1e-10 * np.abs(hollow).max()
        altmin_complete(hollow, 2, n_iterations=1)

    @pytest.mark.parametrize("n", [1, 5, 127, 128, 129, 257, 300, 1000])
    def test_blocked_asymmetry_matches_dense(self, n):
        a = np.random.default_rng(n).standard_normal((n, n))
        assert altmin._max_asymmetry(a) == np.abs(a - a.T).max()

    def test_symmetry_check_peak_is_one_tile(self):
        # Each tile pair makes one 128 x 128 float64 difference (0.13 MB);
        # a (128, N) slab would be 2.0 MB at N = 2000.
        a = np.random.default_rng(12).standard_normal((2000, 2000))
        tracemalloc.start()
        try:
            altmin._max_asymmetry(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6e6

    def test_symmetry_check_allocates_no_square_temporary(self):
        # A hollow input is used as it is, with no N x N copy; the symmetry
        # check adds one 128 x 128 tile of differences at a time.
        hollow, _ = low_rank_offdiag(800, 2, 11)
        tracemalloc.start()
        try:
            altmin_complete(hollow, 2, n_iterations=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * hollow.nbytes

    @pytest.mark.parametrize("diagonal", [0.0, 123.0])
    def test_input_never_written(self, diagonal):
        # A read-only input raises on any write; the spoiled diagonal is
        # zeroed on a copy only.
        hollow, _ = low_rank_offdiag(20, 2, 6)
        np.fill_diagonal(hollow, diagonal)
        before = hollow.copy()
        hollow.setflags(write=False)
        altmin_complete(hollow, 2, n_iterations=3)
        assert np.array_equal(hollow, before)

    def test_rejects_nonfinite(self):
        m = np.zeros((5, 5))
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(ValidationError):
            altmin_complete(m, 1)

    def test_input_diagonal_ignored(self):
        # Anything sitting on the input diagonal must not change the output.
        hollow, _ = low_rank_offdiag(20, 2, 6)
        spoiled = hollow.copy()
        np.fill_diagonal(spoiled, 123.0)
        a = altmin_complete(hollow, 2, n_iterations=10)
        b = altmin_complete(spoiled, 2, n_iterations=10)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)

    def test_report_fields(self):
        hollow, _ = low_rank_offdiag(15, 2, 7)
        report = altmin_complete(hollow, 2, n_iterations=5).report()
        assert len(report["objectives"]) == 5
        assert report["ridge_steps"] == []

    def test_survives_rank_deficient_iterate(self):
        # A rank-1 target with rank-2 fitting makes the per-row normal
        # equations nearly singular.  Whether LAPACK then raises, so that
        # the ridge fallback runs, depends on the build; many solve them
        # without a ridge step.  test_ridge_fallback_when_a_solve_fails
        # reaches that branch on every build.
        rng = np.random.default_rng(8)
        v = rng.standard_normal(12)
        full = np.outer(v, v)
        hollow = full.copy()
        np.fill_diagonal(hollow, 0.0)
        result = altmin_complete(hollow, 2, n_iterations=25)
        off = ~np.eye(12, dtype=bool)
        assert np.abs(result.matrix - full)[off].max() <= 1e-6

    @pytest.mark.parametrize("failing", [0, 3])
    def test_ridge_fallback_when_a_solve_fails(self, monkeypatch, failing):
        # The batched solve raises once, at solve ``failing``: that step is
        # solved again with the 1e-12 ridge and listed in ridge_steps, and
        # the completion ends where an unridged run does.
        hollow, full = low_rank_offdiag(40, 2, 0)
        clean = altmin_complete(hollow, 2, n_iterations=30)
        assert clean.ridge_steps == []
        calls = []
        real = np.linalg.solve

        def solve(a, b):
            calls.append(a.shape)
            if len(calls) == failing + 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(a, b)

        monkeypatch.setattr(altmin.np.linalg, "solve", solve)
        result = altmin_complete(hollow, 2, n_iterations=30)
        assert result.ridge_steps == [failing]
        assert len(calls) == 30 + 1  # one retry
        assert len(result.objectives) == 30
        sigma_r = np.linalg.svd(full, compute_uv=False)[1]
        np.testing.assert_allclose(result.matrix, clean.matrix, rtol=0, atol=1e-9 * sigma_r)
        off = ~np.eye(40, dtype=bool)
        assert np.abs(result.matrix - full)[off].max() <= 1e-6 * sigma_r


def noisy_symmetric(n, rank, seed):
    """Rank-r PSD matrix plus symmetric noise, diagonal removed."""
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((n, rank))
    noise = rng.standard_normal((n, n))
    m = factors @ factors.T + 0.3 * (noise + noise.T)
    np.fill_diagonal(m, 0.0)
    return m


def dense_objective(offdiag, product):
    """Reference masked objective ||offdiag(A - S V^T)||^2, formed densely."""
    residual = offdiag - product
    np.fill_diagonal(residual, 0.0)
    return float((residual**2).sum())


class TestObjective:
    @pytest.mark.parametrize("n, rank, seed, n_iterations", [(40, 2, 20, 12), (300, 3, 21, 6)])
    def test_matches_dense_formula(self, n, rank, seed, n_iterations):
        # The solves are deterministic, so a run cut after t solves ends on
        # the t-th solution times its basis: its matrix is S V^T of solve t.
        hollow = noisy_symmetric(n, rank, seed)
        objectives = altmin_complete(hollow, rank, n_iterations=n_iterations).objectives
        assert len(objectives) == n_iterations
        for t, objective in enumerate(objectives, start=1):
            product = altmin_complete(hollow, rank, n_iterations=t).matrix
            reference = dense_objective(hollow, product)
            assert abs(objective - reference) <= 1e-12 * objectives[0]
            assert objective >= 0.0

    def test_converged_noiseless_objective_at_floor(self):
        # The expansion cancels to roundoff of ||A||^2, clamped at zero.
        hollow, _ = low_rank_offdiag(40, 2, 0)
        objectives = altmin_complete(hollow, 2, n_iterations=30).objectives
        assert min(objectives) >= 0.0
        assert objectives[-1] <= 1e-14 * float((hollow**2).sum())


class TestDefaultIterationCount:
    def test_grows_with_norm(self):
        small = np.ones((4, 4)) - np.eye(4)
        assert default_iteration_count(small * 1e6) > default_iteration_count(small)

    def test_at_least_one(self):
        assert default_iteration_count(np.zeros((4, 4))) >= 1


class TestSymmetrizeAndEig:
    def test_diagonal_oracle(self):
        basis_values = symmetrize_and_eig(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(basis_values.values, [3.0, 2.0])
        np.testing.assert_allclose(
            np.abs(basis_values.vectors), np.eye(3)[:, :2], atol=1e-14
        )

    def test_symmetrizes_first(self):
        m = np.array([[2.0, 1.0], [0.0, 1.0]])
        result = symmetrize_and_eig(m, 1)
        sym = (m + m.T) / 2
        expected = np.linalg.eigvalsh(sym)[-1]
        assert result.values[0] == pytest.approx(expected)

    def test_nonpositive_spectrum_raises_with_details(self):
        m = np.diag([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(RankDeficiencyError) as info:
            symmetrize_and_eig(m, 2)
        assert info.value.spectrum is not None
        assert len(info.value.spectrum) == 8

    def test_negative_definite_raises(self):
        with pytest.raises(RankDeficiencyError):
            symmetrize_and_eig(-np.eye(4), 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_negative_semidefinite_raises(self, seed):
        # -F F^T has two large negative eigenvalues and roundoff for the
        # rest; the floor scales with the largest magnitude, so the
        # roundoff-sized top candidates are not kept, dense or completed.
        factor = np.random.default_rng(seed).standard_normal((95, 2))
        dense = -factor @ factor.T
        completed = altmin_complete(dense, 2).matrix
        for matrix in (dense, completed):
            with pytest.raises(RankDeficiencyError):
                symmetrize_and_eig(matrix, 2)

    def test_short_indefinite_spectrum_reported_descending(self):
        # Two candidates of a rank-2 matrix on 5 pairs: the three eigenvalues
        # not given are 0 and belong between the positive and the negative.
        vectors = np.eye(5)[:, :2]
        values = np.array([2.0, -1.0])
        with pytest.raises(RankDeficiencyError) as info:
            altmin.whitening_basis(values, vectors, 2)
        np.testing.assert_array_equal(info.value.spectrum, [2.0, 0.0, 0.0, 0.0, -1.0])

    def test_whitening_identities(self):
        rng = np.random.default_rng(10)
        factors = rng.standard_normal((10, 3))
        m = factors @ factors.T
        basis = symmetrize_and_eig(m, 3)
        w = basis.whitening_map
        b = basis.coloring_map
        np.testing.assert_allclose(b.T @ w, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(w.T @ m @ w, np.eye(3), atol=1e-8)

    def test_sign_independent_of_solver(self):
        # symmetrize_and_eig runs dense eigh; _top_eigenpairs runs ARPACK at
        # rank N - 2 and below.  On this positive definite matrix the two
        # solvers return all three leading vectors with opposite signs
        # unless the whitening fixes the sign.
        m = planted_spectrum(12, np.linspace(12.0, 1.0, 12), 13)
        dense = symmetrize_and_eig(m, 12)
        arpack = altmin.whitening_basis(*_top_eigenpairs(m, 3), 3)
        assert np.abs(dense.vectors[:, :3] - arpack.vectors).max() <= 1e-10
        for vectors in (dense.vectors, arpack.vectors):
            peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
            assert (peaks > 0).all()

    def test_rank_bounds_checked(self):
        with pytest.raises(ValidationError):
            symmetrize_and_eig(np.eye(3), 4)
        with pytest.raises(ValidationError):
            symmetrize_and_eig(np.eye(3), 0)


def planted_spectrum(n, spectrum, seed):
    """Symmetric n x n matrix with the given leading eigenvalues, rest small."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    values = np.concatenate([spectrum, rng.uniform(-1.0, 1.0, n - len(spectrum))])
    m = (q * values) @ q.T
    return 0.5 * (m + m.T)


def sin_theta(u, v):
    """Sine of the largest principal angle between two orthonormal bases."""
    return float(np.linalg.norm(u - v @ (v.T @ u), 2))


class TestTopEigenpairs:
    # A dominant negative eigenvalue: the completion's seed ("LM", largest
    # magnitude) must pick it, the whitening ("LA", algebraically largest)
    # must not.
    MATRIX = planted_spectrum(80, [-50.0, 20.0, 10.0, 6.0], 11)

    @pytest.mark.parametrize("which", ["LM", "LA"])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_matches_dense_eigh(self, which, rank):
        if which == "LM":
            values, vectors = _top_eigenpairs(self.MATRIX, rank)
        else:
            basis = symmetrize_and_eig(self.MATRIX, rank)
            values, vectors = basis.values, basis.vectors
        dense_values, dense_vectors = np.linalg.eigh(self.MATRIX)
        key = np.abs(dense_values) if which == "LM" else dense_values
        order = np.argsort(-key)[:rank]
        expected = dense_values[order]
        assert np.abs(values - expected).max() <= 1e-12 * np.abs(expected).max()
        assert sin_theta(vectors, dense_vectors[:, order]) <= 1e-10
        if which == "LM":
            assert values[0] == pytest.approx(-50.0)
        else:
            np.testing.assert_allclose(values, [20.0, 10.0, 6.0][:rank], rtol=1e-12)

    def test_repeated_call_bit_identical(self):
        a_values, a_vectors = _top_eigenpairs(self.MATRIX, 2)
        b_values, b_vectors = _top_eigenpairs(self.MATRIX, 2)
        assert np.array_equal(a_values, b_values)
        assert np.array_equal(a_vectors, b_vectors)

    @pytest.mark.parametrize("rank", [5, 6])
    def test_full_and_near_full_rank_without_warning(self, rank):
        m = planted_spectrum(6, [6.0, 5.0, 4.0, 3.0, 2.5, 2.0], 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = symmetrize_and_eig(m, rank)
            altmin_complete(m, rank, n_iterations=2)
        np.testing.assert_allclose(basis.values, [6.0, 5.0, 4.0, 3.0, 2.5, 2.0][:rank])

    def test_zero_matrix_raises_numerical_error(self):
        # ARPACK stops with error -9 (zero starting residual) on a zero
        # matrix; the whitening finds no eigenvalue above the floor.
        with pytest.raises(NumericalError):
            altmin_complete(np.zeros((10, 10)), 2)
        with pytest.raises(NumericalError):
            symmetrize_and_eig(np.zeros((10, 10)), 2)

    def test_no_convergence_raises_numerical_error(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(altmin, "eigsh", stalled)
        with pytest.raises(NumericalError):
            altmin_complete(self.MATRIX, 2)

    def test_whitening_runs_no_arpack(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise AssertionError("symmetrize_and_eig called ARPACK")

        monkeypatch.setattr(altmin, "eigsh", unavailable)
        basis = symmetrize_and_eig(self.MATRIX, 3)
        np.testing.assert_allclose(basis.values, [20.0, 10.0, 6.0], rtol=1e-12)
        factor = np.random.default_rng(0).standard_normal((80, 2))
        with pytest.raises(RankDeficiencyError):
            symmetrize_and_eig(-factor @ factor.T, 2)
        with pytest.raises(RankDeficiencyError):
            symmetrize_and_eig(np.zeros((10, 10)), 2)


class TestCheckedBoundary:
    """``altmin_complete`` checks its input, then runs the unchecked ``_complete``."""

    @pytest.mark.parametrize("case", ["low-rank", "ridge"])
    def test_core_equals_public_bit_for_bit(self, case):
        if case == "low-rank":
            hollow, _ = low_rank_offdiag(40, 3, 12)
            rank, n_iterations = 3, 8
        else:
            # A rank-1 target fitted at rank 2: its row systems turn singular
            # to roundoff, and whether LAPACK then needs the ridge fallback
            # depends on the build, so its use is compared, not required.
            v = np.random.default_rng(0).standard_normal(20)
            hollow = np.outer(v, v)
            np.fill_diagonal(hollow, 0.0)
            rank, n_iterations = 2, 25
        public = altmin_complete(hollow, rank, n_iterations)
        core = altmin._complete(hollow, rank, n_iterations)
        assert np.array_equal(core.solution, public.solution)
        assert np.array_equal(core.basis, public.basis)
        assert core.objectives == public.objectives
        assert core.ridge_steps == public.ridge_steps
