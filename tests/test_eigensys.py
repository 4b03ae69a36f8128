import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagspec.eigensys
from lagspec import (
    ConvergenceFailure,
    DegenerateAspect,
    LagCorrMatrix,
    NotNormalized,
    eigendecompose,
    equal_time_corr,
    ipr,
    lag_corr,
    rmt_bounds,
    segment,
    _blas,
)

from lagspec.eigensys import EigenSystem, RmtBounds, Workspace, _column_iprs, _solve, batch_size

from conftest import eigh_reference, iid_returns


def symmetric_matrix(n: int, seed: int, lag: int = 1) -> LagCorrMatrix:
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5, size=(n, n))
    sym = (a + a.T) / 2.0
    values = np.triu(sym) + np.triu(sym, 1).T
    return LagCorrMatrix(lag=lag, values=values)


class TestEigendecompose:
    def test_identity_matrix(self):
        d = LagCorrMatrix(lag=0, values=np.eye(5))
        es = eigendecompose(d)
        assert np.allclose(es.eigenvalues, 1.0, atol=1e-14)
        assert np.allclose(es.eigenvectors.T @ es.eigenvectors, np.eye(5), atol=1e-10)

    def test_two_by_two_closed_form(self):
        rho = 0.6
        d = LagCorrMatrix(
            lag=0, values=np.array([[1.0, rho], [rho, 1.0]]),
        )
        es = eigendecompose(d)
        assert es.eigenvalues == pytest.approx([0.4, 1.6], abs=1e-12)
        assert np.abs(es.eigenvectors[:, 0]) == pytest.approx(
            [1 / math.sqrt(2)] * 2, abs=1e-12
        )
        assert np.abs(es.eigenvectors[:, 1]) == pytest.approx(
            [1 / math.sqrt(2)] * 2, abs=1e-12
        )
        # antisymmetric vector pairs with the smaller eigenvalue
        assert es.eigenvectors[0, 0] * es.eigenvectors[1, 0] < 0
        assert es.eigenvectors[0, 1] * es.eigenvectors[1, 1] > 0

    def test_eigenvalue_sum_equals_trace(self):
        d = symmetric_matrix(4, seed=5)
        es = eigendecompose(d)
        assert float(es.eigenvalues.sum()) == pytest.approx(d.trace, abs=1e-10)

    def test_residual_small(self, gaussian_returns_64):
        d = equal_time_corr(gaussian_returns_64)
        es = eigendecompose(d)
        resid = d.values @ es.eigenvectors - es.eigenvectors * es.eigenvalues
        worst = np.max(np.linalg.norm(resid, axis=0))
        assert worst <= 1e-10 * np.linalg.norm(d.values)

    def test_reconstruction(self):
        d = symmetric_matrix(8, seed=9)
        es = eigendecompose(d)
        rebuilt = (es.eigenvectors * es.eigenvalues) @ es.eigenvectors.T
        assert np.linalg.norm(rebuilt - d.values) <= 1e-8

    def test_sign_convention(self, gaussian_returns_64):
        es = eigendecompose(lag_corr(gaussian_returns_64, 2))
        lead = np.argmax(np.abs(es.eigenvectors), axis=0)
        assert np.all(es.eigenvectors[lead, np.arange(64)] > 0)

    def test_sorted_ascending(self, gaussian_returns_64):
        es = eigendecompose(equal_time_corr(gaussian_returns_64))
        assert np.all(np.diff(es.eigenvalues) >= 0)

    def test_iprs_match_direct_formula(self):
        d = symmetric_matrix(6, seed=2)
        es = eigendecompose(d)
        for k in range(6):
            assert es.iprs[k] == pytest.approx(ipr(es.eigenvectors[:, k]), abs=1e-14)


needs_lapack = pytest.mark.skipif(
    _blas.lapack() is None, reason="numpy's bundled LAPACK not found"
)


def lapack_spies(monkeypatch, failing=None, ws=None, after=0):
    """Record the LAPACK routines that solves call, by name; the stage
    named ``failing``, from its call ``after`` + 1 on, runs and then
    reports INFO = 3 in ``ws``."""
    called = []

    def spy(name, stage):
        def call(*args):
            called.append(name)
            stage(*args)
            if name == failing and called.count(name) > after:
                ws.info.value = 3
        return call

    spies = tuple(map(spy, _blas.STAGES, _blas.lapack()))
    monkeypatch.setattr(_blas, "lapack", lambda: spies)
    return called


# ways to spoil one solve, each failing one check first: the residual
# (which shifting the eigenvalues fails before the trace), the trace, the
# sort, unit norm, orthogonality, or the solver itself
TAMPERINGS = ("residual", "trace", "sort", "norm", "ortho", "solver")


def tampered_eigh(monkeypatch, tamper):
    """Patch ``eigensys._eigh``, the solve of each matrix, to spoil the
    solve of each matrix whose bytes ``tamper`` maps to one of
    ``TAMPERINGS``: eigenpair 0 copied into slot 1 fails the trace check,
    eigenpairs 0 and 1 swapped the sort, and the last vector turned towards
    the one before, where the two share an eigenvalue, orthogonality; the
    solver's failure is raised before it runs.  Gives a Counter of the
    solves of each matrix, by its bytes."""
    eigh, solves = lagspec.eigensys._eigh, Counter()

    def tampered(d, ws, i=0):
        key = d.tobytes()  # before the stages overwrite d
        solves[key] += 1
        kind = tamper.get(key)
        if kind == "solver":
            raise np.linalg.LinAlgError("LAPACK dstedc gave info 3")
        vals, vecs = eigh(d, ws, i)
        if kind == "residual":
            vals += 1.0
        elif kind == "trace":
            vals[1], vecs[:, 1] = vals[0], vecs[:, 0]
        elif kind == "sort":
            vals[[0, 1]], vecs[:, [0, 1]] = vals[[1, 0]], vecs[:, [1, 0]]
        elif kind == "norm":
            vecs *= 2.0
        elif kind == "ortho":
            vecs[:, -1] += 1e-3 * vecs[:, -2]
            vecs[:, -1] /= np.linalg.norm(vecs[:, -1])
        return vals, vecs

    monkeypatch.setattr(lagspec.eigensys, "_eigh", tampered)
    return solves


def solve_rows(batch, ws):
    """A batch solved in ``ws`` into the rows of a (2, b, N) table, its
    eigenvalues then its IPRs, which are returned; each matrix's
    eigenvectors are left in its plane of ``ws.z``, one per row."""
    rows = np.empty((2, len(batch), batch[0].n))
    assert eigendecompose(batch, out=ws, into=rows) is None
    return rows


@needs_lapack
class TestWorkspace:
    """``eigendecompose(d, out=ws)`` runs LAPACK's ``dsyevd`` in its three
    stages on D itself, which it restores, and on the workspace's
    buffers."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 7, 13, 64, 512])
    def test_equals_eigh_bit_for_bit(self, n, threads):
        """The stages give np.linalg.eigh's eigenvalues and, with the sign
        rule, its eigenvectors, and the IPRs of those, bit for bit."""
        ws = Workspace(n)
        with _blas.threads(threads):
            for seed in (n + 1, n):  # a used workspace gives the same bytes
                d = symmetric_matrix(n, seed=seed)
                before = d.values.copy()
                got = eigendecompose(d, out=ws)
            vals, vecs, iprs = eigh_reference(before)
        assert np.array_equal(d.values, before)
        assert np.shares_memory(got.eigenvectors, ws.z)
        assert np.array_equal(got.eigenvalues, vals)
        assert np.array_equal(got.eigenvectors, vecs)
        assert np.array_equal(got.iprs, iprs)

    def test_a_call_without_a_workspace_solves_in_the_stages(self, monkeypatch):
        """``eigendecompose(d)`` solves in a workspace of its own, with
        dsyevd's stages on D, which it writes and then restores byte for
        byte, and gives the results of a solve in a workspace given."""
        d = symmetric_matrix(33, seed=8)
        before = d.values.copy()
        want = eigendecompose(d, out=Workspace(33))
        called = lapack_spies(monkeypatch)
        got = eigendecompose(d)
        assert called == ["sytrd", *_blas.STAGES]  # the workspace's size query first
        assert d.values.tobytes() == before.tobytes()
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)
        assert np.array_equal(got.iprs, want.iprs)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [2, 8, 33, 64, 90])
    def test_a_batch_equals_single_solves(self, n, threads):
        """A batch of b = ``batch_size(N)`` planes of one stack, or fewer,
        solved in one call into its rows, gives each matrix's single solve
        bit for bit, its eigenvectors in its plane of ``ws.z``, and leaves
        the stack's bytes; matrices that are not planes of one stack are
        solved in a copy, with the same results.  A matrix with ``into``,
        or a sequence without it, is a TypeError."""
        b = min(batch_size(n), 5)
        stack = np.empty((b, n, n))
        batch = []
        for i in range(b):
            stack[i] = symmetric_matrix(n, seed=10 * n + i).values
            batch.append(LagCorrMatrix(lag=i + 1, values=stack[i]))
        before = stack.copy()
        ws = Workspace(n, batch_size(n))
        with _blas.threads(threads):
            loose = [LagCorrMatrix(lag=i + 1, values=v.copy()) for i, v in enumerate(before)]
            want = [eigendecompose(d) for d in loose]
            for given in batch, loose:
                vals, iprs = solve_rows(given, ws)
                assert np.array_equal(stack, before)
                for i, single in enumerate(want):
                    assert np.array_equal(vals[i], single.eigenvalues)
                    assert np.array_equal(ws.z[i].T, single.eigenvectors)
                    assert np.array_equal(iprs[i], single.iprs)
        assert eigendecompose([], out=ws, into=np.empty((2, 0, n))) is None
        rule = "one LagCorrMatrix without into, or a sequence of them with into"
        with pytest.raises(TypeError, match=rule):
            eigendecompose(batch, out=ws)
        with pytest.raises(TypeError, match=rule):
            eigendecompose(batch[0], out=ws, into=np.empty((2, 1, n)))
        if b > 1:
            with pytest.raises(ValueError, match="workspace for"):
                solve_rows(batch, Workspace(n, b - 1))

    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_rows_written_into_equal_single_solves(self, b):
        """With ``into``, a batch's eigenvalues and IPRs are written into
        its rows of two (b, N) arrays, given as a pair or as one (2, b, N)
        array, bit for bit those of each matrix's single solve, a
        degenerate cluster's included; no EigenSystem is returned, and no
        byte outside those rows is written."""
        n = 7
        # the last matrix's positions 5 and 6 share one eigenvalue
        values = [*(symmetric_matrix(n, seed=s).values for s in range(1, b)),
                  planted_cluster(n, 2, 5, seed=b)[0].values]
        batch = [LagCorrMatrix(lag=k, values=v) for k, v in enumerate(np.stack(values), 1)]
        want = [(system.eigenvalues.copy(), system.iprs.copy())
                for system in map(eigendecompose, batch)]
        assert want[-1][1][5] == want[-1][1][6]  # the span's IPR
        for ws, pair in [(Workspace(n, b), True), (Workspace(n, 4), False)]:
            tables = np.random.default_rng(b).standard_normal((2, b + 3, n))
            before = tables.copy()
            rows = tables[:, 1:b + 1]
            assert eigendecompose(batch, out=ws, into=tuple(rows) if pair else rows) is None
            for (vals, iprs), got_vals, got_iprs in zip(want, *rows, strict=True):
                assert vals.tobytes() == got_vals.tobytes()
                assert iprs.tobytes() == got_iprs.tobytes()
            outside = [0, b + 1, b + 2]
            assert tables[:, outside].tobytes() == before[:, outside].tobytes()

    def test_a_failing_batch_writes_no_row(self, doubled_eigh):
        """A batch that fails a check leaves the rows given in ``into``
        as they were."""
        batch = [symmetric_matrix(6, seed=s, lag=s) for s in (1, 2)]
        tables = np.random.default_rng(0).standard_normal((2, 2, 6))
        before = tables.copy()
        with pytest.raises(ConvergenceFailure, match="at lag 1: eigenvectors must be unit norm"):
            eigendecompose(batch, out=Workspace(6, 2), into=tables)
        assert tables.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n, count", [(128, 1), (128, 2), (7, 3)])
    def test_a_workspace_for_more_matrices_than_given(self, n, count):
        """A workspace made for 3 matrices solves fewer, in the blocks it
        holds: at N = 128 those have fewer rows than one matrix's own."""
        ws = Workspace(n, 3)
        batch = [symmetric_matrix(n, seed=s, lag=s) for s in range(1, count + 1)]
        vals, iprs = solve_rows(batch, ws)
        for i, d in enumerate(batch):
            want = eigendecompose(d)
            assert np.array_equal(vals[i], want.eigenvalues)
            assert np.array_equal(ws.z[i].T, want.eigenvectors)
            assert np.array_equal(iprs[i], want.iprs)

    def test_only_a_single_solve_builds_an_eigen_system(self, monkeypatch):
        """One matrix's system is built by EigenSystem's constructor, which
        runs its checks; a batch written ``into`` rows builds none."""
        stack = np.stack([symmetric_matrix(6, seed=s).values for s in (1, 2)])
        batch = [LagCorrMatrix(lag=k, values=v) for k, v in enumerate(stack, 1)]
        built = []
        checks = EigenSystem.__post_init__
        monkeypatch.setattr(EigenSystem, "__post_init__",
                            lambda self: (built.append(self), checks(self)))
        solve_rows(batch, Workspace(6, 2))
        assert built == []
        system = eigendecompose(batch[0], out=Workspace(6, 2))
        assert len(built) == 1 and built[0] is system

    def test_a_batch_names_the_failing_lag(self, monkeypatch):
        """The batch's check names the lag that fails it, and the other
        matrices keep their bytes."""
        stack = np.stack([symmetric_matrix(7, seed=s).values for s in (1, 2, 3)])
        batch = [LagCorrMatrix(lag=k, values=v) for k, v in zip((4, 5, 6), stack)]
        before = stack.copy()
        eigh, faulty = lagspec.eigensys._eigh, stack[1].tobytes()

        def doubled(d, ws, i=0):
            fault = d.tobytes() == faulty  # before the stages overwrite d
            vals, vecs = eigh(d, ws, i)
            if fault:
                vecs *= 2.0
            return vals, vecs

        monkeypatch.setattr(lagspec.eigensys, "_eigh", doubled)
        with pytest.raises(ConvergenceFailure, match="at lag 5: eigenvectors must be unit norm"):
            solve_rows(batch, Workspace(7, 3))
        assert np.array_equal(stack, before)

    @pytest.mark.parametrize("later", ["residual", "solver"])
    def test_a_batch_raises_the_error_of_its_lowest_failing_lag(self, monkeypatch, later):
        """In a batch of lags 4..7, lag 5 fails the unit-norm check and lag
        6 the residual check, which runs first, or its solver: the batch
        raises lag 5's error, as solving its matrices one at a time would,
        and solves each matrix once at most."""
        stack = np.stack([symmetric_matrix(8, seed=s).values for s in range(4)])
        batch = [LagCorrMatrix(lag=k, values=v) for k, v in zip(range(4, 8), stack)]
        tamper = {stack[1].tobytes(): "norm", stack[2].tobytes(): later}
        solves = tampered_eigh(monkeypatch, tamper)
        with pytest.raises(ConvergenceFailure,
                           match="^bad eigen system at lag 5: eigenvectors must be unit norm$"):
            solve_rows(batch, Workspace(8, 4))
        assert max(solves.values()) == 1
        assert len(solves) == (3 if later == "solver" else 4)

    @settings(max_examples=40, deadline=None)
    @given(kinds=st.lists(st.sampled_from([None, *TAMPERINGS]), min_size=1, max_size=4))
    def test_a_batch_fails_as_a_serial_loop_would(self, kinds):
        """Each matrix of a batch fails one check, or its solver, or none:
        the batch raises the error that solving its matrices one at a time,
        in order, meets first, or gives the rows of that loop."""
        # positions 5 and 6 share an eigenvalue
        stack = np.stack([planted_cluster(7, 2, 5, s)[0].values for s in range(len(kinds))])
        batch = [LagCorrMatrix(lag=k, values=v) for k, v in enumerate(stack, 3)]
        tamper = {v.tobytes(): kind for v, kind in zip(stack, kinds) if kind}
        with pytest.MonkeyPatch.context() as mp:
            tampered_eigh(mp, tamper)
            try:
                want = [eigendecompose(d) for d in batch]
            except ConvergenceFailure as exc:
                want = exc
            try:
                got = solve_rows(batch, Workspace(7, 4))
            except ConvergenceFailure as exc:
                assert isinstance(want, ConvergenceFailure), exc
                assert str(exc) == str(want)
                assert isinstance(exc.__cause__, np.linalg.LinAlgError) == (
                    "eigensolver failed" in str(want))
                return
        assert not isinstance(want, ConvergenceFailure), want
        for vals, iprs, single in zip(*got, want, strict=True):
            assert np.array_equal(vals, single.eigenvalues)
            assert np.array_equal(iprs, single.iprs)

    @pytest.mark.parametrize("failing", ["sytrd", "stedc", "ormtr"])
    def test_lapack_failure_names_the_lag_and_restores_d(self, monkeypatch, failing):
        """A nonzero INFO from any stage is a ConvergenceFailure at d's lag,
        and the later stages do not run; D keeps its bytes."""
        ws = Workspace(5)
        d = symmetric_matrix(5, seed=4, lag=7)
        before = d.values.copy()
        called = lapack_spies(monkeypatch, failing, ws)
        with pytest.raises(ConvergenceFailure,
                           match=f"eigensolver failed at lag 7: LAPACK d{failing} gave info 3"):
            eigendecompose(d, out=ws)
        assert called == list(_blas.STAGES[:_blas.STAGES.index(failing) + 1])
        assert np.array_equal(d.values, before)

    def test_lapack_failure_in_a_batch_restores_every_matrix(self, monkeypatch):
        """The second matrix's dstedc fails: the error names its lag, and
        both matrices, the first solved and the second half solved, keep
        their bytes."""
        ws = Workspace(5, 2)
        stack = np.stack([symmetric_matrix(5, seed=s).values for s in (4, 5)])
        batch = [LagCorrMatrix(lag=k, values=v) for k, v in zip((7, 8), stack)]
        before = stack.copy()
        called = lapack_spies(monkeypatch, "stedc", ws, after=1)
        with pytest.raises(ConvergenceFailure, match="failed at lag 8: LAPACK dstedc gave info 3"):
            solve_rows(batch, ws)
        assert called == [*_blas.STAGES, "sytrd", "stedc"]
        assert np.array_equal(stack, before)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_matrices_dsyevd_would_scale_go_to_eigh(self, monkeypatch, scale):
        """dsyevd scales D first where its largest entry is below 2^-485
        or above 2^485, which its stages alone do not: such a D goes to
        np.linalg.eigh untouched, also in a batch, whose other matrices the
        stages solve.  A correlation matrix cannot exceed 1, so the values
        are scaled after LagCorrMatrix's checks."""
        stack = np.empty((2, 9, 9))
        stack[0] = symmetric_matrix(9, seed=3).values
        stack[1] = symmetric_matrix(9, seed=4).values
        batch = [LagCorrMatrix(lag=1, values=stack[0]), LagCorrMatrix(lag=2, values=stack[1])]
        stack[0] *= scale
        before = stack.copy()
        ws = Workspace(9, 2)
        called = lapack_spies(monkeypatch)
        _solve(stack, [1, 2], ws)
        assert called == list(_blas.STAGES)
        assert np.array_equal(stack, before)
        for vals, vecs, values in zip(ws.w, ws.z, before):
            want_vals, want_vecs, _ = eigh_reference(values)  # signs fixed, as _solve fixes them
            assert np.array_equal(vals, want_vals) and np.array_equal(vecs, want_vecs.T)
        if scale < 1:  # a correlation matrix cannot exceed 1
            vals, _ = solve_rows(batch, ws)
            assert np.array_equal(stack, before)
            assert np.array_equal(vals, [eigh_reference(v)[0] for v in before])

    @pytest.mark.parametrize("given", [True, False], ids=["out=ws", "out=None"])
    @pytest.mark.parametrize("layout", ["read-only", "fortran", "strided"])
    def test_values_lapack_cannot_write_go_to_eigh(self, monkeypatch, layout, given):
        d = symmetric_matrix(6, seed=5)
        want = eigendecompose(d)
        values = d.values
        if layout == "read-only":
            values = values.copy()
            values.flags.writeable = False
        elif layout == "fortran":
            values = np.asfortranarray(values)
        else:
            values = np.zeros((12, 12))[::2, ::2]
            values[...] = d.values
        ws = Workspace(6) if given else None
        called = lapack_spies(monkeypatch)
        got = eigendecompose(LagCorrMatrix(lag=1, values=values), out=ws)
        # no stage; without ``out``, the size query of the call's workspace
        assert called == ([] if given else ["sytrd"])
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.iprs, want.iprs)

    def test_workspace_of_another_size(self):
        with pytest.raises(ValueError, match="workspace for"):
            eigendecompose(symmetric_matrix(6, seed=5), out=Workspace(5))
        with pytest.raises(ValueError, match="must have one size"):
            solve_rows([symmetric_matrix(4, seed=5), symmetric_matrix(5, seed=5)],
                       Workspace(4, 2))


class TestChecks:
    """Each of ``eigendecompose``'s checks refuses a spoiled solve, and an
    EigenSystem built directly runs EigenSystem's."""

    @pytest.mark.parametrize("kind, message", [
        ("trace", "eigenvalue sum deviates from trace at lag 1"),
        ("sort", "bad eigen system at lag 1: eigenvalues must be sorted ascending"),
        ("ortho", "bad eigen system at lag 1: eigenvectors must be pairwise orthogonal"),
    ], ids=["trace", "sort", "ortho"])
    def test_a_spoiled_solve_fails_its_check(self, monkeypatch, kind, message):
        d, _ = planted_cluster(7, 2, 5, seed=3)  # positions 5 and 6 share an eigenvalue
        tampered_eigh(monkeypatch, {d.values.tobytes(): kind})
        with pytest.raises(ConvergenceFailure, match=f"^{message}$"):
            eigendecompose(d)

    def test_an_eigen_system_built_directly_is_checked(self):
        es = eigendecompose(planted_cluster(5, 2, 3, seed=4)[0])
        vals, vecs, iprs = es.eigenvalues.copy(), es.eigenvectors.copy(), es.iprs
        EigenSystem(vals, vecs, iprs)
        turned = vecs.copy()
        turned[:, 4] += 1e-3 * turned[:, 3]
        turned[:, 4] /= np.linalg.norm(turned[:, 4])
        for args, match in [
            ((vals, vecs[:, :4], iprs), "disagree in shape"),
            ((vals, vecs, iprs[:4]), "disagree in shape"),
            ((np.empty(0), np.empty((0, 0)), np.empty(0)), "at least one eigenvalue"),
            ((1.0, np.eye(1), np.ones(1)), "disagree in shape"),  # 0-d eigenvalues
            ((np.ones((1, 1)), np.eye(1), np.ones(1)), "disagree in shape"),  # 2-d
            ((vals[::-1], vecs, iprs), "sorted ascending"),
            ((vals, 2.0 * vecs, iprs), "unit norm"),
            ((vals, turned, iprs), "pairwise orthogonal"),
        ]:
            with pytest.raises(ValueError, match=match):
                EigenSystem(*args)


def planted_cluster(n: int, m: int, lo: int, seed: int, rotation=None) -> tuple:
    """A lag-1 matrix Q diag(vals) Q^T whose positions lo..lo+m-1 share one
    eigenvalue, and the cluster columns of Q.  ``rotation`` (m x m,
    orthogonal) turns those columns first: the matrix is the same but for
    rounding, which then picks another eigenbasis of the cluster."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.linspace(-0.4, 0.4, n - m + 1)
    vals = np.concatenate([vals[:lo], np.full(m, vals[lo]), vals[lo + 1:]])
    if rotation is not None:
        q[:, lo:lo + m] = q[:, lo:lo + m] @ rotation
    sym = (q * vals) @ q.T
    values = np.triu(sym) + np.triu(sym, 1).T
    return LagCorrMatrix(lag=1, values=values), q[:, lo:lo + m]


def span_ipr(basis: np.ndarray) -> float:
    """Expected IPR of a uniformly random unit vector in the span of the
    orthonormal columns of ``basis``."""
    m = basis.shape[1]
    p = (basis**2).sum(axis=1)
    return 3.0 * float(p @ p) / (m * (m + 2))


class TestDegenerateClusters:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 16),
        m=st.integers(2, 4),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cluster_ipr_ignores_the_basis(self, n, m, data, seed):
        m = min(m, n)
        lo = data.draw(st.integers(0, n - m))
        rng = np.random.default_rng(seed)
        rotation, _ = np.linalg.qr(rng.standard_normal((m, m)))
        d, basis = planted_cluster(n, m, lo, seed)
        d_rot, _ = planted_cluster(n, m, lo, seed, rotation)
        es, es_rot = eigendecompose(d), eigendecompose(d_rot)
        cluster = slice(lo, lo + m)
        expected = span_ipr(basis)
        assert np.all(np.abs(es.iprs[cluster] - expected) <= 1e-12)
        assert np.all(np.abs(es_rot.iprs[cluster] - expected) <= 1e-12)
        # singletons keep the IPR of their own vector, to the bit
        for es_ in (es, es_rot):
            own = _column_iprs(es_.eigenvectors)
            singletons = [*range(lo), *range(lo + m, n)]
            assert np.array_equal(es_.iprs[singletons], own[singletons])

    def test_close_but_distinct_eigenvalues_stay_singletons(self):
        # a gap of 1e-6 * ||D||_F, which the solve resolves: no cluster
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 8)))
        vals = np.linspace(-0.4, 0.4, 8)
        vals[4] = vals[3] + 1e-6 * np.linalg.norm(vals)
        sym = (q * vals) @ q.T
        es = eigendecompose(LagCorrMatrix(lag=1, values=np.triu(sym) + np.triu(sym, 1).T))
        assert np.array_equal(es.iprs, _column_iprs(es.eigenvectors))

    def test_identity_is_one_cluster(self):
        es = eigendecompose(LagCorrMatrix(lag=0, values=np.eye(5)))
        assert np.allclose(es.iprs, 3.0 / 7.0, rtol=0, atol=1e-15)


class TestIpr:
    def test_uniform_vector_is_fully_delocalized(self):
        v = np.full(100, 1.0 / math.sqrt(100))
        assert ipr(v) == pytest.approx(0.01, abs=1e-12)

    def test_basis_vector_is_fully_localized(self):
        v = np.zeros(100)
        v[3] = 1.0
        assert ipr(v) == 1.0

    def test_four_equal_components(self):
        v = np.zeros(100)
        v[[2, 17, 40, 77]] = 0.5
        assert ipr(v) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            ipr(np.array([1.0, 1.0]))

    @given(seed=st.integers(0, 2**31), flips=st.integers(0, 2**31))
    @settings(max_examples=100)
    def test_invariant_under_sign_flips_and_permutation(self, seed, flips):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(32)
        v /= np.linalg.norm(v)
        base = ipr(v)
        signs = np.where(np.random.default_rng(flips).random(32) < 0.5, -1.0, 1.0)
        perm = np.random.default_rng(flips + 1).permutation(32)
        assert ipr((v * signs)[perm]) == pytest.approx(base, abs=1e-12)

    def test_range_bounds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            v = rng.standard_normal(64)
            v /= np.linalg.norm(v)
            assert 1.0 / 64 <= ipr(v) <= 1.0

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 512])
    @pytest.mark.parametrize("b", [1, 4])
    def test_tiled_squares_give_the_bits_of_one_c_order_multiply(self, n, b):
        """``_column_iprs`` copies through tiles and squares in place; its
        sums are those of squares made in one C-order multiply, for the
        solver's transposed eigenvectors and for C-order ones, with or
        without ``out``, and so are ``ipr``'s."""

        def one_multiply(vecs):
            sq = np.multiply(vecs, vecs, order="C")
            return np.einsum("...ij,...ij->...j", sq, sq)

        z = np.random.default_rng(n + b).standard_normal((b, n, n))
        z /= np.linalg.norm(z, axis=2, keepdims=True)
        for vecs in (z.transpose(0, 2, 1), z):
            want = one_multiply(vecs)
            out = np.full((b, n, n), np.nan)
            assert np.array_equal(_column_iprs(vecs, out=out), want)
            assert np.array_equal(_column_iprs(vecs), want)
            assert np.array_equal(_column_iprs(vecs[0]), want[0])
        for v in z[0]:  # unit rows
            assert ipr(v) == one_multiply(v.reshape(-1, 1))[0]


class TestRmtBounds:
    def test_narrow_band_limit(self):
        b = rmt_bounds(1, 10000)
        assert b.lambda_minus == pytest.approx(0.9801, abs=1e-12)
        assert b.lambda_plus == pytest.approx(1.0201, abs=1e-12)

    def test_wide_aspect_ratio(self):
        # frozen from independent evaluation of (1 +- 1/sqrt(q))^2
        b = rmt_bounds(497, 2015)
        assert b.q == pytest.approx(2015 / 497, rel=1e-15)
        assert b.lambda_minus == pytest.approx(0.25337247090400294, abs=1e-12)
        assert b.lambda_plus == pytest.approx(2.239927777234955, abs=1e-12)

    def test_desk_scale_aspect(self):
        b = rmt_bounds(64, 2048)
        assert b.q == 32.0
        assert b.lambda_minus == pytest.approx(0.6776966094067263, abs=1e-12)
        assert b.lambda_plus == pytest.approx(1.384803390593274, abs=1e-12)

    def test_degenerate_aspect(self):
        with pytest.raises(DegenerateAspect):
            rmt_bounds(64, 64)
        with pytest.raises(DegenerateAspect):
            rmt_bounds(64, 32)
        with pytest.raises(ValueError, match="n must be positive"):
            rmt_bounds(0, 32)
        with pytest.raises(ValueError, match="lambda_minus < lambda_plus"):
            RmtBounds(lambda_minus=1.0, lambda_plus=1.0, q=4.0)
        with pytest.raises(ValueError, match="q must exceed 1"):
            RmtBounds(lambda_minus=0.0, lambda_plus=4.0, q=1.0)


class TestSegment:
    def _bounds(self):
        return rmt_bounds(497, 2015)  # approximately (0.2534, 2.2399)

    def test_all_random_when_inside(self):
        parts = segment([1.0, 1.0, 1.0], self._bounds())
        assert parts.left == () and parts.right == ()
        assert parts.random == (0, 1, 2)

    def test_three_way_split(self):
        parts = segment([0.1, 1.0, 3.0], self._bounds())
        assert parts.left == (0,)
        assert parts.random == (1,)
        assert parts.right == (2,)

    def test_boundary_values_count_as_random(self):
        b = self._bounds()
        parts = segment([b.lambda_minus, b.lambda_plus], b)
        assert parts.random == (0, 1)

    def test_partition_property(self, gaussian_returns_64):
        es = eigendecompose(equal_time_corr(gaussian_returns_64))
        parts = segment(es.eigenvalues, rmt_bounds(64, 2048))
        merged = sorted(parts.left + parts.random + parts.right)
        assert merged == list(range(64))

    def test_iid_mostly_random(self):
        bounds = rmt_bounds(64, 2048)
        for seed in range(5):
            g = iid_returns(64, 2048, seed=seed)
            es = eigendecompose(equal_time_corr(g))
            parts = segment(es.eigenvalues, bounds)
            assert len(parts.random) >= 0.9 * 64

    def test_iid_median_ipr_delocalized(self):
        for seed in range(5):
            g = iid_returns(64, 2048, seed=seed)
            es = eigendecompose(equal_time_corr(g))
            assert 1.0 / 64 <= np.median(es.iprs) <= 3.0 / 64
