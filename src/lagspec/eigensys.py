"""Eigen-decomposition of lagged correlation matrices, IPRs, and the
left/random/right segmentation of the spectrum against Marchenko-Pastur
bounds.
"""
from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Sequence, overload

import numpy as np

from . import _blas
from .errors import ConvergenceFailure, DegenerateAspect, NotNormalized
from .lagcorr import LagCorrMatrix

_RESIDUAL_FACTOR = 1e-10  # max ||D u - lambda u|| allowed, relative to ||D||_F
_NORM_TOL = 1e-8
_ORTHO_TOL = 1e-8
# floats per block of rows of U diag(vals) or of EigenSystem's Gram
# product: half the bytes of an N x N boolean array at N = 512
_BLOCK_FLOATS = 1 << 14
# rows and columns per tile of ``_column_iprs``'s copy
_TILE = 64
# ascending eigenvalues at most this far apart, relative to ||D||_F, form one
# degenerate cluster: 100 times the residual bound
_CLUSTER_GAP = 1e-8


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenvalues, orthonormal eigenvectors and per-vector IPRs.

    Eigenvector k is the k-th column of ``eigenvectors`` and pairs with
    ``eigenvalues[k]``; eigenvalues are ascending.  Each vector's sign is
    fixed so its largest-magnitude component is positive, which makes the
    decomposition deterministic.  Every system is built through this
    constructor, ``eigendecompose``'s too, and so passes its shape, sort,
    unit-norm and orthogonality checks (ValueError otherwise).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    iprs: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=float)
        iprs = np.asarray(self.iprs, dtype=float)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)
        object.__setattr__(self, "iprs", iprs)
        n = len(vals) if vals.ndim == 1 else -1
        if vecs.shape != (n, n) or iprs.shape != (n,):
            raise ValueError("eigenvalues, eigenvectors and iprs disagree in shape")
        if not n:
            raise ValueError("an eigen system needs at least one eigenvalue")
        fault = _fault(vals[None], vecs[None], np.empty(_rows(n, 1) * n))
        if fault is not None:
            raise ValueError(_CHECKS[fault[1]].format(at=""))


# a solve's checks, in the order in which each matrix takes them, by their
# messages, which name the lag ``at``: the residual and the trace, which
# need D, then EigenSystem's
_CHECKS = (f"eigen residual {{worst:.3e}} exceeds {_RESIDUAL_FACTOR:.0e} * ||D||_F{{at}}",
           "eigenvalue sum deviates from trace{at}",
           "bad eigen system{at}: eigenvalues must be sorted ascending",
           "bad eigen system{at}: eigenvectors must be unit norm",
           "bad eigen system{at}: eigenvectors must be pairwise orthogonal")


def _fault(vals: np.ndarray, vecs: np.ndarray, block: np.ndarray,
           *before: np.ndarray) -> tuple[int, int] | None:
    """The fault that taking a stack of b >= 1 systems, eigenvalues (b, N)
    and eigenvectors (b, N, N) as columns, one at a time, each through the
    checks of ``_CHECKS`` in order, meets first: the lowest failing system
    and the first check that it fails, as (that system, the check's index),
    or None.  ``before`` holds a (b,) mask of the failures of each check
    before EigenSystem's that the caller ran; EigenSystem's, sort, unit
    norm and orthogonality, run here.  The upper triangles of the products
    VᵀV are made a block of rows at a time, less their diagonals, in
    ``block``, flat, which holds b blocks of ``_rows(N, b)`` rows: no
    N x N temporary at b = 1, and half the flops of the full products."""
    b, n = vals.shape
    unsorted = (vals[:, 1:] < vals[:, :-1]).any(axis=1)
    norms = np.einsum("bij,bij->bj", vecs, vecs)
    unnormed = np.abs(norms - 1.0, out=norms).max(axis=1) > 2 * _NORM_TOL
    rows = _rows(n, b)
    skewed = np.zeros(b, dtype=bool)
    for r in range(0, n, rows):
        left = vecs[:, :, r:r + rows].transpose(0, 2, 1)
        c = left.shape[1]
        gram = np.matmul(left, vecs[:, :, r:],
                         out=block[:b * c * (n - r)].reshape(b, c, n - r))
        gram.reshape(b, -1)[:, ::n - r + 1] = 0.0  # the diagonals
        skewed |= np.abs(gram, out=gram).max(axis=(1, 2)) > _ORTHO_TOL
    failed = [*before, unsorted, unnormed, skewed]
    skipped = len(_CHECKS) - len(failed)
    # (system, check) pairs order as the loop meets them
    return min([(int(mask.argmax()), skipped + check)
                for check, mask in enumerate(failed) if mask.any()], default=None)


@dataclass(frozen=True)
class RmtBounds:
    """Marchenko-Pastur eigenvalue band for a unit-variance correlation matrix."""

    lambda_minus: float
    lambda_plus: float
    q: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lambda_minus < self.lambda_plus):
            raise ValueError("need 0 <= lambda_minus < lambda_plus")
        if not self.q > 1.0:
            raise ValueError("aspect ratio q must exceed 1")


@dataclass(frozen=True)
class SpectrumSegmentation:
    """Partition of eigenvalue indices into left / random / right parts."""

    left: tuple[int, ...]
    random: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", tuple(int(i) for i in self.left))
        object.__setattr__(self, "random", tuple(int(i) for i in self.random))
        object.__setattr__(self, "right", tuple(int(i) for i in self.right))


def batch_size(n: int) -> int:
    """The most lags per batch of the sweep at N x N: as many N x N
    matrices as fill one block of ``_BLOCK_FLOATS`` floats, 4 at N = 64
    and 1 from N = 91, and at least one.  The sweep may take fewer
    (``strobo._batch``)."""
    return max(1, _BLOCK_FLOATS // (n * n))


def _rows(n: int, batch: int) -> int:
    """Rows per block of a stack of ``batch`` N x N matrices: all N where
    the stack fits in ``_BLOCK_FLOATS`` floats, as a batch does at b >= 2,
    and so many that b blocks do at b = 1."""
    return min(n, max(1, _BLOCK_FLOATS // (batch * n)))


class Workspace:
    """The buffers of ``eigendecompose(d, out=ws)`` for one N x N matrix,
    or of ``eigendecompose(ds, out=ws, into=rows)`` for up to ``batch``,
    for one call at a time; ``eigendecompose`` without ``out`` makes one
    for its call.  ``work`` is laid out as LAPACK's
    ``dsyevd`` lays out its own, at the size of dsyevd's workspace query:
    the tridiagonal's off-diagonal and the reflectors' scalars, N
    floats each, then ``z``, where each matrix's eigenvectors are left in
    a plane of its own, one per row, then the later stages' scratch, which
    the checks take as ``scratch``, ``batch`` planes, after the solves.
    ``w`` holds each matrix's eigenvalues, ``diag`` its diagonal while the
    solve overwrites it, and ``block``, ``batch`` blocks of rows of N
    floats (``_rows``), the checks' blocks and the restore's.  D is not
    copied.  At batch 1 that is 2 N^2 + O(N) floats and one block of at
    most ``_BLOCK_FLOATS``; at batch b >= 2 each of ``z``, ``scratch`` and
    ``block`` holds b N^2 floats.

    The LAPACK calls' arguments are made here, once for each plane, but for
    D's address, ``a``, which each solve sets."""

    def __init__(self, n: int, batch: int = 1) -> None:
        rows = _rows(n, batch)
        self.info, self.a = ctypes.c_int64(), ctypes.c_void_p()
        lwork, liwork = 1 + 6 * n + 2 * n * n, 3 + 5 * n
        lapack = _blas.lapack()
        if lapack is not None:
            # dsyevd's query: its minimum, or the two leading vectors and
            # dsytrd's optimum where that is more
            lwork = max(lwork, 2 * n + _sytrd_query(lapack, n))
        planes = batch * n * n
        # the stages' scratch, stretched to hold the checks' planes
        rest = max(lwork - 2 * n - n * n, planes)
        self.work = np.empty(2 * n + planes + rest)
        self.iwork = np.empty(liwork, dtype=np.int64)
        self.w, self.diag = np.empty((batch, n)), np.empty((batch, n))
        self.z = self.work[2 * n:2 * n + planes].reshape(batch, n, n)
        self.scratch = self.work[2 * n + planes:2 * n + 2 * planes].reshape(batch, n, n)
        self.block = np.empty(batch * rows * n)
        # the entries of a block of rows from the diagonal on that lie
        # above it
        self.upper = np.arange(n) > np.arange(rows)[:, None]

        # dsyevd's calls for each plane, with gfortran's string lengths:
        # UPLO = 'L' of D as LAPACK sees it, D transposed, which has the
        # same bits for an exactly symmetric matrix; dsytrd gets the work
        # from the plane's z on, the later stages the work after every z,
        # each the length dsyevd gives it
        e, tau, after = (ctypes.c_void_p(self.work.ctypes.data + 8 * i)
                         for i in (0, n, 2 * n + planes))
        iwork = ctypes.c_void_p(self.iwork.ctypes.data)
        n_, ld, lwork1, lwork2, liwork_ = (ctypes.byref(ctypes.c_int64(v)) for v in (
            n, max(n, 1), lwork - 2 * n, lwork - 2 * n - n * n, liwork))
        info, one = ctypes.byref(self.info), ctypes.c_size_t(1)
        self.stages = []
        for w, z in zip(self.w, self.z):
            w, z = ctypes.c_void_p(w.ctypes.data), ctypes.c_void_p(z.ctypes.data)
            self.stages.append((
                (b"L", n_, self.a, ld, w, e, tau, z, lwork1, info, one),
                (b"I", n_, w, e, z, ld, after, lwork2, iwork, liwork_, info, one),
                (b"L", b"L", b"N", n_, n_, self.a, ld, tau, z, ld, after, lwork2, info,
                 one, one, one),
            ))


def _sytrd_query(lapack: tuple, n: int) -> int:
    """dsytrd's optimal work size at N x N, UPLO = 'L'."""
    size, info = np.zeros(1), ctypes.c_int64()
    p = ctypes.c_void_p(size.ctypes.data)
    n_, ld, query = (ctypes.byref(ctypes.c_int64(v)) for v in (n, max(n, 1), -1))
    lapack[0](b"L", n_, p, ld, p, p, p, p, query, ctypes.byref(info), ctypes.c_size_t(1))
    return int(size[0])


# dsyevd scales D first where its largest entry is not 0 and outside
# [2^-485, 2^485]: 2^-485 is sqrt(safe minimum / precision) in float64
_SCALE_MIN, _SCALE_MAX = 2.0 ** -485, 2.0 ** 485


def _eigh(d: np.ndarray, ws: Workspace | None, i: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The eigensystem of an exactly symmetric ``d``: with ``ws``,
    ``dsyevd``'s three stages, called as dsyevd calls them, so with
    ``np.linalg.eigh``'s bits, on ``d`` itself, a writable C-ordered float
    array that dsyevd would not scale.  They leave the eigenvalues in
    ``ws.w[i]`` and the eigenvectors in ``ws.z[i]``, and overwrite ``d``
    but for its strict lower triangle, from which ``_solve`` restores it.
    Without ``ws``, the fallback, ``np.linalg.eigh(d)``: no LAPACK was
    found, or ``d`` is one that the stages may not solve.  Fault tests
    patch this: it is called once for each matrix solved."""
    if ws is None:
        return np.linalg.eigh(d)
    ws.a.value = d.ctypes.data
    for name, stage, args in zip(_blas.STAGES, _blas.lapack(), ws.stages[i]):
        stage(*args)
        if ws.info.value:
            raise np.linalg.LinAlgError(f"LAPACK d{name} gave info {ws.info.value}")
    return ws.w[i], ws.z[i].T


def _restore(stack: np.ndarray, block: np.ndarray, upper: np.ndarray) -> None:
    """Rebuild the strict upper triangles of the (b, N, N) ``stack`` from
    their strict lower ones, which LAPACK never writes, a block of rows of
    each at a time through ``block``, flat: no N x N temporary."""
    b, n = stack.shape[:2]
    rows = len(upper)
    for r in range(0, n, rows):
        c = min(rows, n - r)
        mirror = block[:b * c * (n - r)].reshape(b, c, n - r)
        np.copyto(mirror, stack[:, r:, r:r + c].transpose(0, 2, 1))
        np.copyto(stack[:, r:r + c, r:], mirror, where=upper[:c, :n - r])


def _stacked(values: list[np.ndarray]) -> np.ndarray:
    """Same-size matrices as one (b, N, N) array (ValueError otherwise): a
    view of the one, or of consecutive planes of one writable C-ordered
    float array, each right after the one before, as every sweep batch's
    are, so that the solve phase writes and restores them in place; a copy
    otherwise, as for a list made by hand."""
    first = values[0]
    if len(values) == 1:
        return first[None]
    if any(v.shape != first.shape for v in values):
        raise ValueError("the matrices of a batch must have one size")
    base = first.base
    if (isinstance(base, np.ndarray) and base.flags.c_contiguous
            and base.flags.writeable and base.dtype == np.float64):
        start, step = first.ctypes.data, first.nbytes
        if all(v.base is base and v.flags.c_contiguous and v.flags.writeable
               and v.ctypes.data == start + i * step for i, v in enumerate(values)):
            return np.ndarray((len(values), *first.shape), buffer=base,
                              offset=start - base.ctypes.data)
    return np.stack(values)


def _solve(stack: np.ndarray, lags: list[int],
           ws: Workspace) -> tuple[int, ConvergenceFailure | None]:
    """``eigendecompose``'s solve phase.  Solve the matrices of ``stack``
    in order, each into its plane of ``ws``, up to the first whose solver
    fails, and fix the sign of each solved vector, its largest-magnitude
    component positive: how many were solved, and that failure at its lag,
    caused by the solver's LinAlgError, or None.  dsyevd's stages
    (``_eigh``) solve in the matrix itself where LAPACK is found, the stack
    is a writable C-ordered float array, and dsyevd would not scale that
    matrix first; ``_eigh``'s fallback solves the others, which are not
    written.  The scaling test, the saving of the diagonals and the
    restore of what the stages overwrite run once over the stack, the
    restore also after a failure, so every matrix holds its bytes again on
    return."""
    b, n = stack.shape[:2]
    staged = np.zeros(b, dtype=bool)
    if (_blas.lapack() is not None and stack.flags.c_contiguous
            and stack.flags.writeable and stack.dtype == np.float64):
        # dsyevd's dlansy('M'), NaN where one is, which is not scaled
        top = np.maximum(stack.max(axis=(1, 2)), -stack.min(axis=(1, 2)))
        staged = ~(((0.0 < top) & (top < _SCALE_MIN)) | (top > _SCALE_MAX))
    if staged.any():
        diagonals = stack.reshape(b, -1)[:, ::n + 1]
        ws.diag[:b] = diagonals
    solved, failure = b, None
    try:
        for i, d in enumerate(stack):
            vals, vecs = _eigh(d, ws if staged[i] else None, i)
            if vecs.base is not ws.work:  # eigh's: into the plane
                ws.w[i], ws.z[i] = vals, vecs.T
    except np.linalg.LinAlgError as exc:
        solved, failure = i, ConvergenceFailure(f"eigensolver failed at lag {lags[i]}: {exc}")
        failure.__cause__ = exc
    finally:
        if staged.any():
            _restore(stack, ws.block, ws.upper)
            diagonals[...] = ws.diag[:b]
    # row k of ``each[i]`` is matrix i's eigenvector k, with unit stride
    each = ws.z[:solved]
    lead = np.argmax(np.abs(each, out=ws.scratch[:solved]), axis=2)
    each *= np.copysign(1.0, each[np.arange(solved)[:, None], np.arange(n), lead])[:, :, None]
    return solved, failure


@overload
def eigendecompose(d: LagCorrMatrix, out: Workspace | None = None) -> EigenSystem: ...


@overload
def eigendecompose(d: Sequence[LagCorrMatrix], out: Workspace | None = None, *,
                   into: np.ndarray | tuple[np.ndarray, np.ndarray]) -> None: ...


def eigendecompose(d, out=None, *, into=None):
    """Solve the symmetric eigenproblem for one lagged correlation matrix,
    giving its EigenSystem, or for each of a sequence of same-size ones,
    writing their eigenvalues and IPRs ``into`` rows of two tables.  Any
    other pairing, a matrix with ``into`` or a sequence without it, is a
    TypeError.

    Ascending eigenvalues whose consecutive gaps are at most 1e-8 times the
    Frobenius norm chain into a degenerate cluster.  Rounding picks the
    eigenvectors within a cluster's span, so each member of a cluster of
    m >= 2 gets the IPR of the span rather than of its own vector: the
    expected IPR of a uniformly random unit vector in the span,
    ``3 * sum_i P_ii**2 / (m * (m + 2))`` with ``P`` the projector onto it.
    A singleton's IPR is that of its vector, ``sum_i u_i**4``.

    The b matrices are solved in ``out``, a ``Workspace(N, b' >= b)``, or
    in a ``Workspace(N, b)`` made for the call, in three phases, each run
    once over the batch:

    - the solve (``_solve``): dsyevd's three stage calls in each matrix
      itself, which is written during the call and restored, then each
      vector's sign fixed.  ``np.linalg.eigh`` solves instead, with the
      same bits and not writing the matrix, where LAPACK is not found or
      the matrix is read-only, not C-ordered, or one dsyevd would scale
      first.  Matrices that are not consecutive planes of one array, as a
      sweep batch's are, are solved in a copy (``_stacked``);
    - the checks (``_check``), which raise the first fault;
    - the IPRs (``_iprs``), each vector's, then each cluster's.

    Each matrix's eigenvectors are left in its plane of ``ws.z``, one per
    row.  The EigenSystem of one matrix is built by its constructor, which
    runs its checks once more, over views into the workspace, valid until
    its next use: without ``out``, it holds 2 N^2 floats of it, not N^2.
    With ``into``, two (b, N) float arrays, as a pair or as one (2, b, N)
    array such as the sweep's block of rows of its two tables, the
    eigenvalues are copied into ``into[0]`` and the IPRs made in
    ``into[1]``, row i matrix i's, with the bits of a single solve's; no
    EigenSystem is made, and None is returned.

    Raises ConvergenceFailure, naming the lag, if the solver fails, the
    residual ``||D u_k - lambda_k u_k||`` exceeds 1e-10 times the Frobenius
    norm, the eigenvalues miss the trace, or the result fails EigenSystem's
    sort, unit-norm or orthogonality checks.  Of a batch, the error is the
    one that solving its matrices one at a time, in order, meets first:
    that of the lowest failing matrix, at the first of those checks that
    it fails, in that order (``_CHECKS``), and a solver's failure only
    where no matrix before it fails a check.  A matrix is solved once,
    also where a later one fails, and ``into`` is written only where none
    fails.
    """
    if isinstance(d, LagCorrMatrix) != (into is None):
        raise TypeError("eigendecompose takes one LagCorrMatrix without into, "
                        "or a sequence of them with into")
    ds = [d] if into is None else list(d)
    if not ds:
        return None
    b, n, lags = len(ds), ds[0].n, [m.lag for m in ds]
    ws = Workspace(n, b) if out is None else out
    if b > len(ws.z) or (n, n) != ws.z.shape[1:]:
        raise ValueError(f"a workspace for {len(ws.z)} x {ws.z.shape[1:]} cannot solve "
                         f"{b} x {ds[0].values.shape}")
    stack = _stacked([m.values for m in ds])
    solved, failure = _solve(stack, lags, ws)
    frob = _check(stack[:solved], lags, ws, failure)
    iprs = _iprs(ws, frob, None if into is None else into[1])
    if into is None:
        return EigenSystem(ws.w[0], ws.z[0].T, iprs[0])
    into[0][...] = ws.w[:b]


def _check(stack: np.ndarray, lags: list[int], ws: Workspace,
           failure: ConvergenceFailure | None) -> np.ndarray:
    """``eigendecompose``'s check phase, over the b matrices of ``stack``
    that the solve phase solved in ``ws``: the residual and the trace, each
    a mask over them, then EigenSystem's checks, raising the fault that a
    serial loop meets first (``_fault``), and else ``failure``, the
    solver's at the matrix after them, if any.  It gives the matrices'
    Frobenius norms, which scale the residual bound and, in the IPR phase,
    the clusters' gaps."""
    b, n = stack.shape[:2]
    if not b:  # nothing solved to check
        raise failure
    vals, each, square = ws.w[:b], ws.z[:b], ws.scratch[:b]
    # row norms of U^T D - diag(vals) U^T, the residuals D u - lambda u
    # transposed, as D is symmetric, built in place in U^T D
    residual = np.matmul(each, stack, out=square)
    rows = _rows(n, len(ws.z))  # the blocks ``block`` holds
    for r in range(0, n, rows):
        c = min(rows, n - r)
        residual[:, r:r + c] -= np.multiply(each[:, r:r + c], vals[:, r:r + c, None],
                                            out=ws.block[:b * c * n].reshape(b, c, n))
    worst = np.sqrt(np.einsum("bij,bij->bi", residual, residual).max(axis=1))
    # np.linalg.norm of each matrix, bit for bit
    frob = np.array([math.sqrt(f.dot(f)) for f in (m.ravel(order="K") for m in stack)])
    fault = _fault(vals, each.transpose(0, 2, 1), square.reshape(-1),
                   ~(worst <= _RESIDUAL_FACTOR * frob),  # NaN fails too
                   np.abs(vals.sum(axis=1) - stack.trace(axis1=1, axis2=2)) > 1e-8 * n)
    if fault is not None:
        i, check = fault
        raise ConvergenceFailure(_CHECKS[check].format(worst=worst[i], at=f" at lag {lags[i]}"))
    if failure is not None:
        raise failure
    return frob


def _iprs(ws: Workspace, frob: np.ndarray, into: np.ndarray | None) -> np.ndarray:
    """``eigendecompose``'s IPR phase, over the b = len(``frob``) systems
    solved and checked in ``ws``: their (b, N) IPRs, made in ``into``
    where given, each vector's (``_column_iprs``), then the cluster pass:
    each member of a run of ascending eigenvalues whose consecutive gaps
    are at most ``_CLUSTER_GAP`` times ||D||_F gets the IPR of the run's
    span.  ``P_ii = sum_{k in run} U_ik**2`` depends on the span only."""
    b = len(frob)
    vals, vecs = ws.w[:b], ws.z[:b].transpose(0, 2, 1)
    iprs = _column_iprs(vecs, out=ws.scratch[:b], into=into)
    close = vals[:, 1:] - vals[:, :-1] <= _CLUSTER_GAP * frob[:, None]
    for i in np.flatnonzero(close.any(axis=1)):
        # a run of close gaps lo..hi-2 joins positions lo..hi-1: its ends
        # are where ``close[i]``, padded with False, changes
        ends = np.flatnonzero(np.diff(close[i], prepend=False, append=False))
        for lo, hi in zip(ends[::2].tolist(), (ends[1::2] + 1).tolist()):
            # rows of unit stride, as in np.linalg.eigh's C-order
            # eigenvectors: the sums run the same way for any layout
            span = np.ascontiguousarray(vecs[i, :, lo:hi])
            p = np.einsum("ik,ik->i", span, span)
            m = hi - lo
            iprs[i, lo:hi] = 3.0 * float(p @ p) / (m * (m + 2))
    return iprs


def _column_iprs(vecs: np.ndarray, out: np.ndarray | None = None,
                 into: np.ndarray | None = None) -> np.ndarray:
    """Sum of fourth powers down each column of each matrix of a stack,
    in ``into`` if given, from squares made in C order (in ``out`` if
    given): the sums then run as for ``np.linalg.eigh``'s C-order
    eigenvectors, whatever the layout of ``vecs``.  ``vecs`` is copied
    into ``out`` a tile of ``_TILE`` x ``_TILE`` entries at a time, so that
    the solver's transposed eigenvectors are read and written within the
    cache, and squared there."""
    sq = np.empty(vecs.shape) if out is None else out
    rows, cols = vecs.shape[-2:]
    for r in range(0, rows, _TILE):
        for c in range(0, cols, _TILE):
            sq[..., r:r + _TILE, c:c + _TILE] = vecs[..., r:r + _TILE, c:c + _TILE]
    np.multiply(sq, sq, out=sq)
    return np.einsum("...ij,...ij->...j", sq, sq, out=into)


def ipr(vector: np.ndarray) -> float:
    """Inverse participation ratio of a unit vector: sum of fourth powers.

    1/N means the vector is spread evenly over all N components, 1 means a
    single component carries everything.
    """
    v = np.asarray(vector, dtype=float)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > _NORM_TOL:
        raise NotNormalized(f"vector norm is {norm!r}, expected 1")
    return float(_column_iprs(v.reshape(-1, 1))[0])


def rmt_bounds(n: int, length: int) -> RmtBounds:
    """Marchenko-Pastur band (1 +- 1/sqrt(q))^2 with q = length / n, where
    length is the number of returns per series."""
    if n < 1:
        raise ValueError("n must be positive")
    if length <= n:
        raise DegenerateAspect(
            f"effective length {length} must exceed dimension {n}"
        )
    q = length / n
    spread = 1.0 / np.sqrt(q)
    return RmtBounds(
        lambda_minus=float((1.0 - spread) ** 2),
        lambda_plus=float((1.0 + spread) ** 2),
        q=float(q),
    )


def segment(eigenvalues: np.ndarray, bounds: RmtBounds) -> SpectrumSegmentation:
    """Split eigenvalue indices by strict comparison against the band.

    Values exactly on a boundary count as random (deviation must be strict
    to be flagged).
    """
    vals = np.asarray(eigenvalues, dtype=float)
    left = np.flatnonzero(vals < bounds.lambda_minus)
    right = np.flatnonzero(vals > bounds.lambda_plus)
    random = np.flatnonzero(
        (vals >= bounds.lambda_minus) & (vals <= bounds.lambda_plus)
    )
    return SpectrumSegmentation(
        left=tuple(left), random=tuple(random), right=tuple(right)
    )
