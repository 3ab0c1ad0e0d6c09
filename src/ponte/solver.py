"""Direct stiffness analysis with tension-only cables.

The element table, banded assembly over the free dofs and a banded
semi-definite solve, the taut/slack active-set iteration, and force,
reaction and utilization recovery. Cable-free sub-models of one model (an
erection plan's stages) are analyzed as one stack: one block-diagonal
band (``_solve_blocks``), one load sum (``_load_sum``) and
one recovery (``_recover``), whose one-block, one-row case is a single
analysis. All functions are pure; models are shared read-only.

Each analysis numbers the free dofs along the structure (nodes by x, then
y) and scatters K straight into LAPACK lower band storage; every
active-set iteration is one banded Cholesky factorization (dpbtrf). A
pivot at or below 1e-10 of its own diagonal is a zero-energy mode, which
is decoupled and projected off (``_solve``): kept pivots measure 2e-3 of
their diagonal or more and zero ones rounding level, so the threshold is
far from both.
"""

from __future__ import annotations

import importlib.util
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidModel, NoConvergence, SingularSystem
from .model import ModelArrays, StructureModel, check_gravity, lumped_weight, validate


def _scipy_linalg(*names: str):
    """scipy.linalg's extension modules ``names``, loaded without importing scipy.linalg, which loads numpy.f2py."""
    if (scipy := importlib.util.find_spec("scipy")) is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    finder = FileFinder(os.path.join(scipy.submodule_search_locations[0], "linalg"), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    for name in (f"scipy.linalg.{name}" for name in names):
        if (spec := finder.find_spec(name)) is None:
            raise ImportError(f"no extension module {name} in {finder.path}", name=name)
        spec.loader.exec_module(module := importlib.util.module_from_spec(spec))
        yield module


_flapack, _fblas = _scipy_linalg("_flapack", "_fblas")
dpbtrf, dpbtrs, dtbtrs, dsbmv = _flapack.dpbtrf, _flapack.dpbtrs, _flapack.dtbtrs, _fblas.dsbmv

EPS_FORCE = 1e-6  # N, dead band for taut/slack decisions
MAX_ACTIVE_SET_ITERATIONS = 100
RESIDUAL_RTOL = 1e-8
PIVOT_RTOL = 1e-10  # a pivot at or below this fraction of its diagonal is a zero-energy mode
WINDOW_RTOL = 1e-16  # a null mode's window ends where it falls to this fraction of its largest entry


# ---------------------------------------------------------------------------
# Element table and assembly

# The clamped frame element in local axes, dofs [u_i, v_i, rz_i, u_j, v_j,
# rz_j]: EA/L * _AXIAL + EI/L^3 * D _BENDING D with D = diag(1, 1, L, 1, 1, L).
# The consistent loads of uniform axial and transverse intensities p and q
# (N/m) are p L _AXIAL_UDL + q L D _BENDING_UDL.
_AXIAL = np.zeros((6, 6))
_AXIAL[np.ix_((0, 3), (0, 3))] = ((1.0, -1.0), (-1.0, 1.0))
_BENDING = np.zeros((6, 6))
_BENDING[np.ix_((1, 2, 4, 5), (1, 2, 4, 5))] = (
    (12.0, 6.0, -12.0, 6.0),
    (6.0, 4.0, -6.0, 2.0),
    (-12.0, -6.0, 12.0, -6.0),
    (6.0, 2.0, -6.0, 4.0),
)
_AXIAL_UDL = np.array([0.5, 0.0, 0.0, 0.5, 0.0, 0.0])
_BENDING_UDL = np.array([0.0, 0.5, 1.0 / 12.0, 0.0, 0.5, -1.0 / 12.0])


def _condensed(pin_i: bool, pin_j: bool) -> tuple[np.ndarray, np.ndarray]:
    """The bending coefficients and fixed-end vector of one release case:
    each released end rotation r statically condensed out of the clamped
    element, i end first: k -= k[:, r] k[r, :] / k[r, r], the same Schur
    complement on the loads, and row and column r set to 0."""
    c, g = _BENDING.copy(), _BENDING_UDL.copy()
    for r in [r for r, pinned in ((2, pin_i), (5, pin_j)) if pinned]:
        cr = c[:, r].copy()
        c -= cr[:, None] * cr[None, :] / cr[r]
        g -= cr * (g[r] / cr[r])
        c[r] = c[:, r] = g[r] = 0.0
    return c, g


# The four release cases, case 2 pin_i + pin_j, condensed once.
_CASES = [_condensed(pin_i, pin_j) for pin_i in (False, True) for pin_j in (False, True)]
_CASE_BENDING, _CASE_UDL = np.array([c for c, _ in _CASES]), np.array([g for _, g in _CASES])


def _frame_local(E, A, I, L, p, q, pin_i, pin_j) -> tuple[np.ndarray, np.ndarray]:
    """Local stiffness (n, 6, 6) and fixed-end vectors (n, 6) of n frame
    elements under uniform axial and transverse loads p and q (N/m). Every
    argument is an array of length n; ``pin_i``/``pin_j`` are boolean.

    Each element's coefficients are its release case's (``_condensed``),
    condensed before D scales them, so a member released at both ends
    keeps exactly no bending stiffness.
    """
    case = 2 * pin_i + pin_j
    d = np.ones((len(L), 6))
    d[:, 2] = d[:, 5] = L
    c = _CASE_BENDING[case]
    k = (E * A / L)[:, None, None] * _AXIAL + (E * I / L**3)[:, None, None] * (c * d[:, :, None] * d[:, None, :])
    f = (p * L)[:, None] * _AXIAL_UDL + (q * L)[:, None] * (_CASE_UDL[case] * d)
    return k, f


@dataclass(frozen=True)
class _Elements:
    """What one analysis derives from the model, as arrays built once and
    read by assembly, the taut/slack check and force recovery. Dofs index
    the 3*n candidate vector, node k of ``view`` owning 3k to 3k + 2, and
    ``dofs`` lists the free ones in band order. ``beam_at``/``beam_k`` and
    ``cable_at`` place the element matrices in lower band storage. Beam
    ``fixed_end`` vectors are local, and exactly 0 without a uniform
    load."""

    view: ModelArrays
    dofs: np.ndarray  # candidate dof of each band position
    bandwidth: int  # of K over the free dofs in band order, every cable taut
    beam_dofs: np.ndarray  # (beams, 6)
    k_local: np.ndarray  # (beams, 6, 6)
    T: np.ndarray  # (beams, 6, 6), global -> local
    k_global: np.ndarray  # (beams, 6, 6)
    fixed_end: np.ndarray  # (beams, 6)
    beam_strength: np.ndarray  # (4, beams): area, depth / 2, second moment, allowable stress
    beam_at: np.ndarray  # band positions of the k_global entries inside the band, element order
    beam_k: np.ndarray  # those entries
    cable_ids: np.ndarray
    cable_dofs: np.ndarray  # (cables, 4)
    cable_k: np.ndarray  # (cables, 4, 4), EA/L d d^T with d = [-cx, -cy, cx, cy]
    cable_at: np.ndarray  # (cables, 4, 4), band position of each entry or -1
    cable_strength: np.ndarray  # area * allowable stress
    ea_l: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    pretension: np.ndarray
    pretension_loads: np.ndarray  # (cables, 4): pretension * d, each cable's end loads when taut
    # Every load entry in summing order: the uniform loads' global fixed-end
    # vectors, beam by beam, then the nodal forces, then the self-weight.
    load_dofs: np.ndarray
    load_values: np.ndarray
    load_beam: np.ndarray  # the beam of a fixed-end entry, -1 for a nodal one

    def prefix_loads(self, beams: np.ndarray) -> np.ndarray:
        """All-dof load vectors (len(beams), 3 nodes) of prefixes: prefix s
        sums the entries of its first ``beams[s]`` beams and every nodal
        entry (those at nodes it lacks fall on dofs it does not read)."""
        n = 3 * len(self.view.x)
        row, entry = np.nonzero(self.load_beam < beams[:, None])
        F = _load_sum(n * row + self.load_dofs[entry], self.load_values[entry], len(beams) * n)
        return F.reshape(len(beams), n)

    @cached_property
    def loads(self) -> np.ndarray:
        """The model's all-dof load vector: its full prefix, every entry in order."""
        return _load_sum(self.load_dofs, self.load_values, 3 * len(self.view.x))

    def expand(self, u: np.ndarray) -> np.ndarray:
        """All-dof displacements from free ones in band order."""
        full = np.zeros(3 * len(self.view.x))
        full[self.dofs] = u
        return full

    def dof_names(self, band: np.ndarray) -> str:
        """'node 2 y, node 5 rz' for the band positions ``band``, by node
        id; cut after six."""
        dofs = self.dofs[band]
        entries = sorted(zip(self.view.node_ids[dofs // 3].tolist(), (dofs % 3).tolist()))
        names = [f"node {nid} {_COMPONENTS[comp]}" for nid, comp in entries[:6]]
        if len(band) > 6:
            names.append(f"and {len(band) - 6} more")
        return ", ".join(names)

    def ids(self, mask: np.ndarray) -> frozenset[int]:
        return frozenset(self.cable_ids[mask].tolist())

    def axial(self, full_u: np.ndarray) -> np.ndarray:
        """Axial force each cable would carry at the given displacements."""
        u = full_u[..., self.cable_dofs]
        elongation = (u[..., 2] - u[..., 0]) * self.cx + (u[..., 3] - u[..., 1]) * self.cy
        return self.ea_l * elongation + self.pretension


def _load_sum(at: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """The load entries ``values`` summed in order at ``at`` of a vector of ``size``."""
    return np.bincount(at, values, minlength=size).astype(float, copy=False)  # bincount of nothing is int


_COMPONENTS = ("x", "y", "rz")  # names of a node's three dofs
# Global -> local rotation of a frame element: the two rotation dofs hold
# 1, and the entries row * 6 + column _COSINE_AT hold cx, _SINE_AT cy and
# _MINUS_SINE_AT -cy.
_ROTATION = np.zeros((6, 6))
_ROTATION[(2, 5), (2, 5)] = 1.0
_COSINE_AT, _SINE_AT, _MINUS_SINE_AT = np.array([0, 7, 21, 28]), np.array([1, 22]), np.array([6, 27])
# Each member's dofs, as offsets from the first dof of its end node; a
# cable's are columns _CABLE of them.
_XYZ = np.arange(3)
_MEMBER_DOFS = np.tile(_XYZ, 2)
_CABLE = np.array([0, 1, 3, 4])


def _placement(p: np.ndarray, bandwidth: int | None = None) -> tuple[np.ndarray, int]:
    """Lower band storage position of each entry (r, c) of the element
    blocks whose dofs have the band positions ``p`` (elements, m), -1 for
    a restrained dof or an upper-triangle entry, and the widest r - c of
    the entries placed, the blocks' half-bandwidth. Entry (r, c) with
    r >= c sits at [r - c, c] of the band: position r + bandwidth * c of
    its Fortran-order buffer; the band is as wide as the blocks unless
    ``bandwidth`` is given."""
    r, c = p[:, :, None], p[:, None, :]
    below = r - c
    placed = (c >= 0) & (below >= 0)
    spread = int(np.maximum.reduce(below, axis=None, where=placed, initial=0))
    return np.where(placed, r + (spread if bandwidth is None else bandwidth) * c, -1), spread


def _elements(model: StructureModel) -> _Elements:
    view = model.arrays
    nb, n = len(model.beams), len(view.x)
    # The free dofs in band order: the nodes by x, then y (a stable sort, so
    # ties keep model order), and each node's free dofs in x, y, rz order.
    # Along a bridge an element then joins dofs a few places apart,
    # whatever the node ids.
    by_x = np.lexsort((view.y, view.x))
    dofs = (3 * by_x[:, None] + _XYZ)[view.free[by_x]]
    band = np.empty(3 * n, dtype=int)
    band.fill(-1)
    band[dofs] = np.arange(len(dofs))

    # Every member's properties, gathered by its material and section.
    E, _, sigma = view.materials[:, view.material]
    _, inertia, depth = view.sections[:, view.section]
    A = view.area
    L = np.hypot(view.dx, view.dy)
    cx, cy = view.dx / L, view.dy / L
    ea_l = E * A / L
    udl = view.load_kind == 1
    w = np.bincount(view.load_at[udl], view.load_values[0, udl], minlength=nb).astype(float, copy=False)

    T = np.empty((nb, 6, 6))
    T[:] = _ROTATION
    c, s = cx[:nb], cy[:nb]
    entries = T.reshape(nb, 36).T  # entry row * 6 + column of every beam
    entries[_COSINE_AT], entries[_SINE_AT], entries[_MINUS_SINE_AT] = c, s, -s
    Tt = T.transpose(0, 2, 1)
    # Project the global (0, -w) line load on the member axes.
    k_local, fixed_end = _frame_local(E[:nb], A[:nb], inertia, L[:nb], -w * s, -w * c, view.pins[:, 0],
                                      view.pins[:, 1])
    k_global = Tt @ k_local @ T
    loaded = w != 0.0
    fixed_end[~loaded] = 0.0

    # One dof, band and placement pass over the beams and cables.
    member_dofs = 3 * view.ends.repeat(3, axis=1) + _MEMBER_DOFS
    p = band[member_dofs]
    p[nb:, 2::3] = -1  # a cable has no rotation dofs
    at, bandwidth = _placement(p)
    beam_at, cable_at = at[:nb], at[nb:, _CABLE[:, None], _CABLE]
    kept = beam_at >= 0
    beam_dofs, cable_dofs = member_dofs[:nb], member_dofs[nb:, _CABLE]
    d = np.empty((len(model.cables), 4))  # -cx, -cy, cx, cy
    d[:, 2], d[:, 3] = cx[nb:], cy[nb:]
    np.negative(d[:, 2:], out=d[:, :2])
    pretension = view.cables[1]

    fixed = loaded.nonzero()[0]
    nodal = view.load_kind == 0
    load_at = [beam_dofs[fixed].ravel(), (3 * view.load_at[nodal][:, None] + _XYZ).ravel()]
    load_values = [(Tt[fixed] @ fixed_end[fixed, :, None]).ravel(), view.load_values[:, nodal].T.ravel()]
    for g in view.load_values[0, view.load_kind == 3].tolist():
        check_gravity(g)
        if g == 0.0:
            continue
        # What ``self_weight_loads`` lumps, as an fy entry at every node: an
        # fy of 0 adds an exact zero, as the x and rz entries would.
        load_at.append(3 * np.arange(n) + 1)
        load_values.append(lumped_weight(model, g))
    load_dofs, load_values = np.concatenate(load_at), np.concatenate(load_values)
    load_beam = np.full(len(load_dofs), -1)
    load_beam[: 6 * len(fixed)] = fixed.repeat(6)

    return _Elements(
        view=view, dofs=dofs,
        bandwidth=bandwidth, beam_dofs=beam_dofs, k_local=k_local, T=T, k_global=k_global,
        fixed_end=fixed_end, beam_strength=np.array([A[:nb], depth / 2.0, inertia, sigma[:nb]]),
        beam_at=beam_at[kept], beam_k=k_global[kept],
        cable_ids=view.member_ids[nb:], cable_dofs=cable_dofs,
        cable_k=ea_l[nb:, None, None] * (d[:, :, None] * d[:, None, :]), cable_at=cable_at,
        cable_strength=A[nb:] * sigma[nb:], ea_l=ea_l[nb:], cx=cx[nb:], cy=cy[nb:], pretension=pretension,
        pretension_loads=pretension[:, None] * d,
        load_dofs=load_dofs, load_values=load_values, load_beam=load_beam,
    )


def _band(el: _Elements, active: np.ndarray) -> np.ndarray:
    """Lower band storage (bandwidth + 1, free dofs), in Fortran order, of
    the free-dof K in band order with the cables of the mask ``active``
    taut. The beam blocks, then the taut cables' rank-1 blocks, are summed
    in element order at their ``_placement`` positions, so each entry is
    the one the full-dof K holds."""
    at, k = el.cable_at[active], el.cable_k[active]
    inside = at >= 0
    shape = (el.bandwidth + 1, len(el.dofs))
    return np.bincount(np.concatenate([el.beam_at, at[inside]]), np.concatenate([el.beam_k, k[inside]]),
                       minlength=math.prod(shape)).reshape(shape, order="F")


def _loads(el: _Elements, active: np.ndarray) -> np.ndarray:
    """Full-dof F: uniform loads enter through their release-aware
    fixed-end vectors, and only the taut cables' pretension counts."""
    F = el.loads.copy()
    np.subtract.at(F, el.cable_dofs[active], el.pretension_loads[active])
    return F


# ---------------------------------------------------------------------------
# Linear solve


def _small_pivots(c: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The pivot rule: which pivots of the band factor ``c`` are zero-energy
    modes, those whose square is at or below ``PIVOT_RTOL`` of their dof's
    ``diag``. Written so a NaN pivot is one."""
    return ~(c[0] ** 2 > PIVOT_RTOL * diag)


def _balanced(residual: np.ndarray, F: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The residual rule, for each block of rows from ``starts``: a solve
    stands where ||K u - F|| <= ``RESIDUAL_RTOL`` * max(||F||, 1). Written
    so a NaN fails. Each block's rows are divided by their largest magnitude
    s before squaring, as BLAS dnrm2 does, so no square overflows: with the
    scaled norms r and f, r <= RTOL * f or s * r <= RTOL. ``np.add.reduceat``
    sums them, so a block gets the same verdict alone and among others."""
    scale = np.maximum.reduceat(np.maximum(np.abs(residual), np.abs(F)), starts)
    scale[scale == 0.0] = 1.0  # a block of zeros stands; a NaN stays, and fails
    rows = scale.repeat(np.subtract([*starts[1:].tolist(), len(F)], starts))  # each block's scale on its rows
    with np.errstate(over="ignore", invalid="ignore"):  # an s * r past the largest double, or inf / inf, fails
        r, f = (np.sqrt(np.add.reduceat((v / rows) ** 2, starts)) for v in (residual, F))
        return (r <= RESIDUAL_RTOL * f) | (scale * r <= RESIDUAL_RTOL)


_ONE_BLOCK = np.zeros(1, dtype=int)


def _semidefinite_factor(ab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Banded Cholesky factor of K with its zero-energy pivots decoupled,
    and their positions.

    A pivot ``_small_pivots`` names is a zero-energy mode: K is positive
    semi-definite, so the row of the Schur complement at that pivot is zero
    to rounding.
    Adding the dof's own diagonal to K there (1 where it is 0) makes that
    diagonal the pivot and leaves the rest of the factor as it was: the
    mode is decoupled, as when the pivot is set to 1 and its row and column
    are zeroed (Farhat & Geradin, IJNME 41, 1998), and LAPACK does the work.

    The pivots of K + 1e-12 diag(K) are each at least K's (Schur
    complements of a larger matrix), so every small one is a zero pivot of
    K. A zero pivot the shift lifted above the threshold shows in
    the next factor and is added, one per factorization, until none is
    left. 1e-12 sits between rounding, about (bandwidth + 1) eps of the
    diagonal, and ``PIVOT_RTOL``. dpbtrf's output is read only when it
    succeeds.
    """
    if not np.isfinite(ab).all():
        raise SingularSystem("stiffness matrix has non-finite entries")
    diag = np.where(ab[0] > 0.0, ab[0], 1.0)
    shifted = ab.copy(order="F")
    shifted[0] += 1e-12 * diag
    c, info = dpbtrf(shifted, lower=1, overwrite_ab=1)
    zero = _small_pivots(c, diag) if info == 0 else np.zeros(len(diag), dtype=bool)
    while True:
        decoupled = ab.copy(order="F")
        decoupled[0, zero] += diag[zero]
        c, info = dpbtrf(decoupled, lower=1, overwrite_ab=1)
        if info == 0:
            bad = np.flatnonzero(_small_pivots(c, ab[0]) & ~zero)
            if not len(bad):
                return c, np.flatnonzero(zero)
            j = bad[0]
        else:
            j = info - 1
        if zero[j]:
            raise SingularSystem("stiffness matrix is not positive semi-definite")
        zero[j] = True


@lru_cache
def _window(w: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows 0..w-1 of a window of a band factor of half-width b, and for
    each row i and diagonal d whether entry (i + d, i) lies in the window.
    Cached, so read-only."""
    i = np.arange(w)
    inside = np.add.outer(i, np.arange(b + 1)) < w
    i.flags.writeable = inside.flags.writeable = False
    return i, inside


def _null_basis(c: np.ndarray, dropped: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The null basis N of K from its decoupled factor ``c``, one mode per
    dropped pivot j, scaled to 1 at j: L^T N_j = c[0, j] e_j. Returned in
    coordinate form (rows, mode, values): the nonzero entries of each mode
    from its first above ``WINDOW_RTOL`` of its largest down to j. The
    rows above are rounding; those below, zero.

    L^T is upper triangular and the right-hand side is zero below j, so
    N_j is zero below j, and its rows from lo on depend only on rows lo..
    of L^T: solving on a window of the factor from row lo that holds j is
    exact on the rows it keeps. Each mode is first solved on a window of
    2b + 1 rows (b the half-bandwidth) that ends at j, or starts at row 0
    if j is nearer the top; all windows are solved at once, side by side
    as one band matrix, each without its entries that would reach into the
    next. A mode is done there if its window starts at row 0 or if its top
    b rows, the only ones the rows above depend on, are at or below
    ``WINDOW_RTOL`` of its largest entry: a pillar left free by slack ropes
    is, with 2 entries above the cutoff. The modes that spread further up
    are solved together on the factor from row 0.
    """
    b, n = len(c) - 1, c.shape[1]
    w = min(2 * b + 1, n)
    i, inside = _window(w, b)
    lo = np.maximum(dropped - (w - 1), 0)
    at = lo[:, None] + i
    # Window k, row i, diagonal d; transposed, the band of all windows.
    s = c.T[at]
    s *= inside
    # c[0, j] at j: the window's own diagonal there.
    e = s[:, :, 0] * (at == dropped[:, None])
    x, _ = dtbtrs(s.reshape(-1, b + 1).T, e.ravel(), "L", "T", "N", 1)
    x = x.reshape(at.shape)
    a = np.abs(x)
    big = a > WINDOW_RTOL * np.maximum.reduce(a, axis=1, keepdims=True)
    spread = np.logical_or.reduce(big[:, :b], axis=1) & (lo > 0)
    keep = np.logical_or.accumulate(big, axis=1) & (x != 0.0)
    rows, mode, values = at[keep], keep.nonzero()[0], x[keep]
    k = spread.nonzero()[0]
    if len(k):
        local = ~spread[mode]
        rows, mode, values = rows[local], mode[local], values[local]
        j = dropped[k]
        e = np.zeros((j[-1] + 1, len(j)), order="F")
        e[j, np.arange(len(j))] = c[0][j]
        x, _ = dtbtrs(c[:, : j[-1] + 1], e, "L", "T", "N", 1)
        a = np.abs(x)
        big = a > WINDOW_RTOL * a.max(axis=0)
        row, col = np.nonzero(np.logical_or.accumulate(big) & (x != 0.0))
        rows = np.concatenate((rows, row))
        mode = np.concatenate((mode, k[col]))
        values = np.concatenate((values, x[row, col]))
    return rows, mode, values


def _gram_band(rows: np.ndarray, mode: np.ndarray, values: np.ndarray, m: int) -> np.ndarray:
    """Lower band storage of N^T N for m modes, N in the coordinate form of
    ``_null_basis``. Each pair of entries in one row adds its product at
    diagonal |k - l| of their modes k and l, and each entry its square at
    diagonal 0. With the entries sorted by row, the pairs are those t apart
    with equal rows, for t = 1, 2, ... until there is none; if the rows
    already ascend, no two are equal and N^T N is diagonal."""
    if (rows[1:] > rows[:-1]).all():
        return np.bincount(mode, values * values, minlength=m)[None]
    order = np.argsort(rows)
    r, k, v = rows[order], mode[order], values[order]
    at, terms = [mode], [values * values]
    t = 1
    while len(pair := np.flatnonzero(r[t:] == r[:-t])):
        k1, k2 = k[pair], k[pair + t]
        at.append(np.abs(k1 - k2) * m + np.minimum(k1, k2))
        terms.append(v[pair] * v[pair + t])
        t += 1
    at = np.concatenate(at)
    return np.bincount(at, np.concatenate(terms), minlength=m * (int(at.max()) // m + 1)).reshape(-1, m)


def _solve_blocks(ab: np.ndarray, F: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a block-diagonal K u = F, K in lower band storage ``ab`` and
    block k from row ``starts[k]``, by one banded Cholesky factorization
    (dpbtrf), and say which blocks stand; u is 0 on the others. A single
    model's full-rank solve is one block. ``ab`` and ``F`` are only read.

    A block stands if the pivot rule (``_small_pivots``) accepts its factor
    and the residual rule (``_balanced``) its solution; one step of
    iterative refinement follows. The pivot threshold, 1e-10 of each dof's
    own diagonal, does not move with units or with the mix of rotations
    and translations. Over 1 290 systems (the presets, the ladder rungs,
    erection stages and generated models of every kind, each with every
    cable taut and every cable slack) the smallest pivot kept was 2e-3 of
    its diagonal and the largest zero pivot 6e-16 of its own: the
    threshold has five decades of room on either side.

    No entry couples two blocks, so each block's factor, solution and
    residual are the ones it would get alone: below LAPACK's block size
    (32) dpbtrf runs unblocked, and below a half-bandwidth of 16 the
    padding zeros add nothing (the tests check this bit for bit; from 16
    on the BLAS kernels split the sums otherwise, and a block padded to
    the stack's width can get other bits). A rejected block is replaced
    by the identity and its right-hand side by 0, in copies, and the rest
    solved again. A non-finite entry, or a solution that overflows, reaches
    other blocks through the zeros as NaN (0 * inf: dpbtrs' back
    substitution carries it into every earlier block) and fails a rule
    there too, so those blocks are rejected with it: ``_analyze_prefixes``
    solves each rejected block again alone."""
    ok = np.ones(len(starts), dtype=bool)
    a, b = ab, F
    while True:
        c, info = dpbtrf(a, lower=1)
        if info != 0:
            bad = np.arange(len(ok)) == np.searchsorted(starts, info - 1, side="right") - 1
        elif (small := _small_pivots(c, a[0])).any():
            bad = np.logical_or.reduceat(small, starts)
        else:
            u, _ = dpbtrs(c, b, lower=1)
            residual = b - dsbmv(len(a) - 1, 1.0, a, u, lower=1)
            bad = ok & ~_balanced(residual, b, starts)
            if not bad.any():
                return u + dpbtrs(c, residual, lower=1)[0], ok
        ok[bad] = False
        if not ok.any():
            return np.zeros(len(F)), ok
        out = np.repeat(~ok, np.diff(starts, append=len(F)))
        a = ab.copy(order="F")
        a[:, out] = 0.0
        a[0, out] = 1.0
        b = np.where(out, 0.0, F)


def _solve(ab: np.ndarray, F: np.ndarray, names: Callable[[np.ndarray], str]) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm solution of the positive semi-definite system K u = F,
    K in lower band storage ``ab`` (as ``_band`` builds it), and the
    positions of its zero-energy pivots (n - rank of them).

    A full-rank K is the one-block case of ``_solve_blocks``. If that
    rejects K, ``_semidefinite_factor`` factors it again with its
    zero-energy modes decoupled (raising ``SingularSystem`` for non-finite
    entries or a negative pivot): slack cables can leave a part free to
    swing, e.g. a pinned pillar whose ropes all went slack. Solving on the
    factor gives a particular solution, and projecting off the null basis
    N (``_null_basis``, one mode per dropped pivot) the minimum-norm one,
    with N^T N banded in mode order. That is an equilibrium only if the
    residual rule holds, that is if the loads do no work on the mechanism;
    otherwise ``SingularSystem`` names the dofs they do work on through
    ``names`` (band positions to text), or, with no pivot dropped, says K
    is numerically singular. One step of iterative refinement follows.
    """
    if len(F) == 0:
        return np.zeros(0), np.zeros(0, dtype=int)
    u, ok = _solve_blocks(ab, F, _ONE_BLOCK)
    if ok[0]:
        return u, np.zeros(0, dtype=int)
    c, dropped = _semidefinite_factor(ab)
    if len(dropped):
        rows, mode, values = _null_basis(c, dropped)
        # The Cholesky factor of N^T N (the identity plus a Gram matrix, so
        # well conditioned) projects off the null basis.
        g, _ = dpbtrf(_gram_band(rows, mode, values, len(dropped)), lower=1)

    def null_part(x: np.ndarray) -> np.ndarray:
        """The projection N (N^T N)^-1 N^T x of x on the null space."""
        y, _ = dpbtrs(g, np.bincount(mode, values * x[rows], minlength=len(dropped)), lower=1)
        return np.bincount(rows, values * y[mode], minlength=len(F))

    def solve(b: np.ndarray) -> np.ndarray:
        """Minimum-norm solution for one load vector."""
        x, _ = dpbtrs(c, b, lower=1)
        return x - null_part(x) if len(dropped) else x

    u = solve(F)
    residual = F - dsbmv(len(ab) - 1, 1.0, ab, u, lower=1)
    if not _balanced(residual, F, _ONE_BLOCK)[0]:
        if not len(dropped):
            raise SingularSystem("stiffness system is numerically singular (residual too large)")
        # Name the dofs where the loads do work on the mechanism: where
        # their projection on the null space, the load no stiffness
        # resists, is not rounding. Unlike the dropped pivots, that set
        # does not depend on the order of elimination.
        unbalanced = np.abs(null_part(F))
        moving = np.flatnonzero(unbalanced > RESIDUAL_RTOL * unbalanced.max())
        where = names(moving if len(moving) else dropped)
        raise SingularSystem(f"stiffness matrix is singular: loaded mechanism at {where}")
    # One step of iterative refinement wins back the accuracy a dropped
    # pivot or a badly scaled K costs.
    return u + solve(residual), dropped


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class MemberForces:
    """End forces of one member in local axes; axial tension positive.

    ``shear`` is the end shear with the larger magnitude (signed);
    ``moment_i``/``moment_j`` are the signed end moments. Cables carry
    axial force only.
    """

    kind: str
    axial: float
    shear: float = 0.0
    moment_i: float = 0.0
    moment_j: float = 0.0


@dataclass(frozen=True, eq=False)
class AnalysisResult:
    """Everything recovered from one converged analysis.

    The maxima are computed in the analysis, from arrays. The per-node and
    per-member dicts (``node_displacements``, ``member_forces``,
    ``utilization``) are built from the same arrays on first access and
    kept, so a caller that reads only the maxima and the reactions never
    pays for them."""

    model: StructureModel
    reactions: dict[int, tuple[float, float, float]] = field(repr=False)
    active_cables: frozenset[int]
    iterations_used: int
    mechanisms: int  # zero-energy modes of the converged solve (n - rank of K)
    max_deflection: float  # largest vertical nodal displacement magnitude
    max_utilization: float
    _node_u: np.ndarray = field(repr=False)  # (nodes, 3), model order
    _recovered: _Recovered = field(repr=False)

    @cached_property
    def displacements(self) -> np.ndarray:
        """Per free dof: by ascending node id, then x, y, rz."""
        view = self.model.arrays
        return self._node_u[view.by_id][view.free[view.by_id]]

    @cached_property
    def node_displacements(self) -> dict[int, tuple[float, float, float]]:
        return dict(zip(self.model.arrays.node_ids.tolist(), map(tuple, self._node_u.tolist())))

    @cached_property
    def member_forces(self) -> dict[int, MemberForces]:
        ids = self.model.arrays.member_ids.tolist()
        beams, cables = self._recovered.beam.tolist(), self._recovered.cable.tolist()
        out = {k: MemberForces(kind="beam", axial=n, shear=v, moment_i=mi, moment_j=mj)
               for k, (n, v, mi, mj) in zip(ids, beams)}
        out.update((k, MemberForces(kind="cable", axial=n)) for k, n in zip(ids[len(beams):], cables))
        return out

    @cached_property
    def utilization(self) -> dict[int, float]:
        return dict(zip(self.model.arrays.member_ids.tolist(), self._recovered.utilization.tolist()))

    @property
    def max_utilization_member(self) -> int | None:
        """The most utilized member; among members within 1e-9 of the
        maximum (mirror images, say) the lowest id, so rounding in the
        solve cannot pick between them. A maximum that is not finite (an
        overflow, or a slack cable's 0/0) is the lowest id of the members
        whose utilization is not finite."""
        util = self._recovered.utilization
        if not len(util):
            return None
        top = self.max_utilization
        at = util >= top - 1e-9 * abs(top) if math.isfinite(top) else ~np.isfinite(util)
        return min(self.model.arrays.member_ids[at].tolist())

    @property
    def total_cable_tension(self) -> float:
        return sum(self._recovered.cable.tolist())


class _Recovered(NamedTuple):
    """What ``_recover`` finds, stacked as the displacements are."""

    beam: np.ndarray  # (..., beams, 4): axial, shear, moment_i, moment_j, as ``MemberForces`` reports them
    cable: np.ndarray  # (..., cables): axial forces
    utilization: np.ndarray  # (..., beams + cables); 0 for a beam outside the stiffness
    max_utilization: np.ndarray
    max_deflection: np.ndarray  # the largest vertical nodal displacement magnitude
    residual: np.ndarray  # (..., 3 nodes): end forces less loads; the reactions on restrained dofs


def _recover(el: _Elements, full_u: np.ndarray, F: np.ndarray, present: np.ndarray, active: np.ndarray,
             axial: np.ndarray) -> _Recovered:
    """Forces, utilizations, deflections and support residuals of analyses
    of the model of ``el`` or of its sub-models, from all-dof displacements
    ``full_u`` and loads ``F``: one vector each or rows of them, and the
    rest stacks alike. The beams of the mask ``present`` and the cables of
    ``active`` make the stiffness; ``axial`` is ``_Elements.axial(full_u)``.

    Beam end forces are k_local T u less the uniform loads' fixed-end
    vectors; cables report no compression. Utilization (>= 1 is the
    red-alarm class) repeats the per-member ``utilization`` of
    ``tests/oracles.py`` in its order, so bit for bit. The residual sums
    the global end forces of the beams, then of the cables, on their dofs
    in element order, less the loads."""
    *rows, n = full_u.shape
    ub = full_u[..., el.beam_dofs, None]
    f = (el.k_local @ (el.T @ ub))[..., 0] - el.fixed_end
    shear = np.where(np.abs(f[..., 1]) >= np.abs(f[..., 4]), f[..., 1], -f[..., 4])
    beam = f[..., [3, 1, 2, 5]]
    beam[..., 1] = shear
    cable = np.where(axial > 0.0, axial, 0.0)
    area, half_depth, inertia, sigma = el.beam_strength
    m_max = np.maximum(np.abs(beam[..., 2]), np.abs(beam[..., 3]))
    stress = np.abs(beam[..., 0]) / area + m_max * half_depth / inertia
    util = np.concatenate([np.where(present, stress / sigma, 0.0), cable / el.cable_strength], axis=-1)

    # The global end forces of the beams, then of the cables, summed on
    # their dofs; a member outside the stiffness adds exact zeros.
    forces = np.concatenate([np.where(present[..., None], (el.k_global @ ub)[..., 0], 0.0).reshape(*rows, -1),
                             np.where(active[..., None], (el.cable_k @ full_u[..., el.cable_dofs, None])[..., 0],
                                      0.0).reshape(*rows, -1)], axis=-1)
    ends = np.concatenate([el.beam_dofs.ravel(), el.cable_dofs.ravel()]) + n * np.arange(math.prod(rows))[:, None]
    residual = np.bincount(ends.ravel(), forces.ravel(), minlength=full_u.size).reshape(full_u.shape) - F
    return _Recovered(beam, cable, util, util.max(axis=-1, initial=0.0),
                      np.abs(full_u[..., 1::3]).max(axis=-1, initial=0.0), residual)


def _reactions(view: ModelArrays, residual: np.ndarray) -> dict[int, tuple]:
    """Support forces by ascending node id: ``_recover``'s residual of one
    analysis on the restrained dofs. Unrestrained components report 0."""
    values = residual.reshape(-1, 3)[view.support_at]
    values[~view.restrained[view.support_at]] = 0.0
    xyz = iter(values.ravel().tolist())
    return dict(zip(view.supported, zip(xyz, xyz, xyz)))


# ---------------------------------------------------------------------------
# Tension-only iteration


def tension_only_analyze(model: StructureModel) -> AnalysisResult:
    """Find the taut/slack fixed point and recover the full result.

    Starts with every cable taut; removes cables driven into compression
    (all at once), re-adds slack cables that the current displacements
    would stretch, and repeats until the active set is stable. Cycles are
    detected by active-set history and reported, never broken silently.
    """
    el = _elements(model)
    active = np.ones(len(el.cable_ids), dtype=bool)
    seen = {active.tobytes(): 0}
    history = [active]
    iterations = 0

    while True:
        if iterations >= MAX_ACTIVE_SET_ITERATIONS:
            raise NoConvergence(
                f"active set did not stabilize in {MAX_ACTIVE_SET_ITERATIONS} iterations",
                cycle=[el.ids(a) for a in history],
            )
        iterations += 1
        F = _loads(el, active)
        u, dropped = _solve(_band(el, active), F[el.dofs], el.dof_names)
        full_u = el.expand(u)

        axial = el.axial(full_u)
        next_active = np.where(active, axial >= -EPS_FORCE, axial > EPS_FORCE)
        if np.array_equal(next_active, active):
            break
        key = next_active.tobytes()
        if key in seen:
            cycle = history[seen[key]:] + [next_active]
            raise NoConvergence(
                f"active set cycles with period {len(cycle) - 1}", cycle=[el.ids(a) for a in cycle]
            )
        seen[key] = len(history)
        history.append(next_active)
        active = next_active

    # Cables inside the dead band carry no real tension (e.g. a lone rope
    # on a pinned pillar that cannot react its pull settles at exactly
    # zero force). They stay engaged in the converged stiffness, which
    # they do not alter, but only genuinely taut cables are reported.
    taut = active & (axial > EPS_FORCE)

    done = _recover(el, full_u, F, np.ones(len(el.beam_dofs), dtype=bool), active, axial)
    return AnalysisResult(
        model=model,
        reactions=_reactions(model.arrays, done.residual),
        active_cables=el.ids(taut),
        iterations_used=iterations,
        mechanisms=len(dropped),
        max_deflection=float(done.max_deflection),
        max_utilization=float(done.max_utilization),
        _node_u=full_u.reshape(-1, 3),
        _recovered=done,
    )


def analyze(model: StructureModel) -> AnalysisResult:
    """Validate, then run the full tension-only analysis."""
    report = validate(model)
    if not report.ok:
        raise InvalidModel(report)
    return tension_only_analyze(model)


# ---------------------------------------------------------------------------
# Many cable-free sub-models at once


def _analyze_prefixes(el: _Elements, nodes: np.ndarray, beams: np.ndarray,
                      restrained: np.ndarray) -> tuple[np.ndarray, _Recovered]:
    """Analyze sub-models of the cable-free model of the element table
    ``el`` with one banded factorization: which stand, and what
    ``_recover`` finds for each, one row per sub-model. A block the batch
    rejects is solved again alone by ``_solve``, semi-definite branch
    included, and stays unsolved if that raises ``SingularSystem``.

    Sub-model s is the first ``nodes[s]`` nodes and first ``beams[s]``
    beams, with the nodal loads at those nodes, the uniform loads on those
    beams, and the model's supports plus the dofs ``restrained[s]`` (3 per
    node, model order). Its beams must reach only its nodes and leave each
    the rotational stiffness it has in the model, and the model must carry
    no self-weight, which is lumped over all of its members.

    No element block is placed per sub-model: its band is cut from the
    model's. It keeps the model's band order, less the dofs it lacks or
    restrains, so entry (r, c) of its block is the model's at (g[r], g[c]),
    g its dofs' band positions: the sum, in element order from 0.0, of the
    beams joining the two nodes. Those are all its own unless one it lacks
    joins them, and then both nodes are reached by a beam it lacks (on an
    erection deck, the tip); those entries alone are summed again from its
    own beams, in that order. So its block is the one ``_band`` assembles
    for it, bit for bit, and the stacked band is as wide as the widest beam
    in it. Band, loads and recovery are then its own analysis', and so is
    the solve while the stacked half-bandwidth stays below 16: from 16 on,
    the BLAS kernels sum a block padded to the stack's width otherwise than
    the block alone (``_solve_blocks``), and a row may differ from its
    sub-model's analysis in the last bits. An erection deck's is 5."""
    count, n, bw = len(nodes), 3 * len(el.view.x), el.bandwidth
    # The stacked system's dofs, block after block: band position g[j] of
    # sub-model row[j].
    row, g = np.nonzero((el.dofs < 3 * nodes[:, None]) & ~restrained[:, el.dofs])
    dof, sizes = el.dofs[g], np.bincount(row, minlength=count)
    present = np.arange(len(el.beam_dofs)) < beams[:, None]
    # The last beam at each node: a beam that sub-model s lacks reaches the
    # node if that is beams[s] or later.
    last = np.full(len(el.view.x), -1)
    np.maximum.at(last, el.beam_dofs[:, ::3] // 3, np.arange(len(el.beam_dofs))[:, None])
    touched = last[dof // 3] >= beams[row]
    # Entry (j + d, j) of the stacked band, d = 0..bandwidth, is the model's
    # at diagonal g[j + d] - g[j] of column g[j] (flat, as _band makes
    # it) within a block; key jumps by more than the bandwidth at a block's end.
    key = row * (len(el.dofs) + bw + 1) + g
    at = sliding_window_view(np.append(key, np.full(bw, key.max(initial=0) + bw + 1)), bw + 1) - key[:, None]
    cut = (at <= bw) & ~(sliding_window_view(np.append(touched, np.zeros(bw, dtype=bool)), bw + 1)
                         & touched[:, None])
    at = np.minimum(at, bw, out=at) + (bw + 1) * g[:, None]
    band = _band(el, np.zeros(len(el.cable_ids), dtype=bool)).ravel(order="F")
    stacked = band[at]  # (dofs, bandwidth + 1): the stacked band, transposed
    stacked[~cut] = 0.0
    placed = np.zeros(len(band), dtype=bool)
    placed[el.beam_at] = True
    width = next((d for d in range(bw, 0, -1) if (cut[:, d] & placed[at[:, d]]).any()), 0)
    # The entries between reached dofs, from the sub-model's beams there.
    s, b = np.nonzero(present & (last[el.beam_dofs[:, ::3] // 3].max(axis=1) >= beams[:, None]))
    position = np.full((count, n), -1)
    position[row[touched], dof[touched]] = np.flatnonzero(touched)
    p = position[s[:, None], el.beam_dofs[b]]
    at, spread = _placement(p, bw)
    kept = at >= 0
    np.add.at(stacked.reshape(-1), at[kept], el.k_global[b][kept])
    ab = np.asfortranarray(stacked[:, : max(width, spread) + 1].T)
    del at, cut, stacked, placed, position  # the batch's largest temporaries go before the solve

    loads = el.prefix_loads(beams)
    F, starts = loads[row, dof], np.cumsum(sizes) - sizes
    u, solved = _solve_blocks(ab, F, starts)
    for k in np.flatnonzero(~solved):
        lo, hi = starts[k], starts[k] + sizes[k]
        try:
            u[lo:hi] = _solve(np.asfortranarray(ab[:, lo:hi]), F[lo:hi], str)[0]
        except SingularSystem:
            continue  # a mechanism; the error text is not read
        solved[k] = True
    del ab  # and the band before the recovery
    full_u = np.zeros((count, n))
    full_u[row, dof] = u
    return solved, _recover(el, full_u, loads, present, np.zeros((count, 0), dtype=bool), el.axial(full_u))
