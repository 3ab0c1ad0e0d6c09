"""Direct stiffness analysis with tension-only cables.

The element table, banded assembly over the free dofs and a banded
semi-definite solve, the taut/slack active-set iteration, and force,
reaction and utilization recovery. Cable-free sub-models of one model (an
erection plan's stages) are analyzed as one stack: one block-diagonal
band (``_solve_blocks``), one load sum (``_Elements.prefix_loads``) and
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

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs

from .errors import InvalidModel, NoConvergence, SingularSystem
from .model import (
    DofMap,
    ModelArrays,
    NodalForce,
    SelfWeight,
    StructureModel,
    UniformLoad,
    check_gravity,
    dof_map,
    lumped_weight,
    validate,
)

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


def _frame_local(E, A, I, L, p, q, pin_i, pin_j) -> tuple[np.ndarray, np.ndarray]:
    """Local stiffness (n, 6, 6) and fixed-end vectors (n, 6) of n frame
    elements under uniform axial and transverse loads p and q (N/m). Every
    argument is an array of length n; ``pin_i``/``pin_j`` are boolean.

    A released end rotation r is statically condensed out of the clamped
    element, i end first: k -= k[:, r] k[r, :] / k[r, r], the same Schur
    complement on the loads, and row and column r set to 0. This is done on
    the dimensionless coefficients, before D scales them, so a member
    released at both ends keeps exactly no bending stiffness. An end that
    no member releases is not condensed at all, and without any release
    every member shares the clamped coefficients.
    """
    n = len(L)
    released = [(r, pinned) for r, pinned in ((2, pin_i), (5, pin_j)) if pinned.any()]
    c, g = _BENDING, _BENDING_UDL
    if released:
        c, g = np.repeat(c[None], n, axis=0), np.repeat(g[None], n, axis=0)
    for r, pinned in released:
        cr = c[pinned, :, r]
        c[pinned] -= cr[:, :, None] * cr[:, None, :] / cr[:, r, None, None]
        g[pinned] -= cr * (g[pinned, r] / cr[:, r])[:, None]
        c[pinned, r] = c[pinned, :, r] = g[pinned, r] = 0.0
    d = np.ones((n, 6))
    d[:, 2] = d[:, 5] = L
    k = (E * A / L)[:, None, None] * _AXIAL + (E * I / L**3)[:, None, None] * (c * d[:, :, None] * d[:, None, :])
    f = (p * L)[:, None] * _AXIAL_UDL + (q * L)[:, None] * (g * d)
    return k, f


@dataclass(frozen=True)
class _Elements:
    """What one analysis derives from the model, as arrays built once and
    read by assembly, the taut/slack check and force recovery. Dofs index
    the 3*n candidate vector, node ``index[id]`` owning 3*index[id] to
    3*index[id] + 2; ``free`` lists the free ones in ``dm`` order and
    ``dofs`` in band order, ``free[order]``. ``beam_at``/``beam_k`` and
    ``cable_at`` place the element matrices in lower band storage.
    Beam ``fixed_end`` vectors are local, and exactly 0 without a uniform
    load."""

    dm: DofMap
    index: dict[int, int]  # node id -> position in model.nodes
    free: np.ndarray
    order: np.ndarray  # dm index of each band position
    dofs: np.ndarray  # candidate dof of each band position
    bandwidth: int  # of K over the free dofs in band order, every cable taut
    beam_dofs: np.ndarray  # (beams, 6)
    k_local: np.ndarray  # (beams, 6, 6)
    T: np.ndarray  # (beams, 6, 6), global -> local
    k_global: np.ndarray  # (beams, 6, 6)
    fixed_end: np.ndarray  # (beams, 6)
    beam_strength: np.ndarray  # (beams, 4): area, depth / 2, second moment, allowable stress
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
        n = 3 * len(self.index)
        row, entry = np.nonzero(self.load_beam < beams[:, None])
        F = np.bincount(n * row + self.load_dofs[entry], self.load_values[entry], minlength=len(beams) * n)
        return F.astype(float, copy=False).reshape(len(beams), n)  # bincount of nothing is int

    @cached_property
    def loads(self) -> np.ndarray:
        """The model's all-dof load vector: its own full prefix."""
        return self.prefix_loads(np.array([len(self.beam_dofs)]))[0]

    def expand(self, u: np.ndarray) -> np.ndarray:
        """All-dof displacements from free ones in band order."""
        full = np.zeros(3 * len(self.index))
        full[self.dofs] = u
        return full

    def dof_names(self, band: np.ndarray) -> str:
        """'node 2 y, node 5 rz' for the band positions ``band``; cut after six."""
        entries = [self.dm.entries[k] for k in sorted(self.order[band].tolist())[:6]]
        names = [f"node {nid} {_COMPONENTS[comp]}" for nid, comp in entries]
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


_COMPONENTS = ("x", "y", "rz")  # names of a node's three dofs
# Global -> local rotation of a frame element: the (row, column) entries
# holding cx, cx, cx, cx, cy, cy, -cy, -cy; the two rotation dofs hold 1.
_ROTATION_AT = ((0, 1, 3, 4, 0, 3, 1, 4), (0, 1, 3, 4, 1, 4, 0, 3))
# Each element's dofs, as offsets from the first dof of its end node.
_BEAM_DOFS = np.array([0, 1, 2, 0, 1, 2])
_CABLE_DOFS = np.array([0, 1, 0, 1])


def _placement(p: np.ndarray, bandwidth: int) -> np.ndarray:
    """Lower band storage position of each entry (r, c) of the element
    blocks whose dofs have the band positions ``p`` (elements, m), -1 for
    a restrained dof or an upper-triangle entry. Entry (r, c) with r >= c
    sits at [r - c, c] of the band: position r + bandwidth * c of its
    Fortran-order buffer."""
    r, c = p[:, :, None], p[:, None, :]
    return np.where((c >= 0) & (r >= c), r + bandwidth * c, -1)


def _spread(p: np.ndarray) -> int:
    """The widest spread of free band positions (>= 0) within one row of ``p``."""
    p = np.where(p >= 0, p, p.max(axis=1, keepdims=True))
    return int((p.max(axis=1) - p.min(axis=1)).max(initial=0))


def _elements(model: StructureModel) -> _Elements:
    dm = dof_map(model)
    view = model.arrays
    nodes, beams, cables = model.nodes, model.beams, model.cables
    index, x, y = view.index, view.x, view.y
    free = np.array([3 * index[nid] + comp for nid, comp in dm.entries], dtype=int)

    udl: dict[int, float] = {}  # total uniform-load intensity per beam id
    for load in model.loads:
        if isinstance(load, UniformLoad):
            udl[load.beam] = udl.get(load.beam, 0.0) + load.w
    # Columns gathered per beam; material and section looked up once per pair.
    kinds: dict[tuple[str, str], int] = {}
    kind, w, pin_i, pin_j = np.array(
        [[kinds.setdefault((b.material, b.section), len(kinds)) for b in beams],
         [udl.get(b.id, 0.0) for b in beams], [b.pin_i for b in beams], [b.pin_j for b in beams]],
        dtype=float,
    ).reshape(4, -1)
    props = np.array(
        [(model.material(m).elastic_modulus, model.section(s).area, model.section(s).depth / 2.0,
          model.section(s).second_moment, model.material(m).allowable_stress,
          model.material(m).density * model.section(s).area) for m, s in kinds]
    ).reshape(-1, 6)[kind.astype(int)]
    E, A, I = props[:, 0], props[:, 1], props[:, 3]
    i, j = view.ends[: len(beams)].T
    dx, dy = view.dx[: len(beams)], view.dy[: len(beams)]
    L = np.hypot(dx, dy)
    cx, cy = dx / L, dy / L
    T = np.zeros((len(beams), 6, 6))
    T.transpose(1, 2, 0)[_ROTATION_AT] = (cx, cx, cx, cx, cy, cy, -cy, -cy)
    T[:, 2, 2] = T[:, 5, 5] = 1.0
    Tt = T.transpose(0, 2, 1)
    # Project the global (0, -w) line load on the member axes.
    k_local, fixed_end = _frame_local(E, A, I, L, -w * cy, -w * cx, pin_i != 0.0, pin_j != 0.0)
    k_global = Tt @ k_local @ T
    loaded = w != 0.0
    fixed_end[~loaded] = 0.0
    beam_dofs = 3 * np.stack([i, j], axis=1).repeat(3, axis=1) + _BEAM_DOFS
    member_weight = props[:, 5]  # rho A of every member, the beams, then the cables

    # Band order: the nodes by x, then y (a stable sort, so ties keep model
    # order), and each node's free dofs in x, y, rz order. Along a bridge an
    # element then joins dofs a few places apart, whatever the node ids.
    rank = np.empty(len(nodes), dtype=int)
    rank[np.lexsort((y, x))] = np.arange(len(nodes))
    order = np.argsort(3 * rank[free // 3] + free % 3, kind="stable")
    band = np.full(3 * len(nodes), -1)
    band[free[order]] = np.arange(len(free))
    beam_band = band[beam_dofs]
    bandwidth = _spread(beam_band)  # of every element, each cable taut

    if cables:
        ea, pretension, cable_strength, cable_weight = np.array(
            [[model.material(c.material).elastic_modulus * c.area for c in cables],
             [c.pretension for c in cables],
             [c.area * model.material(c.material).allowable_stress for c in cables],
             [model.material(c.material).density * c.area for c in cables]]
        )
        i, j = view.ends[len(beams):].T
        dx, dy = view.dx[len(beams):], view.dy[len(beams):]
        cable_L = np.hypot(dx, dy)
        ccx, ccy = dx / cable_L, dy / cable_L
        cable_dofs = 3 * np.stack([i, j], axis=1).repeat(2, axis=1) + _CABLE_DOFS
        d = np.stack([-ccx, -ccy, ccx, ccy], axis=1)
        ea_l = ea / cable_L
        cable_k = ea_l[:, None, None] * (d[:, :, None] * d[:, None, :])
        pretension_loads = pretension[:, None] * d
        cable_band = band[cable_dofs]
        bandwidth = max(bandwidth, _spread(cable_band))
        cable_at = _placement(cable_band, bandwidth)
        member_weight = np.concatenate([member_weight, cable_weight])
    else:
        ea_l = ccx = ccy = pretension = cable_strength = np.zeros(0)
        cable_dofs = np.zeros((0, 4), dtype=int)
        pretension_loads = np.zeros((0, 4))
        cable_k = np.zeros((0, 4, 4))
        cable_at = np.zeros((0, 4, 4), dtype=int)
    beam_at = _placement(beam_band, bandwidth)
    kept = beam_at >= 0

    fixed = np.flatnonzero(loaded)
    nodal = [l for l in model.loads if isinstance(l, NodalForce)]
    load_at = [beam_dofs[fixed].ravel(), (3 * np.array([index[l.node] for l in nodal], dtype=int)[:, None]
                                          + _BEAM_DOFS[:3]).ravel()]
    load_values = [(Tt[fixed] @ fixed_end[fixed, :, None]).ravel(),
                   np.array([(l.fx, l.fy, l.mz) for l in nodal], dtype=float).ravel()]
    for g in (l.g for l in model.loads if isinstance(l, SelfWeight)):
        check_gravity(g)
        if g == 0.0:
            continue
        fy = lumped_weight(model, member_weight, g)  # what ``self_weight_loads`` lumps
        lumped = np.flatnonzero(fy != 0.0)
        load_at.append(3 * lumped + 1)  # only fy: the x and rz entries would add zeros
        load_values.append(fy[lumped])
    load_dofs = np.concatenate(load_at)
    load_beam = np.full(len(load_dofs), -1)
    load_beam[: 6 * len(fixed)] = fixed.repeat(6)

    return _Elements(
        dm=dm, index=index, free=free, order=order, dofs=free[order], bandwidth=bandwidth,
        beam_dofs=beam_dofs, k_local=k_local, T=T, k_global=k_global,
        fixed_end=fixed_end, beam_strength=props[:, 1:5],
        beam_at=beam_at[kept], beam_k=k_global[kept],
        cable_ids=np.array([c.id for c in cables], dtype=int), cable_dofs=cable_dofs, cable_k=cable_k,
        cable_at=cable_at, cable_strength=cable_strength, ea_l=ea_l, cx=ccx, cy=ccy, pretension=pretension,
        pretension_loads=pretension_loads,
        load_dofs=load_dofs, load_values=np.concatenate(load_values), load_beam=load_beam,
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
    so a NaN residual fails. The norms sum squares by ``np.add.reduceat``,
    so a block gets the same verdict alone and among others."""
    def norm(v: np.ndarray) -> np.ndarray:
        return np.sqrt(np.add.reduceat(v * v, starts))

    return norm(residual) <= RESIDUAL_RTOL * np.maximum(norm(F), 1.0)


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
    solved again. A non-finite entry reaches other blocks through the
    zeros as NaN, which fails a rule there too, so at the first rejection
    among several blocks the ones holding one, if any, are taken out
    instead."""
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
        if len(ok) > 1 and ok.all():
            # The first rejection, which a NaN from a block with a
            # non-finite entry may have caused: those blocks go out first.
            finite = np.logical_and.reduceat(np.isfinite(ab).all(axis=0) & np.isfinite(F), starts)
            bad = bad if finite.all() else ~finite
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
    dofs: DofMap
    displacements: np.ndarray = field(repr=False)  # per free dof
    reactions: dict[int, tuple[float, float, float]] = field(repr=False)
    active_cables: frozenset[int]
    iterations_used: int
    mechanisms: int  # zero-energy modes of the converged solve (n - rank of K)
    max_deflection: float  # largest vertical nodal displacement magnitude
    max_utilization: float
    _node_u: np.ndarray = field(repr=False)  # (nodes, 3), model order
    _recovered: _Recovered = field(repr=False)

    @cached_property
    def node_displacements(self) -> dict[int, tuple[float, float, float]]:
        return dict(zip(self.model.arrays.node_ids.tolist(), map(tuple, self._node_u.tolist())))

    @cached_property
    def member_forces(self) -> dict[int, MemberForces]:
        out = {
            b.id: MemberForces(kind="beam", axial=n, shear=v, moment_i=mi, moment_j=mj)
            for b, (n, v, mi, mj) in zip(self.model.beams, self._recovered.beam.tolist())
        }
        cables = zip(self.model.cables, self._recovered.cable.tolist())
        out.update((c.id, MemberForces(kind="cable", axial=n)) for c, n in cables)
        return out

    @cached_property
    def utilization(self) -> dict[int, float]:
        return dict(zip(self.model.arrays.member_ids.tolist(), self._recovered.utilization.tolist()))

    @property
    def max_utilization_member(self) -> int | None:
        """The most utilized member; among members within 1e-9 of the
        maximum (mirror images, say) the lowest id, so rounding in the
        solve cannot pick between them."""
        util = self._recovered.utilization
        if not len(util):
            return None
        top = self.max_utilization
        return min(self.model.arrays.member_ids[util >= top - 1e-9 * abs(top)].tolist())

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
    area, half_depth, inertia, sigma = el.beam_strength.T
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
    values[view.support_free] = 0.0
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
        dofs=el.dm,
        displacements=full_u[el.free],
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
    ``_recover`` finds for each, one row per sub-model. One the solve
    rejects must be analyzed on its own.

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
    for it, bit for bit, the stacked band is as wide as the widest beam in
    it, and band, loads, solve and recovery are its own analysis'."""
    count, n, bw = len(nodes), 3 * len(el.index), el.bandwidth
    # The stacked system's dofs, block after block: band position g[j] of
    # sub-model row[j].
    row, g = np.nonzero((el.dofs < 3 * nodes[:, None]) & ~restrained[:, el.dofs])
    dof, sizes = el.dofs[g], np.bincount(row, minlength=count)
    present = np.arange(len(el.beam_dofs)) < beams[:, None]
    # The last beam at each node: a beam that sub-model s lacks reaches the
    # node if that is beams[s] or later.
    last = np.full(len(el.index), -1)
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
    at = _placement(p, bw)
    kept = at >= 0
    np.add.at(stacked.reshape(-1), at[kept], el.k_global[b][kept])
    ab = np.asfortranarray(stacked[:, : max(width, _spread(p)) + 1].T)
    del at, cut, stacked, placed, position  # the batch's largest temporaries go before the solve

    loads = el.prefix_loads(beams)
    u, solved = _solve_blocks(ab, loads[row, dof], np.cumsum(sizes) - sizes)
    del ab  # and the band before the recovery
    full_u = np.zeros((count, n))
    full_u[row, dof] = u
    return solved, _recover(el, full_u, loads, present, np.zeros((count, 0), dtype=bool), el.axial(full_u))
