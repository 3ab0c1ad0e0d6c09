"""Direct stiffness analysis with tension-only cables.

Element stiffness, assembly over free dofs, a symmetric linear solve, the
taut/slack active-set iteration, force recovery, reactions and member
utilization. All functions are pure; models are shared read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs, dpstrf

from .errors import InvalidModel, NoConvergence, NonPositiveProperty, SingularSystem
from .model import (
    DofMap,
    NodalForce,
    SelfWeight,
    StructureModel,
    UniformLoad,
    dof_map,
    self_weight_loads,
    validate,
)

EPS_FORCE = 1e-6  # N, dead band for taut/slack decisions
MAX_ACTIVE_SET_ITERATIONS = 100
RESIDUAL_RTOL = 1e-8
SYMMETRY_RTOL = 1e-9


# ---------------------------------------------------------------------------
# Element matrices


def beam_stiffness_local(E: float, A: float, I: float, L: float) -> np.ndarray:
    """6x6 local stiffness of a 2D frame element (no end releases).

    Dof order: [u_i, v_i, rz_i, u_j, v_j, rz_j].
    """
    for name, val in (("E", E), ("A", A), ("I", I), ("L", L)):
        if not (val > 0 and math.isfinite(val)):
            raise NonPositiveProperty(f"{name} must be > 0, got {val}")
    return _beam_local(E, A, I, L, False, False)


def _beam_local(E: float, A: float, I: float, L: float, pin_i: bool, pin_j: bool) -> np.ndarray:
    k = np.zeros((6, 6))
    ax = E * A / L
    k[0, 0] = k[3, 3] = ax
    k[0, 3] = k[3, 0] = -ax

    b = E * I / L**3
    if not pin_i and not pin_j:
        kb = b * np.array(
            [
                [12.0, 6.0 * L, -12.0, 6.0 * L],
                [6.0 * L, 4.0 * L**2, -6.0 * L, 2.0 * L**2],
                [-12.0, -6.0 * L, 12.0, -6.0 * L],
                [6.0 * L, 2.0 * L**2, -6.0 * L, 4.0 * L**2],
            ]
        )
        rows = (1, 2, 4, 5)
    elif pin_i and not pin_j:
        # Hinge at i: theta_i statically condensed out.
        kb = 3.0 * b * np.array(
            [
                [1.0, -1.0, L],
                [-1.0, 1.0, -L],
                [L, -L, L**2],
            ]
        )
        rows = (1, 4, 5)
    elif pin_j and not pin_i:
        kb = 3.0 * b * np.array(
            [
                [1.0, L, -1.0],
                [L, L**2, -L],
                [-1.0, -L, 1.0],
            ]
        )
        rows = (1, 2, 4)
    else:
        # Hinges at both ends: pure axial member.
        return k
    for a_, ra in enumerate(rows):
        for b_, rb in enumerate(rows):
            k[ra, rb] = kb[a_, b_]
    return k


def _transformation(cx: float, cy: float) -> np.ndarray:
    """Global -> local rotation for the 6 frame dofs."""
    T = np.zeros((6, 6))
    T[0, 0] = T[1, 1] = T[3, 3] = T[4, 4] = cx
    T[0, 1] = T[3, 4] = cy
    T[1, 0] = T[4, 3] = -cy
    T[2, 2] = T[5, 5] = 1.0
    return T


def cable_stiffness_global(E: float, A: float, L: float, cx: float, cy: float) -> np.ndarray:
    """4x4 global stiffness of a taut cable over [x_i, y_i, x_j, y_j].

    Rank-1 outer product (EA/L) * d d^T with d = [-cx, -cy, cx, cy].
    """
    for name, val in (("E", E), ("A", A), ("L", L)):
        if not (val > 0 and math.isfinite(val)):
            raise NonPositiveProperty(f"{name} must be > 0, got {val}")
    if abs(math.hypot(cx, cy) - 1.0) > 1e-9:
        raise ValueError(f"direction cosines must be a unit vector, got ({cx}, {cy})")
    d = np.array([-cx, -cy, cx, cy])
    return (E * A / L) * np.outer(d, d)


def fixed_end_forces(w: float, L: float) -> np.ndarray:
    """Equivalent nodal loads of a uniform load w (positive down) on a
    horizontal beam: end shears wL/2 and end moments +/- wL^2/12.

    With these consistent loads, nodal displacements under uniform loads
    are exact for Euler-Bernoulli theory.
    """
    if not (L > 0 and math.isfinite(L)):
        raise ValueError(f"L must be > 0, got {L}")
    return _fixed_end_local(0.0, -w, L, False, False)


def _fixed_end_local(p: float, q: float, L: float, pin_i: bool, pin_j: bool) -> np.ndarray:
    """Equivalent nodal loads in local axes for axial intensity p and
    transverse intensity q (N/m), honouring end releases."""
    f = np.zeros(6)
    f[0] = f[3] = p * L / 2.0
    if not pin_i and not pin_j:
        f[1] = f[4] = q * L / 2.0
        f[2] = q * L**2 / 12.0
        f[5] = -q * L**2 / 12.0
    elif pin_i and not pin_j:
        f[1] = 3.0 * q * L / 8.0
        f[4] = 5.0 * q * L / 8.0
        f[5] = -q * L**2 / 8.0
    elif pin_j and not pin_i:
        f[1] = 5.0 * q * L / 8.0
        f[2] = q * L**2 / 8.0
        f[4] = 3.0 * q * L / 8.0
    else:
        f[1] = f[4] = q * L / 2.0
    return f


# ---------------------------------------------------------------------------
# Element table and assembly


def _geometry(model: StructureModel, element) -> tuple[float, float, float]:
    ni = model.node(element.node_i)
    nj = model.node(element.node_j)
    dx, dy = nj.x - ni.x, nj.y - ni.y
    L = math.hypot(dx, dy)
    return L, dx / L, dy / L


@dataclass(frozen=True)
class _Beam:
    id: int
    dofs: list[int]
    k_global: np.ndarray
    T: np.ndarray
    k_local: np.ndarray
    fixed_end: np.ndarray | None  # local fixed-end vector of its uniform loads


@dataclass(frozen=True)
class _Cable:
    id: int
    dofs: list[int]
    ea_l: float
    cx: float
    cy: float
    pretension: float

    def axial(self, full_u: np.ndarray) -> float:
        """Axial force the cable would carry at the given displacements."""
        ix, iy, jx, jy = self.dofs
        elongation = (full_u[jx] - full_u[ix]) * self.cx + (full_u[jy] - full_u[iy]) * self.cy
        return self.ea_l * elongation + self.pretension


@dataclass(frozen=True)
class _Elements:
    """What one analysis derives from the model, built once and read by
    assembly, the taut/slack check and force recovery. Dofs index the 3*n
    candidate vector; ``free`` picks the free ones in ``dm`` order."""

    dm: DofMap
    pos: dict[int, int]
    free: np.ndarray
    beams: tuple[_Beam, ...]
    cables: tuple[_Cable, ...]
    loads: np.ndarray  # uniform, nodal and self-weight loads, all dofs

    def expand(self, u: np.ndarray) -> np.ndarray:
        full = np.zeros(len(self.loads))
        full[self.free] = u
        return full

    def reduce(self, K: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The free-dof block of a full-dof system (rows, then columns:
        several times faster than one ``np.ix_`` gather)."""
        return K[self.free][:, self.free], F[self.free]


def _elements(model: StructureModel) -> _Elements:
    dm = dof_map(model)
    pos = {n.id: 3 * k for k, n in enumerate(model.nodes)}
    free = np.array([pos[nid] + comp for nid, comp in dm.entries], dtype=int)
    loads = np.zeros(3 * len(model.nodes))
    udl: dict[int, float] = {}  # total uniform-load intensity per beam id
    for load in model.loads:
        if isinstance(load, UniformLoad):
            udl[load.beam] = udl.get(load.beam, 0.0) + load.w

    beams = []
    for beam in model.beams:
        sec, E = model.section(beam.section), model.material(beam.material).elastic_modulus
        L, cx, cy = _geometry(model, beam)
        kl = _beam_local(E, sec.area, sec.second_moment, L, beam.pin_i, beam.pin_j)
        T = _transformation(cx, cy)
        ix, jx = pos[beam.node_i], pos[beam.node_j]
        dofs = [ix, ix + 1, ix + 2, jx, jx + 1, jx + 2]
        w = udl.get(beam.id, 0.0)
        fl = None
        if w != 0.0:
            # Project the global (0, -w) line load on the member axes.
            fl = _fixed_end_local(-w * cy, -w * cx, L, beam.pin_i, beam.pin_j)
            loads[dofs] += T.T @ fl
        beams.append(_Beam(beam.id, dofs, T.T @ kl @ T, T, kl, fl))

    cables = []
    for cable in model.cables:
        L, cx, cy = _geometry(model, cable)
        ix, jx = pos[cable.node_i], pos[cable.node_j]
        ea_l = model.material(cable.material).elastic_modulus * cable.area / L
        cables.append(_Cable(cable.id, [ix, ix + 1, jx, jx + 1], ea_l, cx, cy, cable.pretension))

    records = [l for l in model.loads if isinstance(l, NodalForce)]
    for load in model.loads:
        if isinstance(load, SelfWeight):
            records.extend(self_weight_loads(model, load.g))
    for rec in records:
        loads[pos[rec.node] : pos[rec.node] + 3] += (rec.fx, rec.fy, rec.mz)

    return _Elements(dm, pos, free, tuple(beams), tuple(cables), loads)


def _stiffness(el: _Elements, active_cables: frozenset[int]) -> tuple[np.ndarray, np.ndarray]:
    """Full-dof (K, F): only taut cables add stiffness and pretension, and
    uniform loads enter through their release-aware fixed-end vectors. Beam
    blocks are scattered afresh, so no full-size K outlives an iteration."""
    n = len(el.loads)
    K = np.zeros((n, n))
    F = el.loads.copy()
    for beam in el.beams:
        K[np.ix_(beam.dofs, beam.dofs)] += beam.k_global
    for cable in el.cables:
        if cable.id not in active_cables:
            continue
        d = np.array([-cable.cx, -cable.cy, cable.cx, cable.cy])
        K[np.ix_(cable.dofs, cable.dofs)] += cable.ea_l * np.outer(d, d)
        if cable.pretension:
            F[cable.dofs] -= cable.pretension * d
    return K, F


def _assemble_full(model: StructureModel, active_cables: frozenset[int]) -> tuple[np.ndarray, np.ndarray]:
    """Stiffness and load vector over all 3*n candidate dofs."""
    return _stiffness(_elements(model), active_cables)


def assemble(
    model: StructureModel, active_cables: frozenset[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Reduced (K, F) over the free dofs of ``dof_map(model)``.

    Beams are always assembled; only cables in ``active_cables`` are
    (default: all). Restraints are applied by elimination, not penalties.
    """
    if active_cables is None:
        active_cables = frozenset(c.id for c in model.cables)
    el = _elements(model)
    return el.reduce(*_stiffness(el, frozenset(active_cables)))


# ---------------------------------------------------------------------------
# Linear solve

_COMPONENTS = ("x", "y", "rz")


def _dof_names(dofs: np.ndarray, entries: tuple[tuple[int, int], ...] | None) -> str:
    """'node 2 y, node 5 rz', or 'dof 3' without a dof map; cut after six."""
    names = [
        f"node {entries[k][0]} {_COMPONENTS[entries[k][1]]}" if entries is not None else f"dof {k}"
        for k in sorted(int(k) for k in dofs)[:6]
    ]
    if len(dofs) > 6:
        names.append(f"and {len(dofs) - 6} more")
    return ", ".join(names)


def _solve(
    K: np.ndarray, F: np.ndarray, entries: tuple[tuple[int, int], ...] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm solution of the positive semi-definite system K u = F,
    and the dofs whose pivots the factorization dropped (one per
    zero-energy mode, so n - rank of them).

    K = P L L^T P^T by Cholesky with complete pivoting (LAPACK dpstrf;
    Higham 1990), whose default tolerance n * eps * max(diag K) scales with
    the problem. A full-rank K is solved on its factor. A rank-deficient K
    is one where slack cables leave a part free to swing (e.g. a pinned
    pillar whose ropes all went slack): the particular solution from L11 is
    projected off the null basis N = P [-L11^-T L21^T; I], which gives the
    minimum-norm solution. It is an equilibrium only if the loads do no
    work on the mechanism, so ``SingularSystem`` is raised, naming the
    dropped dofs through ``entries`` (the dof map), unless
    ||K u - F|| <= 1e-8 * max(||F||, 1).
    """
    n = len(F)
    if n == 0:
        return np.zeros(0), np.zeros(0, dtype=int)
    c, piv, rank, _ = dpstrf(K, lower=1)
    piv -= 1
    if rank < n:
        # Keep L11 and make the dropped rows those of the identity, so that
        # solving on c gives [(L11 L11^T)^-1 b1; b2] with no copy of L11.
        L21 = c[rank:, :rank].copy()
        c[rank:, :] = 0.0
        c[range(rank, n), range(rank, n)] = 1.0
        # Null basis N = [-L11^-T L21^T; I] in pivot order, and the Cholesky
        # factor of N^T N (the identity plus a Gram matrix, so well
        # conditioned) to project off it.
        N = -solve_triangular(c, np.vstack([L21.T, np.zeros((n - rank, n - rank))]), lower=True, trans="T",
                              check_finite=False)
        N[rank:] = np.eye(n - rank)
        g, _ = dpotrf(N.T @ N, lower=1)

    def solve(b: np.ndarray) -> np.ndarray:
        """Minimum-norm solution for one load vector, in dof order."""
        x = b[piv]
        x[rank:] = 0.0
        x, _ = dpotrs(c, x, lower=1)
        if rank < n:
            x -= N @ dpotrs(g, N.T @ x, lower=1)[0]
        u = np.empty(n)
        u[piv] = x
        return u

    u = solve(F)
    residual = F - K @ u
    # Written so a NaN residual also fails.
    if not np.linalg.norm(residual) <= RESIDUAL_RTOL * max(np.linalg.norm(F), 1.0):
        if rank == n:
            raise SingularSystem("stiffness system is numerically singular (residual too large)")
        raise SingularSystem(
            f"stiffness matrix is singular: loaded mechanism at {_dof_names(piv[rank:], entries)}"
        )
    # One step of iterative refinement: pivoting scatters the band of K and
    # fills the factor, which costs accuracy that this step wins back.
    return u + solve(residual), piv[rank:]


def solve_linear(K: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Solve the symmetric positive definite system K u = F by pivoted
    Cholesky factorization.

    Raises ``SingularSystem`` when K is rank-deficient (a mechanism, loaded
    or not) or the residual exceeds 1e-8 * max(||F||, 1).
    """
    K = np.asarray(K, dtype=float)
    F = np.asarray(F, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or F.shape != (K.shape[0],):
        raise ValueError(f"shape mismatch: K {K.shape}, F {F.shape}")
    if K.size == 0:
        return np.zeros(0)
    scale = np.abs(K).max()
    if scale > 0 and np.abs(K - K.T).max() > SYMMETRY_RTOL * scale:
        raise ValueError("K is not symmetric")
    u, dropped = _solve(K, F)
    if len(dropped):
        raise SingularSystem(
            f"stiffness matrix is singular: rank {len(F) - len(dropped)} of {len(F)}, "
            f"dropped {_dof_names(dropped, None)}"
        )
    return u


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
    """Everything recovered from one converged analysis."""

    model: StructureModel
    dofs: DofMap
    displacements: np.ndarray = field(repr=False)  # per free dof
    node_displacements: dict[int, tuple[float, float, float]] = field(repr=False)
    member_forces: dict[int, MemberForces] = field(repr=False)
    reactions: dict[int, tuple[float, float, float]] = field(repr=False)
    active_cables: frozenset[int]
    utilization: dict[int, float] = field(repr=False)
    iterations_used: int
    mechanisms: int  # zero-energy modes of the converged solve (n - rank of K)

    @property
    def max_deflection(self) -> float:
        """Largest vertical nodal displacement magnitude."""
        if not self.node_displacements:
            return 0.0
        return max(abs(d[1]) for d in self.node_displacements.values())

    @property
    def max_utilization(self) -> float:
        return max(self.utilization.values(), default=0.0)

    @property
    def max_utilization_member(self) -> int | None:
        """The most utilized member; among members within 1e-9 of the
        maximum (mirror images, say) the lowest id, so rounding in the
        solve cannot pick between them."""
        if not self.utilization:
            return None
        top = self.max_utilization
        return min(eid for eid, u in self.utilization.items() if u >= top - 1e-9 * abs(top))

    @property
    def total_cable_tension(self) -> float:
        return sum(f.axial for f in self.member_forces.values() if f.kind == "cable")


def _member_forces(el: _Elements, full_u: np.ndarray, active_cables: frozenset[int]) -> dict[int, MemberForces]:
    out: dict[int, MemberForces] = {}
    for beam in el.beams:
        f = beam.k_local @ (beam.T @ full_u[beam.dofs])
        if beam.fixed_end is not None:
            f = f - beam.fixed_end
        shear = f[1] if abs(f[1]) >= abs(f[4]) else -f[4]
        out[beam.id] = MemberForces(kind="beam", axial=f[3], shear=shear, moment_i=f[2], moment_j=f[5])
    for cable in el.cables:
        n_axial = cable.axial(full_u)
        out[cable.id] = MemberForces(kind="cable", axial=n_axial if cable.id in active_cables else max(0.0, n_axial))
    return out


def member_end_forces(
    model: StructureModel, u: np.ndarray, active_cables: frozenset[int]
) -> dict[int, MemberForces]:
    """Per-element local end forces recovered from the free-dof solution.

    Beam forces are k_local * T * u minus the fixed-end corrections of any
    uniform loads; inactive cables are clamped to zero force.
    """
    el = _elements(model)
    return _member_forces(el, el.expand(u), active_cables)


def utilization(forces: MemberForces, material, section=None, area: float | None = None) -> float:
    """Demand/capacity ratio of one member; >= 1 is the red-alarm class.

    Beams combine axial and extreme-fibre bending stress at the worse end;
    cables use plain axial stress over the allowable.
    """
    sigma = material.allowable_stress
    if forces.kind == "beam":
        if section is None:
            raise ValueError("beam utilization needs a section")
        m_max = max(abs(forces.moment_i), abs(forces.moment_j))
        stress = abs(forces.axial) / section.area + m_max * (section.depth / 2.0) / section.second_moment
        return stress / sigma
    if area is None:
        raise ValueError("cable utilization needs an area")
    return forces.axial / (area * sigma)


def _utilization_map(model: StructureModel, forces: dict[int, MemberForces]) -> dict[int, float]:
    out: dict[int, float] = {}
    for beam in model.beams:
        out[beam.id] = utilization(forces[beam.id], model.material(beam.material), section=model.section(beam.section))
    for cable in model.cables:
        out[cable.id] = utilization(forces[cable.id], model.material(cable.material), area=cable.area)
    return out


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
    all_ids = frozenset(c.id for c in el.cables)

    active = all_ids
    seen: dict[frozenset[int], int] = {active: 0}
    history = [active]
    iterations = 0

    while True:
        if iterations >= MAX_ACTIVE_SET_ITERATIONS:
            raise NoConvergence(
                f"active set did not stabilize in {MAX_ACTIVE_SET_ITERATIONS} iterations",
                cycle=history,
            )
        iterations += 1
        K_full, F_full = _stiffness(el, active)
        u, dropped = _solve(*el.reduce(K_full, F_full), el.dm.entries)
        full_u = el.expand(u)

        axial = {c.id: c.axial(full_u) for c in el.cables}
        next_active = frozenset(
            cid
            for cid in all_ids
            if (cid in active and axial[cid] >= -EPS_FORCE)
            or (cid not in active and axial[cid] > EPS_FORCE)
        )
        if next_active == active:
            break
        if next_active in seen:
            cycle = history[seen[next_active]:] + [next_active]
            raise NoConvergence(
                f"active set cycles with period {len(cycle) - 1}", cycle=cycle
            )
        seen[next_active] = len(history)
        history.append(next_active)
        active = next_active

    # Cables inside the dead band carry no real tension (e.g. a lone rope
    # on a pinned pillar that cannot react its pull settles at exactly
    # zero force). They stay engaged in the converged stiffness, which
    # they do not alter, but only genuinely taut cables are reported.
    taut = frozenset(cid for cid in active if axial[cid] > EPS_FORCE)

    forces = _member_forces(el, full_u, taut)
    # Support forces from the converged stiffness: the residual K u - F
    # on the restrained dofs. Unrestrained components report 0.
    residual = K_full @ full_u - F_full
    support: dict[int, list[float]] = {}
    for nid, comp in sorted(el.dm.restrained):
        support.setdefault(nid, [0.0, 0.0, 0.0])[comp] = residual[el.pos[nid] + comp]
    node_disp = {n.id: tuple(float(v) for v in full_u[el.pos[n.id] : el.pos[n.id] + 3]) for n in model.nodes}
    return AnalysisResult(
        model=model,
        dofs=el.dm,
        displacements=u,
        node_displacements=node_disp,
        member_forces=forces,
        reactions={nid: tuple(r) for nid, r in support.items()},
        active_cables=taut,
        utilization=_utilization_map(model, forces),
        iterations_used=iterations,
        mechanisms=len(dropped),
    )


def analyze(model: StructureModel) -> AnalysisResult:
    """Validate, then run the full tension-only analysis."""
    report = validate(model)
    if not report.ok:
        raise InvalidModel(report)
    return tension_only_analyze(model)
