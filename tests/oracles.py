"""Closed-form element matrices, written out case by case, a dense
assembly, a dense rank-revealing solve, a dense null basis, the
per-member utilization formula, and erection plans run stage model by
stage model.

They are independent of the solver's element table, which derives every
release pattern by static condensation of the clamped element, of its
banded assembly and factorization, of its windowed null basis, of its
vectorized utilization and of the one banded solve of all of a plan's
stages, and the tests compare the two.
"""

import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs, dpstrf, dtbtrs

from ponte.catalog import DECK_MATERIAL, DECK_SECTION
from ponte.erection import ErectionPlan, PlanReport, Stage, Verdict, _judge, _outcome, _Step
from ponte.errors import NonPositiveProperty, SingularSystem
from ponte.model import MATERIAL_PRESETS, BeamElement, NodalForce, Node, Support, UniformLoad, build_model
from ponte.solver import analyze
from ponte.textio import quantize


def beam_stiffness_local(E: float, A: float, I: float, L: float) -> np.ndarray:
    """6x6 local stiffness of a 2D frame element (no end releases).

    Dof order: [u_i, v_i, rz_i, u_j, v_j, rz_j].
    """
    for name, val in (("E", E), ("A", A), ("I", I), ("L", L)):
        if not (val > 0 and math.isfinite(val)):
            raise NonPositiveProperty(f"{name} must be > 0, got {val}")
    return beam_local(E, A, I, L, False, False)


def beam_local(E: float, A: float, I: float, L: float, pin_i: bool, pin_j: bool) -> np.ndarray:
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


def transformation(cx: float, cy: float) -> np.ndarray:
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
    return fixed_end_local(0.0, -w, L, False, False)


def fixed_end_local(p: float, q: float, L: float, pin_i: bool, pin_j: bool) -> np.ndarray:
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


def dense_minimum_norm_solve(K: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-norm solution of the positive semi-definite K u = F and the
    number of pivots dropped, by dense Cholesky with complete pivoting
    (LAPACK dpstrf, tolerance n eps max diag K; Higham 1990).

    The rank-deficient case projects the particular solution from L11 off
    the null basis N = P [-L11^-T L21^T; I]. Raises ``SingularSystem`` when
    ||K u - F|| > 1e-8 max(||F||, 1), and refines u once.
    """
    n = len(F)
    c, piv, rank, _ = dpstrf(K, lower=1)
    piv -= 1
    if rank < n:
        # Keep L11 and make the dropped rows those of the identity, so that
        # solving on c gives [(L11 L11^T)^-1 b1; b2] with no copy of L11.
        L21 = c[rank:, :rank].copy()
        c[rank:, :] = 0.0
        c[range(rank, n), range(rank, n)] = 1.0
        N = -solve_triangular(c, np.vstack([L21.T, np.zeros((n - rank, n - rank))]), lower=True, trans="T")
        N[rank:] = np.eye(n - rank)
        g, _ = dpotrf(N.T @ N, lower=1)

    def solve(b: np.ndarray) -> np.ndarray:
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
    if not np.linalg.norm(residual) <= 1e-8 * max(np.linalg.norm(F), 1.0):
        raise SingularSystem("residual too large")
    return u + solve(residual), n - rank


def dense_null_basis(c: np.ndarray, dropped: np.ndarray) -> np.ndarray:
    """The (n, modes) null basis of K from its decoupled band factor ``c``
    (lower band storage) and dropped pivots: one back-substitution on the
    whole factor, L^T N = E, with E holding c[0, j] at each dropped j, so
    each column is 1 at its own pivot."""
    E = np.zeros((c.shape[1], len(dropped)), order="F")
    E[dropped, range(len(dropped))] = c[0, dropped]
    N, _ = dtbtrs(c, E, uplo="L", trans="T")
    return N


def dense_system(el, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense (K, F) over all 3 * nodes candidate dofs of the solver's
    element table ``el``, with the cables of the mask ``active`` taut.
    Each beam's 6x6 block, then each taut cable's 4x4 block, is added in
    element order, the order in which the band sums them; F is the table's
    loads less each taut cable's pretension along it."""
    n = len(el.loads)
    taut = el.cable_dofs[active]
    rows = np.concatenate([np.repeat(el.beam_dofs, 6, axis=1).ravel(), np.repeat(taut, 4, axis=1).ravel()])
    cols = np.concatenate([np.tile(el.beam_dofs, 6).ravel(), np.tile(taut, 4).ravel()])
    K = np.zeros((n, n))
    np.add.at(K, (rows, cols), np.concatenate([el.k_global.ravel(), el.cable_k[active].ravel()]))
    F = el.loads.copy()
    for k in np.flatnonzero(active & (el.pretension != 0.0)):
        F[el.cable_dofs[k]] -= el.pretension[k] * np.array([-el.cx[k], -el.cy[k], el.cx[k], el.cy[k]])
    return K, F


def lower_band(K: np.ndarray) -> np.ndarray:
    """Lower band storage of a dense symmetric K, as wide as the outermost
    nonzero of its lower triangle."""
    rows, cols = np.nonzero(np.tril(K))
    width = int((rows - cols).max(initial=0))
    ab = np.zeros((width + 1, len(K)), order="F")
    for p in range(width + 1):
        ab[p, : len(K) - p] = np.diagonal(K, -p)
    return ab


def utilization(forces, material, section=None, area: float | None = None) -> float:
    """Demand/capacity ratio of one member (``MemberForces``): beams combine
    axial and extreme-fibre bending stress at the worse end, cables take
    axial stress over the allowable."""
    sigma = material.allowable_stress
    if forces.kind == "beam":
        m_max = max(abs(forces.moment_i), abs(forces.moment_j))
        return (abs(forces.axial) / section.area + m_max * (section.depth / 2.0) / section.second_moment) / sigma
    return forces.axial / (area * sigma)


def stages_one_by_one(plan: ErectionPlan) -> tuple[Stage, ...]:
    """The stages of ``expand_plan`` with every model built on its own,
    as they were before the stages shared the plan's deck parts."""

    def model(built, planted, landed):
        mod = plan.module_length
        nodes = [Node(1, quantize(plan.counterweight_lever), 0.0), Node(2, 0.0, 0.0)]
        nodes.extend(Node(2 + k, quantize(-k * mod), 0.0) for k in range(1, built + 1))
        beams = [BeamElement(k, k, k + 1, DECK_MATERIAL, DECK_SECTION.name) for k in range(1, built + 2)]
        supports = [Support(2, restrain_x=True, restrain_y=True, restrain_rz=True), Support(1, restrain_y=True)]
        supports.extend(Support(2 + m, restrain_y=True) for m in planted)
        if landed:
            supports.append(Support(2 + built, restrain_y=True))
        loads = [UniformLoad(b.id, plan.deck_weight_per_length) for b in beams]
        loads.append(NodalForce(1, fy=-plan.counterweight))
        return build_model(nodes=nodes, beams=beams, supports=supports, loads=loads,
                           materials=[MATERIAL_PRESETS[DECK_MATERIAL]], sections=[DECK_SECTION])

    stages = [Stage(0, model(0, (), False), 0.0)]
    planted, built = (), 0
    while built < plan.module_count:
        built += 1
        stages.append(Stage(len(stages), model(built, planted, False),
                            (built - max(planted, default=0)) * plan.module_length, planted))
        if built < plan.module_count and built % plan.pillar_interval == 0:
            planted += (built,)
            stages.append(Stage(len(stages), model(built, planted, False), 0.0, planted))
    if plan.module_count > 0:
        stages.append(Stage(len(stages), model(built, planted, True), 0.0, planted, landed=True))
    return tuple(stages)


def run_plan_one_by_one(plan: ErectionPlan) -> PlanReport:
    """``run_plan`` as a loop over stage models: each model of
    ``stages_one_by_one`` validated and analyzed on its own by ``analyze``
    (a ``SingularSystem`` judged as a mechanism), its deck length summed
    from ``element_length``, and the stage judged at the plan's
    counterweight and at the closed-form W_min."""
    stages = stages_one_by_one(plan)
    w = plan.deck_weight_per_length
    worst = max((w * s.cantilever_length * s.cantilever_length / 2.0 for s in stages if s.pure_cantilever),
                default=0.0)
    w_min = plan.safety_factor * worst / plan.counterweight_lever
    reports, verified = [], True
    for stage in stages:
        try:
            outcome = _outcome(analyze(stage.model))
        except SingularSystem:
            outcome = None
        model = stage.model
        step = _Step(stage.index, len(model.beams) - 1, stage.planted_modules, stage.landed,
                     stage.cantilever_length, sum(model.element_length(b) for b in model.beams))
        reports.append(_judge(step, plan, outcome, plan.counterweight))
        if w_min > 0:
            verified &= _judge(step, plan, outcome, w_min).verdict is Verdict.STABLE
    return PlanReport(tuple(reports), all(r.verdict is Verdict.STABLE for r in reports), w_min, verified)
