"""Representation varieties of commuting pairs and the projection from
rank-3 to rank-2 representations.

A rank-2 representation is a commuting pair (A, B) of group elements; the
defining equations of the commuting-pair variety are evaluated by
variety_residual and their Zariski tangent space by tangent_dimension.

A StructureSpec is a commuting triple (A, B, C) with C near the identity;
psi_nonresonant / psi_resonant project it to the commuting pair carried by
the quotient threefold, anchored at principal branches so the projection
is continuous near the canonical triple (A, B, Id).  The non-resonant
projection is a closed form in logarithms; only the resonant scaling
equation x * exp(c * Log x) = target is solved by Newton iteration.
"""

import cmath
import warnings
from dataclasses import dataclass

import numpy as np

from .holonomy import TWO_PI_I, _pair_from_pairings, pairings
from .resonant_group import (
    COMMUTE_TOL,
    GroupElement,
    NoConvergence,
    _commutators,
    _overflow,
    compose,
    element_from_params,
    group_exp,
    group_log,
    inverse,
)

SV_THRESHOLD = 1e-8
# step of the finite-difference commutator Jacobian
FD_STEP = 1e-6
MIN_GAP = 10.0
TOL_CASE = 1e-12
REJECTION_RADIUS = 1.0


@dataclass(frozen=True)
class VarietyResidual:
    equations: tuple  # of (name, complex residual)

    @property
    def max_abs(self):
        return max((abs(v) for _, v in self.equations), default=0.0)


@dataclass(frozen=True)
class StructureSpec:
    """Commuting triple (A, B, C); C is the extra holonomy of pi_1(V).

    base_config is required for the non-resonant projection (it supplies
    the anchor tail and the difference matrix); resonant regimes are
    configuration-free.
    """
    generators: tuple
    base_config: object = None

    def __post_init__(self):
        gens = tuple(self.generators)
        if len(gens) != 3:
            raise ValueError("a structure spec has three generators")
        regime = gens[0].regime
        if any(g.regime != regime for g in gens):
            raise ValueError("all generators must share one regime")
        scale = 1 + max(np.max(np.abs(g.params())) for g in gens)
        pairs = ((0, 1), (0, 2), (1, 2))
        d = _commutators([(gens[i], gens[j]) for i, j in pairs])
        # f g = g f in exact arithmetic but for the Single shear, Double block
        for (i, j), row in zip(pairs, d[:, 1 if regime.tag == "Double" else 3:]):
            if np.max(np.abs(row), initial=0) > COMMUTE_TOL * scale:
                raise ValueError(
                    "generators %d and %d do not commute" % (i + 1, j + 1))
        object.__setattr__(self, "generators", gens)

    @property
    def regime(self):
        return self.generators[0].regime


def variety_residual(pair, cls):
    """Residuals of the displayed defining equations at a candidate pair."""
    f, g = pair
    if f.regime != cls or g.regime != cls:
        raise ValueError("pair regime does not match the declared class")
    if cls.tag == "NonResonant":
        return VarietyResidual(())
    if cls.tag == "Single":
        return VarietyResidual((("shear-commutation", _single_equation(
            *f.data, *g.data, cls.p, cls.q)),))
    return VarietyResidual(_double_equations(*f.data, *g.data, cls.p))


def _single_equation(a1, a2, a3, eps, b1, b2, b3, delta, p, q):
    """The residual of the shear equation of `variety_residual` for the
    Single data (a1, a2, a3, eps) against (b1, b2, b3, delta); the T
    chart's shear clause is its case p, q = 0, 1."""
    return eps * (b3 - b1 ** p * b2 ** q) - delta * (a3 - a1 ** p * a2 ** q)


def _double_equations(a1, amat, b1, bmat, p):
    """The (name, residual) equations of `variety_residual` for the Double
    data (a1, [[a2, e2], [e1, a3]]) against (b1, [[b2, d2], [d1, b3]]),
    refused where a power a1^+-p or b1^+-p leaves the float range."""
    a2, e2, e1, a3 = amat[0, 0], amat[0, 1], amat[1, 0], amat[1, 1]
    b2, d2, d1, b3 = bmat[0, 0], bmat[0, 1], bmat[1, 0], bmat[1, 1]
    try:
        ap, am, bp, bm = powers = a1 ** p, a1 ** -p, b1 ** p, b1 ** -p
    except (OverflowError, ZeroDivisionError):
        powers = (0,)
    if not all(w != 0 and cmath.isfinite(w) for w in powers):
        _overflow()
    return (
        ("off-diagonal-balance", e1 * d2 * bp - d1 * e2 * ap),
        ("lower-shear", e1 * (b3 - bp * b2) - d1 * (a3 - ap * a2)),
        ("upper-shear", e2 * (b2 - bm * b3) - d2 * (a2 - am * a3)),
    )


def _jacobian_rank(pair, cls):
    """(rank, gap) of the finite-difference Jacobian of the commutator map
    with respect to all group parameters of both elements (the map is
    holomorphic, so real increments determine the complex derivative).

    The rank counts singular values above sigma_max * SV_THRESHOLD, and is
    0 when the Jacobian vanishes; the gap is the ratio between the
    smallest kept and largest dropped singular value (inf when the
    Jacobian vanishes or has full rank).
    """
    f, g = pair
    n = len(f.params())
    scale = 1 + max(np.max(np.abs(f.params())), np.max(np.abs(g.params())))
    pairs = [pair]
    for which in range(2):
        for k in range(n):
            pf, pg = f.params().copy(), g.params().copy()
            (pf if which == 0 else pg)[k] += FD_STEP
            pairs.append((element_from_params(cls, pf),
                          element_from_params(cls, pg)))
    d = _commutators(pairs)
    sv = np.linalg.svd(((d[1:] - d[0]) / FD_STEP).T, compute_uv=False)
    if sv[0] <= 1e-9 * scale:
        return 0, np.inf  # the whole parameter space is tangent
    rel = sv / sv[0]
    rank = int(np.sum(rel > SV_THRESHOLD))
    if rank == 0 or rank == len(sv) or rel[rank] == 0:
        return rank, np.inf
    return rank, float(rel[rank - 1] / rel[rank])


def tangent_dimension(pair, cls):
    """Complex dimension of the Zariski tangent space to the commuting-
    pair variety at the given pair: 2 * (group dimension) minus the rank
    of the commutator Jacobian (see ``_jacobian_rank``).
    """
    rank, gap = _jacobian_rank(pair, cls)
    if gap < MIN_GAP:
        warnings.warn("RankAmbiguous: singular-value gap %.2f below %.0f"
                      % (gap, MIN_GAP))
    return 2 * len(pair[0].params()) - rank


def tangent_gap(pair, cls):
    """Ratio between the smallest kept and largest dropped singular value
    (inf when the Jacobian vanishes or has full rank)."""
    return _jacobian_rank(pair, cls)[1]


def _principal_c(gamma):
    return np.log(complex(gamma)) / TWO_PI_I


def psi_nonresonant(spec):
    """Project a non-resonant commuting triple to a commuting pair and the
    deformed configuration tail.

    Returns ((A_rho, B_rho), (Lambda4, Lambda5, Lambda6), (s1, s2)) where
    (s1, s2) are the translation lengths of the first two deck generators
    on the covering coordinate w1.
    """
    if spec.regime.tag != "NonResonant":
        raise ValueError("psi_nonresonant needs the NonResonant regime")
    if spec.base_config is None:
        raise ValueError("a base configuration anchor is required")
    a, b, cgen = spec.generators
    alpha = np.asarray(a.data, dtype=complex)
    beta = np.asarray(b.data, dtype=complex)
    c = np.array([_principal_c(g) for g in cgen.data])

    omega, u0, v0 = pairings(spec.base_config)
    base = _pair_from_pairings(u0, v0)
    alpha0 = np.asarray(base.alpha)
    beta0 = np.asarray(base.beta)

    # closed form with branches anchored at the base configuration; a
    # multiplier that leaves the float range is refused below, not warned of
    with np.errstate(all="ignore"):
        du = np.log(alpha / alpha0) / TWO_PI_I
        dv = np.log(beta / beta0) / TWO_PI_I
        u = np.empty(3, dtype=complex)
        v = np.empty(3, dtype=complex)
        u[0] = (u0[0] + du[0]) / (1 + c[0])
        v[0] = (v0[0] + dv[0]) / (1 + c[0])
        u[1] = u0[1] + du[1] - u[0] * c[1]
        u[2] = u0[2] + du[2] - u[0] * c[2]
        v[1] = v0[1] + dv[1] - v[0] * c[1]
        v[2] = v0[2] + dv[2] - v[0] * c[2]
        a_mult, b_mult = np.exp(TWO_PI_I * u), np.exp(TWO_PI_I * v)
        if np.max(np.abs(np.concatenate([u - u0, v - v0]))) > REJECTION_RADIUS:
            raise NoConvergence("initial guess outside the branch-anchor "
                                "neighborhood")
    values = np.concatenate([u, v, a_mult, b_mult])
    if not (np.all(np.isfinite(values)) and np.all(values[6:] != 0)):
        raise NoConvergence("projected multipliers are not finite and "
                            "nonzero")
    a_rho = GroupElement(spec.regime, tuple(a_mult))
    b_rho = GroupElement(spec.regime, tuple(b_mult))
    lam1 = np.asarray(spec.base_config.vectors[0], dtype=complex)
    tail = tuple(tuple(lam1 + omega.T @ np.array([u[j], v[j]]))
                 for j in range(3))
    return (a_rho, b_rho), tail, (u[0], v[0])


def _solve_scaling(target, c):
    """Solve x * exp(c * Log x) = target by damped Newton from x = target,
    on 1-element arrays."""
    def residual(x):
        e = np.exp(c * np.log(x[0]))
        return np.array([x[0] * e - target]), e

    x = np.array([target], dtype=complex)
    noise_floor = 1e-13 * (abs(target) + np.max(np.abs(x)))
    r, e = residual(x)
    for _ in range(50):
        if np.max(np.abs(r)) <= noise_floor:
            return x[0]
        try:
            step = np.linalg.solve(np.array([[e * (1 + c)]]), r)
        except np.linalg.LinAlgError:
            raise NoConvergence("singular Jacobian in Newton solve")
        t = 1.0
        base_norm = np.linalg.norm(r)
        while t > 1e-6:
            trial = x - t * step
            r, e = residual(trial)
            if np.linalg.norm(r) < base_norm:
                break
            t /= 2
        else:
            raise NoConvergence("damping exhausted without descent")
        x = trial
        if np.max(np.abs(x - target)) > REJECTION_RADIUS:
            raise NoConvergence("iterate left the branch-anchor neighborhood")
        if t * np.max(np.abs(step)) < 1e-14 * np.max(np.abs(x)):
            return x[0]
    raise NoConvergence("Newton did not converge in 50 iterations")


def psi_resonant(spec):
    """Project a resonant commuting triple (A, B, C) to a commuting pair.

    Returns ((A_rho, B_rho), (s1, s2)) with the deck translation lengths
    s1 = Log(delta)/2i pi, s2 = Log(eta)/2i pi.
    """
    return _psi_resonant(spec)[:2]


def _psi_resonant(spec):
    """`psi_resonant`, and the group log of C (Double) or None (Single)."""
    regime = spec.regime
    if regime.tag not in ("Single", "Double"):
        raise ValueError("psi_resonant needs a resonant regime")
    a, b, cgen = spec.generators
    c = _principal_c(cgen.data[0])
    delta = _solve_scaling(a.data[0], c)
    eta = _solve_scaling(b.data[0], c)
    s1 = np.log(delta) / TWO_PI_I
    s2 = np.log(eta) / TWO_PI_I
    if regime.tag == "Double":
        x = group_log(cgen)
        a_rho = compose(inverse(group_exp(x.scaled(s1))), a)
        b_rho = compose(inverse(group_exp(x.scaled(s2))), b)
        return (a_rho, b_rho), (s1, s2), x

    p, q = regime.p, regime.q
    _, a1, a4, a3 = a.data
    _, b1, b4, b3 = b.data
    gamma, c1, c4, c3 = cgen.data
    d1 = a1 * np.exp(-s1 * np.log(c1))
    d4 = a4 * np.exp(-s1 * np.log(c4))
    e1 = b1 * np.exp(-s2 * np.log(c1))
    e4 = b4 * np.exp(-s2 * np.log(c4))

    d3 = e3 = 0
    if psi_case(spec) == "degenerate":
        if c4 != gamma ** p * c1 ** q:
            warnings.warn("case boundary: treating c4 = gamma^p c1^q "
                          "as the degenerate branch")
        d3 = a3 * (d4 / a4) - (c3 / c4) * s1 * delta ** p * d1 ** q
        e3 = b3 * (e4 / b4) - (c3 / c4) * s2 * eta ** p * e1 ** q
    return (GroupElement(regime, (delta, d1, d4, d3)),
            GroupElement(regime, (eta, e1, e4, e3))), (s1, s2), None


def psi_case(spec):
    """Which resonant formula applies: 'affine' (q=1), 'generic' or
    'degenerate' (q >= 2)."""
    if spec.regime.tag == "Double":
        return "affine"
    gamma, c1, c4, _ = spec.generators[2].data
    p, q = spec.regime.p, spec.regime.q
    if abs(c4 - gamma ** p * c1 ** q) < TOL_CASE * (1 + abs(c4)):
        return "degenerate"
    return "generic"
