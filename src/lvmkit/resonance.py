"""Multiplicative resonance detection and the obstruction bracket.

A resonance of eigen-data (alpha, beta) is a pair (j, p) with
p = (p1, p2, p3) in Z x N x N such that alpha_j = alpha^p and
beta_j = beta^p simultaneously.  Every component carries the trivial
resonance (j, e_j); the structure results restrict the non-trivial ones
to j in {2, 3} with p3 = 0 except for the partner of a q = 1 relation.
"""

import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
DEFAULT_BOUND = 64
COEFF_DROP = 1e-15

EJ = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}


class UnclassifiableResonancePattern(Exception):
    """Resonance list does not match any of the three admissible regimes."""


@dataclass(frozen=True)
class Resonance:
    j: int
    p: tuple

    def __post_init__(self):
        if self.j not in (1, 2, 3):
            raise ValueError("component index must be 1, 2 or 3")
        p = tuple(int(x) for x in self.p)
        if len(p) != 3 or p[1] < 0 or p[2] < 0:
            raise ValueError("exponent must lie in Z x N x N")
        object.__setattr__(self, "p", p)

    @property
    def trivial(self):
        return self.p == EJ[self.j]


@dataclass(frozen=True)
class ResonanceClass:
    tag: str  # "NonResonant" | "Single" | "Double"
    p: int = 0
    q: int = 0

    def __post_init__(self):
        if self.tag not in ("NonResonant", "Single", "Double"):
            raise ValueError("unknown regime tag")
        if self.tag == "Single" and self.q < 2:
            raise ValueError("Single regime requires q >= 2")


def _power_residual(values, target, p):
    """|target * values^{-p} - 1| computed through logs to avoid overflow."""
    z = -np.log(complex(target))
    for v, e in zip(values, p):
        z += e * np.log(complex(v))
    # the residual of target = values^p is |exp(-z) - 1|
    if z.real < -60:  # exp would overflow; certainly not a resonance
        return np.inf
    return abs(np.expm1(-z) + 0j) if abs(z) < 1e-3 else abs(np.exp(-z) - 1)


def _log_screen(z, tol):
    """Mask of the log-residuals z that may meet |exp(-z) - 1| <= tol.

    A necessary condition, never a verdict.  A residual t <= tol < 1
    bounds the principal log w of exp(-z) by |w| <= -log(1 - t), and
    |Re w| + |Im w| <= sqrt(2) |w| stays below twice that bound with room
    for rounding.  The 1e-3 floor keeps near-resonances (up to 10 tol,
    warned about) among the candidates at small tol.  From tol = 1 on,
    the residual admits ratios near 0, whose logs no screen bounds.
    """
    if tol >= 1:
        raise ValueError("tol must be below 1, got %r" % (tol,))
    wrapped = np.remainder(z.imag + np.pi, 2 * np.pi) - np.pi
    return np.abs(z.real) + np.abs(wrapped) < max(1e-3, -2 * np.log1p(-tol))


def _is_resonance(h, j, p, tol):
    ra = _power_residual(h.alpha, h.alpha[j - 1], p)
    rb = _power_residual(h.beta, h.beta[j - 1], p)
    return max(ra, rb) <= tol, max(ra, rb)


def find_resonances(h, tol=DEFAULT_TOL, bound=DEFAULT_BOUND, warn_near=True):
    """All resonances of h with |p1| <= bound, 0 <= p2, p3 <= bound.

    When the log-modulus matrix of (alpha_1, alpha_2) against
    (beta_1, beta_2) is well conditioned, each candidate (j, p3) pins
    (p1, p2) down to a real 2x2 solve and only a small integer window
    around it needs checking.  Otherwise the box is enumerated outright
    (vectorized), which stays fast at the default bound.
    """
    la = np.log(np.abs(np.asarray(h.alpha, dtype=complex)))
    lb = np.log(np.abs(np.asarray(h.beta, dtype=complex)))
    mat = np.array([[la[0], la[1]], [lb[0], lb[1]]])
    use_fast = abs(np.linalg.det(mat)) >= 1e-12

    candidates = set()
    for j in (1, 2, 3):
        candidates.add((j, EJ[j]))
    if use_fast:
        for j in (1, 2, 3):
            for p3 in range(0, bound + 1):
                rhs = np.array([la[j - 1] - p3 * la[2], lb[j - 1] - p3 * lb[2]])
                sol = np.linalg.solve(mat, rhs)
                for p1 in range(int(np.floor(sol[0])) - 2, int(np.ceil(sol[0])) + 3):
                    if abs(p1) > bound:
                        continue
                    for p2 in range(int(np.floor(sol[1])) - 2, int(np.ceil(sol[1])) + 3):
                        if 0 <= p2 <= bound:
                            candidates.add((j, (p1, p2, p3)))
    else:
        p1s = np.arange(-bound, bound + 1)
        p2s = np.arange(0, bound + 1)
        p3s = np.arange(0, bound + 1)
        # vectorized log-residual over the whole box, one component at a time
        log_alpha = np.log(np.asarray(h.alpha, dtype=complex))
        log_beta = np.log(np.asarray(h.beta, dtype=complex))
        grid = (p1s[:, None, None] * 1.0, p2s[None, :, None] * 1.0,
                p3s[None, None, :] * 1.0)
        za = grid[0] * log_alpha[0] + grid[1] * log_alpha[1] + grid[2] * log_alpha[2]
        zb = grid[0] * log_beta[0] + grid[1] * log_beta[1] + grid[2] * log_beta[2]
        for j in (1, 2, 3):
            da = za - log_alpha[j - 1]
            db = zb - log_beta[j - 1]
            hits = np.argwhere(_log_screen(da, tol) & _log_screen(db, tol))
            for i1, i2, i3 in hits:
                candidates.add((j, (int(p1s[i1]), int(p2s[i2]), int(p3s[i3]))))

    found = []
    near = []
    for j, p in sorted(candidates):
        ok, residual = _is_resonance(h, j, p, tol)
        if ok:
            found.append(Resonance(j, p))
        elif residual <= 10 * tol:
            near.append((j, p, residual))
    if near and warn_near:
        warnings.warn("near-resonances within 10x tolerance: %s"
                      % ", ".join("(%d, %s) residual %.2e" % t for t in near))
    return sorted(found, key=lambda r: (r.j, r.p))


def classify_regime(resonances):
    nontrivial = sorted((r for r in resonances if not r.trivial),
                        key=lambda r: (r.j, r.p))
    trivial = {(r.j, r.p) for r in resonances if r.trivial}
    if trivial != {(1, EJ[1]), (2, EJ[2]), (3, EJ[3])}:
        raise UnclassifiableResonancePattern("trivial resonances missing")
    if not nontrivial:
        return ResonanceClass("NonResonant")
    if len(nontrivial) == 1:
        r = nontrivial[0]
        if r.j == 3 and r.p[2] == 0 and r.p[1] >= 2:
            return ResonanceClass("Single", p=r.p[0], q=r.p[1])
        raise UnclassifiableResonancePattern("single non-trivial resonance "
                                             "of unexpected shape: %s" % (r,))
    if len(nontrivial) == 2:
        a, b = nontrivial
        if (a.j == 2 and b.j == 3 and b.p[1] == 1 and b.p[2] == 0
                and a.p == (-b.p[0], 0, 1)):
            return ResonanceClass("Double", p=b.p[0])
        raise UnclassifiableResonancePattern("two non-trivial resonances "
                                             "of unexpected shape")
    raise UnclassifiableResonancePattern("more than two non-trivial resonances")


def cohomology_dims(cls):
    """(h0, h1, h2, h3) of the tangent sheaf, determined by the regime."""
    extra = {"NonResonant": 0, "Single": 1, "Double": 2}[cls.tag]
    d = 3 + extra
    return (d, 2 * d, d, 0)


@dataclass(frozen=True)
class ResonantVectorField:
    """Finite sum of monomial fields a_{j,p} z^p d/dz_j."""
    terms: tuple  # sorted tuple of ((j, p), coefficient)

    @staticmethod
    def from_dict(d):
        cleaned = {}
        for (j, p), a in d.items():
            a = complex(a)
            if abs(a) < COEFF_DROP:
                continue
            p = tuple(int(x) for x in p)
            if j not in (1, 2, 3) or len(p) != 3 or p[1] < 0 or p[2] < 0:
                raise ValueError("bad monomial key (%s, %s)" % (j, p))
            cleaned[(j, p)] = cleaned.get((j, p), 0) + a
        return ResonantVectorField(tuple(sorted(cleaned.items())))

    def as_dict(self):
        return dict(self.terms)

    def is_zero(self, tol=0.0):
        return all(abs(a) <= tol for _, a in self.terms)

    def max_coeff(self):
        return max((abs(a) for _, a in self.terms), default=0.0)

    def evaluate(self, z):
        """Value of the field at z in (C*)^3, as a length-3 vector."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros(3, dtype=complex)
        for (j, p), a in self.terms:
            out[j - 1] += a * z[0] ** p[0] * z[1] ** p[1] * z[2] ** p[2]
        return out


def check_resonant(field, h, tol=DEFAULT_TOL):
    """True iff every monomial key of the field is a resonance of h."""
    return all(_is_resonance(h, j, p, tol)[0] for (j, p), _ in field.terms)


def bracket(x, y):
    """Lie bracket of monomial vector fields.

    [z^p d_j, z^r d_k] = r_j z^{p+r-e_j} d_k - p_k z^{p+r-e_k} d_j.
    """
    acc = {}
    for (j, p), a in x.terms:
        for (k, r), b in y.terms:
            c = a * b
            if r[j - 1] != 0:
                e = EJ[j]
                key = (k, (p[0] + r[0] - e[0], p[1] + r[1] - e[1], p[2] + r[2] - e[2]))
                acc[key] = acc.get(key, 0) + c * r[j - 1]
            if p[k - 1] != 0:
                e = EJ[k]
                key = (j, (p[0] + r[0] - e[0], p[1] + r[1] - e[1], p[2] + r[2] - e[2]))
                acc[key] = acc.get(key, 0) - c * p[k - 1]
    return ResonantVectorField.from_dict(acc)


def first_obstruction_vanishes(x, y, tol=DEFAULT_TOL):
    scale = 1 + max(x.max_coeff(), y.max_coeff())
    return bracket(x, y).max_coeff() <= tol * scale
