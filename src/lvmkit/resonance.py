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
# the largest search bound the CLI accepts: with all six multipliers on
# the unit circle the screen builds (2b + 1)(b + 1)^2 exponents per
# component, about 64 bytes each at the peak, 275 MB for b = 128
MAX_BOUND = 128
# near-resonances a warning lists, closest first
NEAR_SHOWN = 5
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
        for name in ("p", "q"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError("regime index %s must be an integer, got %r"
                                 % (name, getattr(self, name)))
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


def _screen_bound(tol):
    if tol >= 1:
        raise ValueError("tol must be below 1, got %r" % (tol,))
    return max(1e-3, -2 * np.log1p(-tol))


def _log_screen(z, tol):
    """Mask of the log-residuals z that may meet |exp(-z) - 1| <= tol.

    A necessary condition, never a verdict.  A residual t <= tol < 1
    bounds the principal log w of exp(-z) by |w| <= -log(1 - t), and
    |Re w| + |Im w| <= sqrt(2) |w| stays below twice that bound with room
    for rounding.  The 1e-3 floor keeps near-resonances (up to 10 tol,
    warned about) among the candidates at small tol.  From tol = 1 on,
    the residual admits ratios near 0, whose logs no screen bounds.
    """
    wrapped = np.remainder(z.imag + np.pi, 2 * np.pi) - np.pi
    return np.abs(z.real) + np.abs(wrapped) < _screen_bound(tol)


def _is_resonance(h, j, p, tol):
    ra = _power_residual(h.alpha, h.alpha[j - 1], p)
    rb = _power_residual(h.beta, h.beta[j - 1], p)
    return max(ra, rb) <= tol, max(ra, rb)


def _screened(logs, js, p2s, p3s, tol, bound):
    """The (j, p) with |p1| <= bound, p2 in p2s and p3 in p3s that pass
    `_log_screen` for every triple of logs.

    Only the exponents in every slab (see find_resonances) are built, and
    each is screened from the same per-axis products, added in the same
    order, as a scan of the whole box would screen it.
    """
    thr = _screen_bound(tol)
    steps = np.arange(-bound, bound + 1) * 1.0
    tables = [(steps * lg[0], p2s * lg[1], p3s * lg[2]) for lg in logs]
    found = set()
    for j in js:
        lo = np.full((len(p2s), len(p3s)), -bound * 1.0)
        hi = -lo
        for lg, (t1, t2, t3) in zip(logs, tables):
            # Re z is monotone in p1, so the slab is a p1 interval: found
            # with room far above the rounding of z, then widened a step
            r = lg.real
            edge = thr + 1e-12 * (thr + bound * np.abs(r).sum() + np.abs(r).max())
            c = t2.real[:, None] + t3.real[None, :] - r[j - 1]
            with np.errstate(all="ignore"):  # r[0] may be 0, logs infinite
                ends = ((-edge - c) / r[0], (edge - c) / r[0])
            lo = np.maximum(lo, np.ceil(np.fmin(*ends)) - 1)
            hi = np.minimum(hi, np.floor(np.fmax(*ends)) + 1)
        i2, i3 = np.nonzero(lo <= hi)
        lo, n = lo[i2, i3].astype(int), (hi - lo)[i2, i3].astype(int) + 1
        # row by row, p1 + bound runs over lo + bound, ..., hi + bound
        i1 = np.repeat(lo + bound + n - np.cumsum(n), n) + np.arange(n.sum())
        i2, i3 = np.repeat(i2, n), np.repeat(i3, n)
        for lg, (t1, t2, t3) in zip(logs, tables):
            keep = _log_screen((t1[i1] + t2[i2]) + t3[i3] - lg[j - 1], tol)
            i1, i2, i3 = i1[keep], i2[keep], i3[keep]
        found.update((j, (int(a) - bound, int(p2s[b]), int(p3s[c])))
                     for a, b, c in zip(i1, i2, i3))
    return found


def find_resonances(h, tol=DEFAULT_TOL, bound=DEFAULT_BOUND):
    """All resonances of h with |p1| <= bound, 0 <= p2, p3 <= bound.

    One pruned search of the box.  The log screen passes z only if the
    rounded sum |Re z| + |wrapped Im z| is below its threshold, so only if
    |Re z| is: for alpha and for beta, a slab around the log-modulus
    constraint, a few p1 per (p2, p3) when the moduli are generic, the
    whole box when all six multipliers lie on the unit circle.
    `_screened` screens the exponents of both slabs as a scan of the whole
    box would; the power residual decides them and the trivial ones, and
    the undecided within 10 tol are warned about, by their count and the
    NEAR_SHOWN closest.
    """
    logs = [np.log(np.asarray(v, dtype=complex)) for v in (h.alpha, h.beta)]
    box = np.arange(bound + 1)
    candidates = ({(j, EJ[j]) for j in (1, 2, 3)}
                  | _screened(logs, (1, 2, 3), box, box, tol, bound))
    found = []
    near = []
    for j, p in sorted(candidates):
        ok, residual = _is_resonance(h, j, p, tol)
        if ok:
            found.append(Resonance(j, p))
        elif residual <= 10 * tol:
            near.append((j, p, residual))
    if near:
        near.sort(key=lambda t: (t[2], t[0], t[1]))
        warnings.warn("near-resonances within 10x tolerance: %d exponents, "
                      "closest %s"
                      % (len(near), ", ".join("(%d, %s) residual %.2e" % t
                                               for t in near[:NEAR_SHOWN])))
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

    def is_zero(self):
        return all(a == 0 for _, a in self.terms)

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
