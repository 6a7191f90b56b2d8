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
# the largest search bound the CLI accepts: on the unit circle the screen
# builds (2b + 1)(b + 1)^2 exponents per j, about 300 MB at b = 128; on roots
# of unity most pass, and cost more: 18 s, 0.7 GB at b = 64, over 3 GB at 128
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


def _is_integer(value):
    """Whether value is an integer: numpy integers pass, bools fail."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(what, value):
    """``value`` as an int, if `_is_integer`; else a ValueError naming it."""
    if not _is_integer(value):
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return int(value)


@dataclass(frozen=True)
class ResonanceClass:
    tag: str  # "NonResonant" | "Single" | "Double"
    p: int = 0
    q: int = 0

    def __post_init__(self):
        if self.tag not in ("NonResonant", "Single", "Double"):
            raise ValueError("unknown regime tag")
        for name in ("p", "q"):
            object.__setattr__(self, name, _integer(
                "regime index " + name, getattr(self, name)))
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


def _window(ra, rb, ea, eb, js, p2s, p3s):
    """Per (j, p2), W indices into p3s holding each p3 at which some p1 is in
    both slabs |p1 r0 + c| <= e (None if 2 W > len(p3s)): the slabs times the
    other's r0, subtracted, are free of p1 (Fourier-Motzkin), |a p3 + b| <= r,
    widened a step each side; e's room above thr covers rounding of terms."""
    a = rb[0] * ra[2] - ra[0] * rb[2]
    width = 2 * (abs(rb[0]) * ea + abs(ra[0]) * eb) / abs(a) + 3 if a else np.inf
    if not 2 * width <= len(p3s):  # nor where a log is infinite: width inf or nan
        return None
    # W p3 from mid - r / |a| - 1 hold all up to mid + r / |a| + 1; mid = -b / a
    # with b = p2 (rb0 ra1 - ra0 rb1) - (rb0 raj - ra0 rbj)
    low = np.add.outer([(rb[0] * ra[j - 1] - ra[0] * rb[j - 1]) / a for j in js],
                       p2s * ((ra[0] * rb[1] - rb[0] * ra[1]) / a)) - (width - 1) / 2
    start = np.minimum(p3s.searchsorted(low), len(p3s) - int(width))
    return start[..., None] + np.arange(int(width))


def _screened(logs, js, p2s, p3s, tol, bound):
    """The (j, p), |p1| <= bound, p2 in p2s, p3 in p3s (sorted integers), that
    pass `_log_screen` for every triple of logs: built in every slab (see
    find_resonances), on `_window`'s cells for all j or the whole grid per j,
    and screened as a whole-box scan would, from the same sums of products."""
    thr, lg = _screen_bound(tol), np.array(logs)  # lg[k]: the k-th triple
    t1 = np.arange(-bound, bound + 1.0) * lg[:, :1]
    t2, t3 = p2s * lg[:, 1:2], p3s * lg[:, 2:]
    # Re z is monotone in p1, so a slab is a p1 interval: found with room
    # far above the rounding of z, then widened a step
    rs = lg.real.tolist()
    parts = [(bound * sum(map(abs, r)), max(map(abs, r))) for r in rs]
    edges = [thr + 1e-12 * (thr + s + m) for s, m in parts]
    band = _window(*rs, *edges, js, p2s, p3s) if len(rs) == 2 else None
    slabs = [k for k, p in enumerate(parts) if sum(p) > thr]  # else |Re z| <= thr
    found, j0, n2 = set(), [j - 1 for j in js], len(p2s)
    # per (j, p2) a row of cells: its t2, log of component j (one, for one j), p3s
    groups = ([(j0, np.concatenate([t2] * len(js), 1), lg[:, j0].repeat(n2, 1),
                band.reshape(len(js) * n2, -1))] if band is not None else
              [([j], t2, lg[:, j:j + 1], np.arange(len(p3s))) for j in j0])
    for g, u2, lj, cols in groups:
        lo = np.full((len(u2[0]), cols.shape[-1]), -bound * 1.0)
        hi = -lo
        for k in slabs:
            c = u2[k].real[:, None] + t3[k].real[cols] - lj[k].real[:, None]
            with np.errstate(all="ignore"):  # r0 may be 0, logs infinite
                ends = ((-edges[k] - c) / rs[k][0], (edges[k] - c) / rs[k][0])
            lo = np.maximum(lo, np.ceil(np.fmin(*ends)) - 1)
            hi = np.minimum(hi, np.floor(np.fmax(*ends)) + 1)
        keep = lo <= hi
        row, i3 = np.nonzero(keep)
        i3 = i3 if band is None else cols[row, i3]
        lo, n = lo[keep].astype(int), (hi - lo)[keep].astype(int) + 1
        # cell by cell, p1 + bound runs over lo + bound, ..., hi + bound
        i1 = np.repeat(lo + bound + n - np.cumsum(n), n) + np.arange(n.sum())
        row, i3 = row.repeat(n), i3.repeat(n)
        # where a triple has no slab, its screen would pass most exponents
        for k in slabs if len(slabs) < len(rs) else []:  # so test |Re z| < thr first
            keep = np.abs((t1[k].real[i1] + u2[k].real[row]) + t3[k].real[i3]
                          - lj[k].real.take(row, mode="clip")) < thr
            i1, row, i3 = i1[keep], row[keep], i3[keep]
        for k in range(len(rs)):
            keep = _log_screen((t1[k, i1] + u2[k, row]) + t3[k, i3]
                               - lj[k].take(row, mode="clip"), tol)
            i1, row, i3 = i1[keep], row[keep], i3[keep]
        found.update((g[r // n2] + 1, (int(a) - bound, int(p2s[r % n2]), int(p3s[c])))
                     for a, r, c in zip(i1, row, i3))
    return found


def find_resonances(h, tol=DEFAULT_TOL, bound=DEFAULT_BOUND):
    """All resonances of h with |p1| <= bound, 0 <= p2, p3 <= bound.

    One pruned search of the box.  The log screen passes z only if the
    rounded sum |Re z| + |wrapped Im z| is below its threshold, so only if
    |Re z| is: for alpha and for beta, a slab around the log-modulus
    constraint, a few p1 per (p2, p3) when the moduli are generic, and a
    window of a few p3 per (j, p2) where p1 can lie in both; the whole
    grid where alpha's and beta's log-moduli bound p3 alike (all 0 on the
    unit circle).  The candidates are those of a whole-box scan; the power
    residual decides them and the trivial ones, and the undecided within
    10 tol are warned about, by their count and the NEAR_SHOWN closest.
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


def check_resonant(field, h):
    """True iff every monomial key of the field is a resonance of h."""
    return all(_is_resonance(h, j, p, DEFAULT_TOL)[0] for (j, p), _ in field.terms)


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


def first_obstruction_vanishes(x, y):
    scale = 1 + max(x.max_coeff(), y.max_coeff())
    return bracket(x, y).max_coeff() <= DEFAULT_TOL * scale
