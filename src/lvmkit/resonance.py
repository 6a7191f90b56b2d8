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
# the largest search bound the CLI accepts: the screen builds few exponents
# per cell (j, p2, p3), 5 ms at b = 128 on the unit circle, but on roots of
# unity most pass and are listed: 4.7 s, 0.6 GB at b = 64, over 3 GB at 128
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
    """|target * values^{-p} - 1| through logs, for values (..., k), targets
    (...) and exponents (..., k) broadcast together, in the scalar order."""
    lv, w = np.log(np.asarray(values, complex)), np.log(np.asarray(target, complex))
    terms = np.asarray(p) * lv
    for k in range(lv.shape[-1]):
        w = w - terms[..., k]  # w = -z, z = -log(target) + sum p_k log(values_k)
    # the residual of target = values^p is |exp(-z) - 1|, moduli by hypot as a
    # complex scalar's abs; where z.real < -60 (exp overflows) it is no resonance
    with np.errstate(all="ignore"):
        d = np.where(np.hypot(w.real, w.imag) < 1e-3, np.expm1(w), np.exp(w) - 1)
        return np.where(w.real > 60, np.inf, np.hypot(d.real, d.imag))


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


def _is_resonance(h, rows, tol):
    """Whether each row (j, p1, p2, p3) is a resonance of h; its residual."""
    v = np.array([h.alpha, h.beta])
    ra, rb = _power_residual(v[:, None], v[:, rows[:, 0] - 1], rows[:, 1:])
    residual = np.where(rb > ra, rb, ra)  # Python's max(ra, rb), nan included
    return residual <= tol, residual


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


def _on_circle(points, centres, half, period):
    """(owner, index) of each point within half of a centre modulo period, per
    centre, each point once: from the sorted points, three times around."""
    points = np.remainder(points, period)
    order = np.argsort(points, kind="stable")
    ring = np.concatenate([points[order] + s for s in (-period, 0, period)])
    centres = np.remainder(centres, period)
    start = ring.searchsorted(centres - half)
    count = np.minimum(ring.searchsorted(centres + half, "right") - start, len(points))
    offset = np.repeat(start + count - np.cumsum(count), count) + np.arange(count.sum())
    return np.repeat(np.arange(len(start)), count), np.concatenate([order] * 3)[offset]


def _screened(logs, js, p2s, p3s, tol, bound):
    """The rows (j, p1, p2, p3), |p1| <= bound, p2 in p2s, p3 in p3s (sorted,
    in [0, bound]) that pass `_log_screen` for every triple of logs, as a
    whole-box scan would, from the same sums.  Cells (j, p2, p3): `_window`'s,
    else those a thin slab holds a p1 of (by the fractional part of
    p3 r2 / r0), else all; p1: the exact slab intervals, else the phases
    p1 theta1 near the cell's, modulo 2 pi (all moduli 1, say)."""
    thr, lg = _screen_bound(tol), np.array(logs)  # lg[k]: the k-th triple
    t1 = np.arange(-bound, bound + 1.0) * lg[:, :1]
    t2, t3 = p2s * lg[:, 1:2], p3s * lg[:, 2:]
    rs = lg.real.tolist()
    parts = [(bound * sum(map(abs, r)), max(map(abs, r))) for r in rs]
    # |Re z| < thr is a p1 interval, a slab, found with room far above the
    # rounding of z; a triple whose |Re z| <= thr on the whole box has none
    edges = [thr + 1e-12 * (thr + s + m) for s, m in parts]
    slabs = [k for k, p in enumerate(parts) if sum(p) > thr]
    half, k = min(((edges[k] / abs(rs[k][0]), k) for k in slabs if rs[k][0]),
                  default=(np.inf, 0))
    # rows (j, p2), j-major: their t2 and log of component j
    u2 = np.concatenate([t2] * len(js), axis=1)
    lj, n3 = lg[:, [j - 1 for j in js]].repeat(len(p2s), axis=1), len(p3s)
    band = _window(*rs, *edges, js, p2s, p3s) if len(rs) == 2 else None
    # room for the rounding of the fractions and of their window's ends,
    # below 5 ulp of (s + m) / |r0| and 7 ulp of 1
    half += 2.0 ** -50 * (1 + sum(parts[k]) / abs(rs[k][0])) if half < np.inf else 0
    with np.errstate(all="ignore"):  # r0 may be 0, logs infinite
        if band is not None:
            cells = np.arange(len(lj[0])).repeat(band.shape[-1]), band.ravel()
        elif 2 * (2 * half * n3 + 3) <= n3:  # three gaps: at most W per row
            cells = _on_circle(t3[k].real / rs[k][0],
                               (lj[k].real - u2[k].real) / rs[k][0], half, 1)
        else:
            cells = np.divmod(np.arange(len(lj[0]) * n3), n3)
        row, i3 = cells
        if 2 * half < 1:  # a slab interval holds one p1 at most
            lo = np.full(len(row), -bound, dtype=float)
            hi = -lo
            for k in slabs:
                c = u2[k].real[row] + t3[k].real[i3] - lj[k].real[row]
                ends = ((-edges[k] - c) / rs[k][0], (edges[k] - c) / rs[k][0])
                lo = np.maximum(lo, np.ceil(np.fmin(*ends)))
                hi = np.minimum(hi, np.floor(np.fmax(*ends)))
            cell = np.flatnonzero(lo <= hi)
            i1 = lo[cell].astype(int) + bound
        else:  # room for the rounding of z's terms, of the phases and of their
            # window's ends, below 10 ulp of b sum|theta| + max|theta| + 2 pi
            theta = np.abs(lg[0].imag).tolist()
            reach = thr + 2.0 ** -48 * (bound * sum(theta) + max(theta) + 2 * np.pi)
            cell, i1 = _on_circle(t1[0].imag, lj[0].imag[row] - (
                u2[0].imag[row] + t3[0].imag[i3]), reach, 2 * np.pi)
    row, i3 = row[cell], i3[cell]
    for k in range(len(rs)):
        keep = _log_screen((t1[k, i1] + u2[k, row]) + t3[k, i3] - lj[k, row], tol)
        i1, row, i3 = i1[keep], row[keep], i3[keep]
    j, i2 = np.divmod(row, len(p2s))
    return np.stack([np.asarray(js)[j], i1 - bound, p2s[i2], p3s[i3]], axis=1)


def find_resonances(h, tol=DEFAULT_TOL, bound=DEFAULT_BOUND):
    """All resonances of h with |p1| <= bound, 0 <= p2, p3 <= bound.

    One pruned search of the box.  The log screen passes z only if the
    rounded sum |Re z| + |wrapped Im z| is below its threshold, so only if
    |Re z| is: for alpha and for beta, a slab around the log-modulus
    constraint, a few p1 per (p2, p3) when the moduli are generic, and a
    few p3 per (j, p2) where p1 can lie in both, or in one side's thin
    slab; and only if |wrapped Im z| is, a few p1 per cell by phase where
    no slab pins p1 (all six moduli 1).  The candidates are those of a
    whole-box scan; one array call of the power residual decides them and
    the trivial ones, and the undecided within 10 tol are warned about, by
    their count and the NEAR_SHOWN closest.
    """
    logs = [np.log(np.asarray(v, dtype=complex)) for v in (h.alpha, h.beta)]
    box = np.arange(bound + 1)
    rows = np.concatenate([[(j, *p) for j, p in EJ.items()],
                           _screened(logs, (1, 2, 3), box, box, tol, bound)])
    ok, residual = _is_resonance(h, rows, tol)
    near = ~ok & (residual <= 10 * tol)
    if near.any():
        shown = np.lexsort((*rows[near].T[::-1], residual[near]))[:NEAR_SHOWN]
        warnings.warn("near-resonances within 10x tolerance: %d exponents, "
                      "closest %s" % (near.sum(), ", ".join(
                          "(%d, %s) residual %.2e" % (j, tuple(p), r) for (j, *p), r
                          in zip(rows[near][shown].tolist(), residual[near][shown]))))
    found = rows[ok]
    # a trivial row, also screened, is the only one that can come twice
    return [Resonance(j, p) for j, *p in dict.fromkeys(
        map(tuple, found[np.lexsort(found.T[::-1])].tolist()))]


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
    rows = np.array([(j, *p) for (j, p), _ in field.terms], dtype=int)
    return bool(_is_resonance(h, rows.reshape(-1, 4), DEFAULT_TOL)[0].all())


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
