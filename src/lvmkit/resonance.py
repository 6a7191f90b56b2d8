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
TRIVIAL = np.array([(j, *p) for j, p in EJ.items()])  # as rows (j, p1, p2, p3)


class UnclassifiableResonancePattern(Exception):
    """Resonance list does not match any of the three admissible regimes."""


@dataclass(frozen=True)
class Resonance:
    j: int
    p: tuple

    def __post_init__(self):
        if self.j not in (1, 2, 3):
            raise ValueError("component index must be 1, 2 or 3")
        p = tuple(map(int, self.p))
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


def _log_residual(lv, w, p):
    """|exp(w - p . lv) - 1| for logs lv (..., k) of the values, logs w (...)
    of the targets and exponents p (..., k) broadcast together: the residual
    of target = values^p, in the scalar order."""
    terms = p * lv
    for k in range(lv.shape[-1]):
        w = w - terms[..., k]  # w = -z, z = -log(target) + sum p_k log(values_k)
    # the residual of target = values^p is |exp(-z) - 1|, moduli by hypot as a
    # complex scalar's abs; where z.real < -60 (exp overflows) it is no resonance
    with np.errstate(all="ignore"):
        d = np.where(np.hypot(w.real, w.imag) < 1e-3, np.expm1(w), np.exp(w) - 1)
        return np.where(w.real > 60, np.inf, np.hypot(d.real, d.imag))


def _power_residual(values, target, p):
    """|target * values^{-p} - 1|, by `_log_residual` of their logs."""
    return _log_residual(np.log(np.asarray(values, complex)),
                         np.log(np.asarray(target, complex)), np.asarray(p))


def _screen_bound(tol):
    if tol >= 1:
        raise ValueError("tol must be below 1, got %r" % (tol,))
    return max(1e-3, -2 * np.log1p(-tol))


def _log_screen(z, thr):
    """Mask of the log-residuals z that may meet |exp(-z) - 1| <= tol.

    A necessary condition, never a verdict, at thr = _screen_bound(tol): a
    residual t <= tol < 1 bounds the principal log w of exp(-z) by
    |w| <= -log(1 - t), and |Re w| + |Im w| <= sqrt(2) |w| stays below
    twice that bound with room for rounding.  The 1e-3 floor keeps
    near-resonances (up to 10 tol, warned about) among the candidates at
    small tol.  From tol = 1 on, the residual admits ratios near 0, whose
    logs no screen bounds.
    """
    wrapped = np.remainder(z.imag + np.pi, 2 * np.pi) - np.pi
    return abs(z.real) + abs(wrapped) < thr


def _resonant(lg, rows, tol):
    """Whether rows (j, p1, p2, p3) resonate for logs lg of (alpha, beta); residuals."""
    ra, rb = _log_residual(lg[:, None], lg.take(rows[:, 0] - 1, 1), rows[:, 1:])
    residual = np.where(rb > ra, rb, ra)  # Python's max(ra, rb), nan included
    return residual <= tol, residual


def _is_resonance(h, rows, tol):
    """`_resonant` for the eigen-data of h."""
    return _resonant(np.log(np.array([h.alpha, h.beta])), rows, tol)


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
    low = np.add.outer([(rb[0] * ra[j - 1] - ra[0] * rb[j - 1]) / a - (width - 1) / 2
                        for j in js], p2s * ((ra[0] * rb[1] - rb[0] * ra[1]) / a))
    start = np.minimum(p3s.searchsorted(low), len(p3s) - int(width))
    return start[..., None] + np.arange(int(width))


def _on_circle(points, centres, half, period):
    """(owner, index) of each point within half of a centre modulo period, per
    centre, each point once: from the sorted points, three times around."""
    points = np.remainder(points, period)
    order = np.argsort(points, kind="stable")
    ring = (points[order] + np.array([[-period], [0], [period]])).ravel()
    centres = np.remainder(centres, period)
    start = ring.searchsorted(centres - half)
    count = np.minimum(ring.searchsorted(centres + half, "right") - start, len(points))
    owner, step = np.nonzero(np.arange(count.max(initial=0)) < count[:, None])
    return owner, order[(start[owner] + step) % len(points)]


def _screened(logs, js, p2s, p3s, tol, bound):
    """The rows (j, p1, p2, p3), |p1| <= bound, p2 in p2s, p3 in p3s (sorted,
    in [0, bound]) that pass `_log_screen` for every triple of logs, as a
    whole-box scan would, from the same sums.  Cells (j, p2, p3): `_window`'s,
    else those a thin slab holds a p1 of (by the fractional part of
    p3 r2 / r0), else all; p1: the slab intervals, else the phases p1 theta1
    near the cell's, modulo 2 pi (all moduli 1, say).  Each step is a few
    array operations on all triples' cells, then on the rows they leave."""
    thr, lg = _screen_bound(tol), np.array(logs)  # lg[k]: the k-th triple
    rs = lg.real.tolist()
    parts = [(bound * sum(map(abs, r)), max(map(abs, r))) for r in rs]
    # |Re z| < thr is a p1 interval, a slab, found with room far above the
    # rounding of z; a triple whose |Re z| <= thr on the whole box has none,
    # nor one with r0 = 0, which bounds no p1
    edges = [thr + 1e-12 * (thr + s + m) for s, m in parts]
    slabs = [k for k, p in enumerate(parts) if sum(p) > thr and rs[k][0]]
    widths = [edges[k] / abs(rs[k][0]) for k in slabs]
    half, k = min(zip(widths, slabs), default=(np.inf, 0))
    band = _window(*rs, *edges, js, p2s, p3s) if len(rs) == 2 else None
    # room for the rounding of the fractions and of their window's ends,
    # below 5 ulp of (s + m) / |r0| and 7 ulp of 1
    half += 2.0 ** -50 * (1 + sum(parts[k]) / abs(rs[k][0])) if half < np.inf else 0
    r, jx, n2, n3 = lg.real, [j - 1 for j in js], len(p2s), len(p3s)
    with np.errstate(all="ignore"):  # r0 may be 0, logs infinite
        # q = lead - t3: lead = (r_j - p2 r1) / r0 per row (j, p2), j-major
        lead = ((r.take(jx, 1)[:, :, None] - p2s * r[:, 1:2, None])
                / r[:, :1, None]).reshape(len(r), len(js) * n2)
        t3 = p3s * r[:, 2:] / r[:, :1]
        if band is not None:
            row, i3 = np.arange(len(js) * n2).repeat(band.shape[-1]), band.ravel()
        elif 2 * (2 * half * n3 + 3) <= n3:  # three gaps: at most W per row
            row, i3 = _on_circle(t3[k], lead[k], half, 1)
        else:
            row, i3 = np.divmod(np.arange(len(js) * n2 * n3), n3)
        h = np.array(widths)[:, None]  # the cells whose slab intervals hold a p1
        q = lead[slabs].take(row, 1) - t3[slabs].take(i3, 1)
        hi = np.floor((q + h).min(0, initial=bound))
        cell = (hi >= (q - h).max(0, initial=-bound)).nonzero()[0]
        row, i3, p1 = row[cell], i3[cell], hi[cell].astype(int)
        if 2 * half >= 1:  # p1 by phase; room for the rounding of z's terms, the
            # phases and the window's ends, below 10 ulp of b sum|t| + max|t| + 2 pi
            t, theta = lg[0].imag, np.abs(lg[0].imag).tolist()
            reach = thr + 2.0 ** -48 * (bound * sum(theta) + max(theta) + 2 * np.pi)
            lj, u2 = t[jx].repeat(n2), np.tile(p2s * t[1], len(js))  # per row (j, p2)
            cell, i1 = _on_circle(np.arange(-bound, bound + 1) * t[0], lj[row] - (
                u2[row] + (p3s * t[2])[i3]), reach, 2 * np.pi)
            row, i3, p1 = row[cell], i3[cell], i1 - bound
        if not len(row):
            return np.zeros((0, 4), int)
        j, i2 = np.divmod(row, n2)
        rows = np.array([np.asarray(js)[j], p1, p2s[i2], p3s[i3]]).T
        z = rows.T[1:, :, None] * lg.T[:, None]  # z[k]: p_k log_k, per row and triple
        z = ((z[0] + z[1]) + z[2]) - lg.T[rows[:, 0] - 1]
        return rows[_log_screen(z, thr).all(1)]


def find_resonances(h, tol=DEFAULT_TOL, bound=DEFAULT_BOUND):
    """All resonances of h with |p1| <= bound, 0 <= p2, p3 <= bound.

    `_screened` gives the candidates of a whole-box scan, from thin slabs
    around the log-modulus constraints or by phase (all six moduli 1).  One
    array call of the power residual decides them and the trivial rows on
    the logs of h taken once; the undecided within 10 tol are warned about,
    by their count and the NEAR_SHOWN closest.  A call is a fixed count of
    array operations whose size is that of the cells and candidates.
    """
    lg = np.log(np.array([h.alpha, h.beta]))
    box = np.arange(bound + 1)
    rows = np.concatenate([TRIVIAL, _screened(lg, (1, 2, 3), box, box, tol, bound)])
    ok, residual = _resonant(lg, rows, tol)
    near = ~ok & (residual <= 10 * tol)
    if near.any():
        shown = np.lexsort((*rows[near].T[::-1], residual[near]))[:NEAR_SHOWN]
        warnings.warn("near-resonances within 10x tolerance: %d exponents, "
                      "closest %s" % (near.sum(), ", ".join(
                          "(%d, %s) residual %.2e" % (j, tuple(p), r) for (j, *p), r
                          in zip(rows[near][shown].tolist(), residual[near][shown]))))
    # sorted as (j, p1, p2, p3); a trivial row, also screened, can come twice
    return [Resonance(j, p) for j, *p in sorted(set(map(tuple, rows[ok].tolist())))]


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
