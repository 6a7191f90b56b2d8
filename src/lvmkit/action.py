"""Dynamics of the Z^2-action generated by a commuting pair: windowed
fixed-point certificates, orbits, and a properness falsification probe.

The probe never claims properness: its positive outcome is only "no
violation found" over the sampled window.

Both searches evaluate their word window as numpy arrays: the words
f^r g^s are composed, and in the probe applied to every sample point, a
block of words at a time.  The array arithmetic rounds as the scalar
`compose` and `apply` do, operation for operation, so the searches
decide what word-by-word evaluation decides.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .resonant_group import PointV, apply, compose, identity, inverse

DEFAULT_WINDOW = 25
FP_TOL = 1e-10
ANNULUS_RADIUS = 1e2
# words per array block (divided by the sample count in the probe), which
# bounds the memory a large window or horizon takes
_BLOCK = 1 << 16


@dataclass(frozen=True)
class ActionCertificate:
    window: int
    fixed_point_free: bool
    witness: Optional[tuple] = None  # ((r, s), PointV)

    def __post_init__(self):
        if self.fixed_point_free == (self.witness is not None):
            raise ValueError("witness must be present exactly when a fixed "
                             "point exists")


def _powers(f, bound):
    """f^r for r in [-bound, bound], by iterated composition."""
    out = {0: identity(f.regime)}
    finv = inverse(f)
    for r in range(1, bound + 1):
        out[r] = compose(out[r - 1], f)
        out[-r] = compose(out[-(r - 1)], finv)
    return out


def _grid(bound):
    """The words (r, s) with |r|, |s| <= bound as two integer arrays, in
    the order of a loop over r with an inner loop over s."""
    k = np.arange(-bound, bound + 1)
    return np.repeat(k, k.size), np.tile(k, k.size)


def _cmul(a, b):
    """a * b rounded as Python's complex product (and numpy's scalar one)
    rounds it; numpy's array product may fuse the multiply-adds."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _modulus(z):
    """|z| rounded as numpy's scalar abs rounds it."""
    return np.hypot(z.real, z.imag)


def _python_powers(zs, n):
    """complex(z) ** n for each z, as `compose` takes it, with nan where
    Python refuses the power (overflow, zero to a negative power)."""
    out = []
    for z in zs:
        try:
            out.append(complex(z) ** n)
        except (OverflowError, ZeroDivisionError):
            out.append(complex(np.nan, np.nan))
    return np.array(out)


def _word_composer(f, g, fp, gp, bound):
    """A function taking integer arrays (r, s), |r|, |s| <= bound, to the
    parameter rows (`GroupElement.params`) of the words f^r g^s and a mask
    that is False on every word `compose` refuses.

    The mask may also be False on a word `compose` accepts (a nan power),
    so callers hand each masked word to `compose`, which raises what it
    raises on it.
    """
    if f.regime != g.regime:
        raise ValueError("cannot compose elements of different regimes")
    tag = f.regime.tag
    fa = np.array([fp[r].params() for r in range(-bound, bound + 1)])
    gb = np.array([gp[s].params() for s in range(-bound, bound + 1)])
    if tag == "Single":
        # compose's eps * b1^p * b2^q
        gx = (_python_powers(gb[:, 0], f.regime.p),
              _python_powers(gb[:, 1], f.regime.q))
    elif tag == "Double":
        # compose's tau(b1, p, M): b1^-p above, b1^p below the diagonal
        gx = (_python_powers(gb[:, 0], -f.regime.p),
              _python_powers(gb[:, 0], f.regime.p))

    def words(r, s):
        a, b = fa[r + bound], gb[s + bound]
        if tag == "NonResonant":
            h = _cmul(a, b)
            return h, (h != 0).all(axis=1)
        x, y = (t[s + bound] for t in gx)
        ok = ~np.isnan(x) & ~np.isnan(y)
        h = np.empty_like(a)
        if tag == "Single":
            h[:, :3] = _cmul(a[:, :3], b[:, :3])
            h[:, 3] = _cmul(a[:, 2], b[:, 3]) + _cmul(_cmul(a[:, 3], x), y)
            return h, ok & (h[:, :3] != 0).all(axis=1)
        h[:, 0] = _cmul(a[:, 0], b[:, 0])
        t = a[:, 1:].reshape(-1, 2, 2)
        t[:, 0, 1] = _cmul(t[:, 0, 1], x)
        t[:, 1, 0] = _cmul(t[:, 1, 0], y)
        mat = t @ b[:, 1:].reshape(-1, 2, 2)
        h[:, 1:] = mat.reshape(-1, 4)
        return h, ok & (h[:, 0] != 0) & (np.linalg.det(mat) != 0)
    return words


def _near_one(z, tol):
    return np.isfinite(z) and abs(z - 1) <= tol


def _fixed_point_witness(h, tol):
    """An exact fixed point of h in V, or None.

    Solved per regime: the first coordinate forces the scalar part to be
    1; the fiber equations are at most affine in xi3 and are solved in
    closed form.
    """
    tag = h.regime.tag
    if tag == "NonResonant":
        h1, h2, h3 = h.data
        if not _near_one(h1, tol):
            return None
        if _near_one(h2, tol):
            return PointV((1, 1, 0))
        if _near_one(h3, tol):
            return PointV((1, 0, 1))
        return None
    if tag == "Single":
        h1, h2, h3, eps = h.data
        if not _near_one(h1, tol):
            return None
        if _near_one(h2, tol):
            if _near_one(h3, tol):
                return PointV((1, 1, 0)) if abs(eps) <= tol else None
            return PointV((1, 1, eps / (1 - h3)))
        if _near_one(h3, tol):
            return PointV((1, 0, 1))  # xi2 = 0 kills the shear term (q >= 1)
        return None
    h1, mat = h.data
    if not _near_one(h1, tol):
        return None
    # tau_p(xi1)(M) is similar to M for every xi1, so a fixed fiber point
    # exists iff 1 is an eigenvalue of M
    vals, vecs = np.linalg.eig(mat)
    for k in range(2):
        if _near_one(vals[k], tol):
            v = vecs[:, k]
            return PointV((1, v[0], v[1]))
    return None


def fixed_point_certificate(pair, window=DEFAULT_WINDOW, tol=FP_TOL):
    """Search the window |r|, |s| <= W for a fixed point of f^r g^s.

    A fixed point needs the scalar part of the word to be 1, so the
    window's words are composed as arrays and only those whose scalar
    part is within 2 tol of 1 (or that `compose` may refuse) are built
    and solved one by one, in loop order.
    """
    if window < 1:
        raise ValueError("need window >= 1, got %r" % (window,))
    f, g = pair
    fp = _powers(f, window)
    gp = _powers(g, window)
    words = _word_composer(f, g, fp, gp, window)
    r, s = _grid(window)
    other = (r != 0) | (s != 0)
    r, s = r[other], s[other]
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(0, r.size, _BLOCK):
            rc, sc = r[c:c + _BLOCK], s[c:c + _BLOCK]
            h, ok = words(rc, sc)
            near = _modulus(h[:, 0] - 1) <= 2 * tol
            for k in np.flatnonzero(near | ~ok):
                word = int(rc[k]), int(sc[k])
                w = _fixed_point_witness(compose(fp[word[0]], gp[word[1]]),
                                         tol)
                if w is not None:
                    return ActionCertificate(window, False, (word, w))
    return ActionCertificate(window, True)


def orbit(pair, word, x):
    """Successive images of x under the group elements f^r g^s named by
    the word; the returned list starts with x itself."""
    f, g = pair
    if not isinstance(x, PointV):
        x = PointV(tuple(x))
    word = list(word)
    fp = _powers(f, max((abs(r) for r, _ in word), default=0))
    gp = _powers(g, max((abs(s) for _, s in word), default=0))
    out = [x]
    for r, s in word:
        x = apply(compose(fp[r], gp[s]), x)
        out.append(x)
    return out


@dataclass(frozen=True)
class PropernessReport:
    horizon: int
    compact_radius: float
    samples: int
    seed: int
    violations: tuple  # of ((r, s), PointV returning to the annulus)

    @property
    def no_violation_found(self):
        return not self.violations


def _in_annulus(y, radius):
    """Which images (..., 3) lie in the annulus 1/radius <= |xi1|,
    |(xi2, xi3)| <= radius.  Non-finite images fail, and so do images
    outside V (xi1 = 0 or xi2 = xi3 = 0)."""
    inner = 1 / radius
    m1 = _modulus(y[..., 0])
    m23 = np.hypot(_modulus(y[..., 1]), _modulus(y[..., 2]))
    return (inner <= m1) & (m1 <= radius) & (inner <= m23) & (m23 <= radius)


def _point_factors(regime, x):
    """The powers of the coordinates of the points x (N, 3) that `apply`
    takes, and the index of the first point where Python refuses one (N if
    none): xi1^p and xi2^q (Single, numpy scalar powers), or xi1^-p and
    xi1^p for tau (Double, Python powers, nan where refused)."""
    if regime.tag == "Single":
        return (np.array([z ** regime.p for z in x[:, 0]]),
                np.array([z ** regime.q for z in x[:, 1]])), len(x)
    if regime.tag == "Double":
        u = _python_powers(x[:, 0], -regime.p)
        v = _python_powers(x[:, 0], regime.p)
        refused = np.flatnonzero(np.isnan(u) | np.isnan(v))
        return (u, v), (refused[0] if refused.size else len(x))
    return (), len(x)


def _images(regime, h, x, factors):
    """Images (W, N, 3) of the points x (N, 3) under the words with
    parameter rows h (W, k), by the `apply` formula."""
    tag = regime.tag
    if tag == "NonResonant":
        return h[:, None, :] * x  # numpy's array product, as in apply
    y = np.empty((len(h), len(x), 3), dtype=complex)
    y[..., 0] = _cmul(h[:, None, 0], x[:, 0])
    u, v = factors
    if tag == "Single":
        y[..., 1] = _cmul(h[:, None, 1], x[:, 1])
        y[..., 2] = (_cmul(h[:, None, 2], x[:, 2])
                     + _cmul(_cmul(h[:, None, 3], u), v))
        return y
    t = np.repeat(h[:, None, 1:], len(x), axis=1).reshape(len(h), len(x),
                                                          2, 2)
    t[..., 0, 1] = _cmul(t[..., 0, 1], u)
    t[..., 1, 0] = _cmul(t[..., 1, 0], v)
    y[..., 1:] = (t @ x[:, 1:, None])[..., 0]
    return y


def properness_probe(pair, compact_radius=ANNULUS_RADIUS, horizon=20,
                     samples=20, seed=0):
    """Look for words moving the compact annulus K back onto itself.

    Words f^r g^s with max(|r|, |s|) in [horizon/2, horizon] are applied
    to seeded sample points of K; any image landing in K again is
    reported as a falsification candidate.  Finding none proves nothing.
    Each word is reported once, with the first sample it returns.
    """
    if not 1 < compact_radius < np.inf or horizon < 1 or samples < 1:
        raise ValueError(
            "need a finite compact_radius > 1, horizon >= 1 and samples >= 1,"
            " got %r, %r and %r" % (compact_radius, horizon, samples))
    f, g = pair
    rng = np.random.default_rng(seed)
    x = np.empty((samples, 3), dtype=complex)
    for n in range(samples):
        m1 = 10 ** rng.uniform(-np.log10(compact_radius),
                               np.log10(compact_radius))
        m23 = 10 ** rng.uniform(-np.log10(compact_radius),
                                np.log10(compact_radius))
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v *= m23 / np.linalg.norm(v)
        x[n] = m1 * np.exp(2j * np.pi * rng.uniform()), v[0], v[1]
    pts = [PointV(tuple(xi)) for xi in x]
    fp = _powers(f, horizon)
    gp = _powers(g, horizon)
    words = _word_composer(f, g, fp, gp, horizon)
    r, s = _grid(horizon)
    band = np.maximum(abs(r), abs(s)) >= (horizon + 1) // 2
    r, s = r[band], s[band]
    block = max(1, _BLOCK // samples)
    violations = []
    with np.errstate(over="ignore", invalid="ignore"):
        factors, refused = _point_factors(f.regime, x)
        for c in range(0, r.size, block):
            rc, sc = r[c:c + block], s[c:c + block]
            h, ok = words(rc, sc)
            inside = _in_annulus(_images(f.regime, h, x, factors),
                                 compact_radius)
            first = np.where(inside.any(axis=1), inside.argmax(axis=1),
                             samples)
            # replay through compose and apply the words they may refuse:
            # those compose may refuse, and those that meet a point apply
            # refuses before their first return
            for k in np.flatnonzero(~ok | (first > refused)):
                word = compose(fp[int(rc[k])], gp[int(sc[k])])
                if first[k] > refused:
                    apply(word, pts[refused])
            violations += [((int(rc[k]), int(sc[k])), pts[first[k]])
                           for k in np.flatnonzero(first < samples)]
    return PropernessReport(horizon, compact_radius, samples, seed,
                            tuple(violations))
