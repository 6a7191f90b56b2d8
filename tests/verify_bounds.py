"""Rounding-error bounds for comparing the array forms behind `lvmkit
verify` with their scalar oracles.

The array forms compute in numpy's arithmetic and the oracles in the
Python complex arithmetic of `law_reference`, so their values agree to
rounding, not to the bit.  The bounds here are derived from the
formulas, not fitted to observed differences:

* A complex product is within sqrt(5) u of exact (Brent, Percival and
  Zimmermann, "Error bounds on complex floating-point multiplication",
  Math. Comp. 76, 2007).  A sum, and each step of a quotient or of a
  power's chain of products, counts as one such operation here.
* A formula of sums and products whose longest chain has k operations
  is within k GAMMA of exact, relative to the size of its terms: the
  formula evaluated on moduli, with every sum of moduli (Higham,
  Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1).  A
  divisor d = a - b formed from rounded a and b enters with the size
  (|a| + |b|) / |d|^2 of 1 / d, which folds in the relative error of d.
* A matrix routine (inv, det, matmul) returns the same bits on
  a stack as on each of its matrices, so it adds nothing when both sides
  give it the same input; on perturbed input its output moves by the
  routine's condition times the perturbation, plus its backward error.

Each function bounds one computation's error; two computations of the
same value differ by at most twice that.
"""

import numpy as np

from lvmkit.family_gluing import _chart_regime, _generator_rows
from lvmkit.resonant_group import (DISC_ROUNDING, _compose_rows, _images,
                                   _inverse_rows, _null_vector,
                                   _twisted_roots, apply_many, compose_many,
                                   identity, inverse_many)

U = 2.0 ** -53
GAMMA = np.sqrt(5) * U
# sizes past which a term may leave the float range: a row with such a
# term may be refused by the arrays (non-finite) and not by the scalar
# code, or round to 0 on one side only
TINY, HUGE = 2.0 ** -1000, 2.0 ** 1000


def near_range(z, n):
    """Where |z^n| lies within 2^8 of an end of the float range, the
    overflow threshold 2^1024 or the least subnormal 2^-1074, so that two
    roundings of the power may refuse it apart.  Its relative error, at
    most (|n| + 3) GAMMA (1 + |log |z|| + pi), is far below 2^8 - 1 for
    any |n| a test takes; among subnormals, where rounding is absolute,
    each of its at most |n| + 3 operations adds a subnormal ulp 2^-1074
    at most, below 2^8 of them for |n| < 250."""
    with np.errstate(all="ignore"):
        return near_end(n * np.log2(np.abs(z)))


def near_end(e):
    """`near_range` of a value given by its base-2 exponent e."""
    e = np.abs(e)
    return (1024 - 8 < e) & (e < 1074 + 8)


def moduli(a):
    return np.abs(a).astype(complex)


def law_ops(regime):
    """Operations along the longest chain of an entry of one group law:
    a power z^n takes |n| products and a quotient, a law at most 5 more."""
    return abs(regime.p) + abs(regime.q) + 8


def chart_ops(p, q):
    """The same for one chart map, whose entries chain a few quotients."""
    return abs(p) + abs(q) + 16


def inverse_size(a, b, d):
    """The size of 1 / d for d = a - b."""
    with np.errstate(all="ignore"):
        return (np.abs(a) + np.abs(b)) / np.abs(d) ** 2


# the unchecked rows of each group law
UNCHECKED = {compose_many: _compose_rows, inverse_many: _inverse_rows,
             apply_many: _images}


def law_sizes(regime, law, *rows):
    """The sizes of the terms of each entry of compose, apply or inverse
    on parameter rows (and points): the law's rows on their moduli.  An
    inverse is a chain of quotients and products without sums, so its
    entries' sizes are their moduli."""
    with np.errstate(all="ignore"):
        if law is inverse_many:
            return np.abs(_inverse_rows(regime, rows[0]))
        return np.abs(UNCHECKED[law](regime, *map(moduli, rows)))


def law_exponents(regime, law, *rows):
    """log2 of `law_sizes`, read also where a size lies just beyond the
    top of the float range and `law_sizes` reads inf, though an entry
    with that size may still be finite in one arithmetic and not in the
    other (a complex product with or without a fused multiply-add).
    compose and apply are linear in their first factor, and an inverse's
    sizes are the moduli of its entries, so such a size is read scaled
    by 2^-64."""
    with np.errstate(all="ignore"):
        e = np.log2(law_sizes(regime, law, *rows))
        if law is inverse_many:
            low = np.abs(_inverse_rows(regime, rows[0]) * 2.0 ** -64)
        else:
            low = np.abs(UNCHECKED[law](regime, moduli(rows[0]) * 2.0 ** -64,
                                        *map(moduli, rows[1:])))
        return np.where(e == np.inf, np.log2(low) + 64, e)


def _shear_sizes(lam):
    out = np.zeros((len(lam), 3, 3))
    out[:, [0, 1, 2], [0, 1, 2]] = 1
    out[:, 1, 2] = np.abs(lam)
    return out


def _twisted_sizes(mat, p, q):
    """(S(1 / d_plain), S(1 / d_twist), |a1|^p |a2|^q) of stacked T or
    T_pq matrices, d_plain = a3 - a2 and d_twist = a3 - a1^p a2^q."""
    a1, a2, a3 = (mat[:, i, i] for i in range(3))
    with np.errstate(all="ignore"):
        twist = np.abs(a1) ** p * np.abs(a2) ** q
        return (inverse_size(a3, a2, a3 - a2),
                inverse_size(np.abs(a3), twist, a3 - a1 ** p * a2 ** q), twist)


def psi_sizes(amat, bmat, lam, xs, p):
    """Sizes of the terms of (amat, bmat, x) of `glue_psi_p_many`; xs are
    the sizes of the input points (their moduli, or the sizes of a
    computation that produced them)."""
    sp, st, _ = _twisted_sizes(amat, p, 1)
    eps = np.abs(amat[:, 2, 1])
    b1, b2, b3 = (np.abs(bmat[:, i, i]) for i in range(3))
    with np.errstate(all="ignore"):
        bt = np.abs(bmat)
        bt[:, 2, 1] = eps * (b3 + b1 ** p * b2) * st
        la, lb = np.abs(lam) * np.abs(amat[:, 0, 0]) ** -p, \
            np.abs(lam) * np.abs(bmat[:, 0, 0]) ** -p
        aout = _shear_sizes(la) @ np.abs(amat) @ _shear_sizes(lam)
        bout = _shear_sizes(lb) @ bt @ _shear_sizes(lam)
        x1, x2, x3 = xs.T
        eta3 = x3 + eps * sp * x2 + eps * st * x1 ** p * x2
        y = np.stack([x1, x2 + np.abs(lam) * x1 ** -p * eta3, eta3], axis=1)
    return aout, bout, y


def phi_sizes(amat, bmat, xs, p, q, invert=False):
    """Sizes of the terms of (amat, bmat, x) of `glue_phi_pq_many`."""
    sp, st, _ = _twisted_sizes(amat, p, q)
    eps = np.abs(amat[:, 2, 1])
    b1, b2, b3 = (np.abs(bmat[:, i, i]) for i in range(3))
    with np.errstate(all="ignore"):
        bout = np.abs(bmat)
        bout[:, 2, 1] = (eps * (b3 + b1 ** p * b2 ** q) * st if invert
                         else eps * (b3 + b2) * sp)
        x1, x2, x3 = xs.T
        y = np.stack([x1, x2, x3 + eps * sp * x2
                      + eps * st * x1 ** p * x2 ** q], axis=1)
    return np.abs(amat), bout, y


def action_sizes(space, amat, bmat, word, xs, p=None, q=None):
    """Sizes of the terms of `family_action_many`, and its operation
    count: the T chart's matrix products on moduli (its inverses are the
    same on both sides), or the chain of group laws on moduli."""
    r, s = word
    if space == "T":
        a = np.linalg.matrix_power(np.abs(amat if r >= 0
                                          else np.linalg.inv(amat)), abs(r))
        b = np.linalg.matrix_power(np.abs(bmat if s >= 0
                                          else np.linalg.inv(bmat)), abs(s))
        return (a @ b @ xs[..., None])[..., 0], 5 * (abs(r) + abs(s) + 1)
    regime = _chart_regime(space, p, q)

    def power(mat, n):
        f = _generator_rows(space, mat)
        step = law_sizes(regime, inverse_many, f) if n < 0 else np.abs(f)
        out = np.broadcast_to(np.abs(identity(regime).params()), step.shape)
        for _ in range(abs(n)):
            out = law_sizes(regime, compose_many, out, step)
        return out
    h = law_sizes(regime, compose_many, power(amat, r), power(bmat, s))
    ops = (abs(r) + abs(s) + 3) * law_ops(regime)
    return law_sizes(regime, apply_many, h, xs), ops


def eigen_errors(amat, bmat, p, ea=0.0, eb=0.0):
    """Bounds (N, 4) on the error of one computation of the paired
    eigen-data (a2', a3', b2', b3') of stacked S_p points whose entries
    carry absolute errors up to ea and eb (scalars or (N,)), by the closed
    forms of `_twisted_roots` or by the np.roots reference of
    `verify_oracle`, and the rows where the assignment of the roots (their
    order, or which of them is modulus-ordered) turns on that error.

    The closed forms take, with a = a1^p, b = m11 a + m22, Delta = d^2 + e
    (d = m11 a - m22, e = 4 a m12 m21) and c = det M, each within k GAMMA
    of its terms' sizes plus the first-order effect of the entries'
    errors.  Up to sign, a square root moves by at most
    min(sqrt(dDelta), dDelta / |s|), as min(|u - v|, |u + v|)^2 <=
    |u^2 - v^2| and max(|u - v|, |u + v|) >= |u|; a change of sign only
    swaps the roots.  So q = (b + s) / 2 moves by dq = (db + ds) / 2, the
    root q / a by (dq + |q / a| da) / |a| and the root c / q by
    (dc + |c / q| dq) / (|q| - dq).  A double root b / (2a) is within
    |s*| / (2|a|) of each exact root, |s*| <= sqrt(|Delta| + dDelta).
    np.roots takes the eigenvalues of the companion matrix C with first
    row (b / a, -c / a); eig's backward error 10 u |C| and the error of C
    move root r_i by at most kappa_i times their size, kappa_i =
    sqrt((1 + |r_i|^2)(1 + |r_j|^2)) / |r_i - r_j|.  Near a double root
    this is far above the closed forms' bound, so the larger of the two
    bounds the root of either.

    The kernel vector of N = M - r L is read from its larger row, whose
    error dn tilts it by an angle with sine at most dn / (|row| - dn) plus
    the rounding of its normalisation; the reference's SVD null vector
    tilts by no more once dn holds the SVD's backward error (Wedin, with
    s1 >= |row|).  The beta (B v)_k / (L_b v)_k, with |(L_b v)_k| >= |L_b v| / 2
    at the larger component, moves by (|B| + |beta| |L_b|) 2 sin(angle) /
    |(L_b v)_k| and by its own rounding.
    """
    a1, b1 = amat[:, 0, 0], bmat[:, 0, 0]
    m, bm = amat[:, 1:, 1:], bmat[:, 1:, 1:]
    m11, m12, m21, m22 = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    k = abs(p) + 8
    with np.errstate(all="ignore"):
        ap, bp = np.abs(a1) ** p, np.abs(b1) ** p
        dap = k * GAMMA * ap + abs(p) * ap * ea / np.abs(a1)
        dbp = k * GAMMA * bp + abs(p) * bp * eb / np.abs(b1)
        a = a1 ** p
        # as `_twisted_roots` forms Delta and decides on it where it does
        # not rescale, which scales Delta and its bound alike
        t = m11 * a
        b, d, e = t + m22, t - m22, 4 * a * m12 * m21
        delta = d * d + e
        sizes = np.abs(d) * (np.abs(t) + np.abs(m22)) + np.abs(e)
        double = np.abs(delta) <= DISC_ROUNDING * sizes
        db = (k * GAMMA * (np.abs(t) + np.abs(m22)) + ea * (ap + 1)
              + np.abs(m11) * dap)
        ddelta = (k * GAMMA * sizes
                  + ea * (2 * np.abs(d) * (ap + 1)
                          + 4 * ap * (np.abs(m12) + np.abs(m21)))
                  + dap * (2 * np.abs(d) * np.abs(m11)
                           + 4 * np.abs(m12 * m21)))
        dc = (k * GAMMA * (np.abs(m11 * m22) + np.abs(m12 * m21))
              + ea * np.abs(m).sum(axis=(1, 2)))
        s = np.sqrt(delta)
        ds = np.where(double, np.sqrt(np.abs(delta) + ddelta),
                      np.minimum(np.sqrt(ddelta), ddelta / np.abs(s))
                      + k * GAMMA * np.abs(s))
        q = np.where(double, np.abs(b),
                     np.maximum(np.abs(b + s), np.abs(b - s))) / 2
        dq = (db + ds) / 2 + GAMMA * q
        big = q / ap
        dbig = (dq + big * dap) / ap + k * GAMMA * big
        small = np.abs(m11 * m22 - m12 * m21) / q
        dsmall = (dc + small * dq) / np.maximum(q - dq, 0) + k * GAMMA * small
        roots = _twisted_roots(a, m)
        r0, r1 = roots.T
        # np.roots: the companion eigenvalues, exact for C + E with
        # |E| <= 10 u |C|, each moved by at most kappa |E + dC|
        row = np.hypot(np.abs(t) + np.abs(m22),
                       np.abs(m11 * m22) + np.abs(m12 * m21)) / ap
        dcomp = ((np.hypot(db, dc) + row * dap) / ap + 3 * GAMMA * row
                 + 10 * U * np.sqrt(row ** 2 + 1))
        kappa = np.sqrt((1 + np.abs(r0) ** 2) * (1 + np.abs(r1) ** 2)) \
            / np.abs(r0 - r1)
        dr = np.maximum(kappa * dcomp,
                        np.where(double, dbig, np.maximum(dbig, dsmall)))
        lb = np.stack([np.ones_like(b1), b1 ** p], axis=1)
        lbnorm, bnorm = np.abs(lb).max(axis=1), np.linalg.norm(bm, axis=(1, 2))
        betas, dbetas = [], []
        for r in (r0, r1):
            n = m.copy()
            n[:, 0, 0] -= r
            n[:, 1, 1] -= r * a
            # the larger error of the rows of N, plus the backward error
            # 10 u |N| of the reference's SVD
            dn = (np.hypot(ea + dr + k * GAMMA * (np.abs(m11) + np.abs(r)),
                           ea + dr * ap + np.abs(r) * dap
                           + k * GAMMA * (np.abs(m22) + np.abs(r) * ap))
                  + 10 * U * np.linalg.norm(n, axis=(1, 2)))
            row = np.linalg.norm(n, axis=2).max(axis=1)
            sin = np.minimum(1.0, np.where(row > dn, dn / (row - dn), 1.0)
                             + k * GAMMA)
            v = _null_vector(n)
            lv = lb * v
            kk = np.argmax(np.abs(lv), axis=1)
            beta = (bm @ v[..., None])[np.arange(len(v)), kk, 0] \
                / lv[np.arange(len(v)), kk]
            half = np.linalg.norm(lv, axis=1) / 2
            betas.append(beta)
            dbetas.append(((bnorm + np.abs(beta) * lbnorm) * 2 * sin
                           + eb + np.abs(beta) * dbp
                           + k * GAMMA * (bnorm + np.abs(beta) * lbnorm)) / half)
        # the assignment: (r0, r1 a1^p) unless only (r1, r0 a1^p) is
        # modulus-ordered, as `_paired_eigendata` decides it
        d1ap = dr * ap + np.abs(r1) * dap
        d0ap = dr * ap + np.abs(r0) * dap
        swap = (np.abs(r0) <= np.abs(r1) * ap) & (np.abs(r1) > np.abs(r0) * ap)
        ambiguous = ~((np.abs(np.abs(r0) - np.abs(r1) * ap) > dr + d1ap)
                      & (np.abs(np.abs(r1) - np.abs(r0) * ap) > dr + d0ap)
                      & (np.abs(r0.real - r1.real) > 2 * dr))
        db0 = dbetas[0] * bp + np.abs(betas[0]) * dbp
        db1 = dbetas[1] * bp + np.abs(betas[1]) * dbp
        errors = np.stack([dr, np.where(swap, d0ap, d1ap),
                           np.where(swap, dbetas[1], dbetas[0]),
                           np.where(swap, db0, db1)], axis=1)
    return errors, ambiguous


def invert_psi_errors(sa, sb, sx, p, eig, eig_errors, ea, eb, ex):
    """Bounds on the error of one computation of (amat, bmat, lam, x) of
    `invert_psi_p_many` at S_p points whose entries carry errors up to ea,
    eb (N, 3, 3) and ex (N, 3), from eigen-data eig = (a1, a2', a3', b1,
    b2', b3') with errors eig_errors (N, 4): the rounding of its own
    formulas, k GAMMA times their term sizes, plus the first-order effect
    of the errors of its inputs."""
    from lvmkit.family_gluing import MEMBERSHIP_TOL
    a1, a2, a3, b1, b2, b3 = eig
    da2, da3, db2, db3 = eig_errors.T
    k = chart_ops(p, 1)
    eps1, eps2, m22, a2e = sa[:, 2, 1], sa[:, 1, 2], sa[:, 2, 2], sa[:, 1, 1]
    de1, de2, dm22, da2e = ea[:, 2, 1], ea[:, 1, 2], ea[:, 2, 2], ea[:, 1, 1]
    x1, x2p, eta3 = sx.T
    dx2p, deta3 = ex[:, 1], ex[:, 2]
    with np.errstate(all="ignore"):
        ap = np.abs(a1) ** p
        d_plain, d_twist = a3 - a2, a3 - a1 ** p * a2
        sp = inverse_size(a3, a2, d_plain)
        st = inverse_size(np.abs(a3), ap * np.abs(a2), d_twist)
        amat = np.zeros(sa.shape)
        amat[:, [1, 2, 2], [1, 2, 1]] = np.stack([da2, da3, de1], axis=1)
        delta = eps1 * (b3 - b2) / d_plain
        bmat = np.zeros(sb.shape)
        bmat[:, 1, 1], bmat[:, 2, 2] = db2, db3
        bmat[:, 2, 1] = (np.abs(eps1) * (db2 + db3) / np.abs(d_plain)
                         + np.abs(delta) * (da2 + da3) / np.abs(d_plain)
                         + np.abs(b3 - b2) * de1 / np.abs(d_plain)
                         + k * GAMMA * np.abs(eps1) * (np.abs(b3) + np.abs(b2))
                         * sp)
        shear = np.abs(eps1) > MEMBERSHIP_TOL * (
            1 + np.maximum(np.abs(a2), np.abs(a3)))
        den = a3 * a1 ** -p - a2e
        lam = np.where(shear, (a3 - m22) / eps1, eps2 / den)
        dlam = np.where(
            shear, (da3 + dm22 + np.abs(lam) * de1
                    + k * GAMMA * (np.abs(a3) + np.abs(m22))) / np.abs(eps1),
            (np.abs(lam) * (da3 / ap + da2e) + de2
             + k * GAMMA * np.abs(eps2) * (np.abs(a3) / ap + np.abs(a2e))
             / np.abs(den)) / np.abs(den))
        xm = np.abs(x1) ** -p
        xi2 = x2p - lam * x1 ** -p * eta3
        dxi2 = (dx2p + dlam * xm * np.abs(eta3) + np.abs(lam) * xm * deta3
                + k * GAMMA * (np.abs(x2p) + np.abs(lam) * xm * np.abs(eta3)))
        ca, cb = np.abs(eps1 / d_plain), np.abs(eps1 / d_twist)
        xp = np.abs(x1) ** p
        dxi3 = (deta3 + (ca + cb * xp) * dxi2
                + np.abs(xi2) * (ca * (da2 + da3) / np.abs(d_plain)
                                 + cb * xp * (da3 + ap * da2) / np.abs(d_twist)
                                 + (1 / np.abs(d_plain) + xp / np.abs(d_twist))
                                 * de1)
                + k * GAMMA * (np.abs(eta3) + np.abs(eps1) * (sp + st * xp)
                               * np.abs(xi2)))
        x = np.stack([ex[:, 0], dxi2, dxi3], axis=1)
    return amat, bmat, dlam, x


def _dev_sizes(d, w1, xs2, xs3):
    """Sizes of the terms of the developing map at cover points with
    first coordinate w1 and fiber sizes xs2, xs3, and the bound A (in
    GAMMA) on the relative error its exponentials add: exp moves by the
    error of its argument, which is at most a few GAMMA times the
    argument's size."""
    from lvmkit.holonomy import TWO_PI_I
    from lvmkit.resonant_group import _eig2
    re = np.real
    if d.case == "canonical-form":
        c1, c2, c3 = d.params
        t = TWO_PI_I * w1
        size = np.stack([np.exp(re(t * (1 + c1))), np.exp(re(t * c2)) * xs2,
                         np.exp(re(t * c3)) * xs3], axis=1)
        return size, 4 * np.abs(t) * (1 + abs(c1) + abs(c2) + abs(c3))
    if d.case == "affine":
        x1, kmat = d.params[0].data
        p = d.regime.p
        kmat = np.asarray(kmat)
        m, s2, c = _eig2(w1[:, None, None] * kmat)
        s = np.abs(np.sqrt(s2))
        n = (np.exp(re(m)) * np.cosh(s))[:, None, None] * (np.eye(2)
                                                            + np.abs(c))
        a1 = np.exp(re(w1 * x1))
        n[:, 1] *= (a1 ** p)[:, None]
        h = np.concatenate([a1[:, None], n.reshape(-1, 4)], axis=1)
        base = np.stack([np.exp(re(TWO_PI_I * w1)), xs2, xs3], axis=1)
        knorm = np.abs(kmat).sum()
        bound = ((1 + abs(p)) * np.abs(w1) * (abs(x1) + knorm)
                 + 3 * np.abs(w1) ** 2 * knorm ** 2 + 4 * np.pi * np.abs(w1)
                 + 30)
        return law_sizes(d.regime, apply_many, h, base), bound
    gamma, c1, c4, c3 = d.params
    p, q = d.regime.p, d.regime.q
    lg, lc1, lc4 = np.log(gamma), np.log(c1), np.log(c4)
    first = np.exp(re((TWO_PI_I + lg) * w1))
    second = np.exp(re(w1 * lc1))
    if d.case == "generic":
        kappa = c3 / (gamma ** p * c1 ** q - c4)
        third = (np.exp(re(w1 * lc4)) * xs3 + abs(kappa) * first ** p
                 * second ** q * xs2 ** q)
    else:
        third = np.exp(re(w1 * lc4)) * (xs3 + abs(c3 / c4) * np.abs(w1)
                                        * np.exp(re(TWO_PI_I * p * w1))
                                        * xs2 ** q)
    bound = 4 * np.abs(w1) * ((2 * np.pi + abs(lg)) * (1 + abs(p))
                              + abs(lc1) * (1 + abs(q)) + abs(lc4)) + 2 * q
    return np.stack([first, second * xs2, third], axis=1), bound


def residual_errors(structure, index, w):
    """Bounds on the error of one computation of the equivariance
    residual Dev(deck(w)) - rho(e_index) Dev(w) at the cover points w,
    relative to 1 + |rho(e_index) Dev(w)| as the residual is: the terms of
    both sides times their operation counts, the deck transform's and
    the developing map's errors carried through the powers xi^p, xi^q."""
    from lvmkit.developing import dev_eval_many
    from lvmkit.holonomy import TWO_PI_I
    spec, dev = structure.spec, structure.dev
    regime = spec.regime
    w1, xs2, xs3 = w[:, 0], np.abs(w[:, 1]), np.abs(w[:, 2])
    gen = spec.generators[index - 1]
    base, bound = _dev_sizes(dev, w1, xs2, xs3)
    rhs = law_sizes(regime, apply_many, gen.params()[None], base)
    s = 1.0 if index == 3 else structure.shifts[index - 1]
    if index == 3:
        fiber = np.stack([xs2, xs3], axis=1)
    else:
        point = np.stack([np.exp(np.real(TWO_PI_I * w1)), xs2, xs3], axis=1)
        fiber = law_sizes(regime, apply_many,
                          structure.output_pair[index - 1].params()[None],
                          point)[:, 1:]
    lhs, bound2 = _dev_sizes(dev, w1 + s, fiber[:, 0], fiber[:, 1])
    amp = 1 + abs(regime.p) + abs(regime.q)
    k = 2 * amp * (3 * law_ops(regime) + 10 + np.maximum(bound, bound2))
    got = np.abs(_images(regime, gen.params()[None], dev_eval_many(dev, w)))
    return k * GAMMA * (lhs.max(axis=1) + rhs.max(axis=1)) \
        / (1 + got.max(axis=1))


def group_laws_errors(regime, z, fault):
    """Bounds on the error of one computation of each sample's residual
    in `cli._group_laws` over the draws z: associativity, inverses and
    the action homomorphism, each a difference of two chains of laws."""
    from lvmkit.cli import _random_elements, _random_points
    from lvmkit.resonant_group import group_dim
    k = group_dim(regime)
    f, g, h = (_random_elements(regime, z[:, i * k:(i + 1) * k])
               for i in range(3))
    x = _random_points(z[:, 3 * k:])
    with np.errstate(all="ignore"):
        fg = _compose_rows(regime, f, g)
        if fault:
            fg[0] = fg[0] * (1 + 1e-3)
        scale = 1 + np.max(np.abs([f, g, h]), axis=(0, 2))
        ops = 3 * law_ops(regime) + 2

        def sizes(law, *rows):
            return law_sizes(regime, law, *rows).max(axis=1)
        gh = law_sizes(regime, compose_many, g, h)
        assoc = sizes(compose_many, fg, h) + sizes(compose_many, f, gh)
        inv = sizes(compose_many, f, law_sizes(regime, inverse_many, f))
        gx = law_sizes(regime, apply_many, g, x)
        hom = sizes(apply_many, fg, x) + sizes(apply_many, f, gx)
    return ops * GAMMA * np.maximum(
        np.maximum(assoc, inv) / scale, hom / (1 + np.abs(x).max(axis=1)))


def gluing_errors(p, q, z, fault):
    """Bounds on the error of one computation of each sample's residual
    in `cli._gluing` over the draws z: each compared pair's term sizes
    times its chain's operation count, and for the round trip through
    `invert_psi_p_many` the eigen-data's error as well."""
    from lvmkit.cli import _random_charts, _random_points
    from lvmkit.family_gluing import (_paired_eigendata, glue_phi_pq_many,
                                      glue_psi_p_many)
    k = chart_ops(p, q) + 8  # with the rounding of the drawn shear

    def worst(*arrays):
        return np.max([a.reshape(len(a), -1).max(axis=1) for a in arrays],
                      axis=0)
    with np.errstate(all="ignore"):
        amat, bmat, lam = _random_charts(z[:, :8])
        x = _random_points(z[:, 8:11])
        sa, sb, sx = glue_psi_p_many(amat, bmat, lam, x, p)
        if fault:
            sa[0, 1, 1] *= 1 + 1e-3
        size_a, size_b, size_x = psi_sizes(amat, bmat, lam, np.abs(x), p)
        err = []
        for word in ((1, 0), (0, 1)):
            y, ops = action_sizes("T", amat, bmat, word, np.abs(x))
            la, lb, lx = psi_sizes(amat, bmat, lam, y, p)
            rx, ops2 = action_sizes("S_p", size_a, size_b, word, size_x, p)
            err.append((ops + 2 * k) * worst(la + size_a, lb + size_b)
                       + (ops + ops2 + 2 * k) * worst(lx + rx))
        scale = 1 + np.abs(sx).max(axis=1)
        ea, eb, ex = (k * GAMMA * s for s in (size_a, size_b, size_x))
        eig = _paired_eigendata(sa, sb, p)
        eig_err, _ = eigen_errors(sa, sb, p, ea[:, 1:, 1:].max(axis=(1, 2)),
                                  eb[:, 1:, 1:].max(axis=(1, 2)))
        ta, tb, tlam, tx = invert_psi_errors(sa, sb, sx, p, eig, eig_err,
                                             ea, eb, ex)
        psi = (GAMMA * np.max(err, axis=0)
               + worst(ta, tb, tlam[:, None], tx)) / scale

        amat, bmat, lam = _random_charts(z[:, 11:19], p, q)
        x = _random_points(z[:, 19:])
        ta, tb, tx = glue_phi_pq_many(amat, bmat, x, p, q)
        size_a, size_b, size_x = phi_sizes(amat, bmat, np.abs(x), p, q)
        err = []
        for word in ((1, 0), (0, 1)):
            y, ops = action_sizes("T_pq", amat, bmat, word, np.abs(x), p, q)
            la, lb, lx = phi_sizes(amat, bmat, y, p, q)
            rx, ops2 = action_sizes("T", size_a, size_b, word, size_x)
            err.append((ops + 2 * k) * worst(la + size_a, lb + size_b)
                       + (ops + ops2 + 2 * k) * worst(lx + rx))
        ba, bb, bx = phi_sizes(ta, tb, size_x, p, q, invert=True)
        err.append(2 * k * worst(ba, bb, bx))
        phi = GAMMA * np.max(err, axis=0) / (1 + np.abs(tx).max(axis=1))
    return np.maximum(psi, phi)
