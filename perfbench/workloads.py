"""Seeded inputs, operations and expected outcomes of the four workloads.

Every input is generated from (seed, op index) alone, and every expected
outcome follows from how the input was built, never from running lvmkit:

* E1 perturbations certify as type (2, 6, 4) with indispensable set
  {1, 2, 3, 4} and regime NonResonant: points 5 and 6 keep all their
  coordinates negative in the basis of points 1-4, so each basis point is
  needed and neither negative point is.
* Sextuples in an open half-space miss the origin, so Siegel fails.
* n = 8 and n = 10 configurations repeat the E1 pattern with more
  negative points: certified, type (2, n, 4), indispensable {1, 2, 3, 4}.
* Eigen-data with a planted relation classifies as the planted regime.
* Chart points built to satisfy (or to violate one clause of) their
  membership condition report exactly that.
* ``verify all`` passes.
* Generator pairs whose first log-moduli make r*la1 + s*lb1 nonzero in the
  window are fixed-point free; with equal fibre moduli and dominant
  log-moduli no word of the probe band returns the annulus to itself.
  Root-of-unity pairs have a word with a fixed point inside the window.

Each op runs lvmkit the way a user would: CLI commands in-process through
``lvmkit.cli.main`` on a document file, library functions directly.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

# (m, n) reference configuration E1 in real coordinates
# (re z1, im z1, re z2, im z2).
E1 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
               [-1, -1, -1, -1], [-1.1, -1.1, -1.1, -1.1]], dtype=float)

CHART_BOUND = 64
FP_WINDOW = 25
PROBE_HORIZON = 20
PROBE_SAMPLES = 20
ANNULUS_RADIUS = 1e2


class Op:
    """One timed call into lvmkit plus the outcome expected of it.

    ``kind`` names the stratum the op's time is sampled into; ``props``
    records the input properties whose shares a run reports; ``tag`` is
    the find_resonances input class the tracer files times under.
    """

    def __init__(self, kind, run, check, props, tag="generic"):
        self.kind = kind
        self.run = run
        self.check = check
        self.props = props
        self.tag = tag


def invoke_cli(args):
    """Run one lvmkit command in this process; return (exit code, stdout)."""
    from lvmkit import cli
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(args=args, prog_name="lvmkit", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def _cli_op(kind, args, expect, props, tag="generic"):
    def run():
        return invoke_cli(args)

    def check(result):
        code, out = result
        try:
            report = json.loads(out)
        except ValueError:
            return False
        return expect(code, report)
    return Op(kind, run, check, props, tag)


def _write_doc(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path


def _config_doc(points):
    return {"m": 2, "vectors": [[[float(p[0]), float(p[1])],
                                 [float(p[2]), float(p[3])]] for p in points]}


def _c(rng, scale=1.0):
    return complex(rng.normal(), rng.normal()) * scale


def _phase(rng):
    return np.exp(2j * np.pi * rng.uniform())


# ---------------------------------------------------------------- analyze

def _e1_perturbed(rng):
    return E1 + rng.uniform(-0.02, 0.02, size=E1.shape)


def _halfspace_sextuple(rng):
    u = rng.normal(size=4)
    u /= np.linalg.norm(u)
    v = rng.normal(size=(6, 4))
    d = v @ u
    return v - 2 * np.minimum(d, 0)[:, None] * u + 0.1 * u


def _certified(rng, n):
    basis = np.eye(4) + rng.uniform(-0.05, 0.05, size=(4, 4))
    negative = rng.uniform(-1.3, -0.8, size=(n - 4, 4))
    return np.vstack([basis.T, negative @ basis.T])


def _analyze_op(kind, rng, workdir, index):
    if kind == "e1":
        points, n = _e1_perturbed(rng), 6

        def expect(code, rep):
            return (code == 0 and rep.get("type") == [2, 6, 4]
                    and rep.get("indispensable") == [1, 2, 3, 4]
                    and rep.get("regime", {}).get("tag") == "NonResonant")
    elif kind == "halfspace":
        points, n = _halfspace_sextuple(rng), 6

        def expect(code, rep):
            return (code == 1 and rep.get("siegel") is False
                    and rep.get("type") is None and "failure" in rep)
    else:
        n = int(kind[1:])
        points = _certified(rng, n)

        def expect(code, rep):
            return (code == 1 and rep.get("siegel") is True
                    and rep.get("weakly_hyperbolic") is True
                    and rep.get("type") == [2, n, 4]
                    and rep.get("indispensable") == [1, 2, 3, 4])
    path = _write_doc(workdir, "analyze-%d.json" % index, _config_doc(points))
    return _cli_op(kind, ["analyze", path, "--json"], expect, {"n%d" % n})


# --------------------------------------------------------------- classify

def _planted_regime(rng, which):
    if which == "NonResonant":
        return ("NonResonant", 0, 0)
    if which == "Single":
        return ("Single", int(rng.integers(-3, 4)), int(rng.integers(2, 5)))
    return ("Double", int(rng.integers(-3, 4)), 0)


def _eigen_data(rng, regime, unit_modulus):
    """Six multipliers with the planted relation; with unit_modulus the
    first two alphas lie on the unit circle, which makes the log-modulus
    matrix singular and sends find_resonances to its box path."""
    tag, p, q = regime
    a = rng.uniform(0.5, 2, size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
    b = rng.uniform(0.5, 2, size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
    if unit_modulus:
        a[:2] /= np.abs(a[:2])
    if tag == "Single":
        a[2] = a[0] ** p * a[1] ** q
        b[2] = b[0] ** p * b[1] ** q
    elif tag == "Double":
        a[2] = a[0] ** p * a[1]
        b[2] = b[0] ** p * b[1]
    return [[float(z.real), float(z.imag)] for z in np.concatenate([a, b])]


def _resonance_op(kind, rng, workdir, index, which):
    unit = kind == "box"
    regime = _planted_regime(rng, which)
    doc = {"eigen_data": _eigen_data(rng, regime, unit)}
    path = _write_doc(workdir, "eigen-%d.json" % index, doc)

    def expect(code, rep):
        got = rep.get("regime", {})
        return code == 0 and (got.get("tag"), got.get("p"), got.get("q")) \
            == regime
    props = {"regime_" + which.lower()} | ({"unit_modulus"} if unit else set())
    return _cli_op(kind, ["resonances", path, "--json"], expect, props,
                   tag="unit_modulus" if unit else "generic")


def _double_block(a1, p, inv, eigen, conj):
    """Matrix M = L N of a Double element: N = inv @ diag(eigen) @ conj is
    its untwisted GL(2) part and L = diag(1, a1^p).  Blocks that share
    ``conj`` commute, and N's eigenvalues bound the growth of powers."""
    return np.diag([1, a1 ** p]) @ inv @ np.diag(eigen) @ conj


def _diag_moduli(rng):
    """Six multipliers with |a2| > |a3| and generic phases."""
    mods = np.exp(rng.uniform(-0.6, 0.6, size=6))
    mods[1], mods[2] = max(mods[1], mods[2]) * 1.2, min(mods[1], mods[2])
    return [m * _phase(rng) for m in mods]


def _chart_point(rng, variant):
    """(FamilyPoint, sharp, clauses expected false) for one chart variant."""
    from lvmkit.family_gluing import FamilyPoint
    a1, a2, a3, b1, b2, b3 = _diag_moduli(rng)
    eps = _c(rng, 0.3)
    if variant in ("T", "T_violated"):
        delta = eps * (b3 - b2) / (a3 - a2)
        bad = set()
        if variant == "T_violated":
            delta += 0.1 * (1 + abs(delta))
            bad = {"shear-compatibility"}
        amat = np.diag([a1, a2, a3]).astype(complex)
        bmat = np.diag([b1, b2, b3]).astype(complex)
        amat[2, 1], bmat[2, 1] = eps, delta
        return FamilyPoint("T", amat, bmat, lam=_c(rng, 0.5)), False, bad
    if variant in ("T_pq", "T_pq_sharp"):
        p, q = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        sharp = variant == "T_pq_sharp"
        if sharp:
            # plant a3 = a1^p a2^q; log|a3/a2| = p log|a1| + (q - 1) log|a2|
            # <= -0.3 + 2 * 0.1 keeps |a2| > |a3|
            a1 = math.exp(rng.uniform(-0.6, -0.3)) * _phase(rng)
            b1 = math.exp(rng.uniform(-0.6, -0.3)) * _phase(rng)
            a2 = math.exp(rng.uniform(-0.3, 0.1)) * _phase(rng)
            a3, b3 = a1 ** p * a2 ** q, b1 ** p * b2 ** q
            delta = _c(rng, 0.3)
        else:
            delta = eps * (b3 - b1 ** p * b2 ** q) / (a3 - a1 ** p * a2 ** q)
        amat = np.diag([a1, a2, a3]).astype(complex)
        bmat = np.diag([b1, b2, b3]).astype(complex)
        amat[2, 1], bmat[2, 1] = eps, delta
        return (FamilyPoint("T_pq", amat, bmat, lam=_c(rng, 0.5), p=p, q=q),
                sharp, set())
    # S_p: a commuting Double pair, diagonal up to a common conjugation
    p = int(rng.integers(1, 3))
    conj = np.eye(2) + rng.normal(size=(2, 2)) * 0.3 \
        + 1j * rng.normal(size=(2, 2)) * 0.3
    inv = np.linalg.inv(conj)
    amat = np.zeros((3, 3), dtype=complex)
    bmat = np.zeros((3, 3), dtype=complex)
    amat[0, 0], bmat[0, 0] = a1, b1
    amat[1:, 1:] = _double_block(a1, p, inv, [a2, a3], conj)
    bmat[1:, 1:] = _double_block(b1, p, inv, [b2, b3], conj)
    return FamilyPoint("S_p", amat, bmat, p=p), False, set()


def _chart_op(kind, rng, variant):
    from lvmkit import family_gluing
    point, sharp, bad = _chart_point(rng, variant)

    def run():
        # looked up at call time, so a traced run calls the wrapper
        return family_gluing.check_condition(point, sharp=sharp,
                                             bound=CHART_BOUND)

    def check(report):
        return (report.bound == CHART_BOUND and len(report.clauses) > 0
                and all(ok == (name not in bad) for name, ok in report.clauses))
    return Op(kind, run, check, {"chart_" + point.space})


# --------------------------------------------------------------- verify

def _verify_op(kind, rng):
    seed = int(rng.integers(0, 2 ** 31))

    def expect(code, rep):
        return code == 0 and rep.get("passed") is True \
            and rep.get("seed") == seed
    return _cli_op(kind, ["verify", "all", "--seed", str(seed), "--json"],
                   expect, set())


# -------------------------------------------------------------- dynamics

def _first_row(rng):
    """(la1, lb1) with |la1| > 25 |lb1| > 0: r*la1 + s*lb1 != 0 for every
    nonzero word with |r|, |s| <= 25, so no word fixes the first
    coordinate."""
    la1 = rng.uniform(1.2, 1.5) * rng.choice([-1.0, 1.0])
    lb1 = rng.uniform(0.02, 0.04) * rng.choice([-1.0, 1.0])
    return la1, lb1


def _dynamics_pair(rng, kind):
    from lvmkit.resonance import ResonanceClass
    from lvmkit.resonant_group import GroupElement
    if kind == "root_of_unity":
        # orders of the first two multipliers divide 12, 15 or 20, so
        # f^lcm fixes (1, 1, 0) inside the window
        m1, m2 = rng.choice([2, 3, 4, 5], size=2, replace=False)
        ks = [int(rng.integers(1, m)) for m in (m1, m2)]
        fa = [np.exp(2j * np.pi * ks[0] / m1), np.exp(2j * np.pi * ks[1] / m2),
              _phase(rng)]
        gb = [np.exp(2j * np.pi * int(rng.integers(1, 7)) / 7) for _ in range(3)]
        nr = ResonanceClass("NonResonant")
        return GroupElement(nr, tuple(fa)), GroupElement(nr, tuple(gb))
    la1, lb1 = _first_row(rng)
    a1, b1 = math.exp(la1) * _phase(rng), math.exp(lb1) * _phase(rng)
    if kind == "nonresonant":
        # equal fibre moduli, so words scale the fibre norm uniformly; with
        # dominant log-moduli every word of the probe band leaves the
        # annulus in the first coordinate or in the fibre
        la2 = rng.uniform(-0.1, 0.1)
        lb2 = rng.uniform(1.2, 1.5) * rng.choice([-1.0, 1.0])
        nr = ResonanceClass("NonResonant")
        f = (a1, math.exp(la2) * _phase(rng), math.exp(la2) * _phase(rng))
        g = (b1, math.exp(lb2) * _phase(rng), math.exp(lb2) * _phase(rng))
        return GroupElement(nr, f), GroupElement(nr, g)
    if kind == "single":
        p, q = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        cls = ResonanceClass("Single", p=p, q=q)
        a2, a3, b2, b3 = (math.exp(rng.uniform(-1, 1)) * _phase(rng)
                          for _ in range(4))
        eps = _c(rng, 0.3)
        delta = eps * (b3 - b1 ** p * b2 ** q) / (a3 - a1 ** p * a2 ** q)
        return (GroupElement(cls, (a1, a2, a3, eps)),
                GroupElement(cls, (b1, b2, b3, delta)))
    # Double: untwisted eigenvalues within e^0.3 of the unit circle keep
    # the window's powers of the blocks far from cancelling determinants
    p = int(rng.integers(1, 3))
    cls = ResonanceClass("Double", p=p)
    conj = np.eye(2) + rng.normal(size=(2, 2)) * 0.3
    inv = np.linalg.inv(conj)
    a2, a3, b2, b3 = (math.exp(rng.uniform(-0.3, 0.3)) * _phase(rng)
                      for _ in range(4))
    return (GroupElement(cls, (a1, _double_block(a1, p, inv, [a2, a3], conj))),
            GroupElement(cls, (b1, _double_block(b1, p, inv, [b2, b3], conj))))


def _witness_ok(pair, cert):
    """The certificate's word lies in the window and fixes its point
    (NonResonant pairs act coordinate-wise)."""
    (r, s), x = cert.witness
    if (r, s) == (0, 0) or max(abs(r), abs(s)) > cert.window:
        return False
    f, g = pair
    h = np.array([a ** r * b ** s for a, b in zip(f.data, g.data)])
    xi = x.array()
    return bool(np.max(np.abs(h * xi - xi)) <= 1e-9 * (1 + np.max(np.abs(xi))))


def _dynamics_op(kind, rng):
    from lvmkit import action
    pair = _dynamics_pair(rng, kind)
    probe_seed = int(rng.integers(0, 2 ** 31))

    def run():
        cert = action.fixed_point_certificate(pair, window=FP_WINDOW)
        probe = action.properness_probe(
            pair, compact_radius=ANNULUS_RADIUS, horizon=PROBE_HORIZON,
            samples=PROBE_SAMPLES, seed=probe_seed)
        return cert, probe

    def check(result):
        cert, probe = result
        if cert.window != FP_WINDOW or probe.horizon != PROBE_HORIZON:
            return False
        if kind == "root_of_unity":
            # unit-modulus multipliers keep every image in the annulus
            return (not cert.fixed_point_free and _witness_ok(pair, cert)
                    and not probe.no_violation_found)
        if kind == "nonresonant":
            return cert.fixed_point_free and probe.no_violation_found
        return cert.fixed_point_free
    regime = pair[0].regime.tag.lower()
    props = {"regime_" + regime} | ({"root_of_unity"}
                                    if kind == "root_of_unity" else set())
    return Op(kind, run, check, props)


# -------------------------------------------------------------- registry

# Each workload: the modules a fresh interpreter imports to drive it, its
# op kinds with their integer weights in the op mix, how many rounds of
# the mix make up its pool of inputs, and the kinds run once untimed
# before timing starts.  The weights put the latency p50 and p90 each
# inside one kind's band of times, not on the edge between two.  A pool
# takes about five seconds to run once, so a 25-second run times every
# input three to five times.
WORKLOADS = {
    "analyze": {
        "imports": "lvmkit.cli",
        "mix": (("halfspace", 7), ("e1", 10), ("n8", 2), ("n10", 1)),
        "cycles": 1,
        "warmup": ("halfspace", "e1"),
    },
    "classify": {
        "imports": "lvmkit.cli",
        "mix": (("fast", 3), ("chart", 5), ("box", 2)),
        "cycles": 15,
        "warmup": ("fast", "chart", "box"),
    },
    "verify": {
        "imports": "lvmkit.cli",
        "mix": (("verify", 1),),
        "cycles": 20,
        "warmup": ("verify",),
    },
    "dynamics": {
        "imports": "lvmkit.action",
        "mix": (("root_of_unity", 1), ("nonresonant", 2), ("single", 1),
                ("double", 1)),
        "cycles": 3,
        "warmup": ("root_of_unity", "nonresonant", "single", "double"),
    },
}

_REGIMES = ("NonResonant", "Single", "Double")
_CHART_VARIANTS = ("T", "T_pq", "S_p", "T_violated", "T_pq_sharp")


def schedule(mix):
    """Kinds in smooth weighted round-robin order: every prefix of the
    sequence holds each kind within one op of its weighted share."""
    total = sum(w for _, w in mix)
    credit = {k: 0 for k, _ in mix}
    while True:
        for kind, weight in mix:
            credit[kind] += weight
        kind = max(mix, key=lambda kw: credit[kw[0]])[0]
        credit[kind] -= total
        yield kind


def make_op(workload, kind, seed, index, count, workdir):
    """The index-th op of the workload; count is how many ops of this kind
    came before it, which rotates regimes and chart variants evenly."""
    rng = np.random.default_rng([seed, index])
    if workload == "analyze":
        return _analyze_op(kind, rng, workdir, index)
    if workload == "classify":
        if kind == "chart":
            return _chart_op(kind, rng, _CHART_VARIANTS[count % len(_CHART_VARIANTS)])
        return _resonance_op(kind, rng, workdir, index, _REGIMES[count % 3])
    if workload == "verify":
        return _verify_op(kind, rng)
    return _dynamics_op(kind, rng)


def make_pool(workload, seed, workdir, cycles=None, factory=None):
    """The workload's inputs: ``cycles`` rounds of its op mix (by default
    the workload's own count) in schedule order, each op built by
    ``factory`` (make_op unless a test substitutes one)."""
    spec = WORKLOADS[workload]
    factory = factory or make_op
    order = schedule(spec["mix"])
    counts = {kind: 0 for kind, _ in spec["mix"]}
    ops = []
    size = (cycles or spec["cycles"]) * sum(w for _, w in spec["mix"])
    for index in range(size):
        kind = next(order)
        ops.append(factory(workload, kind, seed, index, counts[kind], workdir))
        counts[kind] += 1
    return ops
