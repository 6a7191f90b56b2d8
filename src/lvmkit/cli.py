"""Command-line front-end.

Four commands:

* ``analyze``    -- certify a configuration document, derive its holonomy
                    eigen-data, resonances and cohomology dimensions;
* ``resonances`` -- resonance detection for a configuration or for raw
                    eigen-data;
* ``verify``     -- seeded property suites (group laws, gluing maps,
                    developing-map equivariance, action certificates),
                    the first three evaluated on arrays of all samples;
* ``deform``     -- project a deformed holonomy triple and verify the
                    induced structure.

Each command builds a report; one wrapper, ``_command``, checks its
options, turns a library refusal into the report's ``failure``, prints
the report and sets the exit code: 0 on success, 1 when the report holds
a ``failure`` or ``"passed": false`` (a refused input, a condition or a
residual out of tolerance), 2 on usage or parse errors.  All randomized
checks are seeded (default 0) and reports embed seed, tolerances and
bounds, so identical invocations produce byte-identical output.
"""

import functools
import json
import math
import sys

import click
import numpy as np

from .config_geometry import Configuration, NotLVMError, config_report
from .holonomy import holonomy_pair, pair_from_flat
from .resonance import (DEFAULT_BOUND, DEFAULT_TOL, MAX_BOUND,
                        ResonanceClass, UnclassifiableResonancePattern,
                        classify_regime, cohomology_dims, find_resonances)
from .resonant_group import (BranchDomain, GroupElement, IllConditioned,
                             _power, apply_many, compose_many,
                             element_from_params, group_dim, identity,
                             inverse_many)
from .rep_variety import NoConvergence, StructureSpec
from .developing import check_structure
from .action import fixed_point_certificate, properness_probe
from .family_gluing import (NotInImage, _diagonal, family_action_many,
                            glue_phi_pq_many, glue_psi_p_many,
                            invert_psi_p_many)

VERIFY_TOL = 1e-10
# the library's refusals of an input, which fail a report or a verify suite
_REFUSALS = (ValueError, ArithmeticError, NotInImage, IllConditioned,
             BranchDomain, NoConvergence, np.linalg.LinAlgError, NotLVMError,
             UnclassifiableResonancePattern)

_REGIMES = (ResonanceClass("NonResonant"),
            ResonanceClass("Single", p=1, q=2),
            ResonanceClass("Double", p=1))

# the reference configuration E1 of type (2, 6, 4)
_E1 = Configuration(2, ((1, 0), (1j, 0), (0, 1), (0, 1j),
                        (-1 - 1j, -1 - 1j), (-1.1 - 1.1j, -1.1 - 1.1j)))


def _check_options(tol, bound=None):
    """Refuse a --tol that is not positive and finite (nan and inf check
    nothing) and, given a search bound, a tol from 1 on or a bad bound."""
    if not 0 < tol < math.inf:
        raise click.UsageError("--tol must be positive and finite, got %g" % tol)
    if bound is None:
        return
    if tol >= 1:
        raise click.UsageError("--tol must be below 1, got %g" % tol)
    if bound < 0:
        raise click.UsageError("--bound must be non-negative, got %d" % bound)
    if bound > MAX_BOUND:
        raise click.UsageError("--bound must be at most %d, got %d"
                               % (MAX_BOUND, bound))


def _load_document(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise click.UsageError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise click.UsageError("parse error in %s at line %d column %d: %s"
                               % (path, exc.lineno, exc.colno, exc.msg))


def _parse_pairs(pairs, what):
    try:
        return [complex(re, im) for re, im in pairs]
    except (TypeError, ValueError, OverflowError) as exc:
        raise click.UsageError("malformed %s document: %s" % (what, exc))


def _parse_config(doc):
    try:
        m = doc["m"]
        vectors = tuple(tuple(_parse_pairs(vec, "configuration"))
                        for vec in doc["vectors"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise click.UsageError("malformed configuration document: %s" % exc)
    return m, vectors


def _encode(value):
    """What json cannot encode of a report: a numpy scalar, as the Python
    one, and a complex value, as [re, im]."""
    return [value.real, value.imag] if isinstance(value, complex) else value.item()


def _emit(report, as_json):
    """Print the report as JSON, or as dotted-path lines of its JSON."""
    if as_json:
        click.echo(json.dumps(report, sort_keys=True, indent=2, default=_encode))
        return

    def lines(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                yield from lines("%s%s." % (prefix, key), value[key])
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            for i, item in enumerate(value):
                yield from lines("%s%d." % (prefix, i), item)
        else:
            yield "%s= %s" % (prefix or ". ", json.dumps(value))

    for line in lines("", json.loads(json.dumps(report, default=_encode))):
        click.echo(line)


def _command(build):
    """The click callback of a report builder build(report, **options):
    check the options, record a refusal as the report's failure, print the
    report and exit 1 when it holds a failure or "passed": false."""
    @functools.wraps(build)
    def run(as_json, **options):
        _check_options(options["tol"], options.get("bound"))
        report = {}
        try:
            build(report, **options)
        except _REFUSALS as exc:
            report["failure"] = str(exc) or exc.__class__.__name__
        _emit(report, as_json)
        if "failure" in report or not report.get("passed", True):
            sys.exit(1)
    return run


def _resonance_report(report, pair, tol, bound):
    """Fill in eigen-data, resonances, regime and cohomology; return the
    regime."""
    report["eigen_data"] = list(pair.flat())
    found = find_resonances(pair, tol=tol, bound=bound)
    report["resonances"] = [{"j": r.j, "p": list(r.p)} for r in found]
    regime = classify_regime(found)
    report["regime"] = {"tag": regime.tag, "p": regime.p, "q": regime.q}
    report["cohomology"] = list(cohomology_dims(regime))
    return regime


def _certified_pair(config, certified):
    """Certify config into certified; of type (2, 6, 4), its holonomy pair."""
    summary = config_report(config)
    certified.update(siegel=summary.is_siegel, type=summary.type_triple,
                     weakly_hyperbolic=summary.is_weakly_hyperbolic,
                     indispensable=sorted(summary.indispensable))
    if summary.type_triple != (2, 6, 4):
        raise ValueError("type is %s, expected (2, 6, 4)" % (
            (summary.type_triple,) if summary.type_triple else "undefined"))
    return holonomy_pair(config)


@click.group()
def main():
    """Toolkit for admissible configurations of type (2, 6, 4), their
    holonomy, resonances, deformations and gluing maps."""


@main.command()
@click.argument("path", type=click.Path())
@click.option("--tol", default=DEFAULT_TOL, show_default=True, type=float)
@click.option("--bound", default=DEFAULT_BOUND, show_default=True, type=int)
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
@_command
def analyze(report, path, tol, bound):
    """Full pipeline on a configuration document: certification,
    holonomy eigen-data, resonances, cohomology dimensions."""
    m, vectors = _parse_config(_load_document(path))
    report.update(input=path, tol=tol, bound=bound)
    pair = _certified_pair(Configuration(m, vectors), report)
    report["group_dim"] = group_dim(_resonance_report(report, pair, tol, bound))


@main.command()
@click.argument("path", type=click.Path())
@click.option("--tol", default=DEFAULT_TOL, show_default=True, type=float)
@click.option("--bound", default=DEFAULT_BOUND, show_default=True, type=int)
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
@_command
def resonances(report, path, tol, bound):
    """Resonance detection.  The document either holds a configuration
    (fields m, vectors) or raw eigen-data (field eigen_data: six
    [re, im] pairs in the order a1, a2, a3, b1, b2, b3)."""
    doc = _load_document(path)
    report.update(input=path, tol=tol, bound=bound)
    if isinstance(doc, dict) and "eigen_data" in doc:
        _parse_pairs(doc["eigen_data"], "eigen-data")
        pair = pair_from_flat(doc["eigen_data"])
    else:
        pair = _certified_pair(Configuration(*_parse_config(doc)), {})
    _resonance_report(report, pair, tol, bound)


# samples per array block of a suite, which bounds the memory a large
# --samples takes
_BLOCK = 4096


def _worst(rng, samples, width, evaluate):
    """The worst residual of evaluate(z) over blocks of complex
    draws z (n, width), one row per sample.  A block decides its refusals
    from its own rows, in numpy's arithmetic; a block that raises is
    evaluated again one sample at a time, so that the error raised is the
    first sample's."""
    worst = 0.0
    for start in range(0, samples, _BLOCK):
        n = min(_BLOCK, samples - start)
        z = rng.normal(size=(n, 2 * width)).view(complex)
        try:
            worst = max(worst, evaluate(z))
        except Exception:
            for k in range(n):
                evaluate(z[k:k + 1])
            raise
    return worst


def _random_points(z):
    """Points (N, 3) of V from three complex draws per row."""
    return np.stack([2 + z[:, 0], z[:, 1], 1 + z[:, 2]], axis=1)


def _random_elements(regime, z):
    """Parameter rows (N, k) of group elements near the identity from 3,
    4 or 5 complex draws per row."""
    if regime.tag == "Double":
        re = z[:, 1:].view(float)
        mats = (np.eye(2) + re[:, :4].reshape(-1, 2, 2) * 0.4
                + 1j * re[:, 4:].reshape(-1, 2, 2) * 0.4)
        return np.concatenate([2 + z[:, :1] * 0.3, mats.reshape(-1, 4)],
                              axis=1)
    h = np.stack([2 + z[:, 0] * 0.3, 1 + z[:, 1] * 0.3, 0.7 + z[:, 2] * 0.2],
                 axis=1)
    if regime.tag == "Single":
        h = np.concatenate([h, z[:, 3:4] * 0.4], axis=1)
    return h


def _group_laws(regime, z):
    """The worst residual of associativity, inverses and the action
    homomorphism over the samples drawn as z."""
    k = group_dim(regime)
    f, g, h = (_random_elements(regime, z[:, i * k:(i + 1) * k])
               for i in range(3))
    x = _random_points(z[:, 3 * k:])

    compose = functools.partial(compose_many, regime)
    apply = functools.partial(apply_many, regime)
    fg = compose(f, g)
    scale = 1 + np.max(np.abs([f, g, h]), axis=(0, 2))
    assoc = np.abs(compose(fg, h) - compose(f, compose(g, h)))
    inv = np.abs(compose(f, inverse_many(regime, f))
                 - identity(regime).params())
    hom = np.abs(apply(fg, x) - apply(f, apply(g, x)))
    return max(np.max(np.max(assoc, axis=1) / scale),
               np.max(np.max(inv, axis=1) / scale),
               np.max(np.max(hom, axis=1) / (1 + np.max(np.abs(x), axis=1))))


def _suite_group_laws(seed, samples, tol):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for regime in _REGIMES:
        width = 3 * group_dim(regime) + 3
        worst = max(worst, _worst(rng, samples, width, functools.partial(
            _group_laws, regime)))
    return {"name": "group-laws", "samples": samples,
            "max_residual": worst, "passed": worst <= tol}


def _random_charts(z, p=0, q=1):
    """Stacked T points, or T_pq points when q >= 2, from eight complex
    draws per row: matrices (N, 3, 3) and lambdas (N,).  The second shear
    entry solves the shear-compatibility clause (T is the case p = 0,
    q = 1)."""
    c = z * [0.2, 0.2, 0.1, 0.2, 0.2, 0.1, 0.3, 0.5]
    a = c[:, :3] + [1.5, 2.0, 0.5]
    b = c[:, 3:6] + [0.8, 1.3, 0.4]

    def twisted(d, name):
        return d[:, 2] - (_power(d[:, 0], p, "random chart", name + "1")
                          * _power(d[:, 1], q, "random chart", name + "2"))
    delta = c[:, 6] * twisted(b, "b") / twisted(a, "a")
    return _diagonal(*a.T, c[:, 6]), _diagonal(*b.T, delta), c[:, 7]


def _gluing(p, q, z):
    """The worst residual of the equivariance and the round trip of psi_p
    and phi_pq over the samples drawn as z."""
    def diff(*pairs):
        return np.max([np.max(np.abs(u - v), axis=tuple(range(1, u.ndim)))
                       for u, v in pairs], axis=0)
    amat, bmat, lam = _random_charts(z[:, :8])
    x = _random_points(z[:, 8:11])
    sa, sb, sx = glue_psi_p_many(amat, bmat, lam, x, p)
    scale = 1 + np.max(np.abs(sx), axis=1)
    res = []
    for word in ((1, 0), (0, 1)):
        la, lb, lx = glue_psi_p_many(
            amat, bmat, lam, family_action_many("T", amat, bmat, word, x), p)
        rx = family_action_many("S_p", sa, sb, word, sx, p)
        res.append(diff((la, sa), (lb, sb), (lx, rx)) / scale)
    ta, tb, tlam, tx = invert_psi_p_many(sa, sb, sx, p)
    res.append(np.maximum(diff((ta, amat), (tb, bmat), (tx, x)),
                          np.abs(tlam - lam)) / scale)

    amat, bmat, lam = _random_charts(z[:, 11:19], p, q)
    x = _random_points(z[:, 19:])
    ta, tb, tx = glue_phi_pq_many(amat, bmat, x, p, q)
    scale = 1 + np.max(np.abs(tx), axis=1)
    for word in ((1, 0), (0, 1)):
        la, lb, lx = glue_phi_pq_many(amat, bmat, family_action_many(
            "T_pq", amat, bmat, word, x, p, q), p, q)
        rx = family_action_many("T", ta, tb, word, tx)
        res.append(diff((la, ta), (lb, tb), (lx, rx)) / scale)
    ba, bb, bx = glue_phi_pq_many(ta, tb, tx, p, q, invert=True)
    res.append(diff((ba, amat), (bb, bmat), (bx, x)) / scale)
    return np.max(res)


def _suite_gluing(seed, samples, tol, p, q):
    rng = np.random.default_rng(seed)
    worst = _worst(rng, samples, 22, functools.partial(_gluing, p, q))
    return {"name": "gluing", "samples": samples, "p": p, "q": q,
            "max_residual": worst, "passed": worst <= tol}


def _suite_developing(seed, samples):
    pair = holonomy_pair(_E1)
    nr, s12, d1 = _REGIMES
    third = (1 + 1e-3, 1 - 2e-3, 1 + 1e-3j)

    def single(x1, x2, x3):
        return GroupElement(s12, (x1, x2, x3, 0.4 * (x3 - x1 * x2 ** 2)))

    specs = (
        StructureSpec((GroupElement(nr, pair.alpha),
                       GroupElement(nr, pair.beta),
                       GroupElement(nr, third)), base_config=_E1),
        StructureSpec((single(2, 0.6, 0.5),
                       single(1 + 1j, 0.5j, -0.3 + 0.2j),
                       single(1.01, 1.02, 0.97))),
        StructureSpec((GroupElement(d1, (2 + 0.5j, np.diag([1.3, 0.7 - 0.2j]))),
                       GroupElement(d1, (0.8, np.diag([0.5j, 1.1]))),
                       GroupElement(d1, (1.02, np.diag([0.99, 1.03]))))),
    )
    worst = 0.0
    results = []
    for spec in specs:
        rep = check_structure(spec, samples=samples, seed=seed)
        worst = max(worst, rep.max_residual)
        results.append({"regime": spec.regime.tag,
                        "max_residual": rep.max_residual,
                        "complete": rep.complete})
    return {"name": "developing", "samples": samples, "structures": results,
            "max_residual": worst, "passed": worst <= 1e-9}


def _suite_action(seed):
    pair = holonomy_pair(_E1)
    nr = _REGIMES[0]
    gen_pair = (GroupElement(nr, pair.alpha), GroupElement(nr, pair.beta))
    cert = fixed_point_certificate(gen_pair, window=10)
    # all multipliers on the unit circle with rational angles: f^3 fixes
    # a point, and the action keeps returning to any annulus
    unit = (GroupElement(nr, tuple(np.exp(2j * np.pi * np.array([1 / 3, 1 / 3, 1 / 7])))),
            GroupElement(nr, tuple(np.exp(2j * np.pi * np.array([1 / 5, 1 / 7, 1 / 9])))))
    counter = fixed_point_certificate(unit, window=6)
    probe = properness_probe(gen_pair, horizon=8, samples=5, seed=seed)
    passed = (cert.fixed_point_free and not counter.fixed_point_free
              and probe.no_violation_found)
    return {"name": "action", "window": cert.window,
            "fixed_point_free": cert.fixed_point_free,
            "counterexample_witnessed": not counter.fixed_point_free,
            "probe_clean": probe.no_violation_found, "passed": passed}


@main.command()
@click.argument("suite", type=click.Choice(
    ["group-laws", "gluing", "developing", "action", "all"]))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(0))
@click.option("--samples", default=100, show_default=True, type=click.IntRange(1))
@click.option("--tol", default=VERIFY_TOL, show_default=True, type=float)
@click.option("--p", default=1, show_default=True, type=int)
@click.option("--q", default=2, show_default=True, type=click.IntRange(2))
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
@_command
def verify(report, suite, seed, samples, tol, p, q):
    """Run a seeded property suite and report the worst residual."""
    wanted = ("group-laws", "gluing", "developing", "action") \
        if suite == "all" else (suite,)
    results = []
    for name in wanted:
        try:
            if name == "group-laws":
                result = _suite_group_laws(seed, samples, tol)
            elif name == "gluing":
                result = _suite_gluing(seed, samples, tol, p, q)
            elif name == "developing":
                result = _suite_developing(seed, min(samples, 100))
            else:
                result = _suite_action(seed)
        except _REFUSALS as exc:
            result = {"name": name, "passed": False,
                      "failure": "%s: %s" % (type(exc).__name__, exc)}
        results.append(result)
    report.update(suite=suite, seed=seed, samples=samples, tol=tol,
                  results=results, passed=all(r["passed"] for r in results))


@main.command()
@click.argument("path", type=click.Path())
@click.option("--seed", default=0, show_default=True, type=click.IntRange(0))
@click.option("--samples", default=100, show_default=True, type=click.IntRange(1))
@click.option("--tol", default=1e-9, show_default=True, type=float)
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
@_command
def deform(report, path, seed, samples, tol):
    """Project a deformed holonomy triple and verify the structure.

    The document holds a regime ({tag, p, q}), three generators as flat
    coefficient lists of [re, im] pairs (3, 4 or 1+4 coefficients per
    the regime), and, for the non-resonant regime, a base configuration
    under the key config."""
    doc = _load_document(path)
    report["input"] = path
    try:
        rdoc = doc["regime"]
        regime = ResonanceClass(rdoc["tag"], p=rdoc.get("p", 0),
                                q=rdoc.get("q", 0))
        count = group_dim(regime)
        for n in map(len, doc["generators"]):
            if n != count:
                raise click.UsageError("a %s generator needs %d coefficients, "
                                       "got %d" % (regime.tag, count, n))
        gens = tuple(
            element_from_params(regime, _parse_pairs(coeffs, "structure"))
            for coeffs in doc["generators"])
        if len(gens) != 3:
            raise click.UsageError("expected exactly three generators")
        if not all(np.isfinite(g.params()).all() for g in gens):
            raise ValueError("generator entries must be finite")
        config = None
        if "config" in doc:
            config = Configuration(*_parse_config(doc["config"]))
    except (KeyError, TypeError) as exc:
        raise click.UsageError("malformed structure document: %s" % exc)
    report.update(seed=seed, samples=samples, tol=tol)
    result = check_structure(StructureSpec(gens, base_config=config),
                             samples=samples, tol=tol, seed=seed)
    report.update(regime={"tag": regime.tag, "p": regime.p, "q": regime.q},
                  max_residual=result.max_residual,
                  mean_residual=result.mean_residual,
                  per_generator=[{"generator": idx, "max": mx, "mean": mean}
                                 for idx, mx, mean in result.per_generator],
                  complete=result.complete, passed=result.passed)


if __name__ == "__main__":
    main()
