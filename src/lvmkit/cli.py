"""Command-line front-end.

Four commands:

* ``analyze``    -- certify a configuration document, derive its holonomy
                    eigen-data, resonances and cohomology dimensions;
* ``resonances`` -- resonance detection for a configuration or for raw
                    eigen-data;
* ``verify``     -- seeded property suites (group laws, gluing maps,
                    developing-map equivariance, action certificates);
* ``deform``     -- project a deformed holonomy triple and verify the
                    induced structure.

Exit codes: 0 on success, 1 on a mathematical failure (a condition or a
residual out of tolerance), 2 on usage or parse errors.  All randomized
checks are seeded (default 0) and reports embed seed, tolerances and
bounds, so identical invocations produce byte-identical output.
"""

import json
import sys

import click
import numpy as np

from .config_geometry import Configuration, NotLVMError, config_report
from .holonomy import holonomy_pair, pair_from_flat
from .resonance import (DEFAULT_BOUND, DEFAULT_TOL, ResonanceClass,
                        UnclassifiableResonancePattern, classify_regime,
                        cohomology_dims, find_resonances)
from .resonant_group import (GroupElement, PointV, apply, compose,
                             element_from_params, group_dim, identity,
                             inverse)
from .rep_variety import NoConvergence, StructureSpec
from .developing import check_structure
from .action import fixed_point_certificate, properness_probe
from .family_gluing import FamilyPoint, family_action, glue_phi_pq, \
    glue_psi_p, invert_phi_pq, invert_psi_p

VERIFY_TOL = 1e-10

_REGIMES = (ResonanceClass("NonResonant"),
            ResonanceClass("Single", p=1, q=2),
            ResonanceClass("Double", p=1))

# the reference configuration E1 of type (2, 6, 4)
_E1 = Configuration(2, ((1, 0), (1j, 0), (0, 1), (0, 1j),
                        (-1 - 1j, -1 - 1j), (-1.1 - 1.1j, -1.1 - 1.1j)))


def _check_search_options(tol, bound):
    if tol <= 0:
        raise click.UsageError("--tol must be positive")
    if tol >= 1:
        raise click.UsageError("--tol must be below 1, got %g" % tol)
    if bound < 0:
        raise click.UsageError("--bound must be non-negative, got %d" % bound)


def _load_document(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise click.UsageError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise click.UsageError("parse error in %s at line %d column %d: %s"
                               % (path, exc.lineno, exc.colno, exc.msg))


def _parse_config(doc):
    try:
        m = int(doc["m"])
        vectors = tuple(
            tuple(complex(re, im) for re, im in vec) for vec in doc["vectors"])
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError("malformed configuration document: %s" % exc)
    return m, vectors


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _emit(report, as_json):
    report = _jsonable(report)
    if as_json:
        click.echo(json.dumps(report, sort_keys=True, indent=2))
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

    for line in lines("", report):
        click.echo(line)


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


@click.group()
def main():
    """Toolkit for admissible configurations of type (2, 6, 4), their
    holonomy, resonances, deformations and gluing maps."""


@main.command()
@click.argument("path", type=click.Path())
@click.option("--tol", default=DEFAULT_TOL, show_default=True, type=float)
@click.option("--bound", default=DEFAULT_BOUND, show_default=True, type=int)
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def analyze(path, tol, bound, as_json):
    """Full pipeline on a configuration document: certification,
    holonomy eigen-data, resonances, cohomology dimensions."""
    _check_search_options(tol, bound)
    m, vectors = _parse_config(_load_document(path))
    report = {"input": path, "tol": tol, "bound": bound}
    try:
        config = Configuration(m, vectors)
        summary = config_report(config)
        report["siegel"] = summary.is_siegel
        report["weakly_hyperbolic"] = summary.is_weakly_hyperbolic
        report["indispensable"] = sorted(summary.indispensable)
        report["type"] = summary.type_triple
        if summary.type_triple != (2, 6, 4):
            report["failure"] = "type is %s, expected (2, 6, 4)" % (
                (summary.type_triple,) if summary.type_triple else "undefined")
            _emit(report, as_json)
            sys.exit(1)
        regime = _resonance_report(report, holonomy_pair(config), tol, bound)
        report["group_dim"] = group_dim(regime)
    except (NotLVMError, ValueError,
            UnclassifiableResonancePattern) as exc:
        report["failure"] = str(exc) or exc.__class__.__name__
        _emit(report, as_json)
        sys.exit(1)
    _emit(report, as_json)


@main.command()
@click.argument("path", type=click.Path())
@click.option("--tol", default=DEFAULT_TOL, show_default=True, type=float)
@click.option("--bound", default=DEFAULT_BOUND, show_default=True, type=int)
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def resonances(path, tol, bound, as_json):
    """Resonance detection.  The document either holds a configuration
    (fields m, vectors) or raw eigen-data (field eigen_data: six
    [re, im] pairs in the order a1, a2, a3, b1, b2, b3)."""
    _check_search_options(tol, bound)
    doc = _load_document(path)
    report = {"input": path, "tol": tol, "bound": bound}
    try:
        if "eigen_data" in doc:
            pair = pair_from_flat(doc["eigen_data"])
        else:
            config = Configuration(*_parse_config(doc))
            pair = holonomy_pair(config)
        _resonance_report(report, pair, tol, bound)
    except (ValueError, NotLVMError, UnclassifiableResonancePattern) as exc:
        report["failure"] = str(exc) or exc.__class__.__name__
        _emit(report, as_json)
        sys.exit(1)
    _emit(report, as_json)


def _random_element(rng, regime):
    def c(scale=1.0):
        return complex(rng.normal(), rng.normal()) * scale
    if regime.tag == "NonResonant":
        return GroupElement(regime, (2 + c(0.3), 1 + c(0.3), 0.7 + c(0.2)))
    if regime.tag == "Single":
        return GroupElement(regime, (2 + c(0.3), 1 + c(0.3), 0.7 + c(0.2),
                                     c(0.4)))
    return GroupElement(regime, (2 + c(0.3),
                                 np.eye(2) + rng.normal(size=(2, 2)) * 0.4
                                 + 1j * rng.normal(size=(2, 2)) * 0.4))


def _random_point(rng):
    return PointV((2 + complex(rng.normal(), rng.normal()),
                   complex(rng.normal(), rng.normal()),
                   1 + complex(rng.normal(), rng.normal())))


def _suite_group_laws(seed, samples, tol, fault):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for regime in _REGIMES:
        for _ in range(samples):
            f = _random_element(rng, regime)
            g = _random_element(rng, regime)
            h = _random_element(rng, regime)
            x = _random_point(rng)
            fg = compose(f, g)
            if fault:
                # corrupt one intermediate composition
                fg = element_from_params(regime, fg.params() * (1 + 1e-3))
                fault = False
            scale = 1 + max(np.max(np.abs(e.params()))
                            for e in (f, g, h))
            assoc = np.max(np.abs(compose(fg, h).params()
                                  - compose(f, compose(g, h)).params()))
            inv = np.max(np.abs(compose(f, inverse(f)).params()
                                - identity(regime).params()))
            hom = np.max(np.abs(apply(fg, x).array()
                                - apply(f, apply(g, x)).array()))
            worst = max(worst, assoc / scale, inv / scale,
                        hom / (1 + np.max(np.abs(x.array()))))
    return {"name": "group-laws", "samples": samples,
            "max_residual": worst, "passed": worst <= tol}


def _random_chart_point(rng, p=0, q=1):
    """A random T point, or a T_pq point when q >= 2, whose second shear
    entry solves the shear-compatibility clause (T is the case p = 0,
    q = 1)."""
    def c(scale=1.0):
        return complex(rng.normal(), rng.normal()) * scale
    a = (1.5 + c(0.2), 2.0 + c(0.2), 0.5 + c(0.1))
    b = (0.8 + c(0.2), 1.3 + c(0.2), 0.4 + c(0.1))
    eps = c(0.3)
    amat = np.diag(a).astype(complex)
    amat[2, 1] = eps
    bmat = np.diag(b).astype(complex)
    bmat[2, 1] = (eps * (b[2] - b[0] ** p * b[1] ** q)
                  / (a[2] - a[0] ** p * a[1] ** q))
    if q == 1:
        return FamilyPoint("T", amat, bmat, lam=c(0.5))
    return FamilyPoint("T_pq", amat, bmat, lam=c(0.5), p=p, q=q)


def _pair_diff(u, v):
    out = max(np.max(np.abs(u[0].amat - v[0].amat)),
              np.max(np.abs(u[0].bmat - v[0].bmat)),
              np.max(np.abs(u[1].array() - v[1].array())))
    if u[0].lam is not None and v[0].lam is not None:
        out = max(out, abs(u[0].lam - v[0].lam))
    return float(out)


def _suite_gluing(seed, samples, tol, p, q, fault):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        point = _random_chart_point(rng)
        x = _random_point(rng)
        out = glue_psi_p(point, x, p)
        if fault:
            bad = np.array(out[0].amat)
            bad[1, 1] *= 1 + 1e-3
            out = (FamilyPoint("S_p", bad, out[0].bmat, p=p), out[1])
            fault = False
        scale = 1 + np.max(np.abs(out[1].array()))
        for word in ((1, 0), (0, 1)):
            lhs = glue_psi_p(point, family_action(point, word, x), p)
            rhs = (out[0], family_action(out[0], word, out[1]))
            worst = max(worst, _pair_diff(lhs, rhs) / scale)
        back = invert_psi_p(out[0], out[1], p)
        worst = max(worst, _pair_diff(back, (point, x)) / scale)

        point = _random_chart_point(rng, p, q)
        x = _random_point(rng)
        out = glue_phi_pq(point, x, p, q)
        scale = 1 + np.max(np.abs(out[1].array()))
        for word in ((1, 0), (0, 1)):
            lhs = glue_phi_pq(point, family_action(point, word, x), p, q)
            rhs = (out[0], family_action(out[0], word, out[1]))
            worst = max(worst, _pair_diff(lhs, rhs) / scale)
        back = invert_phi_pq(out[0], out[1], p, q)
        worst = max(worst, _pair_diff(back, (point, x)) / scale)
    return {"name": "gluing", "samples": samples, "p": p, "q": q,
            "max_residual": worst, "passed": worst <= tol}


def _suite_developing(seed, samples, fault):
    pair = holonomy_pair(_E1)
    nr = ResonanceClass("NonResonant")
    s12 = ResonanceClass("Single", p=1, q=2)
    d1 = ResonanceClass("Double", p=1)
    third = (1 + 1e-3, 1 - 2e-3, 1 + 1e-3j)
    if fault:
        third = (1.05, 1 - 2e-3, 1 + 1e-3j)

    def single(x1, x2, x3, kappa=0.4):
        return GroupElement(s12, (x1, x2, x3, kappa * (x3 - x1 * x2 ** 2)))

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


def _suite_action(seed, fault):
    pair = holonomy_pair(_E1)
    nr = ResonanceClass("NonResonant")
    gen_pair = (GroupElement(nr, pair.alpha), GroupElement(nr, pair.beta))
    if fault:
        gen_pair = (identity(nr), gen_pair[1])
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
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--samples", default=100, show_default=True, type=int)
@click.option("--tol", default=VERIFY_TOL, show_default=True, type=float)
@click.option("--p", default=1, show_default=True, type=int)
@click.option("--q", default=2, show_default=True, type=int)
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
@click.option("--inject-fault", is_flag=True, hidden=True,
              help="debug: corrupt one input to force a failure")
def verify(suite, seed, samples, tol, p, q, as_json, inject_fault):
    """Run a seeded property suite and report the worst residual."""
    if samples < 1:
        raise click.UsageError("--samples must be >= 1")
    if tol <= 0:
        raise click.UsageError("--tol must be positive")
    if q < 2:
        raise click.UsageError("--q must be >= 2")
    wanted = ("group-laws", "gluing", "developing", "action") \
        if suite == "all" else (suite,)
    results = []
    for name in wanted:
        fault = inject_fault
        if name == "group-laws":
            results.append(_suite_group_laws(seed, samples, tol, fault))
        elif name == "gluing":
            results.append(_suite_gluing(seed, samples, tol, p, q, fault))
        elif name == "developing":
            results.append(_suite_developing(seed, min(samples, 100), fault))
        else:
            results.append(_suite_action(seed, fault))
    report = {"suite": suite, "seed": seed, "samples": samples, "tol": tol,
              "results": results, "passed": all(r["passed"] for r in results)}
    _emit(report, as_json)
    if not report["passed"]:
        sys.exit(1)


@main.command()
@click.argument("path", type=click.Path())
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--samples", default=100, show_default=True, type=int)
@click.option("--tol", default=1e-9, show_default=True, type=float)
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def deform(path, seed, samples, tol, as_json):
    """Project a deformed holonomy triple and verify the structure.

    The document holds a regime ({tag, p, q}), three generators as flat
    coefficient lists of [re, im] pairs (3, 4 or 1+4 coefficients per
    the regime), and, for the non-resonant regime, a base configuration
    under the key config."""
    if samples < 1:
        raise click.UsageError("--samples must be >= 1")
    if tol <= 0:
        raise click.UsageError("--tol must be positive")
    doc = _load_document(path)
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
            element_from_params(regime,
                                [complex(re, im) for re, im in coeffs])
            for coeffs in doc["generators"])
        if len(gens) != 3:
            raise click.UsageError("expected exactly three generators")
        config = None
        if "config" in doc:
            config = Configuration(*_parse_config(doc["config"]))
    except click.UsageError:
        raise
    except (KeyError, TypeError) as exc:
        raise click.UsageError("malformed structure document: %s" % exc)
    except ValueError as exc:
        _emit({"input": path, "failure": str(exc)}, as_json)
        sys.exit(1)
    report = {"input": path, "seed": seed, "samples": samples, "tol": tol}
    try:
        spec = StructureSpec(gens, base_config=config)
        result = check_structure(spec, samples=samples, tol=tol, seed=seed)
    except (ValueError, NoConvergence, NotLVMError) as exc:
        report["failure"] = str(exc) or exc.__class__.__name__
        _emit(report, as_json)
        sys.exit(1)
    report["regime"] = {"tag": regime.tag, "p": regime.p, "q": regime.q}
    report["max_residual"] = result.max_residual
    report["mean_residual"] = result.mean_residual
    report["per_generator"] = [
        {"generator": idx, "max": mx, "mean": mean}
        for idx, mx, mean in result.per_generator]
    report["complete"] = result.complete
    report["passed"] = result.passed
    _emit(report, as_json)
    if not result.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
