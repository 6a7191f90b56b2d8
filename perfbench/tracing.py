"""Per-layer timing of lvmkit from outside the package.

Every public function of each layer module is replaced, in every lvmkit
module that binds it (``from ... import`` copies the reference), by a
wrapper that times the call.  Self time is a call's duration minus the
durations of the wrapped calls nested in it, so the layers that nest
(developing -> rep_variety -> resonant_group) are not counted twice.
Spans are folded into totals as they close rather than kept, because the
``verify`` workload makes hundreds of thousands of wrapped calls a run.
"""

import collections
import functools
import importlib
import inspect
import time

LAYERS = ("config_geometry", "holonomy", "resonance", "resonant_group",
          "rep_variety", "developing", "action", "family_gluing")
COUNTED = ("config_geometry.in_convex_hull", "config_geometry.config_report",
           "resonant_group.apply", "resonant_group.compose",
           "developing.dev_eval")
# inclusive call times kept per input class
PER_CALL = ("resonance.find_resonances", "family_gluing.check_condition")
GLUING = ("family_gluing.glue_psi_p", "family_gluing.glue_phi_pq",
          "family_gluing.invert_psi_p", "family_gluing.invert_phi_pq",
          "family_gluing.family_action")


class Tracer:
    """Installs the wrappers and accumulates what they measure, per op
    kind, so per-op figures can be weighted by the workload's op mix."""

    def __init__(self):
        self.totals = {}  # op kind -> Counter of seconds and call counts
        self.per_call = {name: {} for name in PER_CALL}
        self._acc = collections.Counter()
        self._tag = "generic"
        self._children = []  # per open span: time of its wrapped children
        self._patches = []

    def start_op(self, kind, tag):
        """Attribute what follows to an op of this kind; ``tag`` is the
        input class that per-call times are filed under."""
        self._acc = self.totals.setdefault(kind, collections.Counter())
        self._tag = tag

    def add_op_time(self, seconds):
        """Count a whole traced op's time towards its kind."""
        self._acc["op_s"] += seconds

    def _wrap(self, layer, qualname, fn):
        children = self._children
        clock = time.perf_counter
        self_key = layer + ".self_s"
        counted = qualname in COUNTED
        per_call = self.per_call.get(qualname)
        gluing = qualname in GLUING

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc = self._acc
                acc[self_key] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                else:
                    acc["outer_s"] += elapsed
                if counted:
                    acc[qualname] += 1
                if per_call is not None:
                    per_call.setdefault(self._tag, []).append(elapsed)
                if gluing:  # the gluing maps never call one another
                    acc["gluing_s"] += elapsed
        return wrapper

    def install(self):
        modules = [importlib.import_module("lvmkit." + name)
                   for name in LAYERS + ("cli",)]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(layer, layer + "." + name, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self):
        for module, name, obj in reversed(self._patches):
            setattr(module, name, obj)
        self._patches = []
