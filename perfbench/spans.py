"""Per-layer spans for the traced run, recorded from outside `relwp`.

`Tracer.install()` replaces every public function of every `relwp` module,
in each module namespace that binds it (``specmonads`` imports
``product_domain`` by name, ``observations`` imports ``spec_leq``), with a
wrapper that counts and times the call.  A span's self time is its duration
minus the time covered by the wrapped calls it made.  A call whose metric
group is already open further up the stack (a recursive evaluator, a nested
``normalize``) runs unwrapped, so counts are of outermost calls only.

Spans are aggregated per metric key as they close; nothing is kept per call.
Install must happen before the workload builds its inputs, because
observations and carriers capture the functions they call when they are
built.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("domains", "programs", "genprog", "observations", "specmonads",
          "generic", "lp", "rules", "whilelang")

# Keys that cover several functions; every other public function gets
# "<module>.<name>".
_GROUPED = {
    **{("programs", f): "programs.eval" for f in (
        "run_state", "run_exc", "run_ndet", "run_io", "io_outcomes",
        "run_prob", "run_imp", "reachable_outcomes")},
    **{("specmonads", f): "specmonads.embed" for f in (
        "pp_spec", "from_prepost", "embed_pp_in_wp")},
}

EVAL = "programs.eval"
THETAS = frozenset(f"observations.theta_{k}"
                   for k in ("st", "part", "tot", "ndet", "err", "io", "prob"))
SPEC_LEQ = "specmonads.spec_leq"


def spec_leq_path(sm, w, w2, cap) -> str:
    """The decision path `spec_leq` takes on these inputs, read off the
    inputs the way `spec_leq` dispatches on them."""
    if w.tag in sm.PP_TAGS:
        return "pp"
    if w.tag == "WrelIO":
        return "io"
    n = w.space.size
    if w.tag == "WrelProb":
        if w.pieces is not None and w2.pieces is not None:
            return "lp"
        return "grid" if len(sm._PROB_GRID) ** n <= cap else "sampled"
    if w.is_demonic and w2.is_demonic:
        return "demonic"
    return "enum" if 2 ** n <= cap else "sampled"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.span_s = defaultdict(float)
        self.unknown = 0            # spec_leq calls that answered unknown
        self.evals_in_theta = 0     # outermost evaluator calls under a theta span
        self._open = defaultdict(int)
        self._stack = []            # per open span: time covered by its children
        self._thetas_open = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, key, keyer=None, after=None):
        """`fn` timed under `key`, or under `keyer(args, kwargs)` when given
        (a finer key within the group `key`).  Only calls made while no call
        of the group is open are timed.  `after(result)` may replace the
        result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open[key]:
                return fn(*args, **kwargs)
            k = keyer(args, kwargs) if keyer is not None else key
            self._open[key] += 1
            is_theta = key in THETAS
            if is_theta:
                self._thetas_open += 1
            elif key == EVAL and self._thetas_open:
                self.evals_in_theta += 1
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = self._stack.pop()
                self._open[key] -= 1
                if is_theta:
                    self._thetas_open -= 1
                self.calls[k] += 1
                self.span_s[k] += dt
                self.self_s[k] += dt - children
                if self._stack:
                    self._stack[-1] += dt
            return after(out) if after is not None else out

        return traced

    def install(self) -> None:
        mods = {name: importlib.import_module(f"relwp.{name}") for name in LAYERS}
        sm = mods["specmonads"]
        replacement = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                key = _GROUPED.get((layer, name), f"{layer}.{name}")
                keyer = after = None
                if key == SPEC_LEQ:
                    keyer = self._spec_leq_keyer(sm, inspect.signature(obj))
                    after = self._count_unknown
                elif key == "generic.wrelexc_monad":
                    after = self._wrap_fields("generic.spec_bind", ("bind1", "bind2", "bind_rel"))
                elif key == "generic.theta_exc_triple":
                    after = self._wrap_fields("generic.theta", ("theta1", "theta2", "theta_rel"))
                elif key == "observations.observation_io":
                    after = self._wrap_fields("observations.theta_io", ("map",))
                replacement[id(obj)] = self.wrap(obj, key, keyer, after)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replacement:
                    setattr(mod, name, replacement[id(obj)])

    def _spec_leq_keyer(self, sm, sig):
        def keyer(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            return f"{SPEC_LEQ}.{spec_leq_path(sm, a['w'], a['w2'], a['cap'])}"
        return keyer

    def _count_unknown(self, verdict):
        if verdict.is_unknown:
            self.unknown += 1
        return verdict

    def _wrap_fields(self, key, fields):
        def after(obj):
            return dataclasses.replace(obj, **{f: self.wrap(getattr(obj, f), key) for f in fields})
        return after

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data view of everything recorded, for the parent process."""
        return {"keys": {k: {"calls": self.calls[k], "span_s": self.span_s[k],
                             "self_s": self.self_s[k]} for k in sorted(self.calls)},
                "spec_leq_unknown": self.unknown,
                "evals_in_theta": self.evals_in_theta}


def layer_calls(snapshot: dict) -> dict:
    """Outermost calls recorded per relwp module."""
    out = {layer: 0 for layer in LAYERS}
    for key, rec in snapshot["keys"].items():
        out[key.split(".", 1)[0]] += rec["calls"]
    return out


def layer_metric(snapshot: dict, name: str) -> float:
    """A per-layer metric: `<key>.calls` or `<key>.self_s` of a metric key,
    `specmonads.spec_leq.unknown`, or `observations.eval_per_theta`
    (outermost evaluator calls inside theta spans per theta call)."""
    keys = snapshot["keys"]
    if name == f"{SPEC_LEQ}.unknown":
        return snapshot["spec_leq_unknown"]
    if name == "observations.eval_per_theta":
        thetas = sum(keys[k]["calls"] for k in THETAS if k in keys)
        return snapshot["evals_in_theta"] / thetas if thetas else 0.0
    key, stat = name.rsplit(".", 1)
    if stat not in ("calls", "self_s"):
        raise KeyError(name)
    return keys[key][stat] if key in keys else 0
