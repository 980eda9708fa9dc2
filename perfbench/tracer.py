"""Per-layer spans and counters, recorded from outside the package.

A Tracer replaces public eulerpade functions with wrappers, in the module
that defines each one and in every eulerpade module that imported it by
name, and puts the originals back on uninstall.  A span records calls and
time; its self time is its duration minus the spans it called directly.
FieldElement arithmetic is only counted, since timing every field
operation would swamp what it measures.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

import eulerpade.cli  # noqa: F401  (loads every module a span patches)

#: (metric prefix, module, attribute path) for every span
SPANS = (
    ("arith.prime_range", "arith", "prime_range"),
    ("places.places_above", "places", "places_above"),
    ("places.valuation", "places", "valuation"),
    ("places.hensel_root", "places", "Place.hensel_root"),
    ("padics.eval", "padics", "euler_eval_certified"),
    ("padics.eval", "padics", "genfact_eval"),
    ("padics.from_field_element", "padics", "CompletionElement.from_field_element"),
    ("polys.mul", "polys", "Poly.__mul__"),
    ("pade.construct", "pade", "pade_construct"),
    ("pade.order_check", "pade", "pade_order_check"),
    ("pade.determinant", "pade", "pade_determinant"),
    ("certify.scan", "certify", "certify_nonvanishing"),
    ("certify.linear_form_value", "certify", "linear_form_value"),
    ("certify.verify", "certify", "verify_certificate"),
    ("bounds.effective", "certify", "effective_bounds"),
    ("bounds.limsup", "certify", "limsup_sequence"),
    ("bounds.constants", "certify", "constants_c1_c2"),
    ("bounds.residue", "certify", "residue_condition"),
    ("cli.main", "cli", "main"),
)

#: (metric prefix, module, attribute path) for every plain call counter
COUNTERS = (
    ("numfield.mul", "numfield", "FieldElement.__mul__"),
    ("numfield.add", "numfield", "FieldElement.__add__"),
)

# the cli layer has a single span, so its self time is cli.main.self_ms
LAYERS = ("arith", "places", "polys", "padics", "pade", "certify", "bounds")
PLACE_KINDS = {"rational": "rational", "split_1": "split", "split_2": "split",
               "inert": "inert", "ramified": "ramified"}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "eulerpade" or name.startswith("eulerpade."))]


class Tracer:
    """Spans and counters for one pass over a workload's inputs."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()       # outermost spans of each name only
        self.self_seconds = Counter()
        self.counts = Counter()
        self.kind_seconds = Counter()  # padics.eval by place kind
        self.terms = 0
        self.eval_keys: set = set()
        self.eval_repeats = 0
        self.scan_attempts = 0         # linear_form_value called by the scan itself
        self.certificates = 0          # nonzero certificates issued
        self._stack: list[list] = []   # [name, seconds spent in direct children]
        self._open = Counter()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _after(self, name, args, result, parent, dt):
        if name == "padics.eval":
            place = args[0]
            self.kind_seconds[PLACE_KINDS[place.splitting]] += dt
            self.terms += result.terms_used
            key = (place, *args[1:])
            if key in self.eval_keys:
                self.eval_repeats += 1
            self.eval_keys.add(key)
        elif name == "certify.linear_form_value" and parent == "certify.scan":
            self.scan_attempts += 1
        elif name == "certify.scan" and result.status == "nonzero":
            self.certificates += 1

    def _span(self, name, fn):
        stack, open_, after = self._stack, self._open, self._after

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            open_[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                open_[name] -= 1
                if parent is not None:
                    parent[1] += dt
                self.calls[name] += 1
                self.self_seconds[name] += dt - frame[1]
                if not open_[name]:
                    self.seconds[name] += dt
            after(name, args, result, parent and parent[0], dt)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, module, path in table:
                self._patch(name, sys.modules["eulerpade." + module], path, make)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, name, module, path, make) -> None:
        if "." not in path:
            original = getattr(module, path)
            wrapper = make(name, original)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
            return
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(make(name, raw.__func__))
        else:
            wrapper = make(name, raw)
        for alias, value in list(vars(cls).items()):  # __rmul__ = __mul__ and the like
            if value is raw:
                self._undo.append((cls, alias, value))
                setattr(cls, alias, wrapper)


#: metrics besides calls and counts that repeat exactly for one seed
EXACT = ("padics.terms", "padics.eval.repeat_frac", "certify.attempts_per_cert", "cli.known_defects")


def is_exact(name: str) -> bool:
    return name.endswith((".calls", ".count")) or name in EXACT


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracers: list[Tracer]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced passes of one run.

    Calls and counts come from the first pass, whose inputs depend on the
    seed alone, so they repeat exactly; times are means per traced pass.
    """
    first = tracers[0]
    n = len(tracers)

    def total(attr, key):
        return sum(getattr(t, attr)[key] for t in tracers)

    def ms(attr, key):
        return 1e3 * total(attr, key) / n

    out: dict[str, tuple[float, str]] = {}
    for name in dict.fromkeys(s[0] for s in SPANS):
        out[name + (".count" if name == "polys.mul" else ".calls")] = (first.calls[name], "count")
        if name != "cli.main":
            out[name + ".ms"] = (ms("seconds", name), "ms")
    for name, *_ in COUNTERS:
        out[name + ".count"] = (first.counts[name], "count")
    for kind in ("rational", "split", "inert", "ramified"):
        out["padics.eval.ms." + kind] = (ms("kind_seconds", kind), "ms")
    out["padics.terms"] = (first.terms, "count")
    out["padics.terms_per_s"] = (
        _ratio(sum(t.terms for t in tracers), total("seconds", "padics.eval")), "1/s")
    out["padics.eval.repeat_frac"] = (_ratio(first.eval_repeats, first.calls["padics.eval"]), "ratio")
    for name in ("pade.determinant", "certify.scan", "cli.main"):
        out[name + ".self_ms"] = (ms("self_seconds", name), "ms")
    out["certify.attempts_per_cert"] = (_ratio(first.scan_attempts, first.certificates), "ratio")
    out["certify.verify_share"] = (
        _ratio(total("seconds", "certify.verify"), total("seconds", "certify.scan")), "ratio")
    for layer in LAYERS:
        self_s = sum(t.self_seconds[k] for t in tracers for k in t.self_seconds
                     if k.split(".")[0] == layer)
        out[layer + ".self_ms"] = (1e3 * self_s / n, "ms")
    return out
