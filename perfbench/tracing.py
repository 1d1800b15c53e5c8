"""Span tracing of the starstring layers from outside the package.

``Tracer.install()`` replaces the public functions of every layer module
(and three hot methods) with wrappers that record a span -- name, start,
end, parent span, solve id -- while a solve is active, and restores every
original binding on ``uninstall()``.  A function imported by name into
another module (``from .roots import isolate_real_roots``) is replaced at
each binding, so a call is traced whichever module makes it.

Spans and counters are kept in memory; ``layer_metrics`` turns them into
per-solve self times and size counters once the traced pass is over.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from math import log2
from time import perf_counter

LAYERS = (
    "cli", "model", "forward", "poly", "roots", "ratfun",
    "inverse_center", "inverse_pendant", "matrixize",
)

# metric names shared by several functions
ALIASES = {
    "forward.char_polys_center": "forward.char_polys",
    "forward.char_polys_pendant": "forward.char_polys",
    "ratfun.partial_fractions_at": "ratfun.partial_fractions",
    "model.parse_graph": "model.parse",
    "model.parse_spectra": "model.parse",
    "model.parse_plan": "model.parse",
    "model.serialize_graph": "model.serialize",
    "model.serialize_spectra": "model.serialize",
    "model.serialize_plan": "model.serialize",
}

# (module, class, method, span name)
METHODS = (
    ("roots", "RootVal", "refine_to_width", "roots.refine_to_width"),
    ("roots", "RootVal", "compare", "roots.compare"),
    ("ratfun", "RationalFunction", "make", "ratfun.canonicalize"),
)

# simplest_in_open recurses once per continued-fraction digit; it is the
# inner loop of rational-root classification, which roots.classify_s measures.
# det_rational is the Bareiss step of pencil_det and is counted in its self time.
UNWRAPPED = {"roots.simplest_in_open", "matrixize.det_rational"}


def _coeff_bits(polys):
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for p in polys for c in p.coeffs),
        default=0,
    )


def _width(rv):
    return None if rv.rat is not None else rv.hi - rv.lo


class Tracer:
    """Records spans of the wrapped starstring functions during solves."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, solve id]
        self.stack = []
        self.solve = None  # id of the active solve; None records nothing
        self.isolate_calls = []  # (args, kwargs) of classifying isolate calls
        self.counts = defaultdict(float)
        self.maxima = defaultdict(int)
        self._patches = []  # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.solve is None:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.solve]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if after:
                after(args, kwargs, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, name):
        """(before, after) counter hooks for the span ``name``."""
        if name == "roots.isolate_real_roots":
            def after(args, kwargs, result, _):
                classify = args[3] if len(args) > 3 else kwargs.get("classify_rational", True)
                if classify:
                    self.isolate_calls.append((args, kwargs))
                self.counts["roots.roots_found"] += len(result)
                self.counts["roots.irrational"] += sum(1 for rv, _ in result if rv.rat is None)
            return None, after
        if name == "roots.refine_to_width":
            def after(args, kwargs, result, width):
                now = _width(args[0])
                if width and now:
                    self.counts["roots.refine_steps"] += log2(width / now)
            return (lambda args, kwargs: _width(args[0])), after
        if name == "poly.poly_gcd":
            return None, lambda args, kwargs, result, _: self._max("poly.max_coeff_bits", _coeff_bits(args))
        if name == "ratfun.cf_expand":
            return None, lambda args, kwargs, result, _: self._max("ratfun.cf_expand.max_depth", result.depth)
        if name == "forward.char_polys":
            def after(args, kwargs, result, _):
                self._max("forward.charpoly_degree", max(p.degree for p in result))
                self._max("forward.charpoly_coeff_bits", _coeff_bits(result))
            return None, after
        if name == "inverse_pendant.decompose_main":
            def after(args, kwargs, result, _):
                self.counts["inverse_pendant.cut_index"] += result.main_mass_count
            return None, after
        if name == "matrixize.build_pencil":
            def after(args, kwargs, result, _):
                self.counts["matrixize.dim"] += result[0].dim
            return None, after
        return None, None

    def _max(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    # -- installation -----------------------------------------------------------

    def _targets(self):
        """{original function: span name} over the layer modules."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"starstring.{layer}")
            for attr, val in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(val)
                    and not attr.startswith("_")
                    and val.__module__ == mod.__name__
                    and name not in UNWRAPPED
                ):
                    targets[val] = ALIASES.get(name, name)
        return targets

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(name, fn, *self._hooks(name)) for fn, name in self._targets().items()}
        for mod_name in ["starstring"] + [f"starstring.{layer}" for layer in LAYERS]:
            mod = importlib.import_module(mod_name)
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"starstring.{layer}"), cls_name)
            raw = cls.__dict__[meth]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            traced = self._wrap(name, fn, *self._hooks(name))
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, staticmethod(traced) if isinstance(raw, staticmethod) else traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reporting ----------------------------------------------------------------

    def classify_seconds(self):
        """Re-run each captured classifying isolate call with the flag off.

        Returns the summed (flag on - flag off) time.  Runs untraced.
        """
        from starstring.roots import isolate_real_roots

        total = 0.0
        for args, kwargs in self.isolate_calls:
            args = args[:3]
            kwargs = {k: v for k, v in kwargs.items() if k != "classify_rational"}
            t0 = perf_counter()
            isolate_real_roots(*args, classify_rational=True, **kwargs)
            t1 = perf_counter()
            isolate_real_roots(*args, classify_rational=False, **kwargs)
            t2 = perf_counter()
            total += (t1 - t0) - (t2 - t1)
        return total

    def layer_metrics(self, solves, classify_s):
        """Per-solve self times and call counts, and the size counters."""
        child = [0.0] * len(self.spans)
        for start_end in self.spans:
            parent = start_end[3]
            if parent >= 0:
                child[parent] += start_end[2] - start_end[1]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        # classification runs inside isolate_real_roots; report it on its own
        self_s["roots.isolate_real_roots"] -= classify_s
        values = {"roots.classify_s": classify_s / solves}
        for name, total in self_s.items():
            values[f"{name}.self_s"] = total / solves
            values[f"{name}.calls"] = calls[name] / solves
        found = self.counts["roots.roots_found"]
        values["roots.roots_found"] = found / solves
        values["roots.irrational_share"] = self.counts["roots.irrational"] / found if found else 0.0
        values["roots.refine_steps"] = self.counts["roots.refine_steps"] / solves
        values.update(self.maxima)
        decompositions = calls["inverse_pendant.decompose_main"]
        values["inverse_pendant.cut_index"] = (
            self.counts["inverse_pendant.cut_index"] / decompositions if decompositions else 0.0)
        pencils = calls["matrixize.build_pencil"]
        values["matrixize.dim"] = self.counts["matrixize.dim"] / pencils if pencils else 0.0
        return values
