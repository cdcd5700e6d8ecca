"""Spans around the library's layers, recorded from the benchmark's side.

The layers are the modules of ``padicforms``.  :class:`Tracer` wraps every
public function defined in those modules, plus a few named methods, and
rebinds the wrapper in every module namespace that binds the original, so
calls between modules pass through it as well as calls from the benchmark.
A wrapper does nothing but call through unless the tracer is active.

Each call made while the tracer is active becomes a span: name, start, end,
parent span and verdict id.  Spans are kept in memory and written out when
the run ends.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

MODULES = (
    "cli", "certificates", "h10", "construct", "reciprocity", "quadform",
    "extensions", "newton", "polynomials", "padics", "oracles", "parsing",
)

# (module, class, method): methods that per-layer counters are read from
METHODS = (
    ("extensions", "LocalField", "__init__"),
    ("extensions", "LocalField", "from_lattice_coordinates"),
    ("extensions", "LocalFieldElement", "norm"),
    ("polynomials", "PadicPolynomial", "__mul__"),
    ("polynomials", "PadicPolynomial", "__rmul__"),
    ("polynomials", "PadicPolynomial", "__divmod__"),
)


def residues_walked(x, ctx) -> int:
    """Residues a that is_square_rational(x, ctx) tests before it answers.

    Derived from the arguments: the unit part's residue modulo p^(v(4)+1)
    is compared with a^2 for a = 1, 2, ... prime to p, up to the first hit.
    """
    x = Fraction(x)
    if x == 0:
        return 0
    p = ctx.p
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    if v % 2:
        return 0
    m = p ** (3 if p == 2 else 1)
    target = n * pow(d, -1, m) % m
    walked = 0
    for a in range(1, m):
        if a % p:
            walked += 1
            if (a * a - target) % m == 0:
                break
    return walked


class Tracer:
    def __init__(self):
        self.active = False
        self.verdict_id = None
        self.names = []  # per function id: "module.qualname"
        self.layers = []  # per function id: module name
        self.calls = []
        self.self_ns = []
        self.total_ns = []
        self.spans = []  # (function id, start ns, end ns, parent index, verdict id)
        self.stack = []  # [span index, ns covered by children]
        self.durations = {}  # function name -> list of span durations (ns), kept for a few
        self.counters = {"residues": 0, "oracle_cells": 0, "samples": 0, "search_exhausted": 0}
        self._exhausted = []
        self._patches = []
        self._hooks = {
            "padics.is_square_rational": self._hook_residues,
            "oracles.isotropic_by_search": self._hook_cells,
            "construct.construct_s": self._hook_samples,
        }
        self.keep_durations = {"cli.build_parser"}

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the layers' public functions and the named methods."""
        import padicforms

        layers = {layer: importlib.import_module(f"padicforms.{layer}") for layer in MODULES}
        namespaces = [padicforms] + [
            m for name, m in sorted(sys.modules.items())
            if name.startswith("padicforms.") and m is not None
        ]
        wrappers = {}
        for layer, mod in layers.items():
            for name, obj in sorted(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}")
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                w = wrappers.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._patches.append((ns, name, obj))
                    setattr(ns, name, w)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"padicforms.{layer}"), cls_name)
            fn = cls.__dict__[meth]
            w = wrappers.get(id(fn))
            if w is None:
                w = wrappers[id(fn)] = self._wrap(fn, layer, f"{layer}.{cls_name}.{fn.__name__}")
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, w)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, layer, name):
        fid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        hook = self._hooks.get(name)
        keep = name in self.keep_durations
        tracer = self
        clock = time.perf_counter_ns
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(fid, frame, start, clock(), parent, keep)
                tracer._note_exception(layer, exc)
                raise
            tracer._close(fid, frame, start, clock(), parent, keep)
            if hook is not None:
                h0 = clock()
                hook(args, kwargs, result)
                if stack:  # keep hook time out of the caller's self time
                    stack[-1][1] += clock() - h0
            return result

        return wrapper

    def _close(self, fid, frame, start, end, parent, keep):
        self.stack.pop()
        dur = end - start
        self.spans[frame[0]] = (fid, start, end, parent, self.verdict_id)
        self.calls[fid] += 1
        self.total_ns[fid] += dur
        self.self_ns[fid] += dur - frame[1]
        if self.stack:
            self.stack[-1][1] += dur
        if keep:
            self.durations.setdefault(self.names[fid], []).append(dur)

    def _note_exception(self, layer, exc):
        from padicforms.errors import SearchExhausted

        if layer == "extensions" and isinstance(exc, SearchExhausted):
            if not any(e is exc for e in self._exhausted):
                self._exhausted.append(exc)
                self.counters["search_exhausted"] += 1

    # -- counters derived from arguments and results ------------------------

    def _hook_residues(self, args, kwargs, result):
        self.counters["residues"] += residues_walked(args[0], args[1] if len(args) > 1 else kwargs["ctx"])

    def _hook_cells(self, args, kwargs, result):
        from padicforms.oracles import conclusive_exponent

        ctx = args[1] if len(args) > 1 else kwargs["ctx"]
        m = args[2] if len(args) > 2 else kwargs.get("modulus_exp")
        self.counters["oracle_cells"] += ctx.p ** (m if m is not None else conclusive_exponent(ctx))

    def _hook_samples(self, args, kwargs, result):
        self.counters["samples"] += result.metrics.get("samples", 0)

    # -- results ------------------------------------------------------------

    def _by_name(self, name):
        fid = self.names.index(name)
        return self.calls[fid], self.total_ns[fid], self.self_ns[fid]

    def layer_metrics(self):
        """Per-layer metrics: (value, unit) by name."""
        out = {}
        for layer in MODULES:
            ids = [i for i, lay in enumerate(self.layers) if lay == layer]
            out[f"{layer}.calls"] = (sum(self.calls[i] for i in ids), "count")
            out[f"{layer}.self_ms"] = (sum(self.self_ns[i] for i in ids) / 1e6, "ms")
        norms, norm_ns, _ = self._by_name("extensions.LocalFieldElement.norm")
        out["extensions.fields_built"] = (self._by_name("extensions.LocalField.__init__")[0], "count")
        out["extensions.norms"] = (norms, "count")
        out["extensions.norm_ms"] = (norm_ns / 1e6, "ms")
        out["extensions.lattice_cells"] = (
            self._by_name("extensions.LocalField.from_lattice_coordinates")[0], "count")
        out["extensions.search_exhausted"] = (self.counters["search_exhausted"], "count")
        out["padics.residues"] = (self.counters["residues"], "count")
        out["reciprocity.symbols"] = (self._by_name("reciprocity.legendre_symbol")[0], "count")
        out["construct.samples"] = (self.counters["samples"], "count")
        out["polynomials.mul_calls"] = (self._by_name("polynomials.PadicPolynomial.__mul__")[0], "count")
        out["polynomials.divmod_calls"] = (
            self._by_name("polynomials.PadicPolynomial.__divmod__")[0], "count")
        out["oracles.cells"] = (self.counters["oracle_cells"], "count")
        out["certificates.verify_self_ms"] = (
            self._by_name("certificates.verify_certificate")[2] / 1e6, "ms")
        parser = self.durations.get("cli.build_parser", [])
        out["cli.parser_ms"] = (statistics.median(parser) / 1e6 if parser else 0.0, "ms")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path):
        """Write the spans as gzipped JSON lines: a header, then one span a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields":
                                 ["name", "start_ns", "end_ns", "parent", "verdict"]}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
