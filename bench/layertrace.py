"""Spans around the public functions of each qid layer, installed from the
benchmark's side by replacing module attributes; qid itself is unchanged.

Every wrapped call records a span (id, parent id, layer name, start, end,
item) and adds to its layer's totals: calls, self time (the span's duration
minus the time its child spans cover) and, where it applies, extra counts:

- `misses`: calls whose span has a `qproducts.mul_one_minus` span below it,
  i.e. calls that had to build a product rather than reuse a cached one;
- `coeffs_out`: coefficients returned by `series.mul`;
- `rounds`: top-level `engine._eval` calls made by `engine.eval_expr`, one
  per pad-and-retry round.

A layer whose function no longer exists is skipped, so its counts read 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time

#: (layer name, module, attribute); a "Class.method" attribute wraps a method
LAYERS = (
    ("cli.main", "qid.cli", "main"),
    ("series.mul", "qid.series", "TruncatedLaurentSeries.__mul__"),
    ("series.invert", "qid.series", "TruncatedLaurentSeries.invert"),
    ("qproducts.mul_one_minus", "qid.qproducts", "mul_one_minus"),
    ("qproducts.eta_f", "qid.qproducts", "eta_f"),
    ("qproducts.eta_power", "qid.qproducts", "eta_power"),
    ("qproducts.theta_j", "qid.qproducts", "theta_j"),
    ("appell_lerch.appell_lerch_m", "qid.appell_lerch", "appell_lerch_m"),
    ("dissection.dissect_extract", "qid.dissection", "dissect_extract"),
    ("mock_theta.mock_theta_series", "qid.mock_theta", "mock_theta_series"),
    ("engine.eval_expr", "qid.engine", "eval_expr"),
    ("dsl.parse", "qid.dsl", "parse"),
    ("paramcheck.prove_zero", "qid.paramcheck", "prove_zero"),
    ("outcome.compare_series", "qid.outcome", "compare_series"),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)

_MUL_ONE_MINUS = "qproducts.mul_one_minus"


class Tracer:
    def __init__(self):
        self.item = 0
        self.spans: list[tuple] = []
        self.rounds = 0
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._stats = {name: {"calls": 0, "self_s": 0.0, "misses": 0,
                              "coeffs_out": 0} for name in LAYER_NAMES}
        self._undo: list[tuple] = []

    def _span(self, name: str, fn):
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter
        st = self._stats[name]
        is_leaf_product = name == _MUL_ONE_MINUS
        counts_out = name == "series.mul"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0, 0]  # id, child time, mul_one_minus below
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st["calls"] += 1
                st["self_s"] += dur - frame[1]
                if frame[2]:
                    st["misses"] += 1
                if parent is not None:
                    parent[1] += dur
                    parent[2] += frame[2] + is_leaf_product
                spans.append((frame[0], parent[0] if parent else None, name,
                              t0, t1, tracer.item))
            if counts_out:
                st["coeffs_out"] += len(result.coeffs)
            return result
        return wrapper

    def _round_counter(self, fn):
        depth = [0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                tracer.rounds += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def _replace(self, original, replacement):
        """Point every qid module attribute bound to `original` at
        `replacement`, since modules import each other's names directly."""
        for modname, mod in list(sys.modules.items()):
            if modname != "qid" and not modname.startswith("qid."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        for name, modname, attr in LAYERS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                original = None if cls is None else cls.__dict__.get(meth)
                if original is not None:
                    setattr(cls, meth, self._span(name, original))
                    self._undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr, None)
            if original is not None:
                self._replace(original, self._span(name, original))
        engine = sys.modules.get("qid.engine")
        original = getattr(engine, "_eval", None)
        if original is not None:
            self._undo.append((engine, "_eval", original))
            engine._eval = self._round_counter(original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def totals(self) -> dict:
        out = {name: dict(st) for name, st in self._stats.items()}
        out["engine.eval_expr"]["rounds"] = self.rounds
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, item in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "item": item}))
                fh.write("\n")
