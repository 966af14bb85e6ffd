"""In-memory span recorder for the traced run, and the per-layer summary.

A span is (name, parent span, operation, start, end). Spans are kept in
flat arrays while the run lasts and written out once, as one .npz file,
when it ends. Wrappers are installed where callers look the callables up
(module globals and class attributes); nothing under src/ is edited.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from array import array

import numpy as np

SELF_TIME_MODULES = ("pde_verify", "picard", "evolution")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, name: str, fn):
        """Run fn() as operation op_id: every span inside it carries op_id."""
        self._op = op_id
        idx = self.open(name)
        try:
            return fn()
        finally:
            self.close(idx)
            self._op = -1

    def wrap(self, fn, name_of):
        """fn wrapped in a span; name_of(args) gives the span name."""
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(name_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        return traced

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _replace_everywhere(original, wrapper) -> None:
    """Point every gl3schwarz module global that holds original at wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "gl3schwarz" or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported gl3schwarz.cli."""
    from gl3schwarz import appell, derivs, eta, jets, lft, report

    fixed = lambda name: (lambda args: name)  # noqa: E731
    jets.Jet.__mul__ = tracer.wrap(jets.Jet.__mul__, fixed("jets.mul"))
    lft.EisMatrix.__mul__ = tracer.wrap(lft.EisMatrix.__mul__, fixed("lft.eismatrix_mul"))

    def f1_kind(args):
        jet = isinstance(args[1], jets.Jet) or isinstance(args[2], jets.Jet)
        return "appell.f1_series_jet" if jet else "appell.f1_series_scalar"

    targets = [
        (jets.compose, fixed("jets.compose")),
        (appell.f1_series, f1_kind),
        (appell.f1_euler, fixed("appell.f1_euler")),
        (appell._quad, fixed("appell.quadrature")),
        (derivs.deriv_quad, fixed("derivs.deriv_quad")),
        (eta.eta_variant_identities, fixed("eta.variant_identities")),
        (lft.decompose_heisenberg, fixed("lft.decompose_heisenberg")),
    ]
    for short in SELF_TIME_MODULES:
        mod = sys.modules[f"gl3schwarz.{short}"]
        for attr, value in vars(mod).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                targets.append((value, fixed(short)))
    for original, name_of in targets:
        _replace_everywhere(original, tracer.wrap(original, name_of))

    report.CHECKS = tuple(
        dataclasses.replace(c, run=tracer.wrap(c.run, fixed(f"report.suite.{c.suite}")))
        for c in report.CHECKS
    )


def load(paths) -> dict:
    """Concatenate saved span files; span and op ids are made unique."""
    parts = {k: [] for k in ("name", "parent", "op", "start", "end")}
    names: list[str] = []
    span_base = op_base = 0
    for path in paths:
        with np.load(path) as f:
            local = [str(n) for n in f["names"]]
            remap = np.array([_index(names, n) for n in local], dtype=np.int32)
            parts["name"].append(remap[f["name"]])
            parent = f["parent"].astype(np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + span_base, -1))
            op = f["op"].astype(np.int64)
            parts["op"].append(np.where(op >= 0, op + op_base, -1))
            parts["start"].append(f["start"])
            parts["end"].append(f["end"])
            span_base += len(f["start"])
            op_base += int(op.max()) + 1 if len(op) else 0
    out = {k: np.concatenate(v) if v else np.zeros(0) for k, v in parts.items()}
    out["names"] = names
    return out


def _index(names: list[str], name: str) -> int:
    if name not in names:
        names.append(name)
    return names.index(name)


def summarize(spans: dict) -> dict:
    """Per span name: call count, total seconds, self seconds; per op: duration.

    Self time is a span's duration minus the durations of its direct
    children. Operation spans (names starting with "op.") have parent -1.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    by_name = {}
    for nid, name in enumerate(spans["names"]):
        sel = spans["name"] == nid
        by_name[name] = {
            "calls": int(sel.sum()),
            "total_s": float(dur[sel].sum()),
            "self_s": float(self_time[sel].sum()),
        }
    op_spans = np.flatnonzero(~has_parent)
    ops = [
        {"name": spans["names"][spans["name"][i]], "seconds": float(dur[i]), "self_s": float(self_time[i])}
        for i in op_spans
    ]
    return {"by_name": by_name, "ops": ops}
