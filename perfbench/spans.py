"""Span recorder for the traced benchmark run.

The recorder wraps the entry point of each layer from outside the library:
it rebinds module-level functions in every ``nashblowup`` module that holds
a copy (the package root, ``algebras``, ``equivalence``, ``corpus``, ``cli``
and the defining module) and replaces methods and properties on their
classes.  Nothing under ``src/`` changes.  Spans stay in memory; the worker
writes them out once the run ends, and :func:`layer_metrics` turns them into
the per-layer metrics.

A span is the list ``[name, parent, op, start, end, attrs]``: ``parent`` is
the index of the enclosing span (-1 for none), ``op`` the index of the
benchmark operation it belongs to, and ``attrs`` a small dict of counts read
off the call (field, result sizes, cache hit) or None.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
import sys
import time

# Layer of each wrapped entry point.  The order in LAYERS is the order of the
# per-layer metric names.
LAYERS = (
    "parsing",
    "jacobian.matrix",
    "jacobian.ideal",
    "ideals.basis",
    "ideals.capped",
    "ideals.nf",
    "ideals.member",
    "ideals.equals",
    "ideals.m_primary",
    "ideals.dim",
    "algebras",
    "equivalence.check",
    "equivalence.apply",
    "cli",
)

OP_SPAN = "op"


def _char_tag(obj) -> str:
    """'q' over the rationals, 'fp' over a prime field, for a polynomial or ring."""
    ring = getattr(obj, "ring", obj)
    return "q" if ring.field.characteristic == 0 else "fp"


class Recorder:
    """Collects spans from wrapped entry points; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    # -- recording

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, self.op, time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def run_op(self, index: int, fn):
        """Run one benchmark operation inside its root span."""
        self.op = index
        rec = self._open(OP_SPAN)
        try:
            return fn()
        finally:
            self._close(rec)
            self.op = -1

    def wrap(self, name: str, fn, describe=None, before=None):
        """``fn`` inside a span; ``describe(args, result, state)`` fills attrs,
        ``state`` being what ``before()`` returned at entry."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before() if before is not None else None
            rec = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(rec)
            if describe is not None:
                rec[5] = describe(args, result, state)
            return result

        # keep cache_info()/cache_clear() reachable through the wrapper
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- installation

    def rebind_function(self, module, attr: str, name: str, describe=None, before=None) -> None:
        """Wrap module.attr and every copy of it bound in a loaded nashblowup module."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, describe, before)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nashblowup" or mod_name.startswith("nashblowup.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def rebind_method(self, cls, attr: str, name: str, describe=None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, property):
            setattr(cls, attr, property(self.wrap(name, original.fget, describe)))
        else:
            setattr(cls, attr, self.wrap(name, original, describe))


def install(recorder: Recorder) -> None:
    """Wrap the entry point of every layer named in LAYERS."""
    from nashblowup import algebras, cli, equivalence, ideals, jacobian, parsing, polynomials

    def matrix_shape(args, result, state):
        return {"rows": len(result.rows), "cols": len(result.cols)}

    cache_info = getattr(jacobian.higher_jacobian_ideal, "cache_info", None)

    def cache_hits():
        return cache_info().hits if cache_info is not None else 0

    def jacobian_ideal(args, result, state):
        return {
            "field": _char_tag(args[0]),
            "hit": cache_hits() > state,
            "generators": len(result.generators),
        }

    def basis(args, result, state):
        return {"field": _char_tag(args[1]), "elements": len(result.elements)}

    def capped(args, result, state):
        return {"certified": result is not None}

    def normal_form(args, result, state):
        return {"field": _char_tag(args[0]), "aborted": result is None}

    recorder.rebind_function(parsing, "parse_polynomial", "parsing")
    recorder.rebind_function(jacobian, "jac_matrix", "jacobian.matrix", matrix_shape)
    recorder.rebind_method(polynomials.Polynomial, "hasse_derivative", "jacobian.matrix")
    recorder.rebind_function(jacobian, "higher_jacobian_ideal", "jacobian.ideal", jacobian_ideal, cache_hits)
    recorder.rebind_function(ideals, "compute_standard_basis", "ideals.basis", basis)
    recorder.rebind_function(ideals, "try_primary_standard_basis", "ideals.capped", capped)
    recorder.rebind_function(ideals, "weak_normal_form", "ideals.nf", normal_form)
    recorder.rebind_method(ideals.Ideal, "contains_element", "ideals.member")
    recorder.rebind_method(ideals.Ideal, "equals", "ideals.equals")
    recorder.rebind_method(ideals.ReducedStandardBasis, "is_m_primary", "ideals.m_primary")
    recorder.rebind_method(ideals.ReducedStandardBasis, "dimension", "ideals.dim")
    for attr in ("check_inclusions", "invariant_report", "nash_ideal_m", "nash_ideal_t", "tjurina_ideal", "tjurina_number"):
        recorder.rebind_function(algebras, attr, "algebras")
    for attr in ("check_right_covariance", "check_unit_stability", "check_contact_invariance", "apply_to_ideal"):
        recorder.rebind_function(equivalence, attr, "equivalence.check")
    recorder.rebind_method(equivalence.LocalAutomorphism, "apply", "equivalence.apply")
    recorder.rebind_function(cli, "main", "cli")


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_metrics(spans: list, ops: int, output_bytes: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one traced run, per operation where they are totals.

    ``traced_s`` and ``untraced_s`` are the summed op times of the same ops in
    the traced run and in a fresh untraced process.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    split: dict[tuple[str, str], float] = defaultdict(float)
    hits = generators = subsets = elements = certified = aborted = 0
    for s, t in zip(spans, own):
        name, attrs = s[0], s[5]
        calls[name] += 1
        busy[name] += t
        if attrs is None:
            continue
        if "field" in attrs:
            split[name, attrs["field"]] += t
        if name == "jacobian.ideal":
            if attrs["hit"]:
                hits += 1
            else:
                generators += attrs["generators"]
        elif name == "jacobian.matrix" and s[1] >= 0 and spans[s[1]][0] == "jacobian.ideal":
            subsets += math.comb(attrs["cols"], attrs["rows"])
        elif name == "ideals.basis":
            elements += attrs["elements"]
        elif name == "ideals.capped":
            certified += attrs["certified"]
        elif name == "ideals.nf":
            aborted += attrs["aborted"]

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    per_op = 1.0 / ops
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (value, unit)

    def layer(prefix: str, layer_name: str, by_field: bool = False) -> None:
        put(f"{prefix}calls", calls[layer_name] * per_op, "count/op")
        put(f"{prefix}self_s", busy[layer_name] * per_op, "s/op")
        if by_field:
            for tag in ("q", "fp"):
                put(f"{prefix}self_s.{tag}", split[layer_name, tag] * per_op, "s/op")

    layer("parsing.", "parsing")
    layer("jacobian.matrix_", "jacobian.matrix")
    layer("jacobian.ideal_", "jacobian.ideal", by_field=True)
    put("jacobian.ideal_cache_hit_ratio", ratio(hits, calls["jacobian.ideal"]), "ratio")
    put("jacobian.column_subsets", subsets * per_op, "count/op")
    put("jacobian.generators_out", generators * per_op, "count/op")
    layer("ideals.basis_", "ideals.basis", by_field=True)
    put("ideals.basis_elements_out", elements * per_op, "count/op")
    layer("ideals.capped_", "ideals.capped")
    put("ideals.capped_certified_ratio", ratio(certified, calls["ideals.capped"]), "ratio")
    layer("ideals.nf_", "ideals.nf", by_field=True)
    put("ideals.nf_aborted_ratio", ratio(aborted, calls["ideals.nf"]), "ratio")
    layer("ideals.member_", "ideals.member")
    layer("ideals.equals_", "ideals.equals")
    layer("ideals.m_primary_", "ideals.m_primary")
    layer("ideals.dim_", "ideals.dim")
    layer("algebras.", "algebras")
    layer("equivalence.check_", "equivalence.check")
    layer("equivalence.apply_", "equivalence.apply")
    layer("cli.", "cli")
    put("cli.output_bytes", output_bytes * per_op, "byte/op")
    put("op.self_s", busy[OP_SPAN] * per_op, "s/op")
    put("trace.overhead_ratio", traced_s / untraced_s - 1.0, "ratio")
    return out
