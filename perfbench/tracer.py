"""Tracing from outside the program: wrappers around each layer's public
functions and methods, installed for one traced run and removed after it.

Every module of ``extline`` is a layer.  A wrapper goes on the function's
defining module or class, and also on every ``extline`` module that bound
the same object under any name (``from .x import f`` and its aliases), so
that each call path goes through it.  Properties and dunder methods are
left alone.

Each wrapped call is a span.  A span's self time is its duration minus the
time its child spans cover.  Every span adds to per-name totals (calls,
inclusive time, self time), from which the per-layer metrics are computed.
The root span of each job, and every span with a child outside the hot
arithmetic layers (``fields`` scalars and ``homs`` morphisms, millions of
calls a run), are also kept in memory with name, start, end, parent span
and job id, and written out at the end.  The other spans, leaves and all
hot-layer spans, are only folded into the totals: storing them would take
gigabytes.  Their time is still subtracted from the parent's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = (
    "cli", "ext_table", "resolutions", "homs", "strings",
    "linalg", "fields", "reps", "yoneda", "path_algebra",
)

# Layers whose calls are folded into totals rather than stored as spans.
FOLDED_LAYERS = frozenset({"fields", "homs"})

# The per-layer metrics a traced run reports, with their units.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("ext_table.self_s", "s"),
    ("ext_table.cells", "count"),
    ("resolutions.self_s", "s"),
    ("resolutions.build_calls", "count"),
    ("resolutions.build_hit_ratio", "ratio"),
    ("resolutions.compose_calls", "count"),
    ("resolutions.verify_s", "s"),
    ("homs.self_s", "s"),
    ("homs.compose_calls", "count"),
    ("homs.zero_hom_calls", "count"),
    ("strings.self_s", "s"),
    ("strings.normalize_p_calls", "count"),
    ("linalg.self_s", "s"),
    ("linalg.rref_calls", "count"),
    ("linalg.rref_cells", "count"),
    ("linalg.system_equations", "count"),
    ("linalg.system_unknowns", "count"),
    ("fields.self_s", "s"),
    ("fields.ops_fp", "count"),
    ("fields.ops_q", "count"),
    ("reps.self_s", "s"),
    ("reps.cover_calls", "count"),
    ("reps.hom_space_calls", "count"),
    ("reps.iso_calls", "count"),
    ("reps.iso_candidates_per_call", "count"),
    ("yoneda.self_s", "s"),
    ("yoneda.generator_s", "s"),
    ("yoneda.compose_calls", "count"),
    ("yoneda.components_built", "count"),
    ("yoneda.null_homotopy_calls", "count"),
    ("yoneda.homotopy_period_multiple", "ratio"),
    ("path_algebra.self_s", "s"),
    ("path_algebra.graded_dimension_s", "s"),
    ("path_algebra.evaluate_word_calls", "count"),
    ("path_algebra.zero_verdicts", "count"),
    ("trace.overhead_s", "s"),
)

GENERATORS = ("yoneda.generator_x", "yoneda.generator_xstar", "yoneda.generator_y")


def _public_callables(module):
    """(owner, attribute, function, span name) for the module's own public
    functions and the public plain methods of the classes it defines."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if not attr.startswith("_") and inspect.isfunction(member):
                    out.append((obj, attr, member, f"{layer}.{obj.__name__}.{attr}"))
    return out


class Tracer:
    """Spans and per-name totals for one traced run."""

    def __init__(self):
        self.stack = []  # per active call: [time covered by children, span id, has children]
        self.spans = []  # (span id, name, start, end, parent id, job id)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, incl s, self s]
        self.counts = defaultdict(int)
        self.period_multiples = []
        self.job = None
        self._next_id = 1
        self._seen_complexes = {}
        self._patches = []  # (owner, attribute, original), in install order

    # ---------------------------------------------------------- jobs

    def begin_job(self, job_id):
        self.job = job_id
        self._seen_complexes = {}

    def end_job(self):
        self.job = None
        self._seen_complexes = {}

    # ------------------------------------------------------ wrapping

    def _wrap(self, fn, name, folded, probe):
        clock = time.perf_counter
        stack = self.stack
        stats = self.totals[name]
        spans = self.spans
        tracer = self

        if folded:
            def wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1] if stack else 0, False]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
                        if frame[2]:  # a stored span below: keep its ancestors
                            stack[-1][2] = True
        else:
            def wrapper(*args, **kwargs):
                span_id = tracer._next_id
                tracer._next_id = span_id + 1
                parent = stack[-1] if stack else None
                frame = [0.0, span_id, False]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    dur = t1 - t0
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur - frame[0]
                    if parent is not None:
                        parent[0] += dur
                        parent[2] = True
                    if frame[2] or parent is None:
                        spans.append((span_id, name, t0, t1, parent[1] if parent else 0, tracer.job))
                if probe is not None:
                    probe(tracer, args, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def install(self):
        """Wrap every layer's public callables; returns the patch list."""
        modules = [importlib.import_module(f"extline.{layer}") for layer in LAYERS]
        package = importlib.import_module("extline")
        bound_in = [package] + modules
        replacement = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for owner, attr, fn, name in _public_callables(module):
                wrapper = self._wrap(fn, name, layer in FOLDED_LAYERS, PROBES.get(name))
                replacement[id(fn)] = (fn, wrapper)
                self._patch(owner, attr, wrapper)
        for module in bound_in:
            for attr, obj in list(vars(module).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        return list(self._patches)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------- metrics

    def layer_sum(self, layer, field):
        return sum(v[field] for k, v in self.totals.items() if k.split(".", 1)[0] == layer)

    def calls(self, name):
        return self.totals[name][0] if name in self.totals else 0

    def inclusive(self, names):
        return sum(self.totals[n][1] for n in names if n in self.totals)

    def metrics(self):
        c = self.counts
        builds = self.calls("resolutions.build_resolution")
        iso = self.calls("reps.iso_witness")
        pm = self.period_multiples
        values = {f"{layer}.self_s": self.layer_sum(layer, 2) for layer in LAYERS}
        values.update({
            "ext_table.cells": c["ext_table.cells"],
            "resolutions.build_calls": builds,
            "resolutions.build_hit_ratio": c["resolutions.build_hits"] / builds if builds else 0.0,
            "resolutions.compose_calls": self.calls("resolutions.hom_matrix_compose"),
            "resolutions.verify_s": self.inclusive(["resolutions.verify_resolution"]),
            "homs.compose_calls": self.calls("homs.LineAlgebra.compose"),
            "homs.zero_hom_calls": self.calls("homs.LineAlgebra.zero_hom"),
            "strings.normalize_p_calls": self.calls("strings.normalize_p"),
            "linalg.rref_calls": self.calls("linalg.rref"),
            "linalg.rref_cells": c["linalg.rref_cells"],
            "linalg.system_equations": self.calls("linalg.LinearSystem.add_equation"),
            "linalg.system_unknowns": c["linalg.system_unknowns"],
            "fields.ops_fp": self.layer_calls("fields.PrimeField."),
            "fields.ops_q": self.layer_calls("fields.RationalField."),
            "reps.cover_calls": self.calls("reps.projective_cover"),
            "reps.hom_space_calls": self.calls("reps.hom_space"),
            "reps.iso_calls": iso,
            "reps.iso_candidates_per_call":
                self.calls("reps.RepMorphism.is_invertible") / iso if iso else 0.0,
            "yoneda.generator_s": self.inclusive(GENERATORS),
            "yoneda.compose_calls": self.calls("yoneda.compose"),
            "yoneda.components_built": c["yoneda.components_built"],
            "yoneda.null_homotopy_calls": self.calls("yoneda.null_homotopy"),
            "yoneda.homotopy_period_multiple": sum(pm) / len(pm) if pm else 0.0,
            "path_algebra.graded_dimension_s": self.inclusive(["path_algebra.graded_dimension"]),
            "path_algebra.evaluate_word_calls": self.calls("path_algebra.evaluate_word"),
            "path_algebra.zero_verdicts": c["path_algebra.zero_verdicts"],
        })
        return values

    def layer_calls(self, prefix):
        return sum(v[0] for k, v in self.totals.items() if k.startswith(prefix))

    def write(self, path, extra):
        """Write the stored spans and the per-name totals as JSON.  Span
        names and job ids are indices into the "names" and "jobs" lists;
        start and end are microseconds from the first stored span."""
        names, jobs = {}, {}
        t0 = min((sp[2] for sp in self.spans), default=0.0)
        rows = [
            [sid, names.setdefault(name, len(names)), round((start - t0) * 1e6),
             round((end - t0) * 1e6), parent, jobs.setdefault(job, len(jobs))]
            for sid, name, start, end, parent, job in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                **extra,
                "names": list(names),
                "jobs": list(jobs),
                "span_fields": ["id", "name", "start_us", "end_us", "parent", "job"],
                "spans": rows,
                "totals": {
                    k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                    for k, v in sorted(self.totals.items())
                },
            }, fh, separators=(",", ":"))


# ------------------------------------------------------------- probes
# A probe reads a finished call's arguments and result and adds counts
# that the call count alone does not give.


def _ext_table(t, args, result):
    t.counts["ext_table.cells"] += sum(len(row) for row in result.data.values())


def _build_resolution(t, args, result):
    # A hit is a complex already returned earlier in the same job.
    if id(result) in t._seen_complexes:
        t.counts["resolutions.build_hits"] += 1
    else:
        t._seen_complexes[id(result)] = result


def _rref(t, args, result):
    M = args[1]
    t.counts["linalg.rref_cells"] += len(M) * (len(M[0]) if M else 0)


def _solve(t, args, result):
    t.counts["linalg.system_unknowns"] += args[0].nvars


def _compose(t, args, result):
    t.counts["yoneda.components_built"] += len(result.components)


def _null_homotopy(t, args, result):
    if result is not None:
        t.period_multiples.append(result.period_len / (2 * args[0].source.alg.n))


def _evaluate_word(t, args, result):
    if not result.nonzero:
        t.counts["path_algebra.zero_verdicts"] += 1


PROBES = {
    "ext_table.ext_table": _ext_table,
    "resolutions.build_resolution": _build_resolution,
    "linalg.rref": _rref,
    "linalg.LinearSystem.solution": _solve,
    "linalg.LinearSystem.nullspace_basis": _solve,
    "yoneda.compose": _compose,
    "yoneda.null_homotopy": _null_homotopy,
    "path_algebra.evaluate_word": _evaluate_word,
}


def check_restored(patches):
    """Names of patched attributes that are not the original object again."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in patches
        if vars(owner).get(attr) is not original
    ]
