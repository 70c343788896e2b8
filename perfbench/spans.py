"""Layer spans recorded from outside the program.

``install`` replaces the public entry points of each ``filmhom`` module with
wrappers that open a span around the call and read work counters from its
arguments and its result.  The wrappers sit at the names callers look up:
the modules bind each other's functions with ``from ... import``, so every
importing module's attribute is patched, not only the defining one.

Spans are kept in memory, one stack per thread; a span opened on a thread
with an empty stack (a ``--jobs`` pool worker) is parented to the enclosing
root span.  ``layer_metrics`` turns them into per-layer self times and
counters once the traced session has ended.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from pathlib import Path

# Layers whose spans count as covered time; cli and config only dispatch.
COMPUTE_LAYERS = ("profiles", "cell_solver", "homogenize", "film")
SOLVE_SPANS = ("cell_solver.minimize_periodic", "film.direct_min")


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "counters")

    def __init__(self, sid, name, parent, thread, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = None
        self.counters = {}

    def to_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "thread": self.thread, "start": self.start, "end": self.end,
                **self.counters}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None
        self._lock = threading.Lock()

    def open(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1].id if stack else self._root
        with self._lock:
            span = Span(next(self._ids), name, parent,
                        threading.get_ident(), time.perf_counter())
            self.spans.append(span)
        if not stack and self._root is None:
            self._root = span.id
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._local.stack.pop()
        if span.id == self._root:
            self._root = None

    def write_jsonl(self, path, header):
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


# -- counters read from arguments and results ---------------------------------------


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _solve_counters(report, field_values, warm):
    return {"method": report.method, "iterations": int(report.iterations),
            "converged": bool(report.converged), "warm": warm,
            # nodes * m: the size of the unknown field
            "unknowns": int(field_values.size)}


def _count_periodic(args, kwargs, result):
    _, corrector, report = result
    return _solve_counters(report, corrector.values,
                           _arg(args, kwargs, 4, "v0") is not None)


def _count_slab(args, kwargs, result):
    _, v, report = result
    return _solve_counters(report, v, _arg(args, kwargs, 5, "v0") is not None)


def _count_labelling(args, kwargs, result):
    mask = _arg(args, kwargs, 0, "mask")
    occ = getattr(mask, "occupancy", mask)
    return {"cells": int(occ.size)}


def _count_w_bar(args, kwargs, result):
    return {"nodes": len(result.nodes), "refinements": int(result.refinement_level)}


def _wrap(tracer, name, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            span.counters.update(count(args, kwargs, result))
        return result
    return wrapper


def span_cost(calls=20000, repeats=5):
    """Seconds one span adds to a call: a no-op timed bare and wrapped, the
    median over ``repeats`` rounds of ``calls`` calls each."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = _wrap(tracer, "noop", noop, None)
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def install(tracer, filmhom):
    """Patch the layer entry points; returns a function that restores them."""
    cli, film, hom = filmhom.cli, filmhom.film, filmhom.homogenize
    targets = [
        # (span name, counter, modules whose attribute callers look up, attribute)
        ("cell_solver.minimize_periodic", _count_periodic, (hom, film), "minimize_periodic"),
        ("film.direct_min", _count_slab, (film,), "_solve_masked"),
        ("profiles.torus_components", _count_labelling, (hom, cli), "torus_components"),
        ("profiles.superlevel_mask", None, (hom, cli), "superlevel_mask"),
        ("profiles.oscillating_domain_mask", None, (film,), "oscillating_domain_mask"),
        ("homogenize.thresholds", None, (hom, film), "thresholds"),
        ("config.load_config", None, (cli,), "load_config"),
    ]
    for fn_name in ("kernel", "phi_sharp", "psi", "psi_cylinder_oracle", "w_hom"):
        targets.append((f"homogenize.{fn_name}", None, (hom,), fn_name))
    for fn_name in ("w_tilde", "membrane_min", "gamma_check"):
        targets.append((f"film.{fn_name}", None, (film,), fn_name))
    targets.append(("film.w_bar", _count_w_bar, (film,), "w_bar"))

    saved = []
    for span_name, count, modules, attr in targets:
        for module in modules:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, span_name, original, count))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    return restore


# -- per-layer metrics ------------------------------------------------------------------


def _union_length(intervals):
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """Span duration minus the part of it covered by its children's spans."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _union_length(
            [k for k in kids if k[1] > k[0]])
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, wall_s, cost_per_span):
    """Per-layer metrics of one traced session, keyed ``module.function.quantity``.

    ``wall_s`` is the traced session's wall time and ``cost_per_span`` the
    seconds one span adds (see ``span_cost``)."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s.counters.get(key, 0) for s in by_name.get(name, ()))

    m = {}
    for name in ("homogenize.thresholds", "homogenize.kernel", "homogenize.phi_sharp",
                 "homogenize.psi", "homogenize.psi_cylinder_oracle", "homogenize.w_hom",
                 "film.w_tilde", "film.w_bar", "film.membrane_min", "film.gamma_check",
                 "profiles.superlevel_mask", "profiles.oscillating_domain_mask"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)

    lab = "profiles.torus_components"
    m[f"{lab}.calls"] = calls(lab)
    m[f"{lab}.self_s"] = self_s(lab)
    m[f"{lab}.ns_per_cell"] = 1e9 * _ratio(self_s(lab), total(lab, "cells"))

    mp = "cell_solver.minimize_periodic"
    solves = by_name.get(mp, [])
    cg = sum(s.counters["iterations"] for s in solves if s.counters["method"] == "cg")
    descent = sum(s.counters["iterations"] for s in solves
                  if s.counters["method"] == "descent")
    m[f"{mp}.calls"] = len(solves)
    m[f"{mp}.self_s"] = self_s(mp)
    m[f"{mp}.ms_per_call"] = 1e3 * _ratio(self_s(mp), len(solves))
    m[f"{mp}.cg_iters"] = cg
    m[f"{mp}.descent_iters"] = descent
    m[f"{mp}.iters_per_call"] = _ratio(cg + descent, len(solves))
    m[f"{mp}.warm_frac"] = _ratio(sum(s.counters["warm"] for s in solves), len(solves))
    m[f"{mp}.unconverged"] = sum(not s.counters["converged"] for s in solves)

    dm = "film.direct_min"
    slabs = by_name.get(dm, [])
    m[f"{dm}.calls"] = len(slabs)
    m[f"{dm}.self_s"] = self_s(dm)
    m[f"{dm}.cg_iters"] = sum(s.counters["iterations"] for s in slabs)
    m[f"{dm}.nodes"] = sum(s.counters["unknowns"] for s in slabs)

    node_iters = sum(s.counters["iterations"] * s.counters["unknowns"]
                     for name in SOLVE_SPANS for s in by_name.get(name, ()))
    m["cell_solver.node_iters"] = node_iters
    m["cell_solver.ns_per_node_iter"] = 1e9 * _ratio(
        sum(self_s(name) for name in SOLVE_SPANS), node_iters)

    w_tilde_ids = {s.id for s in by_name.get("film.w_tilde", ())}
    m["film.w_tilde.solves_per_call"] = _ratio(
        sum(s.parent in w_tilde_ids for s in solves), len(w_tilde_ids))
    m["film.w_bar.nodes"] = total("film.w_bar", "nodes")
    m["film.w_bar.refinements"] = total("film.w_bar", "refinements")

    m["cli.main.self_s"] = self_s("cli.main")
    m["config.load_config.self_s"] = self_s("config.load_config")

    compute = [(s.start, s.end) for s in spans
               if s.name.split(".", 1)[0] in COMPUTE_LAYERS]
    m["trace.coverage"] = _ratio(_union_length(compute), wall_s)
    m["trace.overhead_s"] = cost_per_span * len(spans)
    return m


def work_counters(spans, step_names):
    """Deterministic work per CLI call: solves, iterations, labelling passes
    and quadrature nodes, keyed by the step's command."""
    roots = [s for s in spans if s.name == "cli.main"]
    step_of = {}
    parent = {s.id: s.parent for s in spans}
    for step, root in zip(step_names, roots):
        step_of[root.id] = step

    def step_for(span):
        sid = span.id
        while sid is not None and sid not in step_of:
            sid = parent.get(sid)
        return step_of.get(sid)

    out = {step: {"solves": 0, "cg_iters": 0, "descent_iters": 0,
                  "slab_iters": [], "labelling_calls": 0, "w_bar_nodes": 0}
           for step in step_names}
    for s in spans:
        c = out.get(step_for(s))
        if c is None:
            continue
        if s.name == "cell_solver.minimize_periodic":
            c["solves"] += 1
            if s.counters["method"] == "cg":
                c["cg_iters"] += s.counters["iterations"]
            elif s.counters["method"] == "descent":
                c["descent_iters"] += s.counters["iterations"]
        elif s.name == "film.direct_min":
            c["solves"] += 1
            c["slab_iters"].append(s.counters["iterations"])
        elif s.name == "profiles.torus_components":
            c["labelling_calls"] += 1
        elif s.name == "film.w_bar":
            c["w_bar_nodes"] += s.counters["nodes"]
    return out
