"""Spans around the calls into each apavoid layer, recorded from outside the package.

The tracer rebinds layer entry points by name. A function that one module
imports by name into another (``find_repetition`` lives in ``repetition`` and
is bound again in ``search``, ``lattice``, ``cli`` and the package namespace)
is replaced in every ``apavoid`` module that holds it, so each call path goes
through the wrapper. Nothing in the package itself is edited.

Layers:
  kernels   ``_backend.first_repetition``, ``clean_after_append``, ``max_exponent_pair``
  scanners  ``repetition.find_repetition``, ``repetition.max_exponent``,
            ``lattice.verify_grid``
  engines   ``search.backtrack_longest``, ``search.confirm_unavoidable``,
            ``lattice.grid_search``
  front end ``cli.main`` and the ``cli.import`` span timed by the shim

Kernel calls are folded into the span that made them, as a call count and a
total duration, instead of being kept one by one: a single check task makes
about 10^5 kernel calls, far too many spans to hold in memory. Likewise a span
that made no spans of its own is folded into its parent when it closes.
Self times and counts are unchanged by the folding.
"""

from __future__ import annotations

import importlib
import sys
import time

clock = time.perf_counter

KERNELS = (
    "_backend.first_repetition",
    "_backend.clean_after_append",
    "_backend.max_exponent_pair",
)
ENGINES = (
    "search.backtrack_longest",
    "search.confirm_unavoidable",
    "lattice.grid_search",
)
TASK = "task"


# (module, attribute, span name, result field holding the node count)
SPAN_LAYERS = (
    ("apavoid.repetition", "find_repetition", "repetition.find_repetition", None),
    ("apavoid.repetition", "max_exponent", "repetition.max_exponent", None),
    ("apavoid.search", "backtrack_longest", "search.backtrack_longest", "nodes_visited"),
    ("apavoid.search", "confirm_unavoidable", "search.confirm_unavoidable", "nodes"),
    ("apavoid.lattice", "verify_grid", "lattice.verify_grid", None),
    ("apavoid.lattice", "grid_search", "lattice.grid_search", "nodes"),
)
CLI_LAYER = ("apavoid.cli", "main", "cli.main", None)


class Span:
    """One call into a layer.

    ``leaves`` maps a kernel name to [calls, seconds, symbols, outcomes],
    where an outcome is a hit for ``first_repetition`` and a rejection for
    ``clean_after_append``. ``folded`` maps a layer name to [calls, seconds,
    nodes, leaves] for child spans that made no spans of their own and were
    merged into this one when they closed.
    """

    __slots__ = ("id", "name", "task", "parent", "start", "end", "nodes", "leaves", "folded",
                 "branch")

    def __init__(self, id, name, task, parent, start, end=0.0, nodes=0, leaves=None,
                 folded=None):
        self.id = id
        self.name = name
        self.task = task
        self.parent = parent
        self.start = start
        self.end = end
        self.nodes = nodes
        self.leaves = leaves
        self.folded = folded
        self.branch = False

    def to_list(self):
        return [self.id, self.name, self.task, self.parent, self.start, self.end,
                self.nodes, self.leaves, self.folded]

    @classmethod
    def from_list(cls, row):
        return cls(*row)


def _merge_leaves(into: dict, leaves: dict) -> None:
    for kernel, agg in leaves.items():
        mine = into.get(kernel)
        if mine is None:
            into[kernel] = list(agg)
        else:
            for i, value in enumerate(agg):
                mine[i] += value


class Tracer:
    """Keeps the spans in memory; ``spans`` is written out when the run ends.

    A span that opened no spans of its own is folded into its parent when it
    closes (a grid verification makes one scanner call per line, 10^4 of
    them), so only spans with children, and the roots, stay as records.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.task = -1

    def open(self, name: str) -> Span:
        parent = -1
        if self.stack:
            top = self.stack[-1]
            top.branch = True
            parent = top.id
        span = Span(len(self.spans), name, self.task, parent, clock())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        self.stack.pop()
        if span.branch or not self.stack:
            return
        self.spans.pop()  # a span without children is the last one opened
        parent = self.stack[-1]
        if parent.folded is None:
            parent.folded = {}
        agg = parent.folded.get(span.name)
        if agg is None:
            agg = parent.folded[span.name] = [0, 0.0, 0, {}]
        agg[0] += 1
        agg[1] += span.end - span.start
        agg[2] += span.nodes
        if span.leaves:
            _merge_leaves(agg[3], span.leaves)

    def adopt(self, rows, parent: Span) -> None:
        """Append spans recorded in a child process under ``parent``.

        perf_counter reads CLOCK_MONOTONIC on Linux, so the child's
        timestamps share the parent's time base."""
        base = len(self.spans)
        parent.branch = True
        for row in rows:
            span = Span.from_list(row)
            span.id += base
            span.parent = parent.id if span.parent < 0 else span.parent + base
            span.task = parent.task
            self.spans.append(span)


def _span_wrapper(tracer: Tracer, name: str, fn, nodes_field):
    def wrapped(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if nodes_field is not None:
                span.nodes = getattr(result, nodes_field, 0)
        finally:
            tracer.close(span)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


def _kernel_wrapper(tracer: Tracer, name: str, fn):
    stack = tracer.stack
    rejection = name == "_backend.clean_after_append"

    def wrapped(*args):
        t0 = clock()
        result = fn(*args)
        elapsed = clock() - t0
        parent = stack[-1]
        if parent.leaves is None:
            parent.leaves = {}
        agg = parent.leaves.get(name)
        if agg is None:
            agg = parent.leaves[name] = [0, 0.0, 0, 0]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += len(args[0])
        if (result is False) if rejection else (result is not None):
            agg[3] += 1
        return result

    wrapped.__wrapped__ = fn
    return wrapped


def install(tracer: Tracer, with_cli: bool = False):
    """Wrap every layer entry point that exists; return (undo list, absent names).

    A name that a later version of the package moved or deleted is reported
    as absent instead of failing the run, so every other layer still reports.
    """
    targets = [("apavoid._backend", name.split(".", 1)[1], name, "kernel", None)
               for name in KERNELS]
    targets += [(mod, attr, name, "span", field) for mod, attr, name, field in SPAN_LAYERS]
    if with_cli:
        mod, attr, name, field = CLI_LAYER
        targets.append((mod, attr, name, "span", field))

    undo = []
    absent = []
    for mod, attr, name, kind, field in targets:
        try:
            original = getattr(importlib.import_module(mod), attr)
        except (ImportError, AttributeError):
            absent.append(name)
            continue
        if kind == "kernel":
            wrapper = _kernel_wrapper(tracer, name, original)
        else:
            wrapper = _span_wrapper(tracer, name, original, field)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "apavoid" or module_name.startswith("apavoid.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    return undo, absent


def uninstall(undo) -> None:
    for module, key, original in reversed(undo):
        setattr(module, key, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its child spans, folded spans and kernel calls cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        own = span.end - span.start
        own -= _covered(children.get(span.id, ()), span.start, span.end)
        if span.leaves:
            own -= sum(agg[1] for agg in span.leaves.values())
        if span.folded:
            own -= sum(agg[1] for agg in span.folded.values())
        out[span.id] = own
    return out


def layer_totals(spans) -> dict[str, dict]:
    """Per layer name: calls, self seconds, inclusive seconds, nodes, symbols, outcomes.

    Also counts, per layer, the kernel calls made inside its engines' subtrees
    (``kernel_calls``), the calls it made into each other layer
    (``child_calls``) and into each kernel directly (``direct_kernel_calls``).
    """
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    totals: dict[str, dict] = {}

    def entry(name):
        return totals.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                        "nodes": 0, "symbols": 0, "outcomes": 0,
                                        "kernel_calls": 0, "child_calls": {},
                                        "direct_kernel_calls": {}})

    engine_of: dict[int, str | None] = {}

    def engine(span_id):
        chain = []
        found = None
        while span_id >= 0:
            if span_id in engine_of:
                found = engine_of[span_id]
                break
            span = by_id[span_id]
            if span.name in ENGINES:
                found = span.name
                break
            chain.append(span_id)
            span_id = span.parent
        for sid in chain:
            engine_of[sid] = found
        return found

    def add_leaves(caller: str, owner, leaves: dict) -> None:
        direct = entry(caller)["direct_kernel_calls"]
        for kernel, (calls, seconds, symbols, outcomes) in leaves.items():
            k = entry(kernel)
            k["calls"] += calls
            k["self_s"] += seconds
            k["total_s"] += seconds
            k["symbols"] += symbols
            k["outcomes"] += outcomes
            direct[kernel] = direct.get(kernel, 0) + calls
            if owner is not None:
                entry(owner)["kernel_calls"] += calls

    def add_call(parent_name: str, name: str, calls: int) -> None:
        child_calls = entry(parent_name)["child_calls"]
        child_calls[name] = child_calls.get(name, 0) + calls

    for span in spans:
        e = entry(span.name)
        e["calls"] += 1
        e["self_s"] += selfs[span.id]
        e["total_s"] += span.end - span.start
        e["nodes"] += span.nodes
        if span.parent >= 0:
            add_call(by_id[span.parent].name, span.name, 1)
        owner = engine(span.id)
        if span.leaves:
            add_leaves(span.name, owner, span.leaves)
        for name, (calls, seconds, nodes, leaves) in (span.folded or {}).items():
            f = entry(name)
            f["calls"] += calls
            f["self_s"] += seconds - sum(agg[1] for agg in leaves.values())
            f["total_s"] += seconds
            f["nodes"] += nodes
            add_call(span.name, name, calls)
            add_leaves(name, name if name in ENGINES else owner, leaves)
    return totals


_EMPTY = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "nodes": 0, "symbols": 0, "outcomes": 0,
          "kernel_calls": 0, "child_calls": {}, "direct_kernel_calls": {}}


def per_layer_metrics(totals, traced_wall: float) -> list[tuple[str, str, float, tuple]]:
    """(metric, unit, value, wrapped names it needs) for one traced pass.

    Self times are given as a share of the traced pass, so that a layer a
    workload never calls reads 0 % rather than a time of exactly zero. Metric
    names drop the leading underscore of ``_backend``.
    """
    def t(name):
        return totals.get(name, _EMPTY)

    def ratio(a, b):
        return a / b if b else 0.0

    def pct(seconds):
        return 100.0 * ratio(seconds, traced_wall)

    fr_name, ca_name, mx_name = KERNELS
    fr, ca, mx = t(fr_name), t(ca_name), t(mx_name)
    fx_name = "repetition.find_repetition"
    fx = t(fx_name)
    bt_name, cu_name, gs_name = ENGINES
    bt, cu, gs = t(bt_name), t(cu_name), t(gs_name)
    vg_name = "lattice.verify_grid"
    vg = t(vg_name)
    search = (bt_name, cu_name)
    search_nodes = bt["nodes"] + cu["nodes"]
    rows = [
        (fr_name + ".calls", "count", fr["calls"], (fr_name,)),
        (fr_name + ".symbols", "count", fr["symbols"], (fr_name,)),
        (fr_name + ".hit_ratio", "ratio", ratio(fr["outcomes"], fr["calls"]), (fr_name,)),
        (fr_name + ".self_pct", "%", pct(fr["self_s"]), (fr_name,)),
        (mx_name + ".calls", "count", mx["calls"], (mx_name,)),
        (mx_name + ".self_pct", "%", pct(mx["self_s"]), (mx_name,)),
        (ca_name + ".calls", "count", ca["calls"], (ca_name,)),
        (ca_name + ".reject_ratio", "ratio", ratio(ca["outcomes"], ca["calls"]), (ca_name,)),
        (ca_name + ".self_pct", "%", pct(ca["self_s"]), (ca_name,)),
        (fx_name + ".calls", "count", fx["calls"], (fx_name,)),
        (fx_name + ".self_pct", "%", pct(fx["self_s"]), (fx_name,)),
        (fx_name + ".progressions_per_call", "ratio",
         ratio(fx["direct_kernel_calls"].get(fr_name, 0), fx["calls"]), (fx_name, fr_name)),
        ("search.nodes", "count", search_nodes, search),
        ("search.nodes_per_s", "1/s", ratio(search_nodes, bt["total_s"] + cu["total_s"]), search),
        ("search.self_pct", "%", pct(bt["self_s"] + cu["self_s"]), search),
        ("search.kernel_calls_per_node", "ratio",
         ratio(bt["kernel_calls"] + cu["kernel_calls"], search_nodes), search),
        (vg_name + ".lines", "count", vg["child_calls"].get(fx_name, 0), (vg_name, fx_name)),
        (vg_name + ".self_pct", "%", pct(vg["self_s"]), (vg_name,)),
        (gs_name + ".nodes", "count", gs["nodes"], (gs_name,)),
        (gs_name + ".nodes_per_s", "1/s", ratio(gs["nodes"], gs["total_s"]), (gs_name,)),
        (gs_name + ".self_pct", "%", pct(gs["self_s"]), (gs_name,)),
        (gs_name + ".kernel_calls_per_node", "ratio", ratio(gs["kernel_calls"], gs["nodes"]),
         (gs_name,)),
        ("cli.import_pct", "%", pct(t("cli.import")["total_s"]), ()),
        ("cli.main.self_pct", "%", pct(t("cli.main")["self_s"]), ("cli.main",)),
        ("harness.self_pct", "%", pct(t(TASK)["self_s"]), ()),
    ]
    return [(name.lstrip("_"), unit, value, needs) for name, unit, value, needs in rows]
