"""In-memory span tracer that wraps the hourahead layers from outside.

Spans are recorded around calls into each module's entry points and around
every per-slot strategy callback. A span is (id, parent id, name, start, end)
plus up to three work counts taken at the same boundary (cells of an oracle
call, slots of a simulation, offers/offered/committed of an offer book).
Names are "<layer>.<entry point>". Nothing in the package is edited:
``Tracer.install`` swaps module attributes for timing wrappers and
``Tracer.uninstall`` puts the originals back.

The threshold policy (``eval_g`` and friends) is called only from inside the
strategies and costs microseconds per call, so it is measured as part of the
``strategies`` layer rather than wrapped.

Process-pool workers forked while a span is open inherit the wrappers. Each
worker appends its spans to a file under the spill directory after every
outermost call, and ``collect`` merges those files into the parent's spans.
Workers started by ``spawn`` or ``forkserver`` are not traced.
"""
from __future__ import annotations

import os
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from hourahead import adversary, cli, experiment
from hourahead.market import settle_offer

LAYERS = ("cli", "experiment", "traces", "oracle", "market", "strategies", "adversary")
STRATEGIES = ("socs", "ocsmb", "mocsmb", "fonline")
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
COLUMNS = (("id", "q"), ("parent", "q"), ("start", "d"), ("end", "d"),
           ("a", "d"), ("b", "d"), ("c", "d"))  # fmt: skip
SPILL_DTYPE = np.dtype([(col, "<i8" if code == "q" else "<f8") for col, code in COLUMNS]
                       + [("name", "<U40")])  # fmt: skip

# (module, attribute, span name). The same function appears once per module
# that imported it by name, because callers look it up in their own module.
ENTRY_POINTS = (
    (cli, "main", "cli.main"),
    (cli, "run_experiment", "experiment.run_experiment"),
    (cli, "run_offer_sweep", "experiment.run_offer_sweep"),
    (cli, "emit_report", "experiment.emit_report"),
    (cli, "adversarial_search", "adversary.adversarial_search"),
    (experiment, "run_experiment", "experiment.run_experiment"),
    (experiment, "run_offer_sweep", "experiment.run_offer_sweep"),
    (experiment, "emit_report", "experiment.emit_report"),
    (experiment, "synthesize", "traces.synthesize"),
    (experiment, "realize_outputs", "traces.realize_outputs"),
    (experiment, "offline_opt_dp", "oracle.offline_opt_dp"),
    (experiment, "simulate_run", "market.simulate_run"),
    (experiment, "nostorage_profit", "strategies.nostorage_profit"),
    (adversary, "offline_opt_dp", "oracle.offline_opt_dp"),
    (adversary, "simulate_run", "market.simulate_run"),
)
FACTORIES = tuple(
    (module, f"{name}_strategy", name) for module in (cli, experiment) for name in STRATEGIES
)


def _oracle_cells(args, result) -> float:
    trace, _spec, disc = args[:3]
    return float(trace.horizon * (disc.levels + 1))


# the work count recorded in column `a` of a span, by span name
WORK = {
    "oracle.offline_opt_dp": _oracle_cells,
    "market.simulate_run": lambda args, result: float(args[0].horizon),
    "adversary.adversarial_search": lambda args, result: float(result.instances),
}


class Tracer:
    """Collects the spans of one benchmark process and of its forked workers."""

    def __init__(self, spill_dir: Path) -> None:
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {col: array(code) for col, code in COLUMNS}
        self.name_idx = array("i")
        self.merged: list[np.ndarray] = []  # spans collected from workers
        self.stack = [0]  # 0 is the root: no parent span
        self.next_id = 1
        self.base_depth = 0  # stack depth at which a worker spills its spans
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _record(self, sid, parent, name, t0, t1, a=0.0, b=0.0, c=0.0) -> None:
        cols = self.cols
        cols["id"].append(sid)
        cols["parent"].append(parent)
        cols["start"].append(t0)
        cols["end"].append(t1)
        cols["a"].append(a)
        cols["b"].append(b)
        cols["c"].append(c)
        self.name_idx.append(name)

    def _check_process(self) -> None:
        if os.getpid() != self.pid:  # first call in a forked worker
            self.pid = os.getpid()
            for col in self.cols.values():
                del col[:]
            del self.name_idx[:]
            self.next_id = (self.pid << 32) + 1
            self.base_depth = len(self.stack)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name` and return its result."""
        self._check_process()
        work = WORK.get(name)
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        result = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = perf_counter()
            self.stack.pop()
            a = work(args, result) if work is not None and result is not None else 0.0
            self._record(sid, parent, self._name(name), t0, t1, a)
            if self.base_depth and len(self.stack) == self.base_depth:
                self._spill()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def wrap_callback(self, name: str, callback):
        """Time one strategy's per-slot callback and count what it offers."""
        span_name = self._name(f"strategies.{name}")

        def traced(t, price, output, level):
            sid = self.next_id
            self.next_id += 1
            t0 = perf_counter()
            book = callback(t, price, output, level)
            t1 = perf_counter()
            self._record(sid, self.stack[-1], span_name, t0, t1,
                         len(book), book.total_volume, settle_offer(book, price))  # fmt: skip
            return book

        return traced

    def wrap_factory(self, name: str, factory):
        def traced(*args, **kwargs):
            return self.wrap_callback(name, factory(*args, **kwargs))

        return traced

    def install(self) -> None:
        for module, attr, name in ENTRY_POINTS:
            self._swap(module, attr, self.wrap(name, getattr(module, attr)))
        for module, attr, name in FACTORIES:
            self._swap(module, attr, self.wrap_factory(name, getattr(module, attr)))

    def _swap(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- worker spans ------------------------------------------------------

    def _local(self) -> np.ndarray:
        out = np.empty(len(self.name_idx), dtype=SPILL_DTYPE)
        for col, _code in COLUMNS:
            out[col] = self.cols[col]
        out["name"] = np.array(self.names or [""])[np.asarray(self.name_idx, dtype=np.int64)]
        return out

    def _spill(self) -> None:
        with (self.spill_dir / f"worker-{self.pid}.spans").open("ab") as fh:
            self._local().tofile(fh)
        for col in self.cols.values():
            del col[:]
        del self.name_idx[:]

    def collect(self) -> None:
        """Merge and remove the span files that forked workers wrote."""
        for path in sorted(self.spill_dir.glob("worker-*.spans")):
            self.merged.append(np.fromfile(path, dtype=SPILL_DTYPE))
            path.unlink()

    # -- analysis ----------------------------------------------------------

    def spans(self) -> np.ndarray:
        return np.concatenate([self._local(), *self.merged])

    def save(self, path: Path) -> None:
        """Write the spans as columns, with names as indices into `names`."""
        s = self.spans()
        names, name = np.unique(s["name"], return_inverse=True)
        columns = {col: s[col] for col, _code in COLUMNS}
        np.savez_compressed(path, names=names, name=name.astype(np.int32), **columns)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics over every recorded span.

        `wall_s` is the traced wall time that shares are taken of. A layer's
        busy time is the summed duration of its outermost spans, so with a
        process pool it counts every worker and a share can exceed 1. Self
        time is a span's duration minus the union of its children's.
        """
        s = self.spans()
        names = s["name"]
        dur = s["end"] - s["start"]
        self_s = dur - _children_union(s)
        layer = np.char.partition(names, ".")[:, 0]
        row_of = {sid: row for row, sid in enumerate(s["id"].tolist())}
        parent_rows = np.array([row_of.get(p, -1) for p in s["parent"].tolist()], dtype=np.int64)
        parent_layer = np.where(parent_rows >= 0, layer[parent_rows], "")
        outer = layer != parent_layer

        def busy(name: str) -> float:
            return float(dur[outer & (layer == name)].sum())

        def own(name: str) -> float:
            return float(self_s[layer == name].sum())

        def per(num: float, den: float, scale: float = 1.0) -> float:
            return num / den * scale if den else 0.0

        m: dict[str, float] = {}
        is_oracle = names == "oracle.offline_opt_dp"
        calls = dur[is_oracle]
        cells = float(s["a"][is_oracle].sum())
        m["oracle.calls"] = float(len(calls))
        m["oracle.busy_s"] = busy("oracle")
        m["oracle.share"] = per(busy("oracle"), wall_s)
        m["oracle.cells"] = cells
        m["oracle.ns_per_cell"] = per(busy("oracle"), cells, 1e9)
        pct = tail_percentile(len(calls))
        m["oracle.call_p50_us"] = _percentile(calls, 50.0) * 1e6
        m["oracle.call_tail_us"] = _percentile(calls, pct) * 1e6
        m["oracle.call_tail_pct"] = pct
        m["oracle.call_samples"] = float(len(calls))

        is_market = names == "market.simulate_run"
        in_market = (layer == "strategies") & (parent_layer == "market")
        market_self = busy("market") - float(dur[in_market].sum())
        slots = float(s["a"][is_market].sum())
        m["market.calls"] = float(is_market.sum())
        m["market.slots"] = slots
        m["market.busy_s"] = busy("market")
        m["market.self_s"] = market_self
        m["market.ns_per_slot"] = per(market_self, slots, 1e9)
        m["market.share"] = per(busy("market"), wall_s)

        for name in STRATEGIES:
            mine = names == f"strategies.{name}"
            books = float(mine.sum())
            offered = float(s["b"][mine].sum())
            m[f"strategies.{name}.books"] = books
            m[f"strategies.{name}.busy_s"] = float(dur[mine].sum())
            m[f"strategies.{name}.us_per_book"] = per(float(dur[mine].sum()), books, 1e6)
            m[f"strategies.{name}.offers_per_book"] = per(float(s["a"][mine].sum()), books)
            m[f"strategies.{name}.fill_ratio"] = per(float(s["c"][mine].sum()), offered)

        m["traces.calls"] = float((layer == "traces").sum())
        m["traces.busy_s"] = busy("traces")
        m["experiment.self_s"] = own("experiment")
        instances = float(s["a"][names == "adversary.adversarial_search"].sum())
        m["adversary.instances"] = instances
        m["adversary.self_s"] = own("adversary")
        m["adversary.us_per_instance"] = per(busy("adversary"), instances, 1e6)
        m["cli.self_s"] = own("cli")
        # the part of the traced wall time spent inside some layer's span
        m["trace.covered_frac"] = 1.0 - per(own("bench"), wall_s)
        return m


def _children_union(s: np.ndarray) -> np.ndarray:
    """Per span, the length of the union of its direct children's intervals
    (children of one parent overlap only when they ran in pool workers)."""
    covered: dict[int, float] = {}
    order = np.lexsort((s["start"], s["parent"]))
    parent, start, end = s["parent"][order], s["start"][order], s["end"][order]
    cur_parent, lo, hi, total = -1, 0.0, 0.0, 0.0
    for p, a, b in zip(parent.tolist(), start.tolist(), end.tolist()):
        if p != cur_parent:
            if cur_parent >= 0:
                covered[cur_parent] = total + hi - lo
            cur_parent, lo, hi, total = p, a, b, 0.0
        elif a > hi:
            total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if cur_parent >= 0:
        covered[cur_parent] = total + hi - lo
    return np.array([covered.get(i, 0.0) for i in s["id"].tolist()])


def tail_percentile(samples: int) -> float:
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it
    (the median when there are fewer than twenty samples)."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if samples * (100.0 - pct) / 100.0 >= 10.0 - 1e-6:  # tolerate rounding of pct
            best = pct
    return best


def _percentile(values: np.ndarray, pct: float) -> float:
    return float(np.percentile(values, pct)) if len(values) else 0.0
