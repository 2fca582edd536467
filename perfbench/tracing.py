"""Span tracing for the benchmark's traced runs.

The benchmark times calls into each layer's public functions by swapping
them for wrappers while a :class:`Tracer` is installed; the program itself
carries no tracing code.  Every wrapped call records one span — name,
start, end, parent span and execution id — into flat in-memory columns
that are written out once the run ends.

Self time is a span's duration minus the part its child spans cover.  The
three nestings that matter are ``Machine.execute`` inside ``Chain.apply``,
the fusion compile inside ``Machine.execute``, and mask-probe executions
inside ``MutationPipeline.mutate``; the same rule handles all of them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

#: (span name, module, attribute path) of every wrapped call.  A dotted
#: attribute path names a method (patched on its class); a bare name is a
#: module-level function, patched in every loaded ``repro`` module that
#: imported it by name.
TARGETS = (
    ("compiler.compile", "repro.compiler.cache", "CompileCache.get"),
    ("analysis.surface", "repro.analysis.surface", "surface_for"),
    ("analysis.dataflow", "repro.analysis.dataflow", "analyze_contract"),
    ("analysis.prefix_init", "repro.analysis.prefix",
     "PrefixAnalyzer.__init__"),
    ("analysis.reachability", "repro.analysis.prefix",
     "PrefixAnalyzer.reachability"),
    ("analysis.distance", "repro.analysis.distance", "distances_from_trace"),
    ("evm.fusion", "repro.evm.fusion", "fused_program"),
    ("evm.machine", "repro.evm.machine", "Machine.execute"),
    ("chain.apply", "repro.chain.blockchain", "Chain.apply"),
    ("chain.reset", "repro.chain.blockchain", "Chain.reset_to_base"),
    ("chain.deploy", "repro.chain.blockchain", "Chain.deploy"),
    ("oracles.dispatch", "repro.oracles.bus", "OracleBus.end_transaction"),
    ("oracles.replay", "repro.oracles.bus", "OracleBus.replay_transaction"),
    ("core.setup", "repro.core.fuzzer", "Fuzzer.__init__"),
    ("core.run", "repro.core.fuzzer", "Fuzzer.run"),
    # the mask-probe hook the mutation pipeline calls back into: one
    # probe execution (execute -> feedback -> retain) nested in mutate()
    ("core.probe", "repro.core.fuzzer", "Fuzzer._run_probe"),
    ("core.coverage", "repro.core.coverage", "CoverageTracker.add_trace"),
    ("core.energy", "repro.core.energy", "EnergyScheduler.record"),
    ("core.encode", "repro.compiler.abi", "encode_call"),
    ("core.cache_match", "repro.core.statecache", "PrefixStateCache.match"),
    ("core.cache_restore", "repro.core.statecache",
     "PrefixStateCache.restore"),
    ("core.cache_note", "repro.core.statecache", "PrefixStateCache.note"),
    ("engine.mutate", "repro.engine.mutation", "MutationPipeline.mutate"),
    ("engine.select", "repro.engine.selection", "SeedSelector.select"),
    ("engine.observe", "repro.engine.selection", "SeedSelector.observe"),
    ("engine.retain", "repro.engine.retention", "RetentionPolicy.retain"),
    ("orchestrator.run_matrix", "repro.orchestrator.runner", "run_matrix"),
    ("orchestrator.store_save", "repro.orchestrator.store.jsonfile",
     "JsonResultStore.save"),
    ("orchestrator.store_flush", "repro.orchestrator.store.base",
     "StoreBackend.flush"),
    ("orchestrator.store_load", "repro.orchestrator.store.base",
     "StoreBackend.load_fresh"),
)

#: the span that opens each execution: spans started after it, up to the
#: next one, carry its execution id
EXECUTION_START = "chain.reset"


class Tracer:
    """Records spans in memory; install wrappers with ``with tracer:``."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.names: list = []
        self._name_ids: dict = {}
        # one column per span field
        self.name_id = array("i")
        self.parent = array("i")
        self.exec_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.executions = -1
        #: calls whose result satisfied a target's counting predicate
        self.counts: dict = {}
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def name_index(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _open(self, nid: int) -> tuple:
        parent = self.current
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.exec_id.append(self.executions)
        self.end.append(0.0)
        self.current = index
        self.start.append(perf_counter())
        return index, parent

    def _close(self, index: int, parent: int) -> None:
        self.end[index] = perf_counter()
        self.current = parent

    def wrap(self, fn, name: str, count_if=None):
        """A wrapper of ``fn`` recording one span named ``name`` per call.

        ``count_if(result)`` (optional) counts the calls whose result it
        accepts under ``self.counts[name]``."""
        nid = self.name_index(name)
        opens_execution = name == EXECUTION_START
        if count_if is not None:
            self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opens_execution:
                self.executions += 1
            index, parent = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, parent)
            if count_if is not None and count_if(result):
                self.counts[name] += 1
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code (a
        campaign cell, a matrix pass)."""
        index, parent = self._open(self.name_index(name))
        try:
            yield
        finally:
            self._close(index, parent)

    # -- installing wrappers --------------------------------------------------

    def __enter__(self) -> "Tracer":
        # import every target module first, so each module that imports a
        # target by name already holds the binding the patch replaces
        for _name, module_name, _attr in self.targets:
            importlib.import_module(module_name)
        try:
            for name, module_name, attr in self.targets:
                count_if = _COUNT_IF.get(name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(importlib.import_module(module_name),
                                  cls_name)
                    own = meth in vars(cls)
                    original = vars(cls)[meth] if own else getattr(cls, meth)
                    setattr(cls, meth, self.wrap(original, name, count_if))
                    self._saved.append(("class", cls, meth, original, own))
                else:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    wrapped = self.wrap(original, name, count_if)
                    for holder in _holders_of(attr, original):
                        setattr(holder, attr, wrapped)
                        self._saved.append(("module", holder, attr,
                                            original, True))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original function back (idempotent)."""
        while self._saved:
            kind, holder, attr, original, own = self._saved.pop()
            if kind == "class" and not own:
                delattr(holder, attr)
            else:
                setattr(holder, attr, original)

    # -- analysis ------------------------------------------------------------------

    def totals(self) -> dict:
        """name -> {"calls", "total", "self"} in seconds.  Self time is
        the span's duration minus the durations of its direct children
        (children of one span never overlap: one thread, strict nesting)."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0}
               for name in self.names}
        names = self.names
        for i in range(n):
            entry = out[names[self.name_id[i]]]
            duration = end[i] - start[i]
            entry["calls"] += 1
            entry["total"] += duration
            entry["self"] += duration - child[i]
        return out

    def nested_total(self, outer: str, inner: str) -> float:
        """Seconds of ``inner`` spans that run anywhere below an ``outer``
        span (e.g. fusion compiles triggered by deployments)."""
        outer_id = self._name_ids.get(outer)
        inner_id = self._name_ids.get(inner)
        if outer_id is None or inner_id is None:
            return 0.0
        total = 0.0
        for i in range(len(self.start)):
            if self.name_id[i] != inner_id:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != outer_id:
                p = self.parent[p]
            if p >= 0:
                total += self.end[i] - self.start[i]
        return total

    def write(self, path) -> None:
        """Write every span as gzip'd TSV: id, parent, execution id, name,
        start and end in microseconds from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\texec\tname\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.exec_id[i]}\t"
                          f"{self.names[self.name_id[i]]}\t"
                          f"{(self.start[i] - origin) * 1e6:.1f}\t"
                          f"{(self.end[i] - origin) * 1e6:.1f}\n")


#: per-span counting predicates: executions that covered a new edge
_COUNT_IF = {"core.coverage": lambda new_edges: new_edges > 0}


def _holders_of(attr: str, original) -> list:
    """Every loaded ``repro`` module binding ``attr`` to ``original``."""
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))
            and vars(module).get(attr) is original]
