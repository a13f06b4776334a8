"""Outside-in span tracing of the program's layers.

The benchmark does not edit the program to trace it.  :class:`Tracer`
replaces the public entry points of each layer (class methods and
module functions, under every module name that imported them) with
wrappers that record a span per call: name, start, end and parent.
Spans are kept in memory and written out when the run ends.

Self time is aggregated as spans end: a span's duration minus the part
of it covered by its child spans.  Children on the same thread nest and
are summed; task spans that run on an executor's worker threads are
adopted by the ``SiteScheduler.run`` span that is waiting for them, and
the union of their intervals is subtracted, since they overlap.  Outer
time is aggregated too: the duration of spans with no ancestor of the
same name, so entry points that share a name and call each other are
counted once.

Wrapping costs time on every call, so end-to-end numbers always come
from untraced runs; a traced run reports its own overhead.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

#: Spans kept for the written trace; aggregation covers every span.
MAX_RECORDED_SPANS = 50_000

#: Span name -> layer.  Every wrapped entry point belongs to one layer.
SPAN_LAYER = {
    "engine.apply": "engine",
    "engine.build": "engine",
    "engine.deploy": "engine.deploy",
    "core.updates.normalize": "core.updates",
    "partition.route": "partition",
    "storage.fragment_write": "storage",
    "storage.deliver": "storage",
    "indexes.idx_update": "indexes.idx",
    "indexes.hev_eval": "indexes.hev",
    "indexes.build": "indexes.build",
    "horizontal.protocol": "horizontal",
    "kernels.batch_detect": "kernels.batch",
    "kernels.fused": "kernels.fused",
    "kernels.store": "kernels.store",
    "network.send": "network",
    "serialization.sizing": "serialization",
    "violations.merge": "violations",
    "runtime.scheduler": "runtime",
    "service.submit": "service",
}

#: Layer -> the end-to-end metrics it should move, and on which workload.
LAYER_MOVES = {
    "core.updates": "updates_per_s, wave_p50_ms on inchor-wave10; "
                    "none on incver-trickle; absent on bathor-sql-threads",
    "partition": "updates_per_s on bathor-sql-threads; wave_p50_ms on incver-trickle",
    "storage": "updates_per_s on bathor-sql-threads; wave_p50_ms on incver-trickle",
    "indexes.idx": "wave_p50_ms on incver-trickle",
    "indexes.hev": "wave_p50_ms on incver-trickle",
    "indexes.build": "setup_s on all workloads",
    "horizontal": "updates_per_s on inchor-wave10; update_p50_ms on service-open",
    "kernels.batch": "updates_per_s on bathor-sql-threads; setup_s on all workloads",
    "kernels.fused": "updates_per_s on bathor-sql-threads; setup_s on all workloads",
    "kernels.store": "updates_per_s on bathor-sql-threads; setup_s on all workloads",
    "network": "updates_per_s on bathor-sql-threads; shipped_* on all workloads",
    "serialization": "updates_per_s on bathor-sql-threads; shipped_* on all workloads",
    "violations": "updates_per_s on bathor-sql-threads and inchor-wave10",
    "runtime": "updates_per_s on bathor-sql-threads; wave_p50_ms on incver-trickle",
    "engine": "setup_s, peak_rss_mb (unattributed remainder: every workload)",
    "engine.deploy": "setup_s on all workloads",
    "service": "update_p50_ms on service-open",
}


def _len_or_zero(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


class Tracer:
    """Records spans around wrapped entry points; aggregates self time."""

    def __init__(self) -> None:
        self.enabled = False
        #: Spans are aggregated under the current phase ("setup", "apply").
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._waiting: list | None = None
        self._next_id = 0
        # (phase, span name) -> [calls, items, self s, outer s]
        self.totals: dict = defaultdict(lambda: [0, 0, 0.0, 0.0])
        #: Updates kept by normalization (out) against updates in.
        self.normalize_out = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("H")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("l")
        self._span_id = array("l")
        self.spans_dropped = 0

    # -- patching -----------------------------------------------------------------

    def _wrap(self, fn, name: str, items=None, waits_for_workers: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            adopted = None
            if stack:
                parent_frame = stack[-1]
            elif (tracer._waiting is not None
                  # the thread executor's workers keep the pool's default names
                  and threading.current_thread().name.startswith("ThreadPoolExecutor")):
                parent_frame = adopted = tracer._waiting
            else:
                parent_frame = None
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            # frame: [span id, same-thread child seconds, adopted child intervals,
            #         name, parent frame]
            frame = [span_id, 0.0, [], name, parent_frame]
            stack.append(frame)
            if waits_for_workers:
                previous, tracer._waiting = tracer._waiting, frame
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                if waits_for_workers:
                    tracer._waiting = previous
                stack.pop()
                n_items = items(args, result) if items is not None else 1
                tracer._end(name, frame, start, end, n_items, stack, adopted)

        return traced

    def patch_method(self, owner, attr: str, name: str, items=None, **kw) -> None:
        """Wrap ``owner.attr`` (a class attribute holding a function)."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(self._wrap(original.__func__, name, items, **kw))
        else:
            wrapped = self._wrap(original, name, items, **kw)
        setattr(owner, attr, wrapped)

    def patch_function(self, module, attr: str, name: str, items=None) -> None:
        """Wrap ``module.attr`` under every loaded ``repro`` module that
        bound the same function object (``from x import f`` copies)."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, items)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------------------

    def _end(self, name, frame, start, end, n_items, stack, adopted) -> None:
        duration = end - start
        covered = frame[1] + _union_length(frame[2], start, end)
        ancestor = parent = frame[4]
        while ancestor is not None and ancestor[3] != name:
            ancestor = ancestor[4]
        with self._lock:
            entry = self.totals[(self.phase, name)]
            entry[0] += 1
            entry[1] += n_items
            entry[2] += duration - covered
            if ancestor is None:
                entry[3] += duration
            if stack:
                stack[-1][1] += duration
            elif adopted is not None:
                adopted[2].append((start, end))
            if len(self._span_id) < MAX_RECORDED_SPANS:
                name_id = self._name_ids.get(name)
                if name_id is None:
                    name_id = self._name_ids[name] = len(self._names)
                    self._names.append(name)
                self._span_id.append(frame[0])
                self._span_name.append(name_id)
                self._span_start.append(start)
                self._span_end.append(end)
                self._span_parent.append(parent[0] if parent is not None else -1)
            else:
                self.spans_dropped += 1

    # -- reading ------------------------------------------------------------------

    def stat(self, phase: str, *names: str) -> tuple[int, int, float, float]:
        """Summed (calls, items, self s, outer s) of spans in ``phase``;
        outer s counts only spans with no same-name ancestor."""
        calls = items = 0
        own = outer = 0.0
        for name in names:
            entry = self.totals.get((phase, name))
            if entry:
                calls += entry[0]
                items += entry[1]
                own += entry[2]
                outer += entry[3]
        return calls, items, own, outer

    def layer_table(self, phase: str) -> dict[str, dict[str, float]]:
        """Layer -> {self_s, calls, items} over every span of ``phase``."""
        table: dict[str, dict[str, float]] = {}
        for (span_phase, name), (calls, items, own, _outer) in self.totals.items():
            if span_phase != phase:
                continue
            row = table.setdefault(SPAN_LAYER[name], {"self_s": 0.0, "calls": 0, "items": 0})
            row["self_s"] += own
            row["calls"] += calls
            row["items"] += items
        return table

    @property
    def spans_recorded(self) -> int:
        return len(self._span_id)

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines (start/end in seconds)."""
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self._span_id)):
                out.write(json.dumps({
                    "id": self._span_id[i],
                    "name": self._names[self._span_name[i]],
                    "start": self._span_start[i],
                    "end": self._span_end[i],
                    "parent": self._span_parent[i],
                }) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    if not intervals:
        return 0.0
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    import repro.distributed.serialization as serialization
    import repro.horizontal.inchor  # noqa: F401 - binds incremental_* by name
    import repro.rulefuse as rulefuse
    import repro.rulefuse.kernels as fused_kernels
    import repro.columnar.kernels as columnar_kernels
    import repro.sqlstore.kernels as sql_kernels
    import repro.vertical.single as single
    import repro.core.violations as violations
    from repro.core.detector import CentralizedDetector
    from repro.core.relation import Relation
    from repro.core.updates import UpdateBatch
    from repro.core.violations import ViolationSet
    from repro.distributed.cluster import Cluster
    from repro.distributed.network import Network
    from repro.engine.session import DetectionSession, SessionBuilder
    from repro.horizontal.bathor import HorizontalBatchDetector
    from repro.horizontal.single import GeneralCFDProtocol
    from repro.indexes.hev import HEVPlan
    from repro.indexes.idx import CFDIndex
    from repro.partition.horizontal import HorizontalPartitioner
    from repro.runtime.scheduler import SiteScheduler
    from repro.service.service import DetectionService

    def batch_len(args, result):
        return _len_or_zero(args[1]) if len(args) > 1 else 0

    def normalized_items(args, result):
        tracer.normalize_out += _len_or_zero(result)
        return _len_or_zero(args[0])

    tracer.patch_method(DetectionSession, "apply", "engine.apply", batch_len)
    tracer.patch_method(SessionBuilder, "build", "engine.build")
    tracer.patch_method(Relation, "with_storage", "engine.deploy")
    tracer.patch_method(Cluster, "from_horizontal", "engine.deploy")
    tracer.patch_method(Cluster, "from_vertical", "engine.deploy")
    tracer.patch_method(UpdateBatch, "normalized", "core.updates.normalize", normalized_items)
    tracer.patch_method(HorizontalPartitioner, "route_tuple", "partition.route")
    tracer.patch_method(Relation, "insert", "storage.fragment_write")
    tracer.patch_method(Relation, "discard", "storage.fragment_write")
    tracer.patch_method(Cluster, "deliver_updates", "storage.deliver", batch_len)
    tracer.patch_function(single, "incremental_insert", "indexes.idx_update")
    tracer.patch_function(single, "incremental_delete", "indexes.idx_update")
    tracer.patch_method(HEVPlan, "evaluate_keys", "indexes.hev_eval")
    tracer.patch_function(rulefuse, "build_indexes", "indexes.build")
    tracer.patch_method(CFDIndex, "build_from", "indexes.build")
    tracer.patch_method(GeneralCFDProtocol, "insert", "horizontal.protocol")
    tracer.patch_method(GeneralCFDProtocol, "delete", "horizontal.protocol")
    tracer.patch_method(HorizontalBatchDetector, "detect", "kernels.batch_detect")
    tracer.patch_method(CentralizedDetector, "detect", "kernels.batch_detect")
    for fused in ("fused_group_masks", "fused_columnar_masks", "fused_sql_violations",
                  "fused_rows_violations", "fused_violations"):
        tracer.patch_function(fused_kernels, fused, "kernels.fused")
    for module in (columnar_kernels, sql_kernels):
        for kernel in ("violations_of", "constant_violations", "variable_violations",
                       "horizontal_batch_scan", "constant_ship_scan", "project_ship_scan",
                       "semi_join_ship_scan", "violation_mask"):
            if hasattr(module, kernel):
                tracer.patch_function(module, kernel, "kernels.store")
        tracer.patch_function(module, "build_cfd_index", "indexes.build")
    tracer.patch_method(Network, "send", "network.send")
    tracer.patch_method(Network, "ship", "network.send")
    tracer.patch_method(Network, "broadcast", "network.send")
    tracer.patch_function(serialization, "estimate_value_bytes", "serialization.sizing")
    tracer.patch_function(serialization, "estimate_tuple_bytes", "serialization.sizing")
    tracer.patch_method(ViolationSet, "add", "violations.merge")
    tracer.patch_method(ViolationSet, "remove", "violations.merge")
    tracer.patch_function(violations, "diff_violations", "violations.merge")
    tracer.patch_method(SiteScheduler, "run", "runtime.scheduler", batch_len,
                        waits_for_workers=True)
    tracer.patch_method(DetectionService, "submit", "service.submit")
