"""Layer-attributed tracing from outside the program.

The benchmark wraps the public functions of each layer — the
functions one layer calls in the next — and records a span around every
call: operation id, span id, parent span id, name, start and end.  A
layer's *self time* is its span's duration minus the time its child
spans cover.  Spans stay in memory (up to :data:`SPAN_CAP`; aggregates
keep counting past it) and are written out when the run ends.

Nothing under ``src/`` is modified: wrappers are installed by replacing
class attributes and restored afterwards, so an untraced window runs
the unmodified code.

Layer names are the program's module names.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Spans kept in memory per process; later spans only feed aggregates.
SPAN_CAP = 60_000

_ENGINE_READS = ("version_at", "version_at_many", "all_versions",
                 "all_versions_many", "live_pairs", "current_version",
                 "atom_exists", "atom_type_name", "lifespan",
                 "compile_pushdown", "prune_roots", "candidates_for_equality",
                 "atoms_changed_during")
_ENGINE_MUTATIONS = ("insert", "update", "delete", "correct", "link",
                     "unlink")
_STORE_READS = ("read_all", "read_at", "read_current", "read_live",
                "read_versions", "read_at_many", "read_all_many",
                "version_count", "exists")
_STORE_WRITES = ("append_version", "replace_version", "pop_version",
                 "delete_atom")
_STORES = ("ClusteredStore", "ChainedStore", "SeparatedStore")

#: (layer, module, class names or None for module functions,
#:  function names, {function name: inclusive-time group}).
TARGETS: Tuple[Tuple[str, str, Optional[Tuple[str, ...]], Tuple[str, ...],
                     Dict[str, str]], ...] = (
    ("mql", "repro.mql", None, ("execute_query",), {}),
    ("core.builder", "repro.core.builder", ("MoleculeBuilder",),
     ("build_at", "build_many", "build_history"), {}),
    ("core.engine", "repro.core.engine", ("StorageEngine",),
     _ENGINE_READS + _ENGINE_MUTATIONS,
     {name: "engine.mutation" for name in _ENGINE_MUTATIONS}),
    ("storage.strategies", "repro.storage.strategies", _STORES,
     _STORE_READS + _STORE_WRITES,
     {**{name: "strategies.read" for name in _STORE_READS},
      **{name: "strategies.append" for name in _STORE_WRITES}}),
    ("storage.heap", "repro.storage.heap", ("HeapSegment",),
     ("insert", "read", "read_many", "delete", "update"), {}),
    ("storage.buffer", "repro.storage.buffer", ("BufferManager",),
     ("pin", "unpin", "new_page", "free_page", "flush_page", "flush_all"),
     {}),
    ("storage.disk", "repro.storage.disk", ("DiskManager",),
     ("read_page", "write_page", "allocate_page", "deallocate_page",
      "sync"), {}),
    ("access", "repro.access.indexes", ("IndexManager",),
     ("flush_pending", "add_attribute_entry", "add_vt_entry",
      "candidate_atoms_eq", "candidate_atoms_range", "atoms_changed_during",
      "register_atom", "unregister_atom"), {}),
    ("access", "repro.access.btree", ("BPlusTree",),
     ("search", "insert", "insert_many", "delete"), {}),
    ("txn.locks", "repro.txn.locks", ("LockManager",),
     ("acquire", "release_all"), {"acquire": "locks.wait"}),
    ("txn.locks", "repro.txn.locks", ("ReadWriteLock",),
     ("acquire_read", "acquire_write", "release_read", "release_write"),
     {"acquire_read": "locks.wait", "acquire_write": "locks.wait"}),
    ("txn.wal", "repro.txn.wal", ("WriteAheadLog",),
     ("append", "flush", "sync_to"),
     {"append": "wal.append", "sync_to": "wal.sync"}),
    ("txn.manager", "repro.txn.manager", ("TransactionManager",),
     ("begin", "log_operation", "commit", "abort"), {}),
)

#: Every layer the traced run splits time across.
LAYERS = ("mql", "core.builder", "core.engine", "storage.strategies",
          "storage.heap", "storage.buffer", "storage.disk", "access",
          "txn.locks", "txn.wal", "txn.manager")

#: Opcodes that are control traffic, not workload requests.
_CONTROL_OPCODES = frozenset({"HELLO", "PING", "STATS", "CLOSE"})


class _ThreadState:
    __slots__ = ("stack", "op", "self_ns", "group_ns", "group_depth",
                 "calls")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.op = 0
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.group_ns: Dict[str, int] = defaultdict(int)
        self.group_depth: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)


class Tracer:
    """In-memory span recorder with per-layer self-time aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self.spans: List[tuple] = []
        self.dropped = 0
        self.server_request_ns = 0
        self.server_requests = 0
        self.server_queued = 0
        self._installed: List[Tuple[Any, str, Any, bool]] = []

    # -- aggregation --------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
            return state

    def reset(self) -> None:
        """Forget every span and aggregate recorded so far."""
        with self._states_lock:
            for state in self._states:
                for table in (state.self_ns, state.group_ns, state.calls):
                    table.clear()
        self.spans = []
        self.dropped = 0
        self.server_request_ns = self.server_requests = 0
        self.server_queued = 0

    def totals(self) -> Dict[str, Any]:
        """Per-layer self time, per-group inclusive time and call counts,
        summed over threads (JSON-safe)."""
        self_ns: Dict[str, int] = defaultdict(int)
        group_ns: Dict[str, int] = defaultdict(int)
        calls: Dict[str, int] = defaultdict(int)
        with self._states_lock:
            for state in self._states:
                for key, value in list(state.self_ns.items()):
                    self_ns[key] += value
                for key, value in list(state.group_ns.items()):
                    group_ns[key] += value
                for key, value in list(state.calls.items()):
                    calls[key] += value
        return {"self_ns": dict(self_ns), "group_ns": dict(group_ns),
                "calls": dict(calls), "spans": len(self.spans),
                "dropped_spans": self.dropped,
                "server_request_ns": self.server_request_ns,
                "server_requests": self.server_requests,
                "server_queued": self.server_queued}

    @contextmanager
    def operation(self, kind: str) -> Iterator[None]:
        """Root span of one benchmark operation; spans inside share its id."""
        state = self._state()
        state.op = next(self._op_ids)
        frame = [next(self._span_ids), 0, 0, state.op]
        state.stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            state.stack.pop()
            self._keep((state.op, frame[0], 0, f"op.{kind}", start, end))
            state.op = 0

    def _keep(self, span: tuple) -> None:
        if len(self.spans) < SPAN_CAP:
            self.spans.append(span)
        else:
            self.dropped += 1

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as JSON lines:
        ``[op, span, parent, name, start_ns, end_ns]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, name: str,
              group: Optional[str]) -> Callable:
        state_of = self._state
        span_ids = self._span_ids
        op_ids = self._op_ids
        keep = self._keep
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if stack:
                parent = stack[-1]
                op = parent[3]
                parent_id = parent[0]
            else:
                parent = None
                op = state.op or next(op_ids)
                parent_id = 0
            frame = [next(span_ids), 0, parent_id, op]
            stack.append(frame)
            if group is not None:
                state.group_depth[group] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                state.self_ns[layer] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if group is not None:
                    state.group_depth[group] -= 1
                    if not state.group_depth[group]:
                        state.group_ns[group] += duration
                state.calls[name] += 1
                keep((op, frame[0], parent_id, name, start, end))

        return traced

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = attr in vars(owner)
        self._installed.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every target function."""
        for layer, module_name, classes, names, groups in TARGETS:
            module = importlib.import_module(module_name)
            owners = ([module] if classes is None
                      else [getattr(module, cls) for cls in classes])
            for owner in owners:
                for name in names:
                    raw = (inspect.getattr_static(owner, name)
                           if inspect.isclass(owner) else getattr(owner, name))
                    # Generators and context managers return before their
                    # work runs; static/class methods bind differently.
                    if (not inspect.isfunction(raw)
                            or inspect.isgeneratorfunction(raw)):
                        continue
                    label = f"{layer}.{name}"
                    self._patch(owner, name, self._wrap(
                        getattr(owner, name), layer, label,
                        groups.get(name)))

    def install_server_hooks(self) -> None:
        """Count server-side request time and queueing from the
        admission controller's public ``observe``/``park`` calls."""
        from repro.server.admission import AdmissionController
        observe = AdmissionController.observe
        park = AdmissionController.park
        tracer = self
        mutex = threading.Lock()  # worker threads report concurrently

        def traced_observe(controller, session_id, opcode, text, elapsed,
                           *args, **kwargs):
            if opcode not in _CONTROL_OPCODES:
                with mutex:
                    tracer.server_request_ns += int(elapsed * 1e9)
                    tracer.server_requests += 1
            return observe(controller, session_id, opcode, text, elapsed,
                           *args, **kwargs)

        def traced_park(controller, *args, **kwargs):
            with mutex:
                tracer.server_queued += 1
            return park(controller, *args, **kwargs)

        self._patch(AdmissionController, "observe", traced_observe)
        self._patch(AdmissionController, "park", traced_park)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for owner, attr, original, own in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed = []


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def counter_totals(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Counter values of a metrics snapshot, summed over labels."""
    totals: Dict[str, float] = defaultdict(float)
    for counter in snapshot.get("counters", ()):
        totals[counter["name"]] += counter["value"]
    return dict(totals)


def counter_delta(before: Dict[str, Any],
                  after: Dict[str, Any]) -> Dict[str, float]:
    start, end = counter_totals(before), counter_totals(after)
    return {name: end[name] - start.get(name, 0.0) for name in end}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: Dict[str, Any], counters: Dict[str, float],
                  ops: int, client_ns: int = 0) -> Dict[str, float]:
    """The per-layer metrics of one traced window, per operation.

    *totals* come from :meth:`Tracer.totals`, *counters* are registry
    deltas over the same window, *ops* the operations completed in it,
    and *client_ns* the client-observed time of those operations (wire
    workloads only; it splits server time from wire time).
    """
    self_ns = totals["self_ns"]
    group_ns = totals["group_ns"]

    def per_op_ms(ns: float) -> float:
        return ns / 1e6 / ops

    def c(name: str) -> float:
        return counters.get(name, 0.0)

    metrics = {f"{layer}.self_ms": per_op_ms(self_ns.get(layer, 0))
               for layer in LAYERS
               if layer not in ("txn.locks", "txn.wal", "txn.manager")}
    commits = c("txn.commits")
    server_ns = totals["server_request_ns"]
    metrics.update({
        "mql.plan_cache.hit_ratio": _ratio(
            c("mql.plan_cache.hits"),
            c("mql.plan_cache.hits") + c("mql.plan_cache.misses")),
        "core.builder.atoms_expanded": c("builder.atoms_expanded") / ops,
        "core.engine.decode_cache.hit_ratio": _ratio(
            c("engine.decode_cache.hits"),
            c("engine.decode_cache.hits") + c("engine.decode_cache.misses")),
        "core.engine.live_set.hit_ratio": _ratio(
            c("engine.live_set.hits"),
            c("engine.live_set.hits") + c("engine.live_set.misses")),
        "core.engine.mutation_ms": per_op_ms(
            group_ns.get("engine.mutation", 0)),
        "storage.strategies.read_ms": per_op_ms(
            group_ns.get("strategies.read", 0)),
        "storage.strategies.append_ms": per_op_ms(
            group_ns.get("strategies.append", 0)),
        "storage.strategies.versions_decoded_per_result": _ratio(
            c("engine.versions_scanned"), c("builder.atoms_expanded")),
        "storage.heap.record_reads": c("heap.record_reads") / ops,
        "storage.buffer.hit_ratio": _ratio(
            c("buffer.hits"), c("buffer.hits") + c("buffer.misses")),
        "storage.buffer.evictions": c("buffer.evictions") / ops,
        "storage.disk.reads": c("disk.reads") / ops,
        "storage.disk.writes": c("disk.writes") / ops,
        "access.btree.node_reads": c("btree.node_reads") / ops,
        "txn.locks.wait_ms": per_op_ms(group_ns.get("locks.wait", 0)),
        "txn.wal.append_ms": per_op_ms(group_ns.get("wal.append", 0)),
        "txn.wal.sync_ms": per_op_ms(group_ns.get("wal.sync", 0)),
        "txn.wal.fsyncs_per_commit": _ratio(c("wal.fsyncs"), commits),
        "txn.wal.bytes_per_commit": _ratio(c("wal.bytes"), commits),
        "txn.manager.abort_ratio": _ratio(c("txn.aborts"),
                                          commits + c("txn.aborts")),
        "server.request_ms": per_op_ms(server_ns),
        "server.wire_ms": per_op_ms(client_ns - server_ns)
        if server_ns else 0.0,
        "server.queued": totals["server_queued"] / ops,
    })
    return metrics


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, derived from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_per_result", "_per_commit")):
        return "B" if name.endswith("bytes_per_commit") else "ratio"
    if name == "trace.ops_per_s":
        return "1/s"
    return "count"


def setup_metrics(totals: Dict[str, Any], counters: Dict[str, float],
                  loaded_ops: int) -> Dict[str, float]:
    """Per-layer cost of the bulk load, per loaded operation."""
    group_ns = totals["group_ns"]
    commits = counters.get("txn.commits", 0.0)
    return {
        "setup.storage.strategies.append_ms":
            group_ns.get("strategies.append", 0) / 1e6 / loaded_ops,
        "setup.storage.disk.writes":
            counters.get("disk.writes", 0.0) / loaded_ops,
        "setup.txn.wal.sync_ms":
            group_ns.get("wal.sync", 0) / 1e6 / loaded_ops,
        "setup.txn.wal.fsyncs_per_commit":
            _ratio(counters.get("wal.fsyncs", 0.0), commits),
    }
