"""The in-process workloads: ``slice_warm`` and ``history_cold``.

One closed-loop caller issues MQL through ``db.query``.  An untraced
run makes three trials, each on a freshly set-up database: a read
window, then a single-writer commit probe that measures commit latency
and checks that each probed atom's current version holds the value
last written to it.  A seeded sample of read results is compared
afterwards against :class:`repro.testing.reference.ReferenceDatabase`
fed the same generated history.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import common

MOLECULE = "Part.contains.Component"
POINT = f"SELECT ALL FROM {MOLECULE} WHERE Part.name = $n"


@dataclass(frozen=True)
class InProcConfig:
    """Fixed inputs of one in-process workload."""

    name: str
    strategy: str
    buffer_pages: int
    decode_cache_bytes: int
    parts: int
    fanout: int
    versions_per_atom: int
    #: Tail percentile of read latency (at least ten samples beyond it).
    read_tail_q: float
    #: Share of read results kept for the reference comparison.
    check_share: float
    #: Single-update transactions in the commit probe.
    probe_commits: int = 500
    #: Tail percentile of the probe's commit latency.
    commit_tail_q: float = 75.0


SLICE_WARM = InProcConfig(
    name="slice_warm", strategy="SEPARATED", buffer_pages=1024,
    decode_cache_bytes=8 << 20, parts=30, fanout=4, versions_per_atom=16,
    read_tail_q=99.0, check_share=0.02)

HISTORY_COLD = InProcConfig(
    name="history_cold", strategy="CHAINED", buffer_pages=14,
    decode_cache_bytes=32 << 10, parts=30, fanout=4, versions_per_atom=32,
    read_tail_q=80.0, check_share=0.5, probe_commits=1000)

#: Operations run after set-up and before timing, per workload.
WARM_OPS = {"slice_warm": 600, "history_cold": 12}
#: Valid instants of the warm point slices: few, so the plan cache warms.
SLICE_TIMES = (2, 6, 10, 14)
#: Valid-time windows of the cold VALID DURING queries.
DURING_WINDOWS = ((4, 12), (10, 22), (20, 30))


class _Ops:
    """Seeded generator of one workload's read operations.

    Each op is ``(kind, text, params, expected)`` where ``expected`` is a
    function of the reference oracle giving the fingerprint the result
    must have.
    """

    def __init__(self, config: InProcConfig, seed: int,
                 part_ids: List[int], load_tts: List[int]) -> None:
        self.config = config
        self.rng = random.Random(seed * 7919 + 17)
        self.parts = part_ids
        tts = load_tts  # belief times spread over the load: AS OF, DIFF
        self.as_of = [tts[len(tts) * k // 4] for k in (1, 2, 3)]
        self.diff_pairs = [(tts[len(tts) // 8], tts[len(tts) // 2]),
                           (tts[len(tts) // 3], tts[-1]),
                           (tts[len(tts) // 2], tts[len(tts) * 7 // 8])]
        self.count = 0

    def _part(self) -> Tuple[int, str]:
        index = self.rng.randrange(len(self.parts))
        return self.parts[index], f"part-{index}"

    def next(self):
        self.count += 1
        if self.config.name == "slice_warm":
            return self._slice_op()
        return self._history_op()

    def _slice_op(self):
        roll = self.rng.random()
        at = self.rng.choice(SLICE_TIMES)
        if roll < 0.05:
            threshold = 480.0
            text = (f"SELECT ALL FROM Part WHERE Part.cost > {threshold} "
                    f"VALID AT {at}")
            parts = list(self.parts)

            def expected(ref):
                rows = []
                for root in parts:
                    molecule = ref.molecule_at(root, "Part", at)
                    if (molecule is not None
                            and molecule.root.version.values["cost"]
                            > threshold):
                        rows.append(((at, at + 1), root,
                                     common.molecule_print(molecule)))
                return sorted(rows)
            return "scan", text, None, expected
        root, name = self._part()
        tt = None
        text = f"{POINT} VALID AT {at}"
        kind = "point"
        if roll < 0.15:
            tt = self.rng.choice(self.as_of)
            text += f" AS OF {tt}"
            kind = "as_of"

        def expected(ref):
            molecule = ref.molecule_at(root, MOLECULE, at, tt)
            return ([] if molecule is None else
                    [((at, at + 1), root, common.molecule_print(molecule))])
        return kind, text, {"n": name}, expected

    def _history_op(self):
        from repro.temporal import FOREVER, TMIN, Interval
        root, name = self._part()
        kind = ("history", "during", "diff")[self.count % 3]
        if kind == "diff":
            t1, t2 = self.rng.choice(self.diff_pairs)
            text = (f"DIFF {MOLECULE} BETWEEN {t1} AND {t2} "
                    f"WHERE Part.name = $n")
            return kind, text, {"n": name}, _diff_expectation(root, t1, t2)
        if kind == "history":
            window = Interval(TMIN, FOREVER)
            text = f"{POINT} VALID HISTORY"
        else:
            start, end = self.rng.choice(DURING_WINDOWS)
            window = Interval(start, end)
            text = f"{POINT} VALID DURING [{start}, {end})"

        def expected(ref):
            return [((span.start, span.end), root,
                     common.molecule_print(molecule))
                    for span, molecule in ref.molecule_history(
                        root, MOLECULE, window)]
        return kind, text, {"n": name}, expected


def _diff_expectation(root: int, t1: int, t2: int) -> Callable:
    """DIFF check: every atom of the molecule's current state at either
    belief time whose values differ between *t1* and *t2* is reported as
    ``attribute_changed`` with exactly those before/after images."""
    from repro.temporal import FOREVER
    now = FOREVER - 1

    def expected(ref):
        scope = set()
        for tt in (t1, t2):
            molecule = ref.molecule_at(root, MOLECULE, now, tt)
            if molecule is not None:
                scope.update(molecule.distinct_atom_ids())
        changes = {}
        for atom in sorted(scope):
            before = ref.version_at(atom, now, t1)
            after = ref.version_at(atom, now, t2)
            if (before is not None and after is not None
                    and dict(before.values) != dict(after.values)):
                changes[atom] = (dict(before.values), dict(after.values))
        return changes
    return expected


def _diff_print(result) -> Dict[int, Tuple[dict, dict]]:
    return {entry.row["atom_id"]: (entry.row["before"], entry.row["after"])
            for entry in result
            if entry.row["kind"] == "attribute_changed"}


def _result_print(kind: str, result) -> Any:
    if kind == "diff":
        return _diff_print(result)
    if kind == "scan":
        return sorted(common.entries_print(result))
    return common.entries_print(result)


def _setup(config: InProcConfig, path: Path, ops):
    """Create, bulk-load and index one database; returns the open
    database, the load products, and the set-up clock (a
    :class:`common.SpeedScaler` still running, so warming can follow)."""
    from repro import DatabaseConfig, TemporalDatabase, VersionStrategy
    from repro.workloads import cad_schema
    common.fresh_dir(path)
    clock = common.SpeedScaler(0)
    db = TemporalDatabase.create(str(path), cad_schema(), DatabaseConfig(
        strategy=VersionStrategy[config.strategy],
        buffer_pages=config.buffer_pages,
        decode_cache_bytes=config.decode_cache_bytes))
    ids, stamped = common.load_database(db, ops, clock)
    db.create_attribute_index("Part", "name")
    return db, ids, stamped, clock


def _warm(db, op_source: _Ops, count: int) -> None:
    for _ in range(count):
        _, text, params, _ = op_source.next()
        db.query(text, params=params)


def _window(db, op_source: _Ops, seconds: float, check_share: float,
            rng: random.Random, tracer=None):
    """Closed-loop reads for *seconds* of work, pausing every
    :data:`common.CALIBRATE_EVERY` seconds to measure the host's speed.

    Returns latencies, their kinds, the sampled (kind, expected-fn,
    fingerprint) triples, and the :class:`common.SpeedScaler` holding
    the scaled latencies and work time.
    """
    latencies: List[float] = []
    kinds: List[str] = []
    samples: List[Tuple[str, Callable, Any]] = []
    scaler = common.SpeedScaler()
    clock = time.perf_counter
    segment_start = clock()
    while True:
        kind, text, params, expected = op_source.next()
        if tracer is not None:
            with tracer.operation(kind):
                start = clock()
                result = db.query(text, params=params)
                end = clock()
        else:
            start = clock()
            result = db.query(text, params=params)
            end = clock()
        latencies.append(end - start)
        kinds.append(kind)
        if rng.random() < check_share:
            samples.append((kind, expected, _result_print(kind, result)))
        segment = clock() - segment_start
        last = scaler.work + segment >= seconds
        if last or segment >= common.CALIBRATE_EVERY:
            scaler.mark(segment, latencies)
            segment_start = clock()
        if last:
            return latencies, kinds, samples, scaler


#: Commits between host-speed measurements in the commit probe.
PROBE_SEGMENT = 200


def _commit_probe(db, config: InProcConfig, part_ids: List[int],
                  seed: int) -> Tuple[List[float], int, Any]:
    """Single-update durable transactions on random parts; checks each
    probed part's current cost afterwards.  Returns (latencies, wrong,
    scaler)."""
    from repro.temporal import FOREVER
    rng = random.Random(seed * 31 + 5)
    last: Dict[int, float] = {}
    latencies: List[float] = []
    scaler = common.SpeedScaler()
    valid_from = config.versions_per_atom + 1
    segment_start = time.perf_counter()
    for number in range(config.probe_commits):
        part = rng.choice(part_ids)
        cost = 100000.0 + number
        start = time.perf_counter()
        with db.transaction() as txn:
            txn.update(part, {"cost": cost}, valid_from=valid_from + number)
        latencies.append(time.perf_counter() - start)
        last[part] = cost
        if (number + 1) % PROBE_SEGMENT == 0 or (
                number + 1 == config.probe_commits):
            scaler.mark(time.perf_counter() - segment_start, latencies)
            segment_start = time.perf_counter()
    wrong = 0
    for part, cost in last.items():
        version = db.version_at(part, FOREVER - 1)
        if version is None or version.values["cost"] != cost:
            wrong += 1
    return latencies, wrong, scaler


def _trial_metrics(config: InProcConfig, reads: List[float],
                   work_seconds: float,
                   commits: List[float]) -> Dict[str, float]:
    values, _ = common.latency_summary("read", reads, config.read_tail_q)
    commit, _ = common.latency_summary("commit", commits,
                                       config.commit_tail_q)
    return dict(values, **commit, ops_per_s=len(reads) / work_seconds)


def run(config: InProcConfig, seed: int, seconds: float, trace: bool,
        work: Path, results_dir: Path) -> int:
    """Run the workload; untraced runs make :data:`common.TRIALS` trials
    (set up, warm, read window, commit probe) and report medians."""
    from repro.workloads import WorkloadSpec, cad_schema, generate_bom
    import tracing

    spec = WorkloadSpec(parts=config.parts, fanout=config.fanout,
                        versions_per_atom=config.versions_per_atom,
                        seed=seed)
    ops, groups = generate_bom(spec)
    trials = 1 if trace else common.TRIALS
    tracer = tracing.Tracer() if trace else None
    rng = random.Random(seed)
    setup_raw: List[float] = []
    setup_times: List[float] = []
    per_trial: List[Dict[str, float]] = []
    raw_trials: List[Dict[str, float]] = []
    speeds: List[Dict[str, List[float]]] = []
    samples: List[Tuple[str, Callable, Any]] = []
    loads = set()
    attempted = probe_wrong = 0
    for trial in range(trials):
        db_path = work / f"db{trial}"
        if tracer is not None:
            tracer.install()
        db, ids, stamped, clock = _setup(config, db_path, ops)
        loads.add(repr((sorted(ids.items()), stamped)))
        if tracer is not None:
            tracer.uninstall()
            setup_layer = tracing.setup_metrics(
                tracer.totals(), tracing.counter_totals(db.metrics_snapshot()),
                len(ops))
            tracer.reset()
        part_ids = [ids[handle] for handle in groups["Part"]]
        op_source = _Ops(config, seed, part_ids,
                         sorted({tt for _, tt in stamped}))
        _warm(db, op_source, WARM_OPS[config.name])
        clock.tick(force=True)
        setup_raw.append(clock.work)
        setup_times.append(clock.scaled_work)
        setup_speeds = clock.speeds
        if tracer is None:
            latencies, kinds, kept, reads = _window(
                db, op_source, seconds / trials, config.check_share, rng)
            probe, wrong, commits = _commit_probe(db, config, part_ids, seed)
            raw_trials.append(_trial_metrics(config, latencies, reads.work,
                                             probe))
            per_trial.append(_trial_metrics(
                config, reads.scaled[0], reads.scaled_work,
                commits.scaled[0]))
            speeds.append({"setup": setup_speeds, "window": reads.speeds,
                           "probe": commits.speeds})
            attempted += len(latencies) + len(probe)
            probe_wrong += wrong
        else:
            untraced, _, _, before = _window(db, op_source, seconds / 2,
                                             0.0, rng)
            snapshot = db.metrics_snapshot()
            tracer.install()
            latencies, kinds, kept, reads = _window(
                db, op_source, seconds / 2, config.check_share, rng, tracer)
            tracer.uninstall()
            totals = tracer.totals()
            layer = tracing.layer_metrics(
                totals, tracing.counter_delta(snapshot,
                                              db.metrics_snapshot()),
                len(latencies))
            layer["trace.ops_per_s"] = len(latencies) / reads.work
            layer["trace.overhead_ratio"] = (
                (len(untraced) / before.scaled_work)
                / (len(latencies) / reads.scaled_work))
            layer = common.scale_timings(layer,
                                         common.speed_scale(reads.speeds))
            layer.update(common.scale_timings(
                setup_layer, common.speed_scale(setup_speeds)))
            speeds.append({"setup": setup_speeds, "window": reads.speeds})
            tracer.write_spans(common.WORK / "traces" /
                               f"{config.name}-seed{seed}.jsonl")
            attempted += len(untraced) + len(latencies)
        samples.extend(kept)
        db.close()
        if tracer is None:
            space = os.path.getsize(db_path / "pages.db") / (1 << 20)
            per_trial[-1]["space_mib"] = raw_trials[-1]["space_mib"] = space
        shutil.rmtree(db_path, ignore_errors=True)
    rss = common.peak_rss_mib()
    if len(loads) != 1:
        raise common.CheckFailed("repeated loads of one seed differ")

    # Correctness: the sampled results against the reference oracle.
    ref = common.build_reference(cad_schema(), ids, stamped)
    wrong_reads = sum(1 for _, expected, got in samples
                      if expected(ref) != got)
    failed = wrong_reads + probe_wrong
    record: Dict[str, Any] = {
        "workload": config.name, "seed": seed, "trace": int(trace),
        "inputs": {"generator": asdict(spec), "operations": len(ops),
                   "config": asdict(config),
                   "page_size": db.config.page_size,
                   "durability": db.config.durability,
                   "group_commit": db.config.group_commit,
                   "load_ops_per_txn": common.LOAD_OPS_PER_TXN,
                   "trials": trials},
        "host": common.host_facts(work),
        "setup_s_raw": setup_raw,
        "setup_s_samples": setup_times,
        "host_speed": speeds,
        "reference_speed": common.REFERENCE_SPEED,
        "checked_results": len(samples), "wrong_results": wrong_reads,
        "probe_wrong_atoms": probe_wrong,
        "attempted": attempted, "failed": failed, "correct": failed == 0,
    }
    if trace:
        record["trace_totals"] = totals
        metrics = {name: (value, tracing.unit_of(name))
                   for name, value in layer.items()}
    else:
        record["trials"] = per_trial
        record["trials_raw"] = raw_trials
        record["read_latency"] = dict(
            common.latency_summary("read", latencies,
                                   config.read_tail_q)[1],
            by_kind=common.by_kind(kinds, latencies), trial="last")
        record["commit_latency"] = dict(
            common.latency_summary("commit", probe, config.commit_tail_q)[1],
            source="single-writer probe after each read window",
            trial="last")
        metrics = common.end_to_end(per_trial, setup_times, rss, record)
    common.emit(record, metrics, results_dir)
    return 0 if record["correct"] else 1
