"""Shared pieces of the benchmark: locating the checkout, loading a
database through the public transaction API, the reference oracle,
result fingerprints, latency statistics, and the result record.

Nothing here imports :mod:`repro` at module level: ``run.py`` first
checks that the package comes from this checkout's ``src/`` tree.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives under this directory.
WORK = ROOT / ".perfbench"

#: Operations per bulk-load transaction.
LOAD_OPS_PER_TXN = 50
#: An untraced run makes this many trials — each sets the database up
#: and measures a window of a third of the run's seconds — and reports
#: the median over trials, so one slow stretch of a shared host does not
#: set a run's figures.
TRIALS = 3


#: Calibration units per second (see :func:`host_speed`) at the
#: reference host speed every timing is scaled to: a middle value of the
#: 2-CPU sandbox the benchmark was tuned on.
REFERENCE_SPEED = 850.0


class CheckFailed(Exception):
    """A benchmark correctness check found a wrong result."""


# ---------------------------------------------------------------------------
# Checkout and host
# ---------------------------------------------------------------------------


def import_repro():
    """Import :mod:`repro` from this checkout's ``src/`` only.

    Raises ``ImportError`` when the tree is missing or the package on the
    path is some other copy, so a benchmark run never measures code that
    is not the checkout's.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {SRC}")
    return repro


def host_facts(path: Path) -> Dict[str, Any]:
    """Facts about the host that shape the numbers."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "filesystem": filesystem_of(path),
        "note": ("latencies are this sandbox's: disk reads are served by "
                 "the OS page cache and fsync cost is the host's, not a "
                 "device's"),
    }


def filesystem_of(path: Path) -> str:
    """The filesystem type mounted under *path* (from /proc/mounts)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount_point = fields[1]
                inside = (target == mount_point or target.startswith(
                    mount_point.rstrip("/") + "/"))
                if inside and len(mount_point) >= len(best):
                    best, fstype = mount_point, fields[2]
    except OSError:
        pass
    return fstype


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """Peak resident set size of *pid* (default: this process) in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for process {pid}")


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def value(self, x: int) -> int:
        return self.a + x * self.b


def _calibration_unit() -> int:
    """Fixed interpreter work: objects, method calls, dict and list
    traffic and a sort, the operations the program's hot paths use."""
    table: Dict[int, _Probe] = {}
    out: List[int] = []
    for i in range(2000):
        table[i & 511] = _Probe(i, i & 7)
        probe = table.get((i * 7) & 511)
        if probe is not None:
            out.append(probe.value(i))
    out.sort()
    return len(out)


def host_speed(seconds: float = 0.25) -> float:
    """Calibration units per second right now.

    The shared host's CPU speed drifts by up to 2x over tens of seconds.
    A run measures it next to each timed stretch and scales its timings
    by ``speed / REFERENCE_SPEED``, so figures from a slow and a fast
    stretch of the same host compare.  The calibration code is the
    benchmark's own, so a change to the program cannot move it.
    """
    clock = time.perf_counter
    start = clock()
    units = 0
    while clock() - start < seconds:
        _calibration_unit()
        units += 1
    return units / (clock() - start)


#: Seconds of work between host-speed measurements inside a window, and
#: the length of each measurement.
CALIBRATE_EVERY = 1.0
CALIBRATE_SECONDS = 0.1


class SpeedScaler:
    """Scales timing samples to the reference host speed, segment by
    segment.

    Work runs in short segments; :meth:`mark` ends one, measures the
    host's speed, and scales the segment's samples and work time by the
    mean of the speeds measured before and after it.  Each stream is a
    list the caller keeps appending samples to.
    """

    def __init__(self, streams: int = 1) -> None:
        self.speeds = [host_speed(CALIBRATE_SECONDS)]
        self.scaled: List[List[float]] = [[] for _ in range(streams)]
        self._done = [0] * streams
        self.work = 0.0
        self.scaled_work = 0.0
        self._segment_start = time.perf_counter()

    def tick(self, force: bool = False) -> None:
        """End the running segment once it has lasted
        :data:`CALIBRATE_EVERY` seconds, or now when *force* is set
        (for work timed as a whole, without sample streams)."""
        elapsed = time.perf_counter() - self._segment_start
        if force or elapsed >= CALIBRATE_EVERY:
            self.mark(elapsed)
            self._segment_start = time.perf_counter()

    def mark(self, work_seconds: float, *streams: List[float]) -> None:
        speed = host_speed(CALIBRATE_SECONDS)
        factor = (self.speeds[-1] + speed) / 2 / REFERENCE_SPEED
        self.speeds.append(speed)
        for index, samples in enumerate(streams):
            self.scaled[index].extend(
                sample * factor for sample in samples[self._done[index]:])
            self._done[index] = len(samples)
        self.work += work_seconds
        self.scaled_work += work_seconds * factor


def speed_scale(speeds: Sequence[float]) -> float:
    """Factor that turns timings taken at *speeds* into timings at the
    reference speed."""
    return statistics.fmean(speeds) / REFERENCE_SPEED


def scale_timings(values: Dict[str, float], scale: float) -> Dict[str, float]:
    """Scale times (``*_ms``, ``*_s``) by *scale* and rates (``*_per_s``)
    by its inverse; other values pass through."""
    scaled = {}
    for name, value in values.items():
        if name.endswith("_per_s"):
            scaled[name] = value / scale
        elif name.endswith(("_ms", "_s")):
            scaled[name] = value * scale
        else:
            scaled[name] = value
    return scaled


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def run_verify(db_path: Path) -> None:
    """Run the ``repro verify`` command on a closed database."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "repro", "verify",
                           str(db_path)], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise CheckFailed(f"repro verify failed: {done.stdout.strip()} "
                          f"{done.stderr.strip()}")


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def load_database(db, ops: Sequence[tuple], clock: "SpeedScaler"
                  ) -> Tuple[Dict[int, int], List[Tuple[tuple, int]]]:
    """Replay generated ops through ``db.transaction()``, letting the
    set-up *clock* pause for a speed measurement between transactions.

    Returns the handle -> atom id map and every op paired with the
    transaction time it committed under, so the reference oracle can be
    fed the same history with the same belief times.
    """
    ids: Dict[int, int] = {}
    stamped: List[Tuple[tuple, int]] = []
    for start in range(0, len(ops), LOAD_OPS_PER_TXN):
        with db.transaction() as txn:
            tt = txn.transaction_time
            for op in ops[start:start + LOAD_OPS_PER_TXN]:
                kind = op[0]
                if kind == "insert":
                    _, handle, type_name, values, at = op
                    ids[handle] = txn.insert(type_name, values, valid_from=at)
                elif kind == "update":
                    _, handle, changes, at = op
                    txn.update(ids[handle], changes, valid_from=at)
                elif kind == "link":
                    _, link_name, h1, h2, at = op
                    txn.link(link_name, ids[h1], ids[h2], valid_from=at)
                else:
                    raise ValueError(f"unexpected generated op {kind!r}")
                stamped.append((op, tt))
        clock.tick()
    return ids, stamped


def build_reference(schema, ids: Dict[int, int],
                    stamped: Sequence[Tuple[tuple, int]]):
    """The in-memory oracle holding the same history as the database:
    same atom ids, same valid times, same transaction times."""
    from repro.testing import ReferenceDatabase
    ref = ReferenceDatabase(schema)
    for op, tt in stamped:
        kind = op[0]
        if kind == "insert":
            _, handle, type_name, values, at = op
            ref.insert(type_name, values, valid_from=at, tt=tt,
                       atom_id=ids[handle])
        elif kind == "update":
            _, handle, changes, at = op
            ref.update(ids[handle], changes, valid_from=at, tt=tt)
        elif kind == "link":
            _, link_name, h1, h2, at = op
            ref.link(link_name, ids[h1], ids[h2], valid_from=at, tt=tt)
    return ref


# ---------------------------------------------------------------------------
# Result fingerprints
# ---------------------------------------------------------------------------


def molecule_print(molecule) -> Any:
    """Structural fingerprint of a molecule (validity times excluded)."""
    def walk(atom) -> tuple:
        return (atom.atom_id, atom.type_name,
                tuple(sorted(atom.version.values.items())),
                tuple((str(edge), tuple(walk(child) for child in children))
                      for edge, children in sorted(
                          atom.children.items(), key=lambda kv: str(kv[0]))))
    return walk(molecule.root)


def entries_print(result) -> list:
    """Fingerprint of a ``SELECT ALL`` query result."""
    return [((entry.valid.start, entry.valid.end), entry.root_id,
             molecule_print(entry.molecule)) for entry in result]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already sorted values (q in (0, 100])."""
    if not sorted_values:
        raise CheckFailed("no samples for a percentile")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def latency_summary(name: str, samples_s: Sequence[float],
                    tail_q: float) -> Tuple[Dict[str, float],
                                            Dict[str, Any]]:
    """p50 and the workload's fixed tail percentile, in ms.

    Returns the metric values and a record of the sample count and how
    many samples lie beyond the tail percentile (the tail is only
    trustworthy with at least ten).
    """
    ordered = sorted(samples_s)
    values = {f"{name}_p50_ms": percentile(ordered, 50) * 1000.0,
              f"{name}_tail_ms": percentile(ordered, tail_q) * 1000.0}
    beyond = len(ordered) - max(1, math.ceil(tail_q / 100.0 * len(ordered)))
    return values, {"samples": len(ordered), "tail_percentile": tail_q,
                    "samples_beyond_tail": beyond}


def by_kind(kinds: Sequence[str],
            samples_s: Sequence[float]) -> Dict[str, Dict[str, float]]:
    """Sample count and median latency (ms) per operation kind."""
    grouped: Dict[str, List[float]] = {}
    for kind, sample in zip(kinds, samples_s):
        grouped.setdefault(kind, []).append(sample)
    return {kind: {"samples": len(values),
                   "p50_ms": statistics.median(values) * 1000.0}
            for kind, values in sorted(grouped.items())}


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def end_to_end(per_trial: Sequence[Dict[str, float]],
               setup_times: Sequence[float], rss_mib: float,
               record: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics: medians over trials."""
    def over_trials(name: str) -> float:
        return median([trial[name] for trial in per_trial])
    return {
        "setup_s": (median(setup_times), "s"),
        "ops_per_s": (over_trials("ops_per_s"), "1/s"),
        "read_p50_ms": (over_trials("read_p50_ms"), "ms"),
        "read_tail_ms": (over_trials("read_tail_ms"), "ms"),
        "commit_p50_ms": (over_trials("commit_p50_ms"), "ms"),
        "commit_tail_ms": (over_trials("commit_tail_ms"), "ms"),
        "ok_ratio": (1.0 - record["failed"] / record["attempted"], "ratio"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "space_mib": (over_trials("space_mib"), "MiB"),
    }


# ---------------------------------------------------------------------------
# The result
# ---------------------------------------------------------------------------


def emit(record: Dict[str, Any], metrics: Dict[str, Tuple[float, str]],
         results_dir: Path) -> None:
    """Write the full record to *results_dir* and print the result line.

    The last line of standard output is the summary object the
    benchmark contract fixes; the full record (inputs, host facts,
    sample counts, per-layer details) goes to a file and, one line
    earlier, to standard output.
    """
    summary = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(record, metrics=summary["metrics"])
    results_dir.mkdir(parents=True, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}-"
            f"trace{record['trace']}-{int(time.time() * 1000)}.json")
    (results_dir / name).write_text(json.dumps(record, indent=1,
                                               sort_keys=True) + "\n")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(summary), flush=True)
