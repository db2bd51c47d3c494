"""The ``mixed_wire`` workload: a ``repro serve`` subprocess and two
closed-loop client connections.

About 80% of operations are point molecule slices, about 20% are write
transactions (mostly updates, some link / unlink / correct).  Reads and
writes favour a recently written hot set, so histories grow during the
run.  Each client writes only the atoms it owns (atom id parity), so
"the last acknowledged write" of every atom is well defined: after the
run, each written atom's current version must hold the value of its
last acknowledged write, and ``repro verify`` must pass.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

import common

PARTS = 40
FANOUT = 4
VERSIONS_PER_ATOM = 8
CLIENTS = 2
READ_SHARE = 0.8
#: Fixed tail percentiles (each leaves well over ten samples beyond).
READ_TAIL_Q = 90.0
COMMIT_TAIL_Q = 80.0
WARM_READS = 100

POINT = ("SELECT ALL FROM Part.contains.Component WHERE Part.name = $n "
         "VALID AT {at}")
READ_INSTANTS = ("NOW", "NOW", "NOW", "2", "5")

HERE = Path(__file__).resolve().parent


@dataclass
class _Server:
    proc: subprocess.Popen
    port: int
    control: Optional[Path]  # traced launcher's control directory


@dataclass
class _Writer:
    """Per-client write bookkeeping for the acknowledged-value check."""

    acked: Dict[Tuple[int, str], float] = field(default_factory=dict)
    unknown: Dict[Tuple[int, str], Set[float]] = field(default_factory=dict)
    links: Set[Tuple[int, int]] = field(default_factory=set)
    added: List[Tuple[int, int]] = field(default_factory=list)


def _start_server(path: Path, work: Path, traced: bool) -> _Server:
    env = dict(os.environ, PYTHONPATH=str(common.SRC))
    control = None
    if traced:
        control = work / "control"
        common.fresh_dir(control).mkdir()
        cmd = [sys.executable, str(HERE / "serve_traced.py"), str(control)]
    else:
        cmd = [sys.executable, "-m", "repro"]
    cmd += ["serve", "--path", str(path), "--port", "0"]
    log = open(work / "server.log", "ab")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=log, cwd=str(common.ROOT))
    log.close()
    deadline = time.monotonic() + 60
    line = b""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 1.0)
        if ready:
            line = proc.stdout.readline()
            if line.startswith(b"serving ") or not line:
                break
        if proc.poll() is not None:
            break
    if not line.startswith(b"serving "):
        _stop_server(_Server(proc, 0, control))
        raise common.CheckFailed("server did not start")
    address = line.split(b" on ", 1)[1].split()[0].decode()
    return _Server(proc, int(address.rsplit(":", 1)[1]), control)


def _stop_server(server: _Server) -> None:
    """Graceful shutdown (drain + checkpoint); waits for the process."""
    if server.proc.poll() is None:
        server.proc.send_signal(signal.SIGTERM)
        try:
            server.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.proc.kill()
            server.proc.wait()
    server.proc.stdout.close()
    if server.proc.returncode != 0:
        raise common.CheckFailed(
            f"server exited with code {server.proc.returncode}")


def _signal_and_wait(server: _Server, signum: int, marker: str) -> None:
    server.proc.send_signal(signum)
    deadline = time.monotonic() + 30
    while not (server.control / marker).exists():
        if time.monotonic() > deadline:
            raise common.CheckFailed(f"traced server never wrote {marker}")
        time.sleep(0.01)


class _HotSet:
    """Indexes of recently written parts, shared by the clients."""

    def __init__(self) -> None:
        self._recent: Deque[int] = deque(maxlen=8)
        self._lock = threading.Lock()

    def add(self, part_index: int) -> None:
        with self._lock:
            self._recent.append(part_index)

    def items(self) -> List[int]:
        with self._lock:
            return list(self._recent)


class _Client:
    """One closed-loop client connection."""

    def __init__(self, index: int, port: int, seed: int,
                 parts: List[Tuple[int, str]], components: List[int],
                 links: Set[Tuple[int, int]], hot: _HotSet,
                 valid_from: int) -> None:
        from repro.server import DatabaseClient
        self.index = index
        self.client = DatabaseClient("127.0.0.1", port)
        self.rng = random.Random(seed * 101 + index)
        self.parts = parts                      # every (id, name)
        self.own_parts = [p for p in parts if p[0] % CLIENTS == index]
        self.own_components = [c for c in components if c % CLIENTS == index]
        self.hot = hot
        self.valid_from = valid_from
        self.serial = 0
        self.writer = _Writer(links={link for link in links
                                     if link[0] % CLIENTS == index})
        self.stop = threading.Event()
        self.reset_samples()

    def reset_samples(self) -> None:
        self.reads: List[float] = []
        self.commits: List[float] = []
        self.failed = 0
        self.wrong = 0

    def run(self) -> None:
        while not self.stop.is_set():
            if self.rng.random() < READ_SHARE:
                self.read()
            else:
                self.write()

    def read(self) -> None:
        from repro.errors import ReproError
        hot = self.hot.items()
        if hot and self.rng.random() < 0.7:
            name = self.parts[self.rng.choice(hot)][1]
        else:
            name = self.rng.choice(self.parts)[1]
        text = POINT.format(at=self.rng.choice(READ_INSTANTS))
        start = time.perf_counter()
        try:
            result = self.client.query(text, params={"n": name})
        except (ReproError, OSError):
            self.failed += 1
            return
        self.reads.append(time.perf_counter() - start)
        if len(result["entries"]) != 1:  # every part exists at every instant
            self.wrong += 1

    def _unique(self) -> float:
        self.serial += 1
        return float(self.index * 10_000_000 + self.serial)

    def write(self) -> None:
        from repro.errors import ReproError
        rng = self.rng
        own_hot = [i for i in self.hot.items()
                   if self.parts[i][0] % CLIENTS == self.index]
        if own_hot and rng.random() < 0.6:
            part_index = rng.choice(own_hot)
        else:
            part_index = self.parts.index(rng.choice(self.own_parts))
        part = self.parts[part_index][0]
        self.valid_from += 1
        at = self.valid_from
        roll = rng.random()
        free = [c for c in self.own_components
                if (part, c) not in self.writer.links]
        writes: Dict[Tuple[int, str], float] = {}
        link_change: Optional[Tuple[str, Tuple[int, int]]] = None
        start = time.perf_counter()
        try:
            with self.client.transaction() as txn:
                if roll < 0.1 and free:
                    component = rng.choice(free)
                    txn.link("contains", part, component, valid_from=at)
                    link_change = ("link", (part, component))
                elif roll < 0.2 and self.writer.added:
                    pair = self.writer.added[-1]
                    txn.unlink("contains", pair[0], pair[1], valid_from=at)
                    link_change = ("unlink", pair)
                elif roll < 0.3 and at > 8:
                    txn.correct(part, at - 6, at - 3,
                                {"released": rng.random() < 0.5})
                else:
                    writes[(part, "cost")] = self._unique()
                    txn.update(part, {"cost": writes[(part, "cost")]},
                               valid_from=at)
                    component = rng.choice(self.own_components)
                    writes[(component, "weight")] = self._unique()
                    txn.update(component,
                               {"weight": writes[(component, "weight")]},
                               valid_from=at)
        except (ReproError, OSError):
            self.failed += 1
            for key, value in writes.items():
                self.writer.unknown.setdefault(key, set()).add(value)
            return
        self.commits.append(time.perf_counter() - start)
        self.writer.acked.update(writes)
        if link_change is not None:
            kind, pair = link_change
            if kind == "link":
                self.writer.links.add(pair)
                self.writer.added.append(pair)
            else:
                self.writer.links.discard(pair)
                self.writer.added.pop()
        self.hot.add(part_index)


def _setup(path: Path, work: Path, ops, groups, seed: int, tracer=None):
    """Create + load + index in process, close, serve, connect, warm;
    returns the server, the clients, the set-up clock and the traced
    set-up's layer metrics."""
    from repro import TemporalDatabase
    from repro.workloads import cad_schema
    import tracing
    common.fresh_dir(path)
    clock = common.SpeedScaler(0)
    db = TemporalDatabase.create(str(path), cad_schema())
    ids, _ = common.load_database(db, ops, clock)
    db.create_attribute_index("Part", "name")
    setup_layers: Dict[str, float] = {}
    if tracer is not None:
        tracer.uninstall()
        setup_layers = tracing.setup_metrics(
            tracer.totals(), tracing.counter_totals(db.metrics_snapshot()),
            len(ops))
    db.close()
    server = _start_server(path, work, traced=tracer is not None)
    parts = [(ids[handle], f"part-{number}")
             for number, handle in enumerate(groups["Part"])]
    components = [ids[handle] for handle in groups["Component"]]
    links = {(ids[op[2]], ids[op[3]]) for op in ops
             if op[0] == "link" and op[1] == "contains"}
    hot = _HotSet()
    clients = [_Client(index, server.port, seed, parts, components, links,
                       hot, VERSIONS_PER_ATOM + 2) for index in range(CLIENTS)]
    for client in clients:
        for _ in range(WARM_READS // CLIENTS):
            client.read()
        client.reset_samples()
    clock.tick(force=True)
    return server, clients, clock, setup_layers


def _drive(clients: List[_Client], seconds: float) -> common.SpeedScaler:
    """Run the clients for *seconds* in segments of
    :data:`common.CALIBRATE_EVERY`, measuring the host's speed while
    they are paused between segments.  The returned scaler's streams
    are each client's reads, then each client's commits."""
    scaler = common.SpeedScaler(2 * len(clients))
    while scaler.work < seconds:
        for client in clients:
            client.stop.clear()
        began = time.perf_counter()
        threads = [threading.Thread(target=client.run, daemon=True)
                   for client in clients]
        for thread in threads:
            thread.start()
        try:
            time.sleep(min(common.CALIBRATE_EVERY, seconds - scaler.work))
        finally:
            for client in clients:
                client.stop.set()
            for thread in threads:
                thread.join(timeout=60)
        if any(thread.is_alive() for thread in threads):
            raise common.CheckFailed("a client did not stop")
        scaler.mark(time.perf_counter() - began,
                    *[c.reads for c in clients],
                    *[c.commits for c in clients])
    return scaler


def _close_clients(clients: List[_Client]) -> None:
    for client in clients:
        client.client.close()


def _check_acknowledged(path: Path, clients: List[_Client]) -> int:
    """Atoms whose current version does not hold the last acknowledged
    write (or a later write whose outcome is unknown)."""
    from repro import TemporalDatabase
    from repro.temporal import FOREVER
    wrong = 0
    db = TemporalDatabase.open(str(path))
    try:
        for client in clients:
            writer = client.writer
            for (atom, attribute), value in writer.acked.items():
                version = db.version_at(atom, FOREVER - 1)
                allowed = {value} | writer.unknown.get((atom, attribute),
                                                       set())
                if version is None or version.values[attribute] not in allowed:
                    wrong += 1
    finally:
        db.close()
    return wrong


def _trial(seed: int, seconds: float, work: Path, db_path: Path, ops,
           groups, tracer, verify: bool
           ) -> Tuple[Dict[str, Any], List["_Client"]]:
    """Set up, drive the clients, shut down and check one database;
    *verify* also runs ``repro verify`` on it.

    Untraced: one window of *seconds*.  Traced: an untraced half, then a
    traced half with the server's wrappers switched on by signal.
    """
    import tracing
    if tracer is not None:
        tracer.install()
    server, clients, clock, setup_layers = _setup(db_path, work, ops, groups,
                                                  seed, tracer)
    setup_speeds = clock.speeds
    out: Dict[str, Any] = {"setup_s": clock.work,
                           "scaled_setup_s": clock.scaled_work,
                           "setup_speeds": setup_speeds}
    try:
        if tracer is None:
            out["scaler"] = _drive(clients, seconds)
            out["peak_rss_mib"] = common.peak_rss_mib(server.proc.pid)
        else:
            before_scaler = _drive(clients, seconds / 2)
            out["untraced_ops"] = sum(len(c.reads) + len(c.commits) + c.failed
                                      for c in clients)
            out["untraced_wrong"] = sum(c.wrong for c in clients)
            untraced_rate = sum(len(c.reads) + len(c.commits)
                                for c in clients) / before_scaler.scaled_work
            _signal_and_wait(server, signal.SIGUSR1, "on")
            before = clients[0].client.stats()["metrics"]
            for client in clients:
                client.reset_samples()
            out["scaler"] = scaler = _drive(clients, seconds / 2)
            _signal_and_wait(server, signal.SIGUSR2, "off")
            after = clients[0].client.stats()["metrics"]
            totals = json.loads((server.control / "totals.json").read_text())
            done = sum(len(c.reads) + len(c.commits) for c in clients)
            client_ns = int(sum(sum(c.reads) + sum(c.commits)
                                for c in clients) * 1e9)
            layers = tracing.layer_metrics(
                totals, tracing.counter_delta(before, after), done,
                client_ns)
            layers["trace.ops_per_s"] = done / scaler.work
            layers["trace.overhead_ratio"] = untraced_rate / (
                done / scaler.scaled_work)
            layers = common.scale_timings(
                layers, common.speed_scale(scaler.speeds))
            layers.update(common.scale_timings(
                setup_layers, common.speed_scale(setup_speeds)))
            out.update(layers=layers, totals=totals)
            spans = common.WORK / "traces" / f"mixed_wire-seed{seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            os.replace(server.control / "spans.jsonl", spans)
        _close_clients(clients)
        _stop_server(server)
    except BaseException:
        _close_clients(clients)
        if server.proc.poll() is None:
            server.proc.kill()
            server.proc.wait()
        raise
    out["space_mib"] = os.path.getsize(db_path / "pages.db") / (1 << 20)
    out["wrong_atoms"] = _check_acknowledged(db_path, clients)
    if verify:
        common.run_verify(db_path)
    return out, clients


def run(seed: int, seconds: float, trace: bool, work: Path,
        results_dir: Path) -> int:
    """Run mixed_wire; untraced runs make :data:`common.TRIALS` trials
    and report medians."""
    from repro import DatabaseConfig
    from repro.workloads import WorkloadSpec, generate_bom
    import tracing

    spec = WorkloadSpec(parts=PARTS, fanout=FANOUT,
                        versions_per_atom=VERSIONS_PER_ATOM, seed=seed)
    ops, groups = generate_bom(spec)
    trials = 1 if trace else common.TRIALS
    tracer = tracing.Tracer() if trace else None
    setup_times: List[float] = []
    per_trial: List[Dict[str, float]] = []
    attempted = failed = wrong = 0
    raw_trials: List[Dict[str, float]] = []
    raw_setups: List[float] = []
    speeds: List[Dict[str, List[float]]] = []
    for trial in range(trials):
        db_path = work / f"db{trial}"
        out, clients = _trial(seed, seconds / trials, work, db_path, ops,
                              groups, tracer, verify=trial == trials - 1)
        shutil.rmtree(db_path, ignore_errors=True)
        scaler = out["scaler"]
        speeds.append({"setup": out["setup_speeds"],
                       "window": scaler.speeds})
        raw_setups.append(out["setup_s"])
        setup_times.append(out["scaled_setup_s"])
        reads = [lat for c in clients for lat in c.reads]
        commits = [lat for c in clients for lat in c.commits]
        wrong_reads = (sum(c.wrong for c in clients)
                       + out.get("untraced_wrong", 0))
        wrong += wrong_reads + out["wrong_atoms"]
        attempted += (out.get("untraced_ops", 0) + len(reads) + len(commits)
                      + sum(c.failed for c in clients))
        failed += (sum(c.failed for c in clients) + wrong_reads
                   + out["wrong_atoms"])
        if tracer is None:
            read_values, read_info = common.latency_summary(
                "read", reads, READ_TAIL_Q)
            commit_values, commit_info = common.latency_summary(
                "commit", commits, COMMIT_TAIL_Q)
            extra = {"peak_rss_mib": out["peak_rss_mib"],
                     "space_mib": out["space_mib"]}
            raw_trials.append(dict(
                read_values, **commit_values, **extra,
                ops_per_s=(len(reads) + len(commits)) / scaler.work))
            half = len(clients)
            scaled_reads = [lat for stream in scaler.scaled[:half]
                            for lat in stream]
            scaled_commits = [lat for stream in scaler.scaled[half:]
                              for lat in stream]
            per_trial.append(dict(
                common.latency_summary("read", scaled_reads,
                                       READ_TAIL_Q)[0],
                **common.latency_summary("commit", scaled_commits,
                                         COMMIT_TAIL_Q)[0],
                **extra,
                ops_per_s=(len(reads) + len(commits)) / scaler.scaled_work))

    record: Dict[str, Any] = {
        "workload": "mixed_wire", "seed": seed, "trace": int(trace),
        "inputs": {"generator": asdict(spec), "operations": len(ops),
                   "server_config": {
                       name: str(value) for name, value in
                       asdict(DatabaseConfig()).items()},
                   "clients": CLIENTS, "read_share": READ_SHARE,
                   "load_ops_per_txn": common.LOAD_OPS_PER_TXN,
                   "trials": trials},
        "host": common.host_facts(work),
        "setup_s_samples": setup_times,
        "setup_s_raw": raw_setups,
        "host_speed": speeds,
        "reference_speed": common.REFERENCE_SPEED,
        "acknowledged_atoms": sum(len(c.writer.acked) for c in clients),
        "attempted": attempted, "failed": failed, "correct": wrong == 0,
    }
    if trace:
        record["trace_totals"] = out["totals"]
        metrics = {name: (value, tracing.unit_of(name))
                   for name, value in out["layers"].items()}
    else:
        record["trials"] = per_trial
        record["trials_raw"] = raw_trials
        record["read_latency"] = dict(read_info, trial="last")
        record["commit_latency"] = dict(
            commit_info, source="write transactions, BEGIN to acked COMMIT",
            trial="last")
        metrics = common.end_to_end(
            per_trial, setup_times,
            common.median([t["peak_rss_mib"] for t in per_trial]), record)
    common.emit(record, metrics, results_dir)
    return 0 if record["correct"] else 1
