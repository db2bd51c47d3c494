"""Multi-threaded stress tests: shared readers, group commit, and
differential snapshot consistency.

The facade's shared-read / exclusive-write latch must let many reader
threads run time-slice and history queries in parallel while writers
revise atoms, and the WAL's group commit must amortize fsyncs across
concurrently committing transactions.  The differential tests compare
every concurrent read against the in-memory reference oracle at a
transaction time that is known to be committed — a torn molecule (a
reader observing half of a multi-operation revision at its own tt, or a
half-applied operation) would disagree with the oracle.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import DatabaseConfig, TemporalDatabase
from repro.errors import SerializationConflictError
from repro.testing import ReferenceDatabase
from repro.txn.locks import ReadWriteLock

JOIN_TIMEOUT = 120.0  # generous; CI enforces an overall job timeout


def _start(threads):
    for thread in threads:
        thread.start()


def _join_all(threads):
    """Join with a deadline so a deadlock fails the test, not CI."""
    for thread in threads:
        thread.join(JOIN_TIMEOUT)
    stuck = [t.name for t in threads if t.is_alive()]
    assert not stuck, f"threads deadlocked or overran: {stuck}"


def _seed(db, parts=6, components_per_part=3):
    """Insert a small BOM: parts with linked components, plus updates."""
    ids = {}
    with db.transaction() as txn:
        for p in range(parts):
            part = txn.insert("Part", {"name": f"part-{p}", "cost": 1.0},
                              valid_from=0)
            comps = []
            for c in range(components_per_part):
                comp = txn.insert("Component",
                                  {"cname": f"c-{p}-{c}",
                                   "weight": float(c)}, valid_from=0)
                txn.link("contains", part, comp, valid_from=0)
                comps.append(comp)
            ids[part] = comps
    with db.transaction() as txn:
        for part in ids:
            txn.update(part, {"cost": 2.0}, valid_from=20)
    return ids


class TestReadWriteLock:
    def test_reentrant_read_and_write(self):
        latch = ReadWriteLock()
        with latch.read():
            with latch.read():
                pass
        with latch.write():
            with latch.write():
                pass
            with latch.read():  # nested read inside a write is a no-op
                pass

    def test_upgrade_raises(self):
        latch = ReadWriteLock()
        with latch.read():
            with pytest.raises(RuntimeError):
                latch.acquire_write()

    def test_writer_excludes_readers(self):
        latch = ReadWriteLock()
        order = []
        latch.acquire_write()
        reader = threading.Thread(
            target=lambda: (latch.acquire_read(), order.append("read"),
                            latch.release_read()))
        reader.start()
        time.sleep(0.05)
        order.append("write-release")
        latch.release_write()
        reader.join(JOIN_TIMEOUT)
        assert order == ["write-release", "read"]

    def test_parallel_readers_overlap(self):
        latch = ReadWriteLock()
        inside = threading.Barrier(4, timeout=JOIN_TIMEOUT)

        def reader():
            with latch.read():
                inside.wait()  # only passes if all 4 hold the lock at once

        threads = [threading.Thread(target=reader, name=f"r{i}")
                   for i in range(4)]
        _start(threads)
        _join_all(threads)


class TestParallelReaders:
    def test_eight_thread_time_slice_workload(self, tmp_path, cad_schema,
                                              strategy):
        """8 read-only threads: no conflicts, no deadlock, no errors."""
        db = TemporalDatabase.create(
            str(tmp_path / "db"), cad_schema,
            DatabaseConfig(strategy=strategy, buffer_pages=64))
        ids = _seed(db)
        parts = list(ids)
        errors = []

        def reader(seed):
            try:
                for i in range(30):
                    part = parts[(seed + i) % len(parts)]
                    at = (seed * 7 + i) % 40
                    molecule = db.molecule_at(
                        part, "Part.contains.Component", at)
                    if molecule is not None:
                        assert molecule.atom_count() >= 1
                    db.version_at(part, at)
                    result = db.query(
                        f"SELECT ALL FROM Part VALID AT {at}")
                    assert result is not None
            except SerializationConflictError as exc:  # must never happen
                errors.append(("serialization", exc))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((type(exc).__name__, exc))

        threads = [threading.Thread(target=reader, args=(i,), name=f"r{i}")
                   for i in range(8)]
        _start(threads)
        _join_all(threads)
        assert errors == []
        db.close()


class TestDifferentialUnderConcurrency:
    def test_readers_match_oracle_during_revisions(self, tmp_path,
                                                   cad_schema, strategy):
        """Concurrent AS OF reads agree with the oracle at committed tts.

        Runs for every version-storage strategy.  The writer revises
        parts (updates plus link churn) while readers time-slice the
        same molecules as believed at already-committed transaction
        times; any torn molecule or half-applied revision shows up as a
        composition mismatch against the reference database.
        """
        db = TemporalDatabase.create(
            str(tmp_path / "db"), cad_schema,
            DatabaseConfig(strategy=strategy, buffer_pages=64))
        ref = ReferenceDatabase(cad_schema)
        oracle_lock = threading.Lock()
        committed_tts = []

        # Seed both sides identically (shared ids via explicit atom_id).
        part_ids, comp_ids = [], []
        with db.transaction() as txn:
            tt0 = txn.transaction_time
            for p in range(4):
                part = txn.insert("Part", {"name": f"p{p}", "cost": 1.0},
                                  valid_from=0)
                part_ids.append(part)
                for c in range(3):
                    comp = txn.insert(
                        "Component",
                        {"cname": f"c{p}-{c}", "weight": 1.0}, valid_from=0)
                    txn.link("contains", part, comp, valid_from=0)
                    comp_ids.append((part, comp))
        with oracle_lock:
            for part in part_ids:
                ref.insert("Part", {"name": f"p{part_ids.index(part)}",
                                    "cost": 1.0}, 0, tt=tt0, atom_id=part)
            for part, comp in comp_ids:
                index = comp_ids.index((part, comp))
                ref.insert("Component",
                           {"cname": f"c{part_ids.index(part)}-{index % 3}",
                            "weight": 1.0}, 0, tt=tt0, atom_id=comp)
                ref.link("contains", part, comp, 0, tt=tt0)
            committed_tts.append(tt0)

        stop = threading.Event()
        errors = []

        def writer():
            try:
                for round_no in range(24):
                    part = part_ids[round_no % len(part_ids)]
                    cost = float(round_no + 10)
                    vf = 5 + (round_no % 6) * 5
                    with db.transaction() as txn:
                        tt = txn.transaction_time
                        txn.update(part, {"cost": cost}, valid_from=vf)
                    with oracle_lock:
                        ref.update(part, {"cost": cost}, vf, tt=tt)
                        committed_tts.append(tt)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(("writer", type(exc).__name__, exc))
            finally:
                stop.set()

        def reader(seed):
            try:
                rounds = 0
                while not (stop.is_set() and rounds > 10):
                    rounds += 1
                    with oracle_lock:
                        tt = committed_tts[
                            (seed * 13 + rounds) % len(committed_tts)]
                    part = part_ids[(seed + rounds) % len(part_ids)]
                    at = (seed * 7 + rounds * 3) % 45
                    mine = db.molecule_at(part, "Part.contains.Component",
                                          at, tt=tt)
                    with oracle_lock:
                        theirs = ref.molecule_at(
                            part, "Part.contains.Component", at, tt=tt)
                    assert (mine is None) == (theirs is None), \
                        (part, at, tt)
                    if mine is not None:
                        assert mine.same_composition_as(theirs), \
                            (part, at, tt)
                    if rounds > 400:  # bound the loop even if stop lags
                        break
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((f"reader-{seed}", type(exc).__name__, exc))

        threads = [threading.Thread(target=writer, name="writer")]
        threads += [threading.Thread(target=reader, args=(i,),
                                     name=f"reader-{i}") for i in range(4)]
        _start(threads)
        _join_all(threads)
        assert errors == []
        db.close()


class TestLiveSetReadsUnderWrites:
    def test_current_slices_never_see_half_an_operation(self, tmp_path,
                                                        cad_schema):
        """Current-knowledge slices are served from the live-set cache,
        which every mutation repairs in place under the exclusive latch.

        A writer toggles links (one operation rewrites both partners'
        live sets) and aborts cost updates (undo drops the live set) while
        readers slice both sides under the shared latch: every read must
        see the link from both partners or from neither.
        """
        import sys
        db = TemporalDatabase.create(
            str(tmp_path / "db"), cad_schema,
            DatabaseConfig(buffer_pages=64, durability="none"))
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 0.0},
                              valid_from=0)
            comps = [txn.insert("Component", {"cname": f"c{i}"},
                                valid_from=0) for i in range(4)]
        ids = [part] + comps
        stop = threading.Event()
        errors = []

        def writer():
            linked = set()
            n = 0
            while not stop.is_set():
                comp = comps[n % len(comps)]
                try:
                    with db.transaction() as txn:
                        if comp in linked:
                            txn.unlink("contains", part, comp, valid_from=0)
                            linked.discard(comp)
                        else:
                            txn.link("contains", part, comp, valid_from=0)
                            linked.add(comp)
                    txn = db.begin()
                    txn.update(part, {"cost": float(n)}, valid_from=0)
                    txn.abort()
                except Exception as exc:  # surfaced by the assertion below
                    errors.append(exc)
                    return
                n += 1

        def reader():
            while not stop.is_set():
                try:
                    with db._read_view():
                        got = db.engine.version_at_many(ids, 5)
                    out = got[part].targets("contains")
                    for comp in comps:
                        back = got[comp].targets("contains", "in")
                        assert (comp in out) == (part in back), (comp, out)
                except Exception as exc:
                    errors.append(exc)
                    return

        threads = ([threading.Thread(target=writer, name="writer")]
                   + [threading.Thread(target=reader, name=f"reader-{i}")
                      for i in range(4)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _start(threads)
            time.sleep(1.5)
            stop.set()
            _join_all(threads)
        finally:
            sys.setswitchinterval(interval)
            db.close()
        assert not errors, errors[:3]
        assert db.metrics.value("engine.live_set.hits") > 0


class TestGroupCommit:
    def test_concurrent_commits_share_fsyncs(self, tmp_path, cad_schema,
                                             monkeypatch):
        """8 writer threads commit concurrently; fsyncs stay below commits."""
        import repro.txn.wal as wal_module
        real_fsync = os.fsync

        def slow_fsync(fd):
            real_fsync(fd)
            time.sleep(0.01)  # model a real disk so committers pile up

        monkeypatch.setattr(wal_module.os, "fsync", slow_fsync)
        db = TemporalDatabase.create(str(tmp_path / "db"), cad_schema,
                                     DatabaseConfig(buffer_pages=64))
        db.metrics.reset("wal.")
        db.metrics.reset("txn.")
        commits_per_thread = 8
        errors = []

        def writer(seed):
            try:
                for i in range(commits_per_thread):
                    with db.transaction() as txn:
                        txn.insert("Part",
                                   {"name": f"w{seed}-{i}", "cost": 1.0},
                                   valid_from=0)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((seed, exc))

        threads = [threading.Thread(target=writer, args=(i,), name=f"w{i}")
                   for i in range(8)]
        _start(threads)
        _join_all(threads)
        assert errors == []

        total_commits = 8 * commits_per_thread
        fsyncs = db.metrics.value("wal.fsyncs")
        group_rounds = db.metrics.value("wal.group_commits")
        assert fsyncs < total_commits, (fsyncs, total_commits)
        assert 0 < group_rounds <= fsyncs
        # Every commit is durable exactly once: the batch sizes observed
        # across all fsync rounds must add up to the commit count.
        histogram = db.metrics.histogram("wal.commit_batch_size")
        assert histogram.total == total_commits
        assert histogram.maximum >= 2  # at least one real group formed
        # All 64 inserts are present.
        assert len(db.atoms_of_type("Part")) == total_commits
        db.close()

    def test_commit_returns_durable(self, tmp_path, cad_schema):
        """After commit() returns, the COMMIT record's LSN is durable."""
        db = TemporalDatabase.create(str(tmp_path / "db"), cad_schema,
                                     DatabaseConfig(buffer_pages=16))
        with db.transaction() as txn:
            txn.insert("Part", {"name": "d"}, valid_from=0)
        assert db._wal.durable_lsn == db._wal.next_lsn - 1
        db.close()

    def test_durability_none_skips_fsyncs(self, tmp_path, cad_schema):
        db = TemporalDatabase.create(
            str(tmp_path / "db"), cad_schema,
            DatabaseConfig(buffer_pages=16, durability="none"))
        before = db.metrics.value("wal.fsyncs")
        for i in range(5):
            with db.transaction() as txn:
                txn.insert("Part", {"name": f"n{i}"}, valid_from=0)
        assert db.metrics.value("wal.fsyncs") == before
        db.close()


class TestMixedWorkloadLiveness:
    def test_disjoint_writers_and_readers_complete(self, tmp_path,
                                                   cad_schema):
        """Writers on disjoint atoms plus readers: everything terminates."""
        db = TemporalDatabase.create(str(tmp_path / "db"), cad_schema,
                                     DatabaseConfig(buffer_pages=64))
        ids = _seed(db, parts=8)
        parts = list(ids)
        errors = []
        stop = threading.Event()

        def writer(index):
            try:
                part = parts[index]  # each writer owns one part
                for i in range(12):
                    with db.transaction() as txn:
                        txn.update(part, {"cost": float(i)},
                                   valid_from=30 + i)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(("writer", index, exc))

        def reader(seed):
            try:
                i = 0
                while not stop.is_set() and i < 500:
                    i += 1
                    part = parts[(seed + i) % len(parts)]
                    db.molecule_at(part, "Part.contains.Component",
                                   (seed + i) % 50)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(("reader", seed, exc))

        writers = [threading.Thread(target=writer, args=(i,), name=f"w{i}")
                   for i in range(4)]
        readers = [threading.Thread(target=reader, args=(i,), name=f"r{i}")
                   for i in range(4)]
        _start(writers + readers)
        _join_all(writers)
        stop.set()
        _join_all(readers)
        assert errors == []
        db.close()
