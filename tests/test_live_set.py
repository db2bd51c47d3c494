"""The live-version machinery of the write and read paths.

Mutation planning only ever reads transaction-time-open versions, so the
stores expose ``read_live``/``read_versions`` and the engine keeps a
per-atom live-set cache that ``_apply_plan`` repairs in place.  These
tests pin the store contracts, prove the cache never drifts from store
truth under mixed operations (including undo), and guard the headline
property: update cost no longer scans the closed history.

Current-knowledge time slices are answered from the same cache; a
differential oracle holds them equal to the store path at every
valid-time boundary, with and without pushed-down predicates and
projections, after undo, after vacuum, and after reopen.
"""

import random

import pytest

from repro.errors import StorageError, TemporalUpdateError
from repro.mql.planner import PushdownSpec
from repro.temporal import FOREVER


@pytest.fixture
def engine(db):
    return db.engine


def insert(engine, atom_id, vf=0, vt=FOREVER, tt=0, **values):
    values = values or {"name": f"atom-{atom_id}"}
    return engine.insert("Part", values, vf, vt, tt, atom_id)


def store_live(engine, atom_id):
    """Live (seq, version) pairs read straight off the store."""
    return [(seq, v) for seq, v in enumerate(engine.all_versions(atom_id))
            if v.live]


class TestStoreContract:
    """read_live / read_versions agree with read_all on every strategy."""

    def _seed(self, engine):
        insert(engine, 1, tt=0)
        engine.update(1, {"cost": 1.0}, 10, tt=1)
        engine.update(1, {"cost": 2.0}, 20, tt=2)
        engine.delete(1, 5, tt=3, valid_to=8)
        engine.correct(1, 12, 15, {"cost": 9.0}, tt=4)

    def test_read_live_matches_filtered_read_all(self, engine):
        self._seed(engine)
        store = engine.store
        expected = [(seq, sv) for seq, sv in enumerate(store.read_all(1))
                    if sv.live]
        assert sorted(store.read_live(1)) == sorted(expected)

    def test_read_versions_matches_read_all(self, engine):
        self._seed(engine)
        store = engine.store
        full = store.read_all(1)
        seqs = [0, len(full) - 1, len(full) // 2]
        got = store.read_versions(1, seqs)
        assert got == {seq: full[seq] for seq in seqs}

    def test_read_versions_unknown_seq(self, engine):
        insert(engine, 1, tt=0)
        with pytest.raises(StorageError):
            engine.store.read_versions(1, [5])

    def test_read_live_excludes_fully_deleted(self, engine):
        insert(engine, 1, tt=0)
        engine.delete(1, 0, tt=1)
        assert engine.store.read_live(1) == []


class TestLiveSetCache:
    def test_live_pairs_matches_store_after_each_op(self, engine):
        rng = random.Random(7)
        insert(engine, 1, tt=0)
        tt = 1
        for _ in range(60):
            op = rng.randrange(4)
            start = rng.randrange(0, 90)
            try:
                if op == 0:
                    engine.update(1, {"cost": float(tt)}, start, tt)
                elif op == 1:
                    engine.delete(1, start, tt, valid_to=start + 5)
                elif op == 2:
                    engine.correct(1, start, start + 10,
                                   {"cost": float(-tt)}, tt)
                else:
                    undos = engine.update(1, {"cost": 0.5}, start, tt)
                    for undo in reversed(undos):
                        undo()
            except Exception:  # revision may legitimately find no overlap
                pass
            tt += 1
            assert engine.live_pairs(1) == store_live(engine, 1)

    def test_cache_survives_valid_time_splits(self, engine):
        # A mid-window update splits validity into three live pieces;
        # the repaired cache must hold all of them at the right seqs.
        insert(engine, 1, tt=0)
        engine.update(1, {"cost": 1.0}, 10, tt=1, valid_to=20)
        assert engine.live_pairs(1) == store_live(engine, 1)
        assert len(engine.live_pairs(1)) == 3
        engine.update(1, {"cost": 2.0}, 14, tt=2, valid_to=16)
        assert engine.live_pairs(1) == store_live(engine, 1)

    def test_undo_invalidates_cache(self, engine):
        insert(engine, 1, tt=0)
        engine.live_pairs(1)
        undos = engine.update(1, {"cost": 3.0}, 10, tt=1)
        for undo in reversed(undos):
            undo()
        assert engine.live_pairs(1) == store_live(engine, 1)
        assert [v.values.get("cost") for _, v in engine.live_pairs(1)] \
            == [None]

    def test_links_maintain_both_sides(self, engine):
        insert(engine, 1, tt=0)
        engine.insert("Component", {"cname": "c"}, 0, FOREVER, 0, 2)
        engine.live_pairs(1), engine.live_pairs(2)
        engine.link("contains", 1, 2, 5, tt=1)
        assert engine.live_pairs(1) == store_live(engine, 1)
        assert engine.live_pairs(2) == store_live(engine, 2)
        engine.unlink("contains", 1, 2, 5, tt=2)
        assert engine.live_pairs(1) == store_live(engine, 1)
        assert engine.live_pairs(2) == store_live(engine, 2)

    def test_updates_do_not_scan_closed_history(self, engine):
        insert(engine, 1, tt=0)
        for n in range(40):
            engine.update(1, {"cost": float(n)}, 0, tt=n + 1)
        scanned = engine.metrics.counter("engine.versions_scanned")
        before = scanned.value
        for n in range(10):
            engine.update(1, {"cost": float(100 + n)}, 0, tt=50 + n)
        # One live version per update; a full-history planner would
        # scan 40+ versions each time.
        assert scanned.value - before <= 10

    def test_reopen_after_cached_updates(self, tmp_path, cad_schema,
                                         strategy):
        from repro import DatabaseConfig, TemporalDatabase
        path = str(tmp_path / "reopen")
        db = TemporalDatabase.create(
            path, cad_schema,
            DatabaseConfig(strategy=strategy, buffer_pages=64))
        engine = db.engine
        insert(engine, 1, tt=0)
        for n in range(5):
            engine.update(1, {"cost": float(n)}, 0, tt=n + 1)
        expected = store_live(engine, 1)
        db.checkpoint()
        db.close()
        db = TemporalDatabase.open(path)
        assert db.engine.live_pairs(1) == expected
        db.close()


def _random_history(engine, rng, parts=5, components=3, ops=70):
    """Mixed random mutations on Parts and Components; returns the ids
    and the next free transaction time."""
    part_ids = list(range(1, parts + 1))
    comp_ids = list(range(parts + 1, parts + components + 1))
    for atom_id in part_ids:
        insert(engine, atom_id, vf=rng.randrange(0, 20), tt=0,
               cost=float(rng.randrange(100)), name=f"p{atom_id}")
    for atom_id in comp_ids:
        engine.insert("Component", {"cname": f"c{atom_id}"},
                      rng.randrange(0, 20), FOREVER, 0, atom_id)
    tt = 1
    for _ in range(ops):
        atom_id = rng.choice(part_ids)
        start = rng.randrange(0, 100)
        op = rng.randrange(6)
        try:
            if op == 0:
                undos = engine.update(atom_id, {"cost": float(tt)}, start,
                                      tt)
            elif op == 1:
                undos = engine.delete(atom_id, start, tt,
                                      valid_to=start + rng.randrange(1, 15))
            elif op == 2:
                undos = engine.correct(atom_id, start, start + 10,
                                       {"cost": None}, tt)
            elif op == 3:
                undos = engine.link("contains", atom_id,
                                    rng.choice(comp_ids), start, tt)
            elif op == 4:
                undos = engine.unlink("contains", atom_id,
                                      rng.choice(comp_ids), start, tt)
            else:
                undos = engine.update(rng.choice(comp_ids),
                                      {"weight": float(tt)}, start, tt)
        except TemporalUpdateError:  # no validity or link in the window
            undos = []
        if undos and rng.random() < 0.15:
            for undo in reversed(undos):
                undo()
        tt += 1
    return part_ids + comp_ids, tt


def _boundaries(engine, ids):
    """Every valid-time boundary instant of the atoms, and its
    predecessor."""
    instants = {0, FOREVER - 1}
    for atom_id in ids:
        for version in engine.all_versions(atom_id):
            for edge in (version.vt.start, version.vt.end):
                instants.update(t for t in (edge - 1, edge)
                                if 0 <= t < FOREVER)
    return sorted(instants)


def _warm(engine, ids):
    """Repopulate the live sets the way the write path does."""
    for atom_id in ids:
        if engine.atom_exists(atom_id):
            engine.live_pairs(atom_id)


def _counts(engine):
    return tuple(engine.metrics.value(name) for name in (
        "engine.live_set.hits", "engine.versions_scanned",
        "engine.pushdown.skipped"))


def _slices(engine, ids, instants, pred=None, projection=None):
    before = _counts(engine)
    answers = {at: engine.version_at_many(ids, at, pred=pred,
                                          projection=projection)
               for at in instants}
    after = _counts(engine)
    return answers, tuple(b - a for a, b in zip(before, after))


class TestLiveSetSlices:
    """Warm ``version_at_many`` (live-set hits) equals the store path."""

    UNKNOWN = 999

    def _check(self, engine, ids, pred=None, projection=None):
        batch = ids + [self.UNKNOWN]
        instants = _boundaries(engine, ids)
        _warm(engine, ids)
        warm, warm_counts = _slices(engine, batch, instants, pred,
                                    projection)
        for atom_id in ids:
            engine.invalidate_atom_caches(atom_id)
        cold, cold_counts = _slices(engine, batch, instants, pred,
                                    projection)
        live = sum(1 for atom_id in ids if engine.atom_exists(atom_id))
        assert warm_counts[0] == live * len(instants)
        assert cold_counts[0] == 0
        # versions_scanned and pushdown.skipped mean the same either way
        assert warm_counts[1:] == cold_counts[1:]
        _warm(engine, ids)
        return warm, cold

    def _check_exact(self, engine, ids, pred=None):
        warm, cold = self._check(engine, ids, pred)
        assert warm == cold

    @pytest.mark.parametrize("seed", [1, 2])
    def test_plain_slices(self, engine, seed):
        ids, _ = _random_history(engine, random.Random(seed))
        self._check_exact(engine, ids)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_pushed_predicate_passes_other_types(self, engine, seed):
        ids, _ = _random_history(engine, random.Random(seed))
        for comparisons in ((("cost", "GT", 40.0),),
                            (("cost", "EQ", None),),
                            (("cost", "NE", None), ("cost", "LE", 70.0))):
            pred, _ = engine.compile_pushdown(
                PushdownSpec("Part", comparisons))
            warm, cold = self._check(engine, ids, pred)
            assert warm == cold
            # Components are never judged by a Part predicate.
            components = [atom_id for atom_id in ids
                          if engine.atom_type_name(atom_id) == "Component"]
            assert any(answers[atom_id] is not None
                       for answers in warm.values()
                       for atom_id in components)

    def test_projection_returns_a_superset(self, engine):
        ids, _ = _random_history(engine, random.Random(5))
        _, projection = engine.compile_pushdown(PushdownSpec(
            "Part", (), (("Part", ("name",), True),
                         ("Component", ("cname",), False))))
        assert projection is not None
        full, _ = self._check(engine, ids)
        warm, cold = self._check(engine, ids, projection=projection)
        assert warm == full
        for at, answers in cold.items():
            for atom_id, projected in answers.items():
                whole = warm[at][atom_id]
                if projected is None:
                    assert whole is None
                    continue
                assert (whole.vt, whole.tt) == (projected.vt, projected.tt)
                assert dict(projected.values).items() <= \
                    dict(whole.values).items()
                if engine.atom_type_name(atom_id) == "Part":
                    assert projected.refs == whole.refs

    def test_after_undo(self, engine):
        ids, tt = _random_history(engine, random.Random(6))
        _warm(engine, ids)
        undos = engine.update(ids[0], {"cost": -1.0}, 0, tt)
        undos += engine.link("contains", ids[1], ids[-1], 0, tt + 1)
        for undo in reversed(undos):
            undo()
        self._check_exact(engine, ids)

    def test_after_vacuum(self, db, engine):
        from repro.tools.vacuum import vacuum_superseded
        ids, tt = _random_history(engine, random.Random(7))
        _warm(engine, ids)
        report = vacuum_superseded(db, tt // 2)
        assert report.versions_removed > 0
        # Vacuum renumbers sequences; writes planned on the live sets
        # afterwards must still land on the right versions.
        for offset, atom_id in enumerate(ids):
            try:
                engine.update(atom_id, {"cost": -2.0} if atom_id <= 5
                              else {"weight": -2.0}, 30, tt + offset)
            except TemporalUpdateError:  # no validity left from 30 on
                pass
        self._check_exact(engine, ids)

    def test_after_reopen_cold_path(self, tmp_path, cad_schema, strategy):
        from repro import DatabaseConfig, TemporalDatabase
        path = str(tmp_path / "reopen")
        db = TemporalDatabase.create(
            path, cad_schema,
            DatabaseConfig(strategy=strategy, buffer_pages=64))
        ids, _ = _random_history(db.engine, random.Random(8))
        instants = _boundaries(db.engine, ids)
        _warm(db.engine, ids)
        warm, _ = _slices(db.engine, ids, instants)
        db.checkpoint()
        db.close()
        db = TemporalDatabase.open(path)
        try:
            cold, counts = _slices(db.engine, ids, instants)
            assert counts[0] == 0  # nothing written since open
            assert warm == cold
        finally:
            db.close()


class TestResultAliasing:
    def test_mutating_a_result_cannot_reach_the_store(self, tmp_path,
                                                      cad_schema,
                                                      strategy):
        """Query results share decoded versions with the engine caches,
        so they must be read-only: a reader writing into one used to
        leak the write into the next update's plan."""
        from repro import DatabaseConfig, TemporalDatabase
        path = str(tmp_path / "alias")
        db = TemporalDatabase.create(path, cad_schema,
                                     DatabaseConfig(strategy=strategy))
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "wheel", "cost": 1.0},
                              valid_from=0)
        db.close()
        db = TemporalDatabase.open(path)
        (entry,) = db.query("SELECT ALL FROM Part VALID AT 5").entries
        with pytest.raises(TypeError):
            entry.molecule.root.version.values["name"] = "X"
        with pytest.raises(TypeError):
            entry.molecule.root.version.refs["contains.out"] = frozenset()
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=0)
        db.close()
        db = TemporalDatabase.open(path)
        try:
            version = db.engine.version_at(part, 5)
            assert dict(version.values) == {"name": "wheel", "cost": 2.0,
                                             "released": None}
        finally:
            db.close()


class TestWalSeekIndex:
    def test_read_all_after_lsn_with_seek_marks(self, tmp_path):
        from repro.txn.wal import LogRecordType, WriteAheadLog
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        body = {"pad": "x" * 512}
        lsns = [wal.append(LogRecordType.OPERATION, 1, dict(body))
                for _ in range(200)]
        for after in (0, lsns[0], lsns[57], lsns[-2], lsns[-1]):
            got = [r.lsn for r in wal.read_all(after)]
            assert got == [lsn for lsn in lsns if lsn > after]
        wal.close()

    def test_marks_cleared_on_truncate(self, tmp_path):
        from repro.txn.wal import LogRecordType, WriteAheadLog
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        for _ in range(50):
            wal.append(LogRecordType.OPERATION, 1, {"pad": "y" * 512})
        wal.truncate()
        lsn = wal.append(LogRecordType.OPERATION, 2, {"op": "after"})
        assert [r.lsn for r in wal.read_all(0)] == [lsn]
        wal.close()


def test_replica_apply_flushes_pending_indexes(tmp_path, cad_schema):
    """Replay on a replica drains the index write-behind buffers.

    No local transaction ever commits on a replica, so without the
    applier-side flush the pending sets grow for the life of the
    process and every index probe pays a linear merge over them.
    """
    from tests.test_replication import Cluster, wait_until

    cluster = Cluster(tmp_path, cad_schema, replicas=1)
    try:
        with cluster.pdb.transaction() as txn:
            atom = txn.insert("Part", {"name": "p", "cost": 1.0},
                              valid_from=0)
        with cluster.pdb.transaction() as txn:
            txn.update(atom, {"cost": 2.0}, valid_from=5)
        cluster.wait_caught_up()
        rdb = cluster.rdbs[0]
        wait_until(lambda: not rdb.indexes._pending_attr
                   and not rdb.indexes._pending_vt,
                   message="pending index buffers to drain")
        assert rdb.engine.version_at(atom, 10).values["cost"] == 2.0
    finally:
        cluster.close()
