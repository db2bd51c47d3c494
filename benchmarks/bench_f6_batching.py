"""R-F6 — The set-oriented read path: batching, caching, parallelism.

Three questions, one per section:

1. **Page touches per molecule** — building through the batched
   ``version_at_many`` path must touch fewer buffer pages than the
   atom-at-a-time baseline (a reader proxy that hides the batch methods),
   for every storage strategy.  This is the CI gate: batching that stops
   paying off fails the run.
2. **History reconstruction** — ``build_history``'s per-call boundary
   memo must cut ``engine.versions_scanned`` versus the per-slice rescan
   it replaced.
3. **Parallel construction** — ``build_many(parallelism=N)`` over a
   40-root workload must return exactly the serial result in the same
   order; wall-clock per thread count is recorded.  (On a single-core
   host under the GIL, CPU-bound construction does not speed up — the
   row exists to record the honest number, not to flatter it.)

Decode and live-set caches are cleared before each measured run so
page touches reflect the read path itself, not residue from a previous
measurement.
"""

import pytest

from benchmarks._util import (
    ALL_STRATEGIES,
    build_db,
    emit,
    header,
    pins,
    reset_counters,
)
from repro import MoleculeType
from repro.core.builder import MoleculeBuilder
from repro.workloads import WorkloadSpec, fanout_spec

PARALLELISMS = [1, 2, 4, 8]


class _UnbatchedReader:
    """Engine facade without the batch methods: the atom-at-a-time path."""

    def __init__(self, engine):
        self._engine = engine

    def atom_type_name(self, atom_id):
        return self._engine.atom_type_name(atom_id)

    def version_at(self, atom_id, at, tt=None):
        return self._engine.version_at(atom_id, at, tt)

    def all_versions(self, atom_id):
        return self._engine.all_versions(atom_id)


def _cold(db):
    """Clear the decode and live-set caches so pins measure the store
    read path, not residue (current-knowledge slices of atoms written
    since open are otherwise answered from the live sets)."""
    db.engine._decode_cache.clear()
    db.engine._live_sets.clear()
    db.engine._type_names.clear()


def test_f6_report_header(benchmark, capsys):
    header(capsys, "R-F6",
           "batched fetch vs atom-at-a-time, cached decode, parallelism")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    built = {}
    for strategy in ALL_STRATEGIES:
        path = tmp_path_factory.mktemp("f6") / f"db-{strategy.value}"
        built[strategy] = build_db(str(path), fanout_spec(fanout=16),
                                   strategy, buffer_pages=1024)
    yield built
    for db, _, _ in built.values():
        db.close()


# -- 1: page touches, batched vs unbatched ----------------------------------


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=[s.value for s in ALL_STRATEGIES])
def test_f6_page_touches(benchmark, capsys, databases, strategy):
    db, ids, groups = databases[strategy]
    mtype = MoleculeType.parse(
        "Part.contains.Component.supplied_by.Supplier", db.schema)
    part = ids[groups["Part"][0]]
    unbatched_builder = MoleculeBuilder(_UnbatchedReader(db.engine),
                                        db.metrics)

    def batched():
        _cold(db)
        return db.builder.build_at(part, mtype, 1)

    def unbatched():
        _cold(db)
        return unbatched_builder.build_at(part, mtype, 1)

    molecule = benchmark(batched)
    size = molecule.atom_count()

    _cold(db)
    reset_counters(db)
    db.builder.build_at(part, mtype, 1)
    batched_pins = pins(db)

    _cold(db)
    reset_counters(db)
    reference = unbatched_builder.build_at(part, mtype, 1)
    unbatched_pins = pins(db)

    assert molecule.same_composition_as(reference)
    emit(capsys,
         f"R-F6 | {strategy.value:>9} | atoms={size:>3} | "
         f"batched_pins={batched_pins:>4} "
         f"({batched_pins / size:.2f}/atom) | "
         f"unbatched_pins={unbatched_pins:>4} "
         f"({unbatched_pins / size:.2f}/atom)")
    # The CI gate: batching must reduce page touches per molecule.
    assert batched_pins < unbatched_pins, (
        f"{strategy.value}: batched read path touched {batched_pins} pages "
        f"vs {unbatched_pins} unbatched — batching stopped paying off")


# -- 2: build_history boundary memo -----------------------------------------


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=[s.value for s in ALL_STRATEGIES])
def test_f6_history_memo(benchmark, capsys, databases, strategy):
    from repro.temporal import Interval

    db, ids, groups = databases[strategy]
    mtype = MoleculeType.parse("Part.contains.Component", db.schema)
    part = ids[groups["Part"][0]]
    window = Interval(0, 8)

    def memoized():
        db.builder.history_memo_enabled = True
        return db.builder.build_history(part, mtype, window)

    def rescanning():
        db.builder.history_memo_enabled = False
        try:
            return db.builder.build_history(part, mtype, window)
        finally:
            db.builder.history_memo_enabled = True

    states = benchmark(memoized)

    before = db.metrics.value("engine.versions_scanned")
    memoized()
    memo_scans = db.metrics.value("engine.versions_scanned") - before

    before = db.metrics.value("engine.versions_scanned")
    baseline = rescanning()
    rescan_scans = db.metrics.value("engine.versions_scanned") - before

    assert [str(span) for span, _ in states] == [
        str(span) for span, _ in baseline]
    emit(capsys,
         f"R-F6 | {strategy.value:>9} | history states={len(states):>2} | "
         f"versions_scanned memo={memo_scans:>5} rescan={rescan_scans:>5}")
    assert memo_scans <= rescan_scans


# -- 3: parallel build_many ---------------------------------------------------


@pytest.fixture(scope="module")
def wide_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("f6wide") / "db"
    spec = WorkloadSpec(parts=48, fanout=8, suppliers=8,
                        versions_per_atom=2, seed=6, share_components=False)
    db, ids, groups = build_db(str(path), spec, buffer_pages=2048)
    yield db, [ids[handle] for handle in groups["Part"]]
    db.close()


@pytest.mark.parametrize("parallelism", PARALLELISMS)
def test_f6_parallel_build_many(benchmark, capsys, wide_db, parallelism):
    db, roots = wide_db
    mtype = MoleculeType.parse(
        "Part.contains.Component.supplied_by.Supplier", db.schema)
    serial = db.builder.build_many(roots, mtype, 1)

    def run():
        return db.builder.build_many(roots, mtype, 1,
                                     parallelism=parallelism)

    molecules = benchmark(run)
    assert [m.root.atom_id for m in molecules] == [
        m.root.atom_id for m in serial]
    for mine, theirs in zip(molecules, serial):
        assert mine.same_composition_as(theirs)
    mean_ms = benchmark.stats.stats.mean * 1000
    emit(capsys,
         f"R-F6 | parallel | roots={len(roots):>3} threads={parallelism} | "
         f"mean={mean_ms:8.2f} ms | identical_to_serial=yes")
