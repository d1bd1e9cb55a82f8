"""Concurrency and corruption-recovery tests for the on-disk stores.

The ResultStore's contract under concurrent writers is *atomic visibility*:
a reader may see the previous entry or the new one, never a torn mix —
writes go through a temp file plus ``os.replace`` on the same filesystem.
These tests hammer one key from multiple processes while a reader polls,
and exercise the corrupt-entry -> recompute -> rewrite path directly.

The TraceStore's index is a read-modify-write of one file, so its contract
is *no lost updates*: concurrent puts of different traces all end up
indexed.

The two stores have opposite corruption policies.  A corrupt ResultStore
entry is a miss that is counted, deleted and recomputed; a corrupt
TraceStore object or index is a ConfigurationError naming the file, which
the CLI reports as a message, because an ingested trace cannot be
recomputed.
"""

import multiprocessing
import pathlib
import threading

import pytest

from repro.bench.datasets import TimedPoint
from repro.machine.systems import tiny_cluster
from repro.runtime import PointSpec, ResultStore, SweepExecutor, run_point


def _spec() -> PointSpec:
    return PointSpec(
        cluster=tiny_cluster(num_nodes=2), ppn=4, num_nodes=2,
        engine="simulate", algorithm="pairwise", msg_bytes=16,
    )


def _hammer_store(cache_dir: str, worker: int, rounds: int) -> None:
    """Write ``rounds`` distinct valid entries for the same key."""
    store = ResultStore(cache_dir)
    spec = _spec()
    for i in range(rounds):
        store.put(spec, TimedPoint(seconds=float(worker * rounds + i + 1),
                                   phases={"inter-node alltoall": float(i)}))


class TestConcurrentWriters:
    def test_two_processes_writing_same_key_never_corrupt_the_store(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = _spec()
        store = ResultStore(cache_dir)
        rounds = 200
        # fork keeps the helper picklable regardless of how pytest imported
        # this module; the store contract itself is start-method agnostic.
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_hammer_store, args=(cache_dir, worker, rounds))
            for worker in (0, 1)
        ]
        for proc in writers:
            proc.start()
        # Poll while both writers race on the same key: every observed value
        # must be a fully-formed entry one of them wrote (never a torn read,
        # which would surface as None once the file first exists).  Whether
        # the reader overlaps the writers is scheduler-dependent, so only
        # the validity of what it sees is asserted, never an overlap count.
        valid = {float(w * rounds + i + 1) for w in (0, 1) for i in range(rounds)}
        while any(proc.is_alive() for proc in writers):
            point = store.get(spec)
            if point is not None:
                assert point.seconds in valid
        for proc in writers:
            proc.join()
            assert proc.exitcode == 0
        final = store.get(spec)
        assert final is not None and final.seconds in valid
        assert len(store) == 1

    def test_parallel_executors_sharing_a_store_agree(self, tmp_path):
        """Two executor pools writing the same cache directory converge on
        identical results (the workers compute deterministic points)."""
        store_a = ResultStore(tmp_path / "cache")
        store_b = ResultStore(tmp_path / "cache")
        specs = [_spec()]
        with SweepExecutor(jobs=2, store=store_a) as first:
            points_a = first.run(specs)
        with SweepExecutor(jobs=2, store=store_b) as second:
            points_b = second.run(specs)
            assert second.cached_points == 1 and second.executed_points == 0
        assert points_a == points_b


class TestCorruptedEntryRecovery:
    def test_corrupt_entry_reads_as_miss_then_rewrites_clean(self, tmp_path):
        """The direct store-level recompute path: corrupt -> miss ->
        recompute -> put -> clean hit (no executor involved)."""
        store = ResultStore(tmp_path / "cache")
        spec = _spec()
        first = run_point(spec)
        store.put(spec, first)
        path = store.path_for(spec)

        for corruption in ("", "{", '{"result": {"seconds": []}}', "\x00" * 32):
            path.write_text(corruption)
            assert store.get(spec) is None, f"corruption {corruption!r} must read as a miss"
            recomputed = run_point(spec)
            store.put(spec, recomputed)
            assert store.get(spec) == first == recomputed

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda clean: b"\xef\xbb\xbf" + clean, id="utf8-bom"),
        pytest.param(lambda clean: clean.decode("utf-8").encode("utf-16"), id="utf16"),
        pytest.param(lambda clean: clean[:16] + b"\xff\xfe\x80" + clean[16:],
                     id="invalid-utf8"),
        pytest.param(lambda clean: b"[" + clean.rstrip() + b"]\n", id="top-level-list"),
    ])
    def test_byte_level_corruption_is_a_miss_that_the_next_sweep_rewrites(
            self, tmp_path, corrupt):
        """Entries are strict UTF-8 JSON objects.  A byte-order mark or UTF-16
        text would parse if the bytes went to ``json.loads`` undecoded, but
        ``put`` never writes them, so they are corruption like any other."""
        store = ResultStore(tmp_path / "cache")
        spec = _spec()
        with SweepExecutor(jobs=1, store=store) as executor:
            [first] = executor.run([spec])
        path = store.path_for(spec)
        clean = path.read_bytes()
        path.write_bytes(corrupt(clean))

        before = store.stats()
        assert store.get(spec) is None
        assert store.stats() == {**before, "corrupt": before["corrupt"] + 1}
        assert not path.exists()

        with SweepExecutor(jobs=1, store=store) as executor:
            assert executor.run([spec]) == [first]
            assert executor.executed_points == 1
        assert path.read_bytes() == clean
        assert store.get(spec) == first

    def test_truncated_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = _spec()
        store.put(spec, TimedPoint(seconds=2.5))
        path = store.path_for(spec)
        whole = path.read_text()
        path.write_text(whole[: len(whole) // 2])
        assert store.get(spec) is None

    def test_unwritable_tmp_cleanup_does_not_leave_partial_entry(self, tmp_path, monkeypatch):
        """If the atomic rename step fails, no entry (partial or otherwise)
        may become visible under the key."""
        import os as os_module

        import repro.runtime.store as store_module

        store = ResultStore(tmp_path / "cache")
        spec = _spec()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.os, "replace", failing_replace)
        with pytest.raises(OSError):
            store.put(spec, TimedPoint(seconds=1.0))
        monkeypatch.setattr(store_module.os, "replace", os_module.replace)
        assert store.get(spec) is None
        assert list((tmp_path / "cache").rglob("*.tmp")) == []

    def test_trace_store_failed_write_leaves_nothing_behind(self, tmp_path, monkeypatch):
        """The trace store shares the atomic-write helper: a failed rename
        propagates and leaves neither an object nor a temp file."""
        import os as os_module

        from repro.ingest import TraceStore
        from repro.workloads import Phase, PhasedWorkload
        from repro.workloads.generators import uniform

        store = TraceStore(tmp_path / "traces")
        workload = PhasedWorkload((Phase("p0", uniform(4, 8)),))

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os_module, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            store.put(workload, name="moe")
        monkeypatch.undo()
        assert workload.digest() not in store
        assert len(store) == 0
        assert list((tmp_path / "traces").rglob("*.tmp")) == []


def _trace_workload(nbytes: int):
    from repro.workloads import Phase, PhasedWorkload
    from repro.workloads.generators import uniform

    return PhasedWorkload((Phase("p0", uniform(4, nbytes)),))


def _put_after_barrier(root: str, nbytes: int, name: str, barrier) -> None:
    """Put one trace, pausing at the index write until the other writer arrives.

    Without an index lock both writers have read the index by the time the
    barrier releases them, so the later write drops the earlier entry.  With
    the lock the second writer cannot reach the barrier while the first holds
    the lock; the first times out and writes, then the second reads the
    updated index.
    """
    from repro.ingest import TraceStore

    write_index = TraceStore._write_index

    def paused_write(self, index):
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        write_index(self, index)

    TraceStore._write_index = paused_write
    TraceStore(root).put(_trace_workload(nbytes), name=name)


def _put_many(root: str, worker: int, count: int) -> None:
    from repro.ingest import TraceStore

    store = TraceStore(root)
    for i in range(count):
        store.put(_trace_workload(1000 * worker + i + 1), name=f"w{worker}-{i}")


class TestTraceStoreIndexLock:
    def test_two_writers_reading_the_index_together_lose_no_entry(self, tmp_path):
        from repro.ingest import TraceStore

        root = str(tmp_path / "traces")
        TraceStore(root)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2, timeout=2.0)
        writers = [
            ctx.Process(target=_put_after_barrier, args=(root, nbytes, name, barrier))
            for nbytes, name in ((8, "first"), (16, "second"))
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=60)
            assert not proc.is_alive() and proc.exitcode == 0
        store = TraceStore(root)
        assert len(store) == 2
        assert store.resolve("first") == _trace_workload(8).digest()
        assert store.resolve("second") == _trace_workload(16).digest()

    def test_parallel_named_puts_are_all_indexed(self, tmp_path):
        from repro.ingest import TraceStore

        root = str(tmp_path / "traces")
        TraceStore(root)
        workers, count = 4, 12
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_put_many, args=(root, w, count)) for w in range(workers)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert not proc.is_alive() and proc.exitcode == 0
        store = TraceStore(root)
        assert len(store) == workers * count
        for w in range(workers):
            for i in range(count):
                key = _trace_workload(1000 * w + i + 1).digest()
                assert store.resolve(f"w{w}-{i}") == key
                assert store.get(key) == _trace_workload(1000 * w + i + 1)


SAMPLE_TRACE = str(
    pathlib.Path(__file__).resolve().parents[2]
    / "examples" / "traces" / "moe_routing_sample.jsonl"
)


@pytest.fixture
def ingested_store(tmp_path, capsys):
    """A trace store holding the sample trace under the name ``moe``."""
    from repro.cli import main

    root = tmp_path / "ts"
    assert main(["ingest", SAMPLE_TRACE, "--store", str(root), "--name", "moe"]) == 0
    capsys.readouterr()
    return root


class TestTraceStoreCorruption:
    def test_corrupt_object_file_is_a_message_naming_it(self, ingested_store):
        from repro.cli import main

        [object_path] = (ingested_store / "objects").glob("*.json")
        object_path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "--id", "adaptive", "--phases", f"store:{ingested_store}:moe"])
        message = str(excinfo.value)
        assert f"trace store entry {object_path} is unreadable" in message
        # An ingested trace cannot be recomputed: the file is kept, not deleted.
        assert object_path.read_bytes() == b"\xff\xfe\x00"

    @pytest.mark.parametrize("index, problem", [
        pytest.param(b"\xff\xfe", "is unreadable", id="invalid-utf8"),
        pytest.param(b"[]", "is malformed", id="top-level-list"),
        pytest.param(b'{"version": 1, "entries": []}', "is malformed", id="entries-list"),
        pytest.param(b'{"version": 1, "entries": {"k": 3}}', "is malformed",
                     id="entry-not-object"),
    ])
    def test_corrupt_index_is_a_message_naming_it(self, ingested_store, index, problem):
        from repro.cli import main

        index_path = ingested_store / "index.json"
        index_path.write_bytes(index)
        with pytest.raises(SystemExit) as excinfo:
            main(["ingest", "--list", "--store", str(ingested_store)])
        assert f"trace store index {index_path} {problem}" in str(excinfo.value)
