"""Unit tests for the process-pool substrate."""

import threading
import time

import numpy as np
import pytest

import repro.parallel.pool as pool_mod
from repro.parallel import parallel_map, resolve_jobs, split_evenly


def square_chunk(offset, chunk):
    return [(int(x) + offset) ** 2 for x in chunk]


class TestSplitEvenly:
    def test_partition_covers_input(self):
        chunks = split_evenly(np.arange(10), 3)
        assert np.array_equal(np.concatenate(chunks), np.arange(10))

    def test_no_empty_chunks(self):
        chunks = split_evenly(np.arange(3), 8)
        assert all(len(c) for c in chunks)
        assert len(chunks) == 3

    def test_empty_input(self):
        assert split_evenly(np.empty(0), 4) == []

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            split_evenly(np.arange(3), 0)


class TestResolveJobs:
    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_zero_means_cores(self):
        assert resolve_jobs(0) >= 1

    def test_negative_means_cores(self):
        assert resolve_jobs(-1) >= 1


class TestParallelMap:
    def test_serial(self):
        out = parallel_map(square_chunk, 1, np.arange(6))
        flat = [x for block in out for x in block]
        assert flat == [(i + 1) ** 2 for i in range(6)]

    def test_parallel_matches_serial(self):
        serial = parallel_map(square_chunk, 0, np.arange(25), n_jobs=1)
        para = parallel_map(square_chunk, 0, np.arange(25), n_jobs=2)
        assert [x for b in serial for x in b] == [x for b in para for x in b]

    def test_empty_items(self):
        assert parallel_map(square_chunk, 0, np.empty(0)) == []

    def test_kwargs_forwarded(self):
        def f(shared, chunk, *, scale):
            return [int(x) * scale + shared for x in chunk]

        out = parallel_map(f, 1, np.arange(4), fn_kwargs={"scale": 10})
        assert [x for b in out for x in b] == [1, 11, 21, 31]


def take_rows(payload, chunk):
    return [payload[int(i)] for i in chunk]


def explode(payload, chunk):
    raise RuntimeError("worker exploded")


def slow_take(payload, chunk):
    time.sleep(0.05)
    return take_rows(payload, chunk)


class TestSharedPayload:
    """The payload reaches forked workers through inherited module
    state, staged under a per-call token."""

    def test_shared_payload_matches_serial(self):
        payload = np.arange(40, dtype=np.float64) ** 2
        serial = parallel_map(take_rows, payload, np.arange(40), n_jobs=1)
        forked = parallel_map(take_rows, payload, np.arange(40), n_jobs=2)
        assert [x for b in forked for x in b] == [x for b in serial for x in b]
        assert pool_mod._SHARED_MAP == {}

    def test_staging_cleared_when_worker_raises(self):
        with pytest.raises(RuntimeError, match="worker exploded"):
            parallel_map(explode, np.arange(8), np.arange(8), n_jobs=2)
        assert pool_mod._SHARED_MAP == {}

    def test_concurrent_maps_keep_their_own_payloads(self):
        payloads = {key: [f"{key}{i}" for i in range(12)] for key in "ab"}
        barrier = threading.Barrier(len(payloads))
        results: dict[str, list] = {}
        errors: list[BaseException] = []

        def run(key: str) -> None:
            try:
                barrier.wait(timeout=10)
                out = parallel_map(slow_take, payloads[key], np.arange(12), n_jobs=2)
                results[key] = [x for b in out for x in b]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(k,)) for k in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors, errors
        assert results == payloads
        assert pool_mod._SHARED_MAP == {}
