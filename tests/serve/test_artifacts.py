"""Artifact store: round-trip fidelity and integrity failure modes.

A serving process trusts an artifact with its routes, so every way a
bundle can lie — truncation, bit rot, version skew, wrong source graph,
missing fields — must raise a clear :class:`ArtifactError` subclass
instead of silently serving wrong answers.
"""

import numpy as np
import pytest

from repro.core import dijkstra
from repro.core.solver import PreprocessedSSSP
from repro.preprocess import build_kr_graph
from repro.serve import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    ArtifactCorruptError,
    ArtifactError,
    ArtifactGraphMismatchError,
    ArtifactVersionError,
    load_artifact,
    load_solver,
    save_artifact,
)
from repro.serve.artifacts import _ARRAY_FIELDS, _META_FIELDS, _payload_hash

from tests.helpers import random_connected_graph

K, RHO = 2, 8


@pytest.fixture(scope="module")
def case():
    g = random_connected_graph(70, 160, seed=21, weight_high=40)
    return g, build_kr_graph(g, K, RHO, heuristic="dp")


@pytest.fixture()
def saved(case, tmp_path):
    g, pre = case
    path = tmp_path / "kr.npz"
    save_artifact(path, pre)
    return g, pre, path


def _restamp_payload_hash(fields):
    """Set ``fields["payload_hash"]`` to the checksum of the (possibly
    edited) bundle fields, reading the format from the artifact module."""
    meta = tuple(cast(fields[name]) for name, cast in _META_FIELDS)
    fields["payload_hash"] = _payload_hash(
        {name: fields[name] for name in _ARRAY_FIELDS}, meta
    )


class TestRoundTrip:
    def test_every_field_restored(self, saved):
        g, pre, path = saved
        back = load_artifact(path)
        assert back.graph == pre.graph
        assert np.array_equal(back.radii, pre.radii)
        assert (back.k, back.rho, back.heuristic) == (pre.k, pre.rho, pre.heuristic)
        assert back.added_edges == pre.added_edges
        assert back.new_edges == pre.new_edges
        assert back.source_hash == pre.source_hash == g.content_hash()

    def test_round_trips_through_solver_facade(self, saved):
        """The whole point: a warm-started facade answers exactly like
        the one that paid for preprocessing."""
        g, pre, path = saved
        cold = PreprocessedSSSP.from_preprocessed(pre)
        warm = PreprocessedSSSP.from_preprocessed(load_artifact(path))
        for s in (0, 13, 42):
            a, b = cold.solve(s), warm.solve(s)
            assert np.array_equal(a.dist, b.dist)
            assert (a.steps, a.substeps) == (b.steps, b.substeps)
            assert np.array_equal(a.dist, dijkstra(g, s).dist)

    def test_load_solver_one_call(self, saved):
        g, _pre, path = saved
        sp = load_solver(path, expect_graph=g)
        assert np.array_equal(sp.solve(7).dist, dijkstra(g, 7).dist)
        assert sp.queries_answered == 1

    def test_exact_path_no_suffix_appended(self, case, tmp_path):
        _g, pre = case
        path = tmp_path / "bundle.artifact"  # no .npz suffix
        assert save_artifact(path, pre) == path
        assert path.exists()
        assert load_artifact(path).graph == pre.graph

    def test_preprocess_result_save_hook(self, case, tmp_path):
        """PreprocessResult.save is the pipeline-side export hook."""
        _g, pre = case
        path = tmp_path / "hook.npz"
        pre.save(path)
        assert load_artifact(path).graph == pre.graph

    def test_bundle_holds_exactly_the_format_fields(self, saved):
        """A bundle is the current version's fields and nothing else:
        no field outside the checksummed arrays and metadata."""
        _g, _pre, path = saved
        with np.load(path, allow_pickle=False) as npz:
            assert int(npz["version"]) == ARTIFACT_VERSION == 4
            assert set(npz.files) == {
                "format",
                "version",
                "payload_hash",
                *_ARRAY_FIELDS,
                *(name for name, _cast in _META_FIELDS),
            }

    def test_expect_graph_accepts_the_right_graph(self, saved):
        g, _pre, path = saved
        load_artifact(path, expect_graph=g)  # must not raise


class TestGraphMismatch:
    def test_different_weights_rejected(self, saved, tmp_path):
        g, _pre, path = saved
        from repro.graphs.build import reweighted

        other = reweighted(g, np.asarray(g.weights) + 1.0)
        with pytest.raises(ArtifactGraphMismatchError, match="different graph"):
            load_artifact(path, expect_graph=other)

    def test_different_topology_rejected(self, saved):
        _g, _pre, path = saved
        other = random_connected_graph(70, 160, seed=99)
        with pytest.raises(ArtifactGraphMismatchError):
            load_solver(path, expect_graph=other)

    def test_mismatch_is_an_artifact_error(self, saved):
        """One except-clause catches every artifact failure mode."""
        _g, _pre, path = saved
        other = random_connected_graph(10, 20, seed=1)
        with pytest.raises(ArtifactError):
            load_artifact(path, expect_graph=other)


class TestVersionMismatch:
    def _resave_with(self, path, **overrides):
        with np.load(path, allow_pickle=False) as npz:
            fields = {name: npz[name] for name in npz.files}
        fields.update(overrides)
        with open(path, "wb") as fh:
            np.savez(fh, **fields)

    def test_future_version_rejected(self, saved):
        _g, _pre, path = saved
        self._resave_with(path, version=np.int64(ARTIFACT_VERSION + 1))
        with pytest.raises(ArtifactVersionError, match="re-run preprocessing"):
            load_artifact(path)

    def test_missing_version_is_corrupt(self, saved):
        _g, _pre, path = saved
        with np.load(path, allow_pickle=False) as npz:
            fields = {n: npz[n] for n in npz.files if n != "version"}
        with open(path, "wb") as fh:
            np.savez(fh, **fields)
        with pytest.raises(ArtifactCorruptError, match="version"):
            load_artifact(path)

    def test_wrong_format_magic_rejected(self, saved):
        _g, _pre, path = saved
        self._resave_with(path, format="some-other-format")
        with pytest.raises(ArtifactCorruptError, match=ARTIFACT_FORMAT):
            load_artifact(path)


class TestRetiredVersions:
    """Only the current bundle version is read.  A version-1 bundle (no
    ``perm``), version-2 bundle (``preferred_engine``, no ``perm``) or
    version-3 bundle (``perm`` and ``preferred_engine``) must ask for
    re-preprocessing: it never loads, and it is not reported as
    corruption either."""

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_bundle_raises_version_error(self, saved, version):
        g, _pre, path = saved
        later = {"reorder", "locality_before", "locality_after", "perm"}
        with np.load(path, allow_pickle=False) as npz:
            fields = {
                n: npz[n] for n in npz.files if version == 3 or n not in later
            }
        if version > 1:
            fields["preferred_engine"] = "rho"
        fields["version"] = np.int64(version)
        with open(path, "wb") as fh:
            np.savez(fh, **fields)
        for mmap in (False, True):
            with pytest.raises(ArtifactVersionError, match="re-run preprocessing"):
                load_artifact(path, expect_graph=g, mmap=mmap)


class TestServedEngine:
    @pytest.mark.parametrize("surface", ["cold", "artifact", "sharded"])
    def test_auto_serves_vectorized_everywhere(self, saved, surface):
        """``auto`` is ``vectorized`` on every serving surface — cold,
        warm-started from an artifact, and sharded — and no ``stats()``
        payload names a stored engine."""
        import json

        from repro.engine import available_engines
        from repro.serve import RoutingService, ShardRouter

        g, _pre, path = saved
        build = {
            "cold": lambda: RoutingService(g, k=K, rho=RHO),
            "artifact": lambda: RoutingService.from_artifact(path, expect_graph=g),
            "sharded": lambda: ShardRouter(g, n_shards=3, k=K, rho=RHO),
        }
        service = build[surface]()
        service.distances(3)
        stats = service.stats()
        assert stats["engine"] == "vectorized"
        assert set(stats["engines"]) == set(available_engines())
        assert all(isinstance(d, str) for d in stats["engines"].values())
        assert "preferred_engine" not in json.dumps(stats)  # nor per_shard

    def test_loaded_solver_resolves_auto_to_vectorized(self, saved):
        """A solver restored from a bundle resolves ``auto`` as a cold
        one does, passes explicit names through, and answers exactly."""
        g, _pre, path = saved
        sp = load_solver(path, expect_graph=g)
        assert sp.resolve_engine("auto") == "vectorized"
        assert sp.resolve_engine("dijkstra") == "dijkstra"
        auto = sp.solve(3, track_parents=True)
        ref = sp.solve(3, engine="vectorized", track_parents=True)
        assert np.array_equal(auto.dist, ref.dist)
        assert np.array_equal(auto.parent, ref.parent)
        assert np.array_equal(auto.dist, dijkstra(g, 3).dist)


class TestVersion3Reorder:
    """Bundles carry the locality permutation (since version 3)."""

    @pytest.fixture(scope="class")
    def reordered(self, case):
        g, _pre = case
        return g, build_kr_graph(g, K, RHO, heuristic="dp", reorder="rcm")

    @staticmethod
    def _rewrite(path, fields):
        with open(path, "wb") as fh:
            np.savez(fh, **fields)

    @staticmethod
    def _load_fields(path):
        with np.load(path, allow_pickle=False) as npz:
            return {n: npz[n] for n in npz.files}

    @classmethod
    def _restamp_hash(cls, path, fields):
        """Recompute a self-consistent digest (keyless checksum — a
        determined writer can always do this) so loads reach the
        structural perm validation instead of stopping at the checksum."""
        _restamp_payload_hash(fields)
        cls._rewrite(path, fields)

    def test_v3_round_trips_perm_and_locality(self, reordered, tmp_path):
        g, pre = reordered
        path = tmp_path / "re.npz"
        save_artifact(path, pre)
        back = load_artifact(path, expect_graph=g)
        assert back.reorder == "rcm"
        assert np.array_equal(back.perm, pre.perm)
        assert back.locality_before == pre.locality_before
        assert back.locality_after == pre.locality_after
        assert back.graph == pre.graph

    def test_identity_perm_collapses_on_load(self, saved):
        """A natural-order bundle stores the identity perm but loads
        with ``perm=None`` so serving skips the translation layer."""
        _g, _pre, path = saved
        with np.load(path, allow_pickle=False) as npz:
            assert "perm" in npz.files  # v3 always materializes it
        back = load_artifact(path)
        assert back.perm is None
        assert back.reorder == "natural"

    def test_reordered_artifact_serves_input_ids(self, reordered, tmp_path):
        g, pre = reordered
        path = tmp_path / "re.npz"
        save_artifact(path, pre)
        for mmap in (False, True):
            sp = load_solver(path, expect_graph=g, mmap=mmap)
            for s in (0, 13, 42):
                assert np.array_equal(sp.solve(s).dist, dijkstra(g, s).dist)

    def test_missing_perm_is_corrupt(self, reordered, tmp_path):
        _g, pre = reordered
        path = tmp_path / "re.npz"
        save_artifact(path, pre)
        fields = {
            n: a for n, a in self._load_fields(path).items() if n != "perm"
        }
        self._rewrite(path, fields)
        with pytest.raises(ArtifactCorruptError, match="perm"):
            load_artifact(path)

    def test_tampered_perm_fails_checksum(self, reordered, tmp_path):
        _g, pre = reordered
        path = tmp_path / "re.npz"
        save_artifact(path, pre)
        fields = self._load_fields(path)
        perm = fields["perm"].copy()
        perm[0], perm[1] = perm[1], perm[0]
        fields["perm"] = perm
        self._rewrite(path, fields)
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            load_artifact(path)

    def test_non_permutation_perm_rejected(self, reordered, tmp_path):
        """A checksum-consistent bundle whose perm has a duplicate id
        must still refuse to load — it would answer for wrong vertices."""
        _g, pre = reordered
        path = tmp_path / "re.npz"
        save_artifact(path, pre)
        fields = self._load_fields(path)
        perm = fields["perm"].copy()
        perm[1] = perm[0]  # duplicate → some vertex unreachable
        fields["perm"] = perm
        self._restamp_hash(path, fields)
        with pytest.raises(ArtifactCorruptError, match="not a permutation"):
            load_artifact(path)

    def test_out_of_range_perm_rejected(self, reordered, tmp_path):
        _g, pre = reordered
        path = tmp_path / "re.npz"
        save_artifact(path, pre)
        fields = self._load_fields(path)
        perm = fields["perm"].copy()
        perm[0] = -1
        fields["perm"] = perm
        self._restamp_hash(path, fields)
        with pytest.raises(ArtifactCorruptError, match="not a permutation"):
            load_artifact(path)

    def test_truncated_perm_rejected(self, reordered, tmp_path):
        _g, pre = reordered
        path = tmp_path / "re.npz"
        save_artifact(path, pre)
        fields = self._load_fields(path)
        fields["perm"] = fields["perm"][:-3].copy()
        self._restamp_hash(path, fields)
        with pytest.raises(ArtifactCorruptError, match="not a permutation"):
            load_artifact(path)

    def test_mmap_reordered_round_trip(self, reordered, tmp_path):
        g, pre = reordered
        path = tmp_path / "re.npz"
        save_artifact(path, pre)
        mapped = load_artifact(path, expect_graph=g, mmap=True)
        assert np.array_equal(mapped.perm, pre.perm)
        assert mapped.graph == pre.graph

    def test_service_stats_surface_reorder(self, reordered, tmp_path):
        from repro.serve import RoutingService

        g, pre = reordered
        path = tmp_path / "re.npz"
        save_artifact(path, pre)
        svc = RoutingService.from_artifact(path, expect_graph=g)
        stats = svc.stats()
        assert stats["reorder"] == "rcm"
        assert stats["locality"]["after"] < stats["locality"]["before"]

    def test_unmeasured_locality_surfaces_null(self, case, tmp_path):
        """An artifact without a locality measurement (nan) surfaces
        ``null`` locality at GET /stats — nan would be invalid JSON."""
        import dataclasses
        import json

        from repro.serve import RoutingService

        g, pre = case
        path = tmp_path / "unmeasured.npz"
        nan = float("nan")
        save_artifact(
            path,
            dataclasses.replace(pre, locality_before=nan, locality_after=nan),
        )
        svc = RoutingService.from_artifact(path, expect_graph=g)
        stats = svc.stats()
        assert stats["locality"] == {"before": None, "after": None}
        json.dumps(stats)  # must be JSON-serializable end to end


class TestCorruption:
    def test_truncated_file(self, saved):
        _g, _pre, path = saved
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ArtifactCorruptError, match="corrupt or truncated"):
            load_artifact(path)

    def test_flipped_payload_bytes(self, saved):
        """Bit rot in the middle of the bundle must not load."""
        _g, _pre, path = saved
        raw = bytearray(path.read_bytes())
        mid = len(raw) // 2
        for i in range(mid, mid + 64):
            raw[i] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorruptError):
            load_artifact(path)

    def test_junk_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not an npz bundle at all")
        with pytest.raises(ArtifactCorruptError):
            load_artifact(path)

    def test_missing_file_is_file_not_found(self, tmp_path):
        """A missing path is an ordinary FileNotFoundError, not a
        corruption claim."""
        with pytest.raises(FileNotFoundError):
            load_artifact(tmp_path / "never-written.npz")

    def test_missing_required_field(self, saved):
        _g, _pre, path = saved
        with np.load(path, allow_pickle=False) as npz:
            fields = {n: npz[n] for n in npz.files if n != "radii"}
        with open(path, "wb") as fh:
            np.savez(fh, **fields)
        with pytest.raises(ArtifactCorruptError, match="radii"):
            load_artifact(path)

    def test_tampered_array_fails_checksum(self, saved):
        """Altering stored arrays (without breaking the zip container)
        trips the payload checksum."""
        _g, pre, path = saved
        with np.load(path, allow_pickle=False) as npz:
            fields = {n: npz[n] for n in npz.files}
        radii = fields["radii"].copy()
        radii[0] += 1.0  # a subtly wrong radius would mis-schedule steps
        fields["radii"] = radii
        with open(path, "wb") as fh:
            np.savez(fh, **fields)
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            load_artifact(path)

    def test_checksum_consistent_but_invalid_arrays_rejected(self, saved):
        """A writer that recomputes the (keyless) checksum over bad CSR
        arrays still must not load: negative arc heads would gather
        wrong-but-valid neighbors via numpy wraparound."""
        _g, _pre, path = saved
        with np.load(path, allow_pickle=False) as npz:
            fields = {n: npz[n] for n in npz.files}
        indices = fields["indices"].copy()
        indices[0] = -3
        fields["indices"] = indices
        _restamp_payload_hash(fields)
        with open(path, "wb") as fh:
            np.savez(fh, **fields)
        with pytest.raises(ArtifactCorruptError, match="out-of-range"):
            load_artifact(path)

    def test_tampered_metadata_fails_checksum(self, saved):
        _g, _pre, path = saved
        with np.load(path, allow_pickle=False) as npz:
            fields = {n: npz[n] for n in npz.files}
        fields["k"] = np.int64(int(fields["k"]) + 3)
        with open(path, "wb") as fh:
            np.savez(fh, **fields)
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            load_artifact(path)


class TestMmap:
    """``load_artifact(..., mmap=True)``: the near-RAM-size warm-start
    knob — arrays stay disk-backed, every integrity check still runs."""

    @staticmethod
    def _is_mapped(arr: np.ndarray) -> bool:
        """The CSR constructor may wrap the memmap in a base-class view;
        mapped means a memmap sits somewhere on the base chain."""
        while arr is not None:
            if isinstance(arr, np.memmap):
                return True
            arr = arr.base
        return False

    def test_mmap_round_trip_bit_identical(self, saved):
        g, pre, path = saved
        eager = load_artifact(path, expect_graph=g)
        mapped = load_artifact(path, expect_graph=g, mmap=True)
        assert mapped.graph == eager.graph == pre.graph
        assert np.array_equal(mapped.radii, eager.radii)
        assert (mapped.k, mapped.rho, mapped.heuristic) == (
            eager.k,
            eager.rho,
            eager.heuristic,
        )
        assert mapped.source_hash == eager.source_hash

    def test_mmap_arrays_are_disk_backed(self, saved):
        _g, _pre, path = saved
        mapped = load_artifact(path, mmap=True)
        for arr in (
            mapped.graph.indptr,
            mapped.graph.indices,
            mapped.graph.weights,
            mapped.radii,
        ):
            assert self._is_mapped(np.asarray(arr)), "array was materialized"
        eager = load_artifact(path)
        for arr in (eager.graph.indptr, eager.graph.weights):
            assert not self._is_mapped(np.asarray(arr))

    def test_mmap_solver_answers_match(self, saved):
        """Queries over a memory-mapped bundle are bit-identical to the
        eagerly-loaded (and original) preprocessing."""
        g, _pre, path = saved
        sp = load_solver(path, expect_graph=g, mmap=True)
        for s in (0, 13, 42):
            assert np.array_equal(sp.solve(s).dist, dijkstra(g, s).dist)

    def test_mmap_checksum_still_verifies(self, saved):
        """mmap must not skip integrity: a tampered array trips the
        payload checksum exactly like the eager path."""
        _g, _pre, path = saved
        with np.load(path, allow_pickle=False) as npz:
            fields = {n: npz[n] for n in npz.files}
        radii = fields["radii"].copy()
        radii[0] += 1.0
        fields["radii"] = radii
        with open(path, "wb") as fh:
            np.savez(fh, **fields)
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            load_artifact(path, mmap=True)

    def test_mmap_truncated_file_rejected(self, saved):
        _g, _pre, path = saved
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ArtifactCorruptError):
            load_artifact(path, mmap=True)

    def test_mmap_graph_mismatch_rejected(self, saved):
        _g, _pre, path = saved
        other = random_connected_graph(70, 160, seed=99)
        with pytest.raises(ArtifactGraphMismatchError):
            load_artifact(path, expect_graph=other, mmap=True)

    def test_mmap_arrays_read_only(self, saved):
        _g, _pre, path = saved
        mapped = load_artifact(path, mmap=True)
        with pytest.raises(ValueError):
            mapped.graph.weights[0] = 99.0

    def test_routing_service_mmap_boot(self, saved):
        """RoutingService.from_artifact(..., mmap=True): the serving
        entry point for the knob."""
        from repro.serve import RoutingService

        g, _pre, path = saved
        svc = RoutingService.from_artifact(
            path, expect_graph=g, mmap=True, cache_capacity=8
        )
        route = svc.route(0, 13)
        assert route.distance == dijkstra(g, 0).dist[13]


class TestSourceHashHook:
    def test_build_kr_graph_records_source_hash(self):
        g = random_connected_graph(25, 60, seed=5)
        pre = build_kr_graph(g, 1, 4, heuristic="full")
        assert pre.source_hash == g.content_hash()

    def test_content_hash_is_content_only(self):
        g = random_connected_graph(25, 60, seed=5)
        h = random_connected_graph(25, 60, seed=5)
        assert g is not h
        assert g.content_hash() == h.content_hash()
        assert g.content_hash() != random_connected_graph(25, 60, seed=6).content_hash()
