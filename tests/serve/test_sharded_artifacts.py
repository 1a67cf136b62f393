"""Sharded bundle persistence: round-trip, mmap, and member corruption.

The bundle is a directory — a checksummed manifest referencing one v4
artifact per shard plus the overlay and topology members.  The
acceptance bar: save → load → mmap-load round-trips to identical
serving answers, and corrupting *any* member (a shard artifact, the
overlay, the topology, the manifest itself) is detected as
:class:`ArtifactCorruptError` before anything is served.
"""

import json

import numpy as np
import pytest

from repro.preprocess import build_sharded_kr_graph
from repro.serve import (
    ARTIFACT_VERSION,
    SHARDED_ARTIFACT_VERSION,
    ArtifactCorruptError,
    ArtifactGraphMismatchError,
    ArtifactVersionError,
    ShardRouter,
    load_sharded_artifact,
    save_sharded_artifact,
)

from tests.helpers import random_connected_graph


@pytest.fixture(scope="module")
def graph():
    return random_connected_graph(90, 200, seed=21, weight_high=40)


@pytest.fixture(scope="module")
def sharded(graph):
    return build_sharded_kr_graph(graph, 2, 10, n_shards=3, partition="ldd")


@pytest.fixture()
def bundle(tmp_path, sharded):
    path = tmp_path / "bundle"
    save_sharded_artifact(path, sharded)
    return path


def _flip_byte(path, offset=-100):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


class TestRoundTrip:
    def test_record_round_trips(self, bundle, sharded, graph):
        back = load_sharded_artifact(bundle, expect_graph=graph)
        assert back.n_shards == sharded.n_shards
        assert np.array_equal(back.labels, sharded.labels)
        assert np.array_equal(back.overlay_vertices, sharded.overlay_vertices)
        assert np.array_equal(
            back.overlay_graph.weights, sharded.overlay_graph.weights
        )
        assert (back.k, back.rho, back.heuristic) == (
            sharded.k,
            sharded.rho,
            sharded.heuristic,
        )
        assert back.partition_method == sharded.partition_method
        assert back.edge_cut == sharded.edge_cut
        assert back.source_hash == graph.content_hash()
        for s in range(back.n_shards):
            assert np.array_equal(
                back.shard_vertices[s], sharded.shard_vertices[s]
            )
            assert np.array_equal(
                back.shards[s].graph.weights, sharded.shards[s].graph.weights
            )
            assert np.array_equal(back.shards[s].radii, sharded.shards[s].radii)

    def test_served_answers_identical(self, bundle, sharded, graph):
        fresh = ShardRouter(sharded=sharded)
        warm = ShardRouter.from_artifact(bundle, expect_graph=graph)
        for s in (0, 33, 88):
            assert np.array_equal(fresh.distances(s), warm.distances(s))
        a, b = fresh.route(0, 88), warm.route(0, 88)
        assert a.distance == b.distance and a.path == b.path

    def test_save_method_on_result(self, tmp_path, sharded):
        path = sharded.save(tmp_path / "via-method")
        loaded = load_sharded_artifact(tmp_path / "via-method")
        assert loaded.n_shards == sharded.n_shards

    @staticmethod
    def _is_mapped(arr) -> bool:
        # the CSR constructor may wrap the memmap in a base-class view
        while arr is not None:
            if isinstance(arr, np.memmap):
                return True
            arr = arr.base
        return False

    def test_mmap_round_trip(self, bundle, sharded):
        back = load_sharded_artifact(bundle, mmap=True)
        for s in range(back.n_shards):
            assert self._is_mapped(back.shards[s].graph.weights)
        fresh = ShardRouter(sharded=sharded)
        warm = ShardRouter.from_artifact(bundle, mmap=True)
        for s in (5, 47):
            assert np.array_equal(fresh.distances(s), warm.distances(s))

    def test_members_are_current_version(self, bundle, sharded):
        """The manifest keeps its own version; every shard member is a
        bundle of the current single-artifact version."""
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["version"] == SHARDED_ARTIFACT_VERSION == 1
        for s in range(sharded.n_shards):
            with np.load(bundle / f"shard_{s:04d}.npz") as npz:
                assert int(npz["version"]) == ARTIFACT_VERSION

    def test_missing_bundle_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_sharded_artifact(tmp_path / "nope")


class TestIntegrity:
    @pytest.mark.parametrize(
        "member", ["shard_0001.npz", "overlay.npz", "topology.npz"]
    )
    def test_member_corruption_detected(self, bundle, member):
        _flip_byte(bundle / member)
        with pytest.raises(ArtifactCorruptError):
            load_sharded_artifact(bundle)

    def test_missing_member_detected(self, bundle):
        (bundle / "shard_0002.npz").unlink()
        with pytest.raises(ArtifactCorruptError, match="missing member"):
            load_sharded_artifact(bundle)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_retired_member_version_rejected(self, bundle, mmap):
        """A shard member stamped with a retired artifact version asks
        for re-preprocessing even when every digest over it is
        consistent."""
        from repro.serve.artifacts import _file_hash, _manifest_hash

        member = bundle / "shard_0001.npz"
        with np.load(member) as npz:
            fields = {name: npz[name] for name in npz.files}
        fields["version"] = np.int64(ARTIFACT_VERSION - 1)
        with open(member, "wb") as fh:
            np.savez(fh, **fields)
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["members"]["shard_0001.npz"] = _file_hash(member)
        manifest["manifest_hash"] = _manifest_hash(manifest)
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactVersionError, match="re-run preprocessing"):
            load_sharded_artifact(bundle, mmap=mmap)

    def test_manifest_edit_detected(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["edge_cut"] = 0
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactCorruptError, match="manifest checksum"):
            load_sharded_artifact(bundle)

    def test_manifest_garbage_detected(self, bundle):
        (bundle / "manifest.json").write_text("not json{")
        with pytest.raises(ArtifactCorruptError, match="JSON"):
            load_sharded_artifact(bundle)

    def test_wrong_format_detected(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["format"] = "something-else"
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactCorruptError, match="manifest"):
            load_sharded_artifact(bundle)

    def test_future_version_rejected(self, bundle):
        from repro.serve.artifacts import _manifest_hash

        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["version"] = 99
        manifest["manifest_hash"] = _manifest_hash(manifest)
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactVersionError):
            load_sharded_artifact(bundle)

    def test_graph_mismatch_detected(self, bundle):
        other = random_connected_graph(40, 90, seed=99)
        with pytest.raises(ArtifactGraphMismatchError):
            load_sharded_artifact(bundle, expect_graph=other)

    def test_swapped_members_detected(self, bundle):
        """Two members swapped on disk: both file hashes mismatch."""
        a = (bundle / "shard_0000.npz").read_bytes()
        b = (bundle / "shard_0001.npz").read_bytes()
        (bundle / "shard_0000.npz").write_bytes(b)
        (bundle / "shard_0001.npz").write_bytes(a)
        with pytest.raises(ArtifactCorruptError):
            load_sharded_artifact(bundle)

    def test_from_artifact_rejects_baked_knobs(self, bundle):
        with pytest.raises(TypeError, match="does not accept"):
            ShardRouter.from_artifact(bundle, k=3)
        with pytest.raises(TypeError, match="does not accept"):
            ShardRouter.from_artifact(bundle, partition="ldd")
