"""Persistent preprocessing artifacts — preprocess once, serve forever.

The paper's amortization argument (§5.4) assumes the (k,ρ)-construction
cost is paid *once* per graph; a serving process that re-runs
:func:`repro.preprocess.build_kr_graph` on every start pays it once per
restart instead.  This module closes that gap: a complete
:class:`~repro.preprocess.pipeline.PreprocessResult` — the augmented
CSR arrays, the radii, and the (k, ρ, heuristic) configuration — is
persisted as one versioned ``.npz`` bundle and restored in milliseconds,
round-tripping through
:meth:`repro.core.solver.PreprocessedSSSP.from_preprocessed` into a
query-ready facade.

Integrity is never assumed:

* every bundle carries a **payload checksum** over all arrays and
  metadata — bit rot, truncation and hand-editing raise
  :class:`ArtifactCorruptError` instead of silently serving wrong routes;
* a **format version** field gates schema evolution
  (:class:`ArtifactVersionError` on mismatch);
* the **source-graph content hash** recorded at build time is compared
  against the graph the caller intends to serve
  (:class:`ArtifactGraphMismatchError`), so an artifact can never be
  paired with a graph it was not built from.

Graphs near RAM size can warm-start without materializing the CSR
arrays at all: ``load_artifact(..., mmap=True)`` maps each array member
of the bundle read-only straight off disk (``np.savez`` stores members
uncompressed, so every ``.npy`` payload is a contiguous byte range of
the file — exactly what ``np.memmap`` wants; the same trick
``np.load(mmap_mode="r")`` applies to bare ``.npy`` files, which it
cannot do inside an ``.npz``).  The checksum is still verified — it
streams through the mapping once via the buffer protocol, so pages are
touched but never copied into a second in-RAM array — and the returned
graph's arrays are read-only memmap views the solvers use in place.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.solver import PreprocessedSSSP
from ..graphs.csr import CSRGraph
from ..preprocess.pipeline import PreprocessResult, ShardedPreprocessResult

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "SHARDED_ARTIFACT_FORMAT",
    "SHARDED_ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactCorruptError",
    "ArtifactVersionError",
    "ArtifactGraphMismatchError",
    "ShardTopology",
    "save_artifact",
    "load_artifact",
    "load_solver",
    "save_sharded_artifact",
    "load_sharded_artifact",
    "load_shard_topology",
    "stamp_endpoints",
]

#: magic string identifying a bundle as ours (first field checked on load).
ARTIFACT_FORMAT = "repro-kr-artifact"

#: the one bundle version this build writes and reads; any other
#: version raises :class:`ArtifactVersionError` (re-run preprocessing).
ARTIFACT_VERSION = 4

#: array fields of a bundle, in checksum preimage order.  ``perm`` is
#: the external→internal vertex permutation, so a bundle built with a
#: locality reordering can be served id-transparently.
_ARRAY_FIELDS = ("indptr", "indices", "weights", "radii", "perm")
#: metadata fields of a bundle with their Python types; the typed
#: values, in this order, are the metadata tuple of the checksum preimage.
_META_FIELDS = (
    ("k", int),
    ("rho", int),
    ("heuristic", str),
    ("added_edges", int),
    ("new_edges", int),
    ("source_hash", str),
    ("reorder", str),
    ("locality_before", float),
    ("locality_after", float),
)


class ArtifactError(RuntimeError):
    """Base class for every artifact load/save failure."""


class ArtifactCorruptError(ArtifactError):
    """The bundle is unreadable, truncated, incomplete, or fails its
    payload checksum — its contents cannot be trusted."""


class ArtifactVersionError(ArtifactError):
    """The bundle's format version is not the one this code reads."""


class ArtifactGraphMismatchError(ArtifactError):
    """The bundle was preprocessed from a different graph than the one
    the caller wants to serve."""


def _payload_hash(arrays: dict[str, np.ndarray], meta: tuple) -> str:
    """Checksum over every array byte plus the metadata tuple.

    Contiguous arrays are fed to the digest through the buffer protocol
    — no ``tobytes()`` copy — so verifying a memory-mapped bundle
    streams pages through the hash instead of materializing a second
    in-RAM array per field (byte-identical digest either way).
    """
    h = hashlib.blake2b(digest_size=16)
    for name in _ARRAY_FIELDS:
        arr = arrays[name]
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        if arr.flags.c_contiguous:
            h.update(arr.data)
        else:  # pragma: no cover - save path always writes contiguous
            h.update(arr.tobytes())
    h.update(repr(meta).encode())
    return h.hexdigest()


def save_artifact(path: str | Path, pre: PreprocessResult) -> Path:
    """Write ``pre`` to ``path`` as a versioned ``.npz`` bundle.

    The file is written exactly at ``path`` (no ``.npz`` suffix is
    appended).  Returns the path written.
    """
    path = Path(path)
    n = pre.graph.n
    perm = getattr(pre, "perm", None)
    if perm is None:
        # bundles always carry a perm array — the identity when
        # preprocessing ran in the input numbering — so loaders never
        # branch on its presence, only on its content.
        perm = np.arange(n, dtype=np.int64)
    arrays = {
        "indptr": pre.graph.indptr,
        "indices": pre.graph.indices,
        "weights": pre.graph.weights,
        "radii": np.ascontiguousarray(pre.radii, dtype=np.float64),
        "perm": np.ascontiguousarray(perm, dtype=np.int64),
    }
    fields = {name: cast(getattr(pre, name)) for name, cast in _META_FIELDS}
    with open(path, "wb") as fh:
        np.savez(
            fh,
            format=ARTIFACT_FORMAT,
            version=np.int64(ARTIFACT_VERSION),
            **fields,
            payload_hash=_payload_hash(arrays, tuple(fields.values())),
            **arrays,
        )
    return path


#: zip local-file-header layout: 30 fixed bytes, then name, then extra.
_ZIP_LOCAL_MAGIC = b"PK\x03\x04"
_ZIP_LOCAL_FIXED = 30


def _mmap_member(
    fh, path: Path, info: zipfile.ZipInfo
) -> np.ndarray | None:
    """Map one stored ``.npy`` zip member read-only, or return ``None``
    when mapping is impossible (compressed member, exotic npy version)
    and the caller should fall back to an eager read.

    ``np.savez`` writes members with ``ZIP_STORED``, so the member's
    array payload is a contiguous range of the bundle file; we locate it
    by walking the member's local header (whose name/extra lengths may
    legitimately differ from the central directory's) and then the npy
    header, and hand the resulting offset to :class:`numpy.memmap`.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    fh.seek(info.header_offset)
    local = fh.read(_ZIP_LOCAL_FIXED)
    if len(local) != _ZIP_LOCAL_FIXED or local[:4] != _ZIP_LOCAL_MAGIC:
        raise ArtifactCorruptError(
            f"{path}: member {info.filename!r} has a corrupt local zip header"
        )
    name_len = int.from_bytes(local[26:28], "little")
    extra_len = int.from_bytes(local[28:30], "little")
    fh.seek(info.header_offset + _ZIP_LOCAL_FIXED + name_len + extra_len)
    try:
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
        else:
            return None
    except ValueError as exc:
        raise ArtifactCorruptError(
            f"{path}: member {info.filename!r} has a corrupt npy header: {exc}"
        ) from exc
    if dtype.hasobject:  # pragma: no cover - we never save object arrays
        return None
    return np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=fh.tell(),
        shape=shape,
        order="F" if fortran else "C",
    )


def _read_bundle(path: Path, *, mmap: bool = False) -> dict[str, np.ndarray]:
    """Load every member of the ``.npz``, mapping low-level failures
    (missing file aside) to :class:`ArtifactCorruptError`.

    With ``mmap=True`` the bulk array fields come back as read-only
    :class:`numpy.memmap` views over the bundle file instead of heap
    copies; tiny metadata fields are always read eagerly.
    """
    if not path.exists():
        raise FileNotFoundError(f"no artifact at {path}")
    try:
        with np.load(path, allow_pickle=False) as npz:
            names = list(npz.files)
            skip = set(_ARRAY_FIELDS) if mmap else set()
            bundle = {n: npz[n] for n in names if n not in skip}
        if mmap:
            with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
                for name in _ARRAY_FIELDS:
                    if name not in names:
                        continue  # caller reports the missing field
                    arr = _mmap_member(fh, path, zf.getinfo(name + ".npy"))
                    if arr is None:  # pragma: no cover - non-savez bundle
                        with np.load(path, allow_pickle=False) as npz:
                            arr = npz[name]
                    bundle[name] = arr
        return bundle
    except (zipfile.BadZipFile, ValueError, KeyError, OSError, EOFError) as exc:
        raise ArtifactCorruptError(
            f"artifact {path} is unreadable (corrupt or truncated): {exc}"
        ) from exc


def load_artifact(
    path: str | Path,
    *,
    expect_graph: CSRGraph | None = None,
    mmap: bool = False,
) -> PreprocessResult:
    """Restore a :class:`PreprocessResult` saved by :func:`save_artifact`.

    Parameters
    ----------
    path: the ``.npz`` bundle.
    expect_graph: when given, the bundle's recorded source-graph hash
        must equal ``expect_graph.content_hash()`` —
        :class:`ArtifactGraphMismatchError` otherwise.  Pass the graph a
        serving process is about to answer queries on; this is what
        stops a stale or misplaced artifact from silently serving routes
        for some other graph.
    mmap: map the CSR/radii arrays read-only off the bundle file
        (:class:`numpy.memmap`) instead of materializing heap copies —
        the warm-start knob for graphs near RAM size.  Checksum and
        structural verification run either way (the checksum streams
        through the mapping without a second copy); the returned
        graph's arrays stay memory-mapped, paged in on demand, and the
        bundle file must outlive the returned object.

    Raises
    ------
    ArtifactCorruptError: unreadable/truncated file, missing fields, or
        payload checksum mismatch.
    ArtifactVersionError: bundle written by an incompatible version.
    ArtifactGraphMismatchError: ``expect_graph`` hash mismatch.
    """
    path = Path(path)
    bundle = _read_bundle(path, mmap=mmap)
    fmt = bundle.get("format")
    if fmt is None or str(fmt) != ARTIFACT_FORMAT:
        raise ArtifactCorruptError(
            f"{path} is not a {ARTIFACT_FORMAT} bundle (format field "
            f"{str(fmt) if fmt is not None else '<missing>'!r})"
        )
    if "version" not in bundle:
        raise ArtifactCorruptError(f"{path} is missing its version field")
    version = int(bundle["version"])
    if version != ARTIFACT_VERSION:
        raise ArtifactVersionError(
            f"{path} has artifact version {version}; this build reads "
            f"version {ARTIFACT_VERSION} — re-run preprocessing to regenerate"
        )
    required = (*_ARRAY_FIELDS, *(f for f, _ in _META_FIELDS), "payload_hash")
    missing = [f for f in required if f not in bundle]
    if missing:
        raise ArtifactCorruptError(
            f"{path} is missing required fields: {', '.join(missing)}"
        )
    arrays = {name: bundle[name] for name in _ARRAY_FIELDS}
    fields = {name: cast(bundle[name]) for name, cast in _META_FIELDS}
    if _payload_hash(arrays, tuple(fields.values())) != str(bundle["payload_hash"]):
        raise ArtifactCorruptError(
            f"{path} failed its payload checksum — the stored arrays or "
            "metadata were altered after the artifact was written"
        )
    if expect_graph is not None:
        expected, recorded = expect_graph.content_hash(), fields["source_hash"]
        if recorded != expected:
            raise ArtifactGraphMismatchError(
                f"{path} was preprocessed from a different graph "
                f"(artifact source hash {recorded or '<unrecorded>'}, "
                f"serving graph hash {expected})"
            )
    # The checksum certified the arrays byte-identical to what the save
    # path wrote, but the checksum is keyless — any writer can produce a
    # self-consistent bundle — so the invariants that would make queries
    # *silently wrong* are still enforced: shape consistency, monotone
    # indptr, in-range arc heads (a negative index would gather a
    # wrong-but-valid neighbor via numpy wraparound), and finite
    # non-negative weights.  Only the O(m log m) symmetry/simplicity
    # sorts are skipped — a violation there makes the graph *different*,
    # not the solvers incorrect — which is most of the warm-start win.
    indptr, indices, weights = (
        arrays["indptr"],
        arrays["indices"],
        arrays["weights"],
    )
    radii = np.ascontiguousarray(arrays["radii"], dtype=np.float64)
    if (
        indptr.ndim != 1
        or len(indptr) < 1
        or indptr[0] != 0
        or indptr[-1] != len(indices)
        or len(indices) != len(weights)
        or len(radii) != len(indptr) - 1
        or np.any(np.diff(indptr) < 0)
    ):
        raise ArtifactCorruptError(
            f"{path} holds inconsistent CSR/radii array shapes"
        )
    n = len(indptr) - 1
    if len(indices) and (indices.min() < 0 or indices.max() >= n):
        raise ArtifactCorruptError(f"{path} holds out-of-range arc heads")
    if np.any(~np.isfinite(weights)) or np.any(weights < 0):
        raise ArtifactCorruptError(
            f"{path} holds negative or non-finite edge weights"
        )
    # The perm must be a genuine permutation of range(n) — a corrupted
    # one would silently answer for wrong ids.
    perm = np.ascontiguousarray(arrays["perm"], dtype=np.int64)
    if (
        perm.ndim != 1
        or len(perm) != n
        or (n and (perm.min() < 0 or perm.max() >= n))
        or (n and np.any(np.bincount(perm, minlength=n) != 1))
    ):
        raise ArtifactCorruptError(
            f"{path} holds a perm field that is not a permutation of "
            f"range({n})"
        )
    if np.array_equal(perm, np.arange(n, dtype=np.int64)):
        perm = None  # identity: skip the translation layer entirely
    graph = CSRGraph(indptr, indices, weights, validate=False)
    return PreprocessResult(
        graph=graph,
        radii=radii,
        perm=perm,
        inv_perm=None,  # recomputed lazily by PreprocessedSSSP
        **fields,
    )


def load_solver(
    path: str | Path,
    *,
    expect_graph: CSRGraph | None = None,
    mmap: bool = False,
) -> PreprocessedSSSP:
    """One-call warm start: artifact → query-ready facade.

    Equivalent to ``PreprocessedSSSP.from_preprocessed(load_artifact(...))``
    — what a server runs at boot instead of ``build_kr_graph``.
    ``mmap=True`` keeps the augmented CSR arrays memory-mapped (see
    :func:`load_artifact`).
    """
    pre = load_artifact(path, expect_graph=expect_graph, mmap=mmap)
    return PreprocessedSSSP.from_preprocessed(pre, input_graph=expect_graph)


# --------------------------------------------------------------------- #
# Sharded bundles — a directory of per-shard artifacts plus the overlay
# --------------------------------------------------------------------- #
#: magic string in a sharded bundle's manifest.
SHARDED_ARTIFACT_FORMAT = "repro-kr-sharded"

#: sharded bundle schema version written by this build.
SHARDED_ARTIFACT_VERSION = 1

#: filename of the checksummed manifest at the bundle root.
_MANIFEST_NAME = "manifest.json"


def _file_hash(path: Path) -> str:
    """Streaming blake2b over a member file's bytes."""
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_hash(manifest: dict) -> str:
    """Digest over the manifest's canonical JSON (sans the hash field),
    so a hand-edited member list or metadata field is detected even
    though every *member* also carries its own file hash."""
    doc = {k: v for k, v in manifest.items() if k != "manifest_hash"}
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def save_sharded_artifact(
    path: str | Path,
    sharded: ShardedPreprocessResult,
    *,
    endpoints: Sequence[str | None] | None = None,
) -> Path:
    """Persist a :class:`ShardedPreprocessResult` as a bundle directory.

    Layout::

        path/
          manifest.json    format, version, partition + (k,ρ) metadata,
                           and a blake2b file hash for every member
                           (the manifest itself carries its own digest)
          shard_0000.npz   one complete v4 artifact per shard
          ...              (:func:`save_artifact` — internal checksums
                           and mmap support come along for free)
          overlay.npz      the boundary-overlay CSR
          topology.npz     shard labels + overlay vertex ids

    ``shard_vertices`` is not stored: the labels array reproduces it
    exactly (``np.flatnonzero(labels == s)`` is the sorted-ascending
    :func:`~repro.graphs.build.induced_subgraph` convention the shards
    were built with).  ``endpoints`` (optional, one ``"http://host:port"``
    per shard, ``None`` for empty shards) is stamped into the manifest
    as deployment hints, so :meth:`ShardRouter.remote
    <repro.serve.router.ShardRouter.remote>` can find the shard servers
    from the bundle alone; a bundle without hints loads everywhere
    (:func:`stamp_endpoints` adds them to an existing bundle in place).
    Returns the bundle directory path.
    """
    path = Path(path)
    endpoints = _check_endpoints(endpoints, sharded.n_shards)
    path.mkdir(parents=True, exist_ok=True)
    members: dict[str, str] = {}
    for s, pre in enumerate(sharded.shards):
        name = f"shard_{s:04d}.npz"
        save_artifact(path / name, pre)
        members[name] = _file_hash(path / name)
    overlay = sharded.overlay_graph
    with open(path / "overlay.npz", "wb") as fh:
        np.savez(
            fh,
            indptr=overlay.indptr,
            indices=overlay.indices,
            weights=overlay.weights,
        )
    members["overlay.npz"] = _file_hash(path / "overlay.npz")
    with open(path / "topology.npz", "wb") as fh:
        np.savez(
            fh,
            labels=np.ascontiguousarray(sharded.labels, dtype=np.int64),
            overlay_vertices=np.ascontiguousarray(
                sharded.overlay_vertices, dtype=np.int64
            ),
        )
    members["topology.npz"] = _file_hash(path / "topology.npz")
    manifest = {
        "format": SHARDED_ARTIFACT_FORMAT,
        "version": SHARDED_ARTIFACT_VERSION,
        "n": int(sharded.n),
        "n_shards": int(sharded.n_shards),
        "partition_method": str(sharded.partition_method),
        "partition_seed": int(sharded.partition_seed),
        "edge_cut": int(sharded.edge_cut),
        "balance": float(sharded.balance),
        "k": int(sharded.k),
        "rho": int(sharded.rho),
        "heuristic": str(sharded.heuristic),
        "source_hash": str(sharded.source_hash),
        "members": members,
    }
    if endpoints is not None:
        manifest["endpoints"] = list(endpoints)
    manifest["manifest_hash"] = _manifest_hash(manifest)
    (path / _MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _check_endpoints(
    endpoints: Sequence[str | None] | None, n_shards: int
) -> list[str | None] | None:
    """Validate per-shard endpoint hints (one entry per shard)."""
    if endpoints is None:
        return None
    endpoints = list(endpoints)
    if len(endpoints) != n_shards:
        raise ValueError(
            f"expected {n_shards} endpoint hints (one per shard, None for "
            f"empty shards), got {len(endpoints)}"
        )
    for ep in endpoints:
        if ep is not None and not isinstance(ep, str):
            raise TypeError(f"endpoint hints must be str or None, got {ep!r}")
    return endpoints


def stamp_endpoints(
    path: str | Path, endpoints: Sequence[str | None] | None
) -> Path:
    """Rewrite an existing bundle's manifest with new endpoint hints.

    The deployment step of a multi-box rollout: the bundle is built
    (and rsynced) once, then each environment stamps where *its* shard
    servers listen.  Only the manifest changes — member files and their
    hashes are untouched — and the manifest's own digest is recomputed
    so the bundle still verifies.  ``endpoints=None`` removes the hints.
    """
    path = Path(path)
    manifest = _read_sharded_manifest(path)
    endpoints = _check_endpoints(endpoints, int(manifest["n_shards"]))
    manifest.pop("endpoints", None)
    manifest.pop("manifest_hash", None)
    if endpoints is not None:
        manifest["endpoints"] = endpoints
    manifest["manifest_hash"] = _manifest_hash(manifest)
    (path / _MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _load_npz_member(path: Path, fields: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Eagerly read the named arrays of a small bundle member."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            missing = [f for f in fields if f not in npz.files]
            if missing:
                raise ArtifactCorruptError(
                    f"{path} is missing required fields: {', '.join(missing)}"
                )
            return {f: npz[f] for f in fields}
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise ArtifactCorruptError(
            f"bundle member {path} is unreadable (corrupt or truncated): {exc}"
        ) from exc


def _read_sharded_manifest(path: Path) -> dict:
    """Read and structurally verify a bundle's manifest (format,
    version, required fields, member listing, its own digest, and the
    optional endpoint hints) — member *files* are not touched here."""
    manifest_path = path / _MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no sharded artifact manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise ArtifactCorruptError(
            f"{manifest_path} is not readable JSON: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != SHARDED_ARTIFACT_FORMAT:
        raise ArtifactCorruptError(
            f"{manifest_path} is not a {SHARDED_ARTIFACT_FORMAT} manifest"
        )
    version = manifest.get("version")
    if version != SHARDED_ARTIFACT_VERSION:
        raise ArtifactVersionError(
            f"{path} has sharded-bundle version {version!r}; this build "
            f"reads version {SHARDED_ARTIFACT_VERSION} — re-run "
            "preprocessing to regenerate"
        )
    required = (
        "n",
        "n_shards",
        "partition_method",
        "partition_seed",
        "edge_cut",
        "balance",
        "k",
        "rho",
        "heuristic",
        "source_hash",
        "members",
        "manifest_hash",
    )
    missing = [f for f in required if f not in manifest]
    if missing:
        raise ArtifactCorruptError(
            f"{manifest_path} is missing required fields: {', '.join(missing)}"
        )
    if _manifest_hash(manifest) != manifest["manifest_hash"]:
        raise ArtifactCorruptError(
            f"{manifest_path} failed its manifest checksum — the member "
            "list or metadata was altered after the bundle was written"
        )
    n_shards = int(manifest["n_shards"])
    expected_members = {f"shard_{s:04d}.npz" for s in range(n_shards)} | {
        "overlay.npz",
        "topology.npz",
    }
    if set(manifest["members"]) != expected_members:
        raise ArtifactCorruptError(
            f"{manifest_path} lists members {sorted(manifest['members'])}, "
            f"expected {sorted(expected_members)}"
        )
    endpoints = manifest.get("endpoints")
    if endpoints is not None and (
        not isinstance(endpoints, list)
        or len(endpoints) != n_shards
        or any(ep is not None and not isinstance(ep, str) for ep in endpoints)
    ):
        raise ArtifactCorruptError(
            f"{manifest_path} holds endpoint hints inconsistent with its "
            f"{n_shards} shards"
        )
    return manifest


def _check_source_graph(
    path: Path, manifest: dict, expect_graph: CSRGraph | None
) -> None:
    if expect_graph is None:
        return
    expected = expect_graph.content_hash()
    if manifest["source_hash"] != expected:
        raise ArtifactGraphMismatchError(
            f"{path} was preprocessed from a different graph "
            f"(bundle source hash {manifest['source_hash'] or '<unrecorded>'}, "
            f"serving graph hash {expected})"
        )


def _verify_members(path: Path, manifest: dict, names) -> None:
    """Existence + blake2b check of the named member files."""
    members = manifest["members"]
    for name in names:
        member = path / name
        if not member.exists():
            raise ArtifactCorruptError(f"{path} is missing member {name}")
        if _file_hash(member) != members[name]:
            raise ArtifactCorruptError(
                f"bundle member {member} failed its checksum — the file "
                "was altered after the bundle was written"
            )


def _load_overlay_topology(
    path: Path, manifest: dict
) -> tuple[np.ndarray, np.ndarray, CSRGraph]:
    """Load + validate the labels / overlay members of a bundle."""
    n = int(manifest["n"])
    n_shards = int(manifest["n_shards"])
    topo = _load_npz_member(path / "topology.npz", ("labels", "overlay_vertices"))
    labels = np.ascontiguousarray(topo["labels"], dtype=np.int64)
    overlay_vertices = np.ascontiguousarray(
        topo["overlay_vertices"], dtype=np.int64
    )
    if labels.shape != (n,) or (n and (labels.min() < 0 or labels.max() >= n_shards)):
        raise ArtifactCorruptError(
            f"{path} holds shard labels inconsistent with its manifest"
        )
    if len(overlay_vertices) and (
        overlay_vertices.min() < 0
        or overlay_vertices.max() >= n
        or np.any(np.diff(overlay_vertices) <= 0)
    ):
        raise ArtifactCorruptError(
            f"{path} holds an invalid overlay vertex list"
        )
    ov = _load_npz_member(path / "overlay.npz", ("indptr", "indices", "weights"))
    indptr, indices, weights = ov["indptr"], ov["indices"], ov["weights"]
    if (
        indptr.ndim != 1
        or len(indptr) != len(overlay_vertices) + 1
        or indptr[0] != 0
        or indptr[-1] != len(indices)
        or len(indices) != len(weights)
        or np.any(np.diff(indptr) < 0)
    ):
        raise ArtifactCorruptError(
            f"{path} holds inconsistent overlay CSR arrays"
        )
    overlay_graph = CSRGraph(indptr, indices, weights, validate=False)
    return labels, overlay_vertices, overlay_graph


def load_sharded_artifact(
    path: str | Path,
    *,
    expect_graph: CSRGraph | None = None,
    mmap: bool = False,
) -> ShardedPreprocessResult:
    """Restore a bundle written by :func:`save_sharded_artifact`.

    Integrity is verified end to end before anything is trusted: the
    manifest's own digest, then every member file's blake2b hash against
    the manifest (so corruption of *any* member — a shard, the overlay,
    the topology — raises :class:`ArtifactCorruptError`), then each
    shard artifact's internal payload checksum via :func:`load_artifact`.
    ``expect_graph`` pins the bundle to the *input* graph's content hash
    (:class:`ArtifactGraphMismatchError` on mismatch); ``mmap=True``
    keeps every shard's augmented CSR memory-mapped off its member file.
    """
    path = Path(path)
    manifest = _read_sharded_manifest(path)
    _check_source_graph(path, manifest, expect_graph)
    n_shards = int(manifest["n_shards"])
    shard_names = [f"shard_{s:04d}.npz" for s in range(n_shards)]
    _verify_members(path, manifest, manifest["members"])
    labels, overlay_vertices, overlay_graph = _load_overlay_topology(
        path, manifest
    )
    shards = []
    shard_vertices = []
    for s, name in enumerate(shard_names):
        pre = load_artifact(path / name, mmap=mmap)
        verts = np.flatnonzero(labels == s)
        if pre.graph.n != len(verts):
            raise ArtifactCorruptError(
                f"bundle member {name} holds {pre.graph.n} vertices but the "
                f"labels assign {len(verts)} to shard {s}"
            )
        shards.append(pre)
        shard_vertices.append(verts)
    return ShardedPreprocessResult(
        shards=shards,
        shard_vertices=shard_vertices,
        labels=labels,
        overlay_graph=overlay_graph,
        overlay_vertices=overlay_vertices,
        partition_method=str(manifest["partition_method"]),
        partition_seed=int(manifest["partition_seed"]),
        edge_cut=int(manifest["edge_cut"]),
        balance=float(manifest["balance"]),
        k=int(manifest["k"]),
        rho=int(manifest["rho"]),
        heuristic=str(manifest["heuristic"]),
        source_hash=str(manifest["source_hash"]),
    )


# --------------------------------------------------------------------- #
# Shard topology — the router-side view of a bundle, no shard payloads
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardTopology:
    """Everything a *front-end* box needs from a sharded bundle.

    The stitch layer routes on labels and the boundary overlay; the
    per-shard (k,ρ)-payloads live on the shard boxes.  This is the
    bundle minus those payloads — what :func:`load_shard_topology`
    reads (shard ``.npz`` members need not even exist locally) and what
    :meth:`ShardRouter.remote <repro.serve.router.ShardRouter.remote>`
    is constructed from.
    """

    n: int
    n_shards: int
    labels: np.ndarray
    overlay_graph: CSRGraph
    overlay_vertices: np.ndarray
    partition_method: str
    partition_seed: int
    edge_cut: int
    balance: float
    k: int
    rho: int
    heuristic: str
    source_hash: str
    #: per-shard ``"http://host:port"`` hints from the manifest
    #: (``None`` entries for empty shards; ``None`` when unstamped).
    endpoints: tuple[str | None, ...] | None = None

    def shard_vertices(self) -> list[np.ndarray]:
        """Per-shard sorted original-vertex ids (from the labels)."""
        return [
            np.flatnonzero(self.labels == s) for s in range(self.n_shards)
        ]

    @classmethod
    def from_sharded(cls, sharded: ShardedPreprocessResult) -> "ShardTopology":
        """The topology view of an in-memory sharded preprocessing."""
        return cls(
            n=int(sharded.n),
            n_shards=int(sharded.n_shards),
            labels=sharded.labels,
            overlay_graph=sharded.overlay_graph,
            overlay_vertices=sharded.overlay_vertices,
            partition_method=str(sharded.partition_method),
            partition_seed=int(sharded.partition_seed),
            edge_cut=int(sharded.edge_cut),
            balance=float(sharded.balance),
            k=int(sharded.k),
            rho=int(sharded.rho),
            heuristic=str(sharded.heuristic),
            source_hash=str(sharded.source_hash),
        )


def load_shard_topology(
    path: str | Path, *, expect_graph: CSRGraph | None = None
) -> ShardTopology:
    """Load only the routing view of a sharded bundle.

    Verifies the manifest digest and the overlay/topology member hashes
    — but does **not** require the per-shard ``.npz`` payloads to exist
    locally, because on a multi-box deployment they don't: the front
    end holds the manifest + overlay, the shard boxes hold their own
    payload members.  Endpoint hints stamped into the manifest
    (:func:`stamp_endpoints`) come along.
    """
    path = Path(path)
    manifest = _read_sharded_manifest(path)
    _check_source_graph(path, manifest, expect_graph)
    _verify_members(path, manifest, ("overlay.npz", "topology.npz"))
    labels, overlay_vertices, overlay_graph = _load_overlay_topology(
        path, manifest
    )
    endpoints = manifest.get("endpoints")
    return ShardTopology(
        n=int(manifest["n"]),
        n_shards=int(manifest["n_shards"]),
        labels=labels,
        overlay_graph=overlay_graph,
        overlay_vertices=overlay_vertices,
        partition_method=str(manifest["partition_method"]),
        partition_seed=int(manifest["partition_seed"]),
        edge_cut=int(manifest["edge_cut"]),
        balance=float(manifest["balance"]),
        k=int(manifest["k"]),
        rho=int(manifest["rho"]),
        heuristic=str(manifest["heuristic"]),
        source_hash=str(manifest["source_hash"]),
        endpoints=None if endpoints is None else tuple(endpoints),
    )
