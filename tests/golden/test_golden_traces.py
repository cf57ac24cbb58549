"""Golden-trace regression corpus: end-to-end fingerprints per protocol.

One deterministic seeded synthetic trace per bundled protocol model,
pushed through ground-truth segmentation and the full clustering
pipeline with the default (binned) kernel, then compared against
checked-in expected artifacts:

- the SHA-256 fingerprint of the dissimilarity matrix (pins the
  Canberra kernel bit-for-bit),
- the auto-configured ``(epsilon, min_samples)`` (pins Algorithm 1 and
  the Section III-E fallback),
- the cluster-label multiset — sorted cluster sizes plus the noise
  count (pins DBSCAN and refinement),
- the message-type stage outcome — type count, cluster-size multiset,
  noise and epsilon (pins the continuous segment-similarity alignment
  and the message-level DBSCAN),
- the boundary-refinement comparison — nemesys with and without the
  PCA pass, including the shift/merge/split decision counts (pins the
  refiner's eigenvector logic and its composition with clustering).

Any drift in the kernel, the autoconf, or the clustering fails loudly
here, file-by-file.  A deliberate change regenerates the corpus with::

    PYTHONPATH=src python -m pytest tests/golden --regen-golden

and ships the JSON diff for review.  The traces themselves are not
checked in — the protocol generators are seeded and deterministic, so
the corpus stores only the compact expected artifacts.
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.api import cluster_segments
from repro.core.matrix import MatrixBuildOptions
from repro.core.pipeline import ClusteringConfig
from repro.msgtypes import cluster_message_types
from repro.obs.tracer import Tracer, use_tracer
from repro.protocols import get_model
from repro.segmenters import resolve_segmenter
from repro.segmenters.groundtruth import GroundTruthSegmenter

pytestmark = pytest.mark.golden

EXPECTED_DIR = Path(__file__).parent / "expected"

#: The corpus: every bundled protocol model, one seeded trace each.
GOLDEN_PROTOCOLS = ("dhcp", "dns", "ntp", "nbns", "smb", "awdl")
GOLDEN_MESSAGES = 120
GOLDEN_SEED = 1202
#: The ``cache_format_version`` every artifact records: the format of
#: the on-disk matrix cache the corpus was first written against.  That
#: cache is gone; the field stays, frozen, so the artifacts do not change.
GOLDEN_FORMAT_VERSION = 4


def matrix_checksum(values: np.ndarray) -> str:
    """The artifacts' ``matrix_sha256``: SHA-256 over a format tag, the
    matrix shape and its raw value bytes."""
    digest = hashlib.sha256()
    digest.update(b"repro-matrix-payload-v2\0")
    digest.update(struct.pack("<QQ", *values.shape))
    digest.update(np.ascontiguousarray(values))
    return digest.hexdigest()


def golden_run(protocol: str, matrix_options: MatrixBuildOptions | None = None) -> dict:
    """One deterministic pipeline run, reduced to its golden artifacts.

    *matrix_options* overrides the build backend (default: serial) —
    the parallelism parity suite re-runs the whole corpus through the
    threaded backend and asserts the identical artifacts.
    """
    model = get_model(protocol)
    trace = model.generate(GOLDEN_MESSAGES, seed=GOLDEN_SEED).preprocess()
    segments = GroundTruthSegmenter(model).segment(trace)
    config = ClusteringConfig(
        matrix_options=matrix_options
        or MatrixBuildOptions(workers=1)
    )
    result = cluster_segments(segments, config)
    epsilon = float(result.epsilon)
    types = cluster_message_types(
        segments, len(trace), matrix=result.matrix, trace=trace
    )
    type_epsilon = float(types.epsilon)
    return {
        "protocol": protocol,
        "messages": GOLDEN_MESSAGES,
        "seed": GOLDEN_SEED,
        "segmenter": "groundtruth",
        "kernel": "binned",
        "cache_format_version": GOLDEN_FORMAT_VERSION,
        "unique_segments": len(result.segments),
        "matrix_sha256": matrix_checksum(result.matrix.values),
        "epsilon": epsilon,
        "epsilon_hex": epsilon.hex(),
        "min_samples": int(result.autoconfig.min_samples),
        "cluster_sizes": sorted(
            (len(members) for members in result.clusters), reverse=True
        ),
        "noise": int(len(result.noise)),
        "msgtypes": {
            "type_count": int(types.type_count),
            "sizes": [int(size) for size in types.sizes()],
            "noise": int(types.noise_count),
            "epsilon_hex": type_epsilon.hex(),
        },
        "refinement": refinement_block(trace, config),
    }


def refinement_block(trace, config: ClusteringConfig) -> dict:
    """Nemesys with and without the PCA refinement pass, fingerprinted.

    Pins the refinement-off baseline next to the refinement-on outcome
    (including the refiner's shift/merge/split decision counts), so a
    change to the refiner that silently stops or starts moving
    boundaries on any protocol fails the corpus.
    """
    block: dict = {"segmenter": "nemesys"}
    for refinement in ("none", "pca"):
        segmenter = resolve_segmenter("nemesys", refinement=refinement, config=config)
        segments = segmenter.segment(trace)
        result = cluster_segments(segments, config)
        epsilon = float(result.epsilon)
        entry = {
            "unique_segments": len(result.segments),
            "epsilon_hex": epsilon.hex(),
            "cluster_sizes": sorted(
                (len(members) for members in result.clusters), reverse=True
            ),
            "noise": int(len(result.noise)),
        }
        if refinement != "none":
            stats = segmenter.last_refinement
            entry["shifted"] = int(stats.shifted)
            entry["merged"] = int(stats.merged)
            entry["split"] = int(stats.split)
        block[refinement] = entry
    return block


def expected_path(protocol: str) -> Path:
    return EXPECTED_DIR / f"{protocol}.json"


@pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
def test_golden_trace(protocol, request):
    actual = golden_run(protocol)
    path = expected_path(protocol)
    if request.config.getoption("--regen-golden"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden artifact {path}; run pytest tests/golden --regen-golden"
    )
    expected = json.loads(path.read_text())
    # Compare field-by-field so a failure names the drifted stage.
    assert actual["unique_segments"] == expected["unique_segments"], (
        "segmentation drift: unique-segment count changed"
    )
    assert actual["matrix_sha256"] == expected["matrix_sha256"], (
        "kernel drift: dissimilarity-matrix fingerprint changed"
    )
    assert actual["epsilon_hex"] == expected["epsilon_hex"], (
        f"autoconf drift: epsilon {actual['epsilon']} != {expected['epsilon']}"
    )
    assert actual["min_samples"] == expected["min_samples"], (
        "autoconf drift: min_samples changed"
    )
    assert actual["cluster_sizes"] == expected["cluster_sizes"], (
        "clustering drift: cluster-label multiset changed"
    )
    assert actual["noise"] == expected["noise"], (
        "clustering drift: noise count changed"
    )
    assert actual["msgtypes"] == expected["msgtypes"], (
        "message-type drift: type-cluster multiset changed"
    )
    assert actual["refinement"] == expected["refinement"], (
        "refinement drift: nemesys none-vs-pca fingerprint changed"
    )
    assert actual == expected


@pytest.mark.parametrize("workers", [0, 2, 4])
@pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
def test_golden_trace_worker_stability(protocol, workers, request, thread_pool_always):
    """The whole corpus again, across matrix-backend worker counts.

    workers=0 is the explicit serial opt-out; workers 2 and 4 run under
    ``thread_pool_always``, so every matrix build — the message-type
    stage's included — actually runs on the thread pool, which each
    ``matrix.build`` span must record.  The
    artifacts, bit-exact matrix fingerprint included, must match the
    checked-in ones the serial reference produced.  This is the
    end-to-end half of the parallelism parity contract
    (tests/core/test_parallel_build.py has the property-test half).
    """
    if request.config.getoption("--regen-golden"):
        pytest.skip("corpus regenerates from the serial reference")
    tracer = Tracer()
    with use_tracer(tracer):
        actual = golden_run(
            protocol,
            matrix_options=MatrixBuildOptions(workers=workers),
        )
    backends = {span.attributes["backend"] for span in tracer.find("matrix.build")}
    assert backends == {"parallel" if workers else "serial"}
    expected = json.loads(expected_path(protocol).read_text())
    assert actual["matrix_sha256"] == expected["matrix_sha256"], (
        f"workers={workers} backend drifted from the serial matrix fingerprint"
    )
    assert actual == expected


@pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
def test_golden_trace_session_replay(protocol, request):
    """The corpus once more, replayed in 3 chunks through a session.

    The incremental path promises batch equivalence: streaming the
    golden trace through :class:`repro.AnalysisSession` in three append
    batches must land on the identical checked-in artifacts — the
    bit-exact matrix fingerprint included — as the one-shot batch runs
    above.
    """
    from repro import AnalysisSession

    if request.config.getoption("--regen-golden"):
        pytest.skip("corpus regenerates from the serial reference")
    model = get_model(protocol)
    trace = model.generate(GOLDEN_MESSAGES, seed=GOLDEN_SEED).preprocess()
    messages = list(trace.messages)
    session = AnalysisSession(
        ClusteringConfig(matrix_options=MatrixBuildOptions(workers=1)),
        segmenter=GroundTruthSegmenter(model),
        protocol=protocol,
    )
    third = (len(messages) + 2) // 3
    for start in range(0, len(messages), third):
        session.append(messages[start : start + third])
    result = session.snapshot().result
    epsilon = float(result.epsilon)
    actual = {
        "unique_segments": len(result.segments),
        "matrix_sha256": matrix_checksum(result.matrix.values),
        "epsilon_hex": epsilon.hex(),
        "min_samples": int(result.autoconfig.min_samples),
        "cluster_sizes": sorted(
            (len(members) for members in result.clusters), reverse=True
        ),
        "noise": int(len(result.noise)),
    }
    expected = json.loads(expected_path(protocol).read_text())
    assert actual["matrix_sha256"] == expected["matrix_sha256"], (
        "incremental build drifted from the batch matrix fingerprint"
    )
    assert actual == {k: expected[k] for k in actual}


def test_corpus_is_complete():
    """Every bundled protocol has a checked-in artifact (and no strays)."""
    present = {p.stem for p in EXPECTED_DIR.glob("*.json")}
    assert present == set(GOLDEN_PROTOCOLS)
