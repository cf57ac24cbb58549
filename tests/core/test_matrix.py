from collections.abc import Sequence

import numpy as np
import pytest

from repro.core.canberra import canberra_dissimilarity
from repro.core.matrix import (
    AppendableMatrix,
    DissimilarityMatrix,
    MatrixBuildOptions,
    knn_distances_reference,
    permute_columns,
)
from repro.core.segments import Segment, UniqueSegment, unique_segments
from repro.errors import ComputeError
from repro.obs.tracer import Tracer, use_tracer


def build(datas, **options):
    segments = [
        Segment(message_index=i, offset=0, data=d) for i, d in enumerate(datas)
    ]
    return DissimilarityMatrix.build(
        unique_segments(segments),
        options=MatrixBuildOptions(**options) if options else None,
    )


def traced(datas, **options):
    """A build and its ``matrix.build`` span's attributes."""
    tracer = Tracer()
    with use_tracer(tracer):
        matrix = build(datas, **options)
    (span,) = tracer.find("matrix.build")
    return matrix, span.attributes


def ladder(count=14):
    return [bytes([i, 2 * i, 3 * i]) for i in range(1, count + 1)]


class TestBuild:
    def test_matches_scalar_function(self):
        datas = [b"\x01\x02", b"\x03\x04", b"\x01\x02\x03", b"\xff\xfe\xfd\xfc"]
        matrix = build(datas)
        for i, a in enumerate(matrix.segments):
            for j, b in enumerate(matrix.segments):
                expected = canberra_dissimilarity(a.data, b.data)
                assert matrix.distance(i, j) == pytest.approx(expected), (a.data, b.data)

    def test_symmetric_zero_diagonal(self):
        matrix = build([bytes([i, i + 1, i + 2]) for i in range(12)])
        assert np.allclose(matrix.values, matrix.values.T)
        assert np.allclose(np.diag(matrix.values), 0.0)

    def test_deduplicates(self):
        matrix = build([b"\x01\x02", b"\x01\x02", b"\x09\x08"])
        assert len(matrix) == 2


class TestKnn:
    def test_knn_first_neighbor(self):
        matrix = build([b"\x01\x02", b"\x01\x03", b"\xf0\xf1"])
        knn1 = knn_distances_reference(matrix.values, 1)
        # Closest other segment for index 0 is index 1.
        assert knn1[0] == pytest.approx(matrix.distance(0, 1))

    def test_knn_bounds(self):
        matrix = build([b"\x01\x02", b"\x01\x03", b"\xf0\xf1"])
        with pytest.raises(ValueError):
            knn_distances_reference(matrix.values, 0)
        with pytest.raises(ValueError):
            knn_distances_reference(matrix.values, 3)

    def test_knn_monotone_in_k(self):
        matrix = build([bytes([i, 2 * i]) for i in range(1, 14)])
        knn1 = knn_distances_reference(matrix.values, 1)
        knn2 = knn_distances_reference(matrix.values, 2)
        assert np.all(knn2 >= knn1)


class TestEmptySegmentSet:
    def test_permute_columns_with_no_columns(self):
        # A permutation with no columns sizes no step from them.
        empty = np.zeros((0, 0))
        permute_columns(empty, np.arange(0), 0, workers=2)
        values = np.arange(16.0).reshape(4, 4)
        permute_columns(values, np.arange(0), 4, workers=2)
        assert np.array_equal(values, np.arange(16.0).reshape(4, 4))
        matrix, record = traced([])
        assert matrix.values.shape == (0, 0) and record["tasks"] == 0
        assert len(AppendableMatrix([])) == 0


class TestCondensed:
    def test_length(self):
        matrix = build([bytes([i, i]) for i in range(1, 6)])
        n = len(matrix)
        assert matrix.condensed().shape == (n * (n - 1) // 2,)


class TestDtypeAndStorage:
    def test_float32_halves_storage_and_rounds_once(self):
        reference = build(ladder())
        compact, record = traced(ladder(), dtype="float32")
        assert compact.values.dtype == np.float32
        assert record["dtype"] == "float32"
        assert np.allclose(
            np.asarray(compact.values, dtype=np.float64),
            reference.values,
            atol=1e-6,
        )

    def test_memmap_storage_matches_ram(self):
        reference = build(ladder())
        mapped, record = traced(ladder(), storage="memmap")
        assert isinstance(mapped.values, np.memmap)
        assert record["storage"] == "memmap"
        assert np.array_equal(np.asarray(mapped.values), reference.values)

    def test_refused_memmap_records_ram(self, monkeypatch):
        # A temp dir that refuses the file leaves the values in RAM; the
        # build and append spans must say so, not echo the request.
        def refuse(*args, **kwargs):
            raise OSError("read-only file system")

        monkeypatch.setattr("tempfile.mkstemp", refuse)
        reference = build(ladder())
        fallen, record = traced(ladder(), storage="memmap")
        assert not isinstance(fallen.values, np.memmap)
        assert record["storage"] == "ram"
        assert np.array_equal(fallen.values, reference.values)

        segments = [UniqueSegment(data=d) for d in ladder()]
        tracer = Tracer()
        with use_tracer(tracer):
            grown = AppendableMatrix(
                segments[:5], options=MatrixBuildOptions(storage="memmap")
            )
            grown.append(segments[5:])
        (append,) = tracer.find("matrix.append")
        assert append.attributes["storage"] == "ram"

    def test_knn_inherits_value_dtype(self):
        matrix = build(ladder(), dtype="float32")
        columns = matrix.knn_distances_all(3)
        assert columns.dtype == np.float32

    def test_invalid_dtype_and_storage_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            MatrixBuildOptions(dtype="float16")
        with pytest.raises(ValueError, match="storage"):
            MatrixBuildOptions(storage="disk")


class _ManySegments(Sequence):
    """Claims *count* segments without holding them: a build allocates its
    matrix from the count before it reads a segment."""

    def __init__(self, count):
        self.count = count

    def __len__(self):
        return self.count

    def __getitem__(self, index):
        return UniqueSegment(data=b"\x01\x02")


class TestUnallocatableMatrix:
    """A matrix too large to allocate raises a typed error, not MemoryError."""

    #: 2**48 float64 cells: more bytes than a 47-bit address space holds,
    #: so the allocation fails under any overcommit policy.
    COUNT = 2**24

    def assert_names_the_way_out(self, error):
        message = str(error)
        assert f"{self.COUNT} unique segments" in message
        assert f"{self.COUNT**2 * 8} bytes" in message
        assert "--matrix-memmap" in message
        assert "--matrix-dtype float32" in message

    def test_batch_build(self):
        with pytest.raises(ComputeError) as exc:
            DissimilarityMatrix.build(
                _ManySegments(self.COUNT), options=MatrixBuildOptions(workers=0)
            )
        self.assert_names_the_way_out(exc.value)

    def test_append_growth(self):
        grown = AppendableMatrix([UniqueSegment(data=d) for d in ladder(4)])
        with pytest.raises(ComputeError) as exc:
            grown._ensure_capacity(self.COUNT)
        self.assert_names_the_way_out(exc.value)
        assert len(grown) == 4
