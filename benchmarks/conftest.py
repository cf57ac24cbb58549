"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artefact (table row, table cell,
or figure) exactly once per run (``pedantic`` with a single round — the
experiments are deterministic, so statistical repetition only wastes
time) and attaches the reproduced numbers as ``extra_info`` so the
pytest-benchmark report carries the actual table values.
"""

from __future__ import annotations

import pytest

from repro.core.matrix import MatrixBuildOptions


def pytest_addoption(parser):
    group = parser.getgroup("repro matrix backend")
    group.addoption(
        "--matrix-workers",
        type=int,
        default=None,
        help="dissimilarity-matrix worker threads (default: usable CPUs)",
    )


@pytest.fixture
def matrix_options(request) -> MatrixBuildOptions:
    """Backend options from the --matrix-* benchmark flags."""
    return MatrixBuildOptions(workers=request.config.getoption("--matrix-workers"))


def attach_matrix_stats(benchmark, build: dict) -> None:
    """Record the matrix backend, read from the attributes of its
    ``matrix.build`` span, in the report."""
    benchmark.extra_info["matrix_backend"] = build["backend"]
    benchmark.extra_info["matrix_workers"] = build["workers"]


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def attach_score(benchmark, cell_or_row) -> None:
    """Record reproduced metrics in the benchmark report."""
    score = getattr(cell_or_row, "score", None)
    if score is not None:
        benchmark.extra_info["precision"] = round(score.precision, 3)
        benchmark.extra_info["recall"] = round(score.recall, 3)
        benchmark.extra_info["fscore"] = round(score.fscore, 3)
    coverage = getattr(cell_or_row, "coverage", None)
    if coverage is not None:
        benchmark.extra_info["coverage"] = round(coverage, 3)
    epsilon = getattr(cell_or_row, "epsilon", None)
    if epsilon is not None:
        benchmark.extra_info["epsilon"] = round(epsilon, 4)


@pytest.fixture
def seed() -> int:
    return 42
