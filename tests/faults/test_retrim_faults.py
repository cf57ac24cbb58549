"""Fault injection, autoconf: the epsilon retrim fallback degrades cleanly.

Acceptance path: when the Section III-E trim-and-retry fallback hits
the degenerate case (every k-NN distribution empties under the trim,
surfacing as ValueError from ``configure``), ``cluster()`` must keep
the clustering found before the retrim — and the ``dbscan`` span's
``retrims`` attribute must report only retrims that actually happened,
not the abandoned attempt.
"""

import numpy as np
import pytest

from repro.core.ecdf import Ecdf
from repro.core.pipeline import FieldTypeClusterer
from repro.core.segments import Segment
from repro.obs.tracer import Tracer, use_tracer

pytestmark = pytest.mark.faults


def _retrim_prone_segments():
    """A dense family plus scatter: triggers the giant-cluster fallback."""
    rng = np.random.default_rng(5)
    segments = []
    base = bytes([40, 80, 120, 160])
    for i in range(120):
        data = bytes((b + rng.integers(0, 6)) % 256 for b in base)
        segments.append(Segment(message_index=i, offset=0, data=data))
    for i in range(30):
        data = bytes(rng.integers(0, 256, size=4).tolist())
        segments.append(Segment(message_index=120 + i, offset=0, data=data))
    return segments


class TestRetrimFaults:
    def test_healthy_retrim_counts_retries(self):
        tracer = Tracer()
        with use_tracer(tracer):
            result = FieldTypeClusterer().cluster(_retrim_prone_segments())
        assert result.retrims >= 1
        (dbscan_span,) = tracer.find("dbscan")
        assert dbscan_span.attributes["retrims"] == result.retrims

    def test_degenerate_trim_reports_zero_retries(self, monkeypatch):
        def degenerate_trim(self, threshold):
            raise ValueError(f"no samples below {threshold}")

        monkeypatch.setattr(Ecdf, "trim_below", degenerate_trim)
        tracer = Tracer()
        with use_tracer(tracer):
            result = FieldTypeClusterer().cluster(_retrim_prone_segments())
        # The abandoned fallback is not a retry: the span and the
        # result agree that no retrim took effect.
        assert result.retrims == 0
        (dbscan_span,) = tracer.find("dbscan")
        assert dbscan_span.attributes["retrims"] == 0
        assert result.cluster_count >= 1
