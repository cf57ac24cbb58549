"""Span nesting, exception safety, and the contextvar tracer binding."""

import pytest

from repro.obs.tracer import Span, Tracer, get_tracer, peak_rss_kib, use_tracer


class TestSpanNesting:
    def test_single_root_span(self):
        tracer = Tracer()
        with tracer.span("work", items=3) as span:
            pass
        assert tracer.roots == [span]
        assert span.name == "work"
        assert span.attributes == {"items": 3}
        assert span.status == "ok"
        assert span.wall_seconds >= 0.0
        assert span.cpu_seconds >= 0.0

    def test_children_nest_under_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        (outer,) = tracer.roots
        assert [c.name for c in outer.children] == ["middle", "sibling"]
        assert [c.name for c in outer.children[0].children] == ["inner"]

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]

    def test_walk_is_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        assert [s.name for s in tracer.walk()] == ["a", "b", "c", "d"]

    def test_find_and_stage_timings(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("stage"):
                pass
            with tracer.span("stage"):
                pass
        assert len(tracer.find("stage")) == 2
        timings = tracer.stage_timings()
        assert set(timings) == {"run", "stage"}
        assert timings["stage"] >= 0.0

    def test_set_attributes_mid_span(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            span.set(backend="parallel", workers=4)
        assert span.attributes == {"backend": "parallel", "workers": 4}

    def test_wall_clock_measures_elapsed_time(self):
        import time

        tracer = Tracer()
        with tracer.span("sleep") as span:
            time.sleep(0.01)
        assert span.wall_seconds >= 0.009

    def test_parent_duration_covers_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        (outer,) = tracer.roots
        assert outer.wall_seconds >= outer.children[0].wall_seconds


class TestRootRetention:
    def test_max_roots_caps_retention(self):
        tracer = Tracer(max_roots=2)
        spans = []
        for i in range(5):
            with tracer.span(f"root-{i}") as span:
                spans.append(span)
        assert tracer.roots == spans[:2]
        assert tracer.dropped_roots == 3
        # Dropped roots still measured for their caller.
        assert all(s.wall_seconds >= 0.0 for s in spans)

    def test_max_roots_applies_to_record(self):
        tracer = Tracer(max_roots=1)
        tracer.record("a", wall_seconds=0.1)
        tracer.record("b", wall_seconds=0.2)
        assert [s.name for s in tracer.roots] == ["a"]
        assert tracer.dropped_roots == 1

    def test_children_are_never_dropped(self):
        tracer = Tracer(max_roots=1)
        with tracer.span("kept"):
            with tracer.span("child"):
                pass
        (root,) = tracer.roots
        assert [c.name for c in root.children] == ["child"]

    def test_reset_clears_and_resumes_retention(self):
        tracer = Tracer(max_roots=1)
        with tracer.span("first"):
            pass
        with tracer.span("dropped"):
            pass
        tracer.reset()
        assert tracer.roots == [] and tracer.dropped_roots == 0
        with tracer.span("second") as span:
            pass
        assert tracer.roots == [span]

    def test_invalid_max_roots(self):
        with pytest.raises(ValueError):
            Tracer(max_roots=0)


class TestExceptionSafety:
    def test_exception_marks_span_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("explodes"):
                raise ValueError("boom")
        (span,) = tracer.roots
        assert span.status == "error"
        assert span.error == "ValueError: boom"
        assert span.wall_seconds >= 0.0

    def test_stack_unwinds_after_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("inner fails")
        # The tracer is reusable: a new span becomes a fresh root.
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.roots] == ["outer", "after"]
        (outer, _) = tracer.roots
        assert outer.status == "error"
        assert outer.children[0].status == "error"

    def test_outer_span_error_does_not_mark_completed_children(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("done"):
                    pass
                raise RuntimeError("late failure")
        (outer,) = tracer.roots
        assert outer.status == "error"
        assert outer.children[0].status == "ok"


class TestDisabledTracer:
    def test_disabled_tracer_measures_but_retains_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("work") as span:
            pass
        assert tracer.roots == []
        assert span.wall_seconds >= 0.0

    def test_default_tracer_is_disabled(self):
        default = get_tracer()
        before = list(default.roots)
        with default.span("ambient"):
            pass
        assert default.roots == before == []

    def test_default_tracer_holds_no_open_span(self):
        # The default is shared by every thread and call that binds no
        # tracer, so an open span must live only in its caller's frame.
        default = get_tracer()
        with default.span("outer") as outer, default.span("inner") as inner:
            for value in vars(default).values():
                held = value if isinstance(value, list) else [value]
                assert not any(item is outer or item is inner for item in held)


class TestContextBinding:
    def test_use_tracer_binds_and_restores(self):
        mine = Tracer()
        ambient = get_tracer()
        with use_tracer(mine):
            assert get_tracer() is mine
            with get_tracer().span("inside"):
                pass
        assert get_tracer() is ambient
        assert [s.name for s in mine.roots] == ["inside"]

    def test_use_tracer_nests(self):
        first, second = Tracer(), Tracer()
        with use_tracer(first):
            with use_tracer(second):
                assert get_tracer() is second
            assert get_tracer() is first


class TestSpanSerialization:
    def test_to_dict_round_trips_tree(self):
        tracer = Tracer()
        with tracer.span("outer", n=1):
            with tracer.span("inner"):
                pass
        node = tracer.roots[0].to_dict()
        assert node["name"] == "outer"
        assert node["attributes"] == {"n": 1}
        assert node["status"] == "ok"
        assert node["error"] is None
        assert [c["name"] for c in node["children"]] == ["inner"]

    def test_peak_rss_recorded_where_available(self):
        if peak_rss_kib() is None:
            pytest.skip("resource module unavailable")
        tracer = Tracer()
        with tracer.span("work") as span:
            pass
        assert span.peak_rss_kib > 0

    def test_span_defaults(self):
        span = Span(name="bare")
        assert span.children == [] and span.attributes == {}
        assert span.status == "ok"
