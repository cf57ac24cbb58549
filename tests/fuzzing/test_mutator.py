import pytest

from repro.core.pipeline import FieldTypeClusterer
from repro.fuzzing import MessageFuzzer, MutationStrategy
from repro.protocols import get_model
from repro.segmenters import GroundTruthSegmenter
from repro.semantics import deduce_semantics


@pytest.fixture(scope="module")
def ntp_fuzzer():
    model = get_model("ntp")
    trace = model.generate(150, seed=5).preprocess()
    segments = GroundTruthSegmenter(model).segment(trace)
    result = FieldTypeClusterer().cluster(segments)
    semantics = deduce_semantics(result, trace)
    return MessageFuzzer(
        trace=trace, segments=segments, result=result, semantics=semantics
    )


class TestFuzzCaseGeneration:
    def test_generates_requested_count(self, ntp_fuzzer):
        cases = ntp_fuzzer.generate(25, seed=1)
        assert len(cases) == 25

    def test_deterministic_given_seed(self, ntp_fuzzer):
        first = [c.data for c in ntp_fuzzer.generate(10, seed=2)]
        second = [c.data for c in ntp_fuzzer.generate(10, seed=2)]
        assert first == second

    def test_case_length_preserved_for_fixed_mutations(self, ntp_fuzzer):
        for case in ntp_fuzzer.generate(25, seed=3):
            base = ntp_fuzzer.trace[case.base_message_index].data
            if case.strategy in (
                MutationStrategy.ARITHMETIC,
                MutationStrategy.RESAMPLE,
                MutationStrategy.BITFLIP,
                MutationStrategy.ENUMERATE,
            ):
                assert len(case.data) == len(base)

    def test_mutation_localized(self, ntp_fuzzer):
        for case in ntp_fuzzer.generate(25, seed=4):
            base = ntp_fuzzer.trace[case.base_message_index].data
            if len(case.data) != len(base):
                continue
            assert case.data[: case.mutated_offset] == base[: case.mutated_offset]
            end = case.mutated_offset + case.mutated_length
            assert case.data[end:] == base[end:]

    def test_most_cases_differ_from_base(self, ntp_fuzzer):
        cases = ntp_fuzzer.generate(40, seed=5)
        changed = sum(
            1
            for c in cases
            if c.data != ntp_fuzzer.trace[c.base_message_index].data
        )
        assert changed >= 30


class TestStrategySelection:
    def test_unclustered_falls_back_to_bitflip(self, ntp_fuzzer):
        assert ntp_fuzzer.strategy_for(-1) is MutationStrategy.BITFLIP

    def test_strategy_follows_semantics(self, ntp_fuzzer):
        assert ntp_fuzzer.semantics is not None
        for semantics in ntp_fuzzer.semantics:
            strategy = ntp_fuzzer.strategy_for(semantics.cluster_id)
            if semantics.label == "constant":
                assert strategy is MutationStrategy.KEEP
            if semantics.label == "random-token":
                assert strategy is MutationStrategy.RESAMPLE


class TestMisbehaviorDetection:
    def test_flags_tampered_timestamp(self, ntp_fuzzer):
        base = ntp_fuzzer.trace[1].data
        tampered = base[:40] + b"\xff" * 8
        assert ntp_fuzzer.detect_misbehavior(tampered)

    def test_original_messages_clean(self, ntp_fuzzer):
        clean = ntp_fuzzer.detect_misbehavior(ntp_fuzzer.trace[1].data)
        assert clean == []

    def test_unknown_length_message_ignored(self, ntp_fuzzer):
        assert ntp_fuzzer.detect_misbehavior(b"\x00" * 7) == []


class TestAllConstantEdgeCase:
    def test_raises_when_nothing_mutable(self):
        from repro.core.segments import Segment
        from repro.net.trace import Trace, TraceMessage
        from repro.semantics.engine import ClusterSemantics, SemanticHypothesis

        trace = Trace(messages=[TraceMessage(data=b"\xca\xfe") for _ in range(20)])
        segments = [
            Segment(message_index=i, offset=0, data=b"\xca\xfe") for i in range(20)
        ]
        result = FieldTypeClusterer().cluster(segments)
        semantics = [
            ClusterSemantics(
                cluster_id=c,
                distinct_values=1,
                total_occurrences=20,
                lengths=[2],
                hypotheses=[SemanticHypothesis("constant", 1.0, "")],
            )
            for c in range(result.cluster_count)
        ]
        fuzzer = MessageFuzzer(
            trace=trace, segments=segments, result=result, semantics=semantics
        )
        if result.cluster_count:
            with pytest.raises(ValueError, match="nothing to fuzz"):
                fuzzer.generate(5)
