"""Unit tests for the event machinery (repro.core.events)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import minmax
from repro.algorithms.baseline import ApBaseline, ExBaseline
from repro.algorithms.minmax import ApMinMax, ExMinMax
from repro.core.events import EventTrace, EventType, TraceEvent
from repro.core.types import Community


class TestEventType:
    def test_paper_names(self):
        assert EventType.MIN_PRUNE.value == "MIN PRUNE"
        assert EventType.MAX_PRUNE.value == "MAX PRUNE"
        assert EventType.NO_OVERLAP.value == "NO OVERLAP"
        assert EventType.NO_MATCH.value == "NO MATCH"
        assert EventType.MATCH.value == "MATCH"


class TestTraceEvent:
    def test_match_format_uses_in_connector(self):
        event = TraceEvent(EventType.MATCH, "b2:48", "a3:(42, 72)")
        assert event.format() == "* b2:48 IN a3:(42, 72) => MATCH"

    def test_min_prune_uses_less_than(self):
        event = TraceEvent(EventType.MIN_PRUNE, "b1:40", "a3:(42, 72)")
        assert event.format() == "* b1:40 < a3:(42, 72) => MIN PRUNE"

    def test_max_prune_uses_greater_than(self):
        event = TraceEvent(EventType.MAX_PRUNE, "b3:67", "a1:(30, 55)")
        assert event.format() == "* b3:67 > a1:(30, 55) => MAX PRUNE"

    def test_detail_appended(self):
        event = TraceEvent(EventType.MATCH, "b1:40", "a1:(30, 55)", "maxV = 55")
        assert event.format().endswith("=> MATCH (maxV = 55)")

    def test_single_label(self):
        event = TraceEvent(EventType.MATCH, b_label="b1")
        assert event.format() == "* b1 => MATCH"


class TestEventTrace:
    def test_counts_without_recording(self):
        trace = EventTrace(record=False)
        trace.emit(EventType.MATCH)
        trace.emit(EventType.NO_MATCH)
        trace.emit(EventType.NO_MATCH)
        assert trace.counts.match == 1
        assert trace.counts.no_match == 2
        assert trace.events == []

    def test_recording_stores_events(self):
        trace = EventTrace(record=True)
        trace.emit(EventType.MIN_PRUNE, "b1", "a1")
        assert len(trace.events) == 1
        assert trace.events[0].kind is EventType.MIN_PRUNE

    def test_emit_bulk(self):
        trace = EventTrace()
        trace.emit_bulk(EventType.NO_OVERLAP, 7)
        assert trace.counts.no_overlap == 7

    def test_emit_bulk_ignores_non_positive(self):
        trace = EventTrace()
        trace.emit_bulk(EventType.MATCH, 0)
        trace.emit_bulk(EventType.MATCH, -3)
        assert trace.counts.match == 0

    def test_notes_only_when_recording(self):
        silent = EventTrace(record=False)
        silent.note("CSF(...)")
        assert silent.notes == []
        recording = EventTrace(record=True)
        recording.note("CSF(<b1, a1>)")
        assert recording.notes == ["CSF(<b1, a1>)"]

    def test_format_includes_events_and_notes(self):
        trace = EventTrace(record=True)
        trace.emit(EventType.MATCH, "b1:10", "a1:(5, 15)")
        trace.note("CSF(<b1, a1>)")
        formatted = trace.format()
        assert "=> MATCH" in formatted
        assert "CSF(<b1, a1>)" in formatted

    def test_all_event_kinds_counted(self):
        trace = EventTrace()
        for kind in EventType:
            trace.emit(kind)
        assert trace.counts.total == len(EventType)


class TestBaselineEngineParity:
    """Python and numpy baseline engines must report identical totals.

    The python engines emit one event per scanned pair; the numpy
    engines account the same pairs in bulk.  Totals (not just MATCH but
    also NO_MATCH) must agree so event reports are engine-independent.
    """

    @pytest.mark.parametrize("algorithm_cls", [ApBaseline, ExBaseline])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_event_totals_match(self, algorithm_cls, seed):
        from repro.testing import random_counter_couple

        vectors_b, vectors_a = random_counter_couple(
            seed, n_b=14, n_a=20, n_dims=5, high=6
        )
        community_b = Community("B", vectors_b)
        community_a = Community("A", vectors_a)
        python = algorithm_cls(1, engine="python").join(community_b, community_a)
        vectorised = algorithm_cls(1, engine="numpy").join(community_b, community_a)
        assert python.pair_tuples() == vectorised.pair_tuples()
        assert python.events.as_dict() == vectorised.events.as_dict()
        assert python.events.comparisons == vectorised.events.comparisons

    @pytest.mark.parametrize("algorithm_cls", [ApBaseline, ExBaseline])
    def test_parity_when_nothing_matches(self, algorithm_cls):
        community_b = Community("B", [[0, 0]] * 4)
        community_a = Community("A", [[90, 90]] * 5)
        python = algorithm_cls(1, engine="python").join(community_b, community_a)
        vectorised = algorithm_cls(1, engine="numpy").join(community_b, community_a)
        assert python.events.as_dict() == vectorised.events.as_dict()
        assert vectorised.events.no_match == 20
        assert vectorised.events.match == 0


@st.composite
def minmax_couples(draw):
    """A (B, A) couple plus epsilon and part count for a MinMax join.

    ``spread`` couples draw small random counters; ``apart`` couples put
    A far above B so no window opens; ``close`` couples keep every
    counter within epsilon of every other, so every window opens.
    """
    n_b, n_a = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    d = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["spread", "apart", "close"]))
    epsilon = draw(st.integers(0, 5))
    high = draw(st.integers(1, 8)) if shape == "spread" else 3
    b = np.array(
        draw(st.lists(st.integers(0, high - 1), min_size=n_b * d, max_size=n_b * d))
    ).reshape(n_b, d)
    a = np.array(
        draw(st.lists(st.integers(0, high - 1), min_size=n_a * d, max_size=n_a * d))
    ).reshape(n_a, d)
    if shape == "apart":
        a = a + 100
    elif shape == "close":
        epsilon = max(epsilon, high - 1)
    return b, a, epsilon, draw(st.integers(1, 4))


class TestMinMaxEngineParity:
    """The blocked numpy MinMax engines against the faithful loops.

    Ap-MinMax must commit the same pairs in the same order, Ex-MinMax
    must reach the same matching size, and both must count the same
    MATCH and NO_MATCH events — also when a join spans many blocks,
    so the greedy state and the counts carry across block boundaries.
    """

    @settings(max_examples=150, deadline=None)
    @given(minmax_couples(), st.sampled_from([1, 7, minmax.BLOCK_CELLS]))
    def test_engines_agree(self, couple, block_cells):
        vectors_b, vectors_a, epsilon, n_parts = couple
        community_b, community_a = Community("B", vectors_b), Community("A", vectors_a)
        for algorithm_cls in (ApMinMax, ExMinMax):
            python = algorithm_cls(epsilon, n_parts=n_parts, engine="python").join(
                community_b, community_a, enforce_size_ratio=False
            )
            with mock.patch.object(minmax, "BLOCK_CELLS", block_cells):
                vectorised = algorithm_cls(epsilon, n_parts=n_parts).join(
                    community_b, community_a, enforce_size_ratio=False
                )
            if algorithm_cls is ApMinMax:
                assert python.pair_tuples() == vectorised.pair_tuples()
            else:
                assert python.similarity == vectorised.similarity
                assert python.n_matched == vectorised.n_matched
            assert python.events.match == vectorised.events.match
            assert python.events.no_match == vectorised.events.no_match
