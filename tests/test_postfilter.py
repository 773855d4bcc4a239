import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellwatch.baseline import Direction
from cellwatch.jsondoc import decode, encode
from cellwatch.postfilter import AnomalyEvent, FilterConfig, _persistence_survivors, apply_filters

from helpers import filter_events_scan, persistence_survivors_scan

DIRECTIONS = (Direction.NONE, Direction.UP, Direction.DOWN)  # by direction index


def stream(flags, scores=None, directions=None, window_len=300):
    """score_series records from a 0/1 flag list; flagged windows default to score 8 and UP."""
    flagged = np.asarray(flags, dtype=bool)
    return np.rec.fromarrays(
        [
            window_len * np.arange(len(flagged), dtype=np.int64),
            np.where(flagged, 8.0, 0.5) if scores is None else np.asarray(scores, dtype=np.float64),
            flagged.astype(np.int64) if directions is None else np.asarray(directions, dtype=np.int64),
            flagged,
            np.ones(len(flagged), dtype=bool),
            flagged,
        ],
        names="window_start,score,direction,degrading,sufficient_data,flagged",
    )


CFG = FilterConfig(persistence_m=2, persistence_n=3, merge_gap=2, min_peak_score=6.0)


def run(flags, cfg=CFG, scores=None, directions=None):
    return apply_filters(stream(flags, scores, directions), cfg, cell_id="c1", metric_name="kqi")


class TestPersistence:
    def test_three_flag_run_keeps_all_three(self):
        events = run([1, 1, 1, 0, 0])
        assert len(events) == 1
        assert (events[0].start_window, events[0].end_window) == (0, 600)

    def test_isolated_flags_never_survive(self):
        assert run([1, 0, 0, 0, 1, 0, 0, 0]) == []

    def test_no_flags_no_events(self):
        assert run([0] * 8) == []

    def test_two_adjacent_flags_survive_with_m2_n3(self):
        events = run([0, 0, 1, 1, 0, 0])
        assert len(events) == 1
        assert (events[0].start_window, events[0].end_window) == (600, 900)

    def test_stream_shorter_than_span(self):
        assert len(run([1, 1])) == 1
        assert run([1]) == []

    def test_monotone_in_m(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            flags = [bool(v) for v in rng.random(30) < 0.25]
            n = int(rng.integers(2, 5))
            counts = [
                len(_persistence_survivors(flags, m, n)) for m in range(1, n + 1)
            ]
            assert counts == sorted(counts, reverse=True)

    def test_matches_span_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            flags = [bool(v) for v in rng.random(int(rng.integers(0, 25))) < rng.uniform(0, 1)]
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, n + 1))
            assert _persistence_survivors(flags, m, n).tolist() == persistence_survivors_scan(flags, m, n)


class TestMergeAndPeak:
    def test_nearby_survivors_coalesce(self):
        # two 2-flag runs separated by 2 quiet windows merge at gap 2
        events = run([1, 1, 0, 0, 1, 1])
        assert len(events) == 1
        assert (events[0].start_window, events[0].end_window) == (0, 1500)

    def test_wider_gap_stays_separate(self):
        events = run([1, 1, 0, 0, 0, 1, 1])
        assert len(events) == 2

    def test_gap_zero_only_adjacent(self):
        cfg = FilterConfig(persistence_m=1, persistence_n=1, merge_gap=0, min_peak_score=1.0)
        events = run([1, 0, 1], cfg)
        assert len(events) == 2

    def test_peak_floor_drops_marginal_events(self):
        scores = [6.5, 5.5, 5.5, 0.1, 0.1]
        events = run([1, 1, 1, 0, 0], scores=scores)
        assert len(events) == 1
        assert events[0].peak_score == 6.5
        weak = run([1, 1, 1, 0, 0], scores=[5.9, 5.5, 5.5, 0.1, 0.1])
        assert weak == []

    def test_peak_window_is_argmax_over_flagged(self):
        scores = [7.0, 9.0, 8.0, 0.1, 0.1]
        (event,) = run([1, 1, 1, 0, 0], scores=scores)
        assert event.peak_window == 300
        assert event.peak_score == 9.0
        assert event.direction == Direction.UP


class TestInvariants:
    def rand_cfg(self, rng):
        n = int(rng.integers(1, 5))
        return FilterConfig(
            persistence_m=int(rng.integers(1, n + 1)),
            persistence_n=n,
            merge_gap=int(rng.integers(0, 4)),
            min_peak_score=float(rng.uniform(0, 8)),
        )

    def test_events_contain_flagged_windows_and_stay_disjoint(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            flags = [bool(v) for v in rng.random(40) < 0.3]
            cfg = self.rand_cfg(rng)
            events = run(flags, cfg)
            prev_end = None
            for e in events:
                lo, hi = e.start_window // 300, e.end_window // 300
                assert any(flags[i] for i in range(lo, hi + 1))
                assert e.start_window <= e.peak_window <= e.end_window
                if prev_end is not None:
                    assert lo - prev_end - 1 > cfg.merge_gap
                prev_end = hi

    def test_deterministic(self):
        rng = np.random.default_rng(99)
        flags = [bool(v) for v in rng.random(50) < 0.3]
        assert run(flags) == run(flags)

    def test_empty_input(self):
        assert apply_filters(stream([]), CFG, cell_id="c", metric_name="m") == []


@st.composite
def filter_cases(draw):
    """A flag, score and direction stream (possibly empty or all flagged) and a FilterConfig."""
    n = draw(st.integers(0, 40))
    flags = draw(st.one_of(st.just([True] * n), st.lists(st.booleans(), min_size=n, max_size=n)))
    # few distinct scores, so that peaks tie
    scores = draw(st.lists(st.sampled_from([0.0, 2.5, 6.0, 7.5, 11.0]), min_size=n, max_size=n))
    directions = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    span = draw(st.integers(1, 6))
    cfg = FilterConfig(
        persistence_m=draw(st.integers(1, span)),
        persistence_n=span,
        merge_gap=draw(st.integers(0, 4)),
        min_peak_score=draw(st.sampled_from([-1.0, 0.0, 6.0, 7.5, 20.0])),
    )
    return flags, scores, directions, cfg


@settings(max_examples=400, deadline=None, derandomize=True)
@given(filter_cases())
def test_filters_equal_the_window_by_window_pass(case):
    flags, scores, directions, cfg = case
    starts = [300 * i for i in range(len(flags))]
    want = filter_events_scan(starts, flags, scores, [DIRECTIONS[d] for d in directions], cfg,
                              cell_id="c1", metric_name="kqi")
    assert run(flags, cfg, scores, directions) == want


def test_event_json_round_trip():
    event = AnomalyEvent("c1", "kqi", 0, 600, 7.5, 300, Direction.DOWN)
    assert decode(AnomalyEvent, encode(event)) == event


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(persistence_m=3, persistence_n=2)
    with pytest.raises(ValueError):
        FilterConfig(merge_gap=-1)
