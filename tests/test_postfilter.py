import numpy as np
import pytest

from cellwatch.baseline import AnomalyScore, Direction, ScoredWindow
from cellwatch.jsondoc import decode, encode
from cellwatch.postfilter import AnomalyEvent, FilterConfig, _persistence_survivors, apply_filters

from helpers import persistence_survivors_scan


def stream(flags, scores=None, window_len=300):
    """Scored windows from a 0/1 flag list; flagged windows default to score 8."""
    out = []
    for i, f in enumerate(flags):
        score = scores[i] if scores else (8.0 if f else 0.5)
        direction = Direction.UP if f else Direction.NONE
        out.append(
            ScoredWindow(
                window_start=i * window_len,
                score=AnomalyScore(score, direction, bool(f), True),
                flagged=bool(f),
            )
        )
    return out


CFG = FilterConfig(persistence_m=2, persistence_n=3, merge_gap=2, min_peak_score=6.0)


def run(flags, cfg=CFG, scores=None):
    return apply_filters(stream(flags, scores), cfg, cell_id="c1", metric_name="kqi")


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
            assert _persistence_survivors(flags, m, n) == persistence_survivors_scan(flags, m, n)


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
        assert apply_filters([], CFG, cell_id="c", metric_name="m") == []


def test_event_json_round_trip():
    event = AnomalyEvent("c1", "kqi", 0, 600, 7.5, 300, Direction.DOWN)
    assert decode(AnomalyEvent, encode(event)) == event


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(persistence_m=3, persistence_n=2)
    with pytest.raises(ValueError):
        FilterConfig(merge_gap=-1)
