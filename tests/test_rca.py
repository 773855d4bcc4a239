import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellwatch.baseline import Direction
from cellwatch.fingerprints import (
    Fingerprint,
    FingerprintDb,
    SymptomItem,
    db_to_json,
    update_db,
    empty_db,
)
from cellwatch.postfilter import AnomalyEvent
from cellwatch.rca import SymptomSet, diagnose, jaccard_distance
from helpers import brute_force_diagnose


def items(*tokens):
    return frozenset(SymptomItem.from_token(t) for t in tokens)


def rule(tokens, consequent="Q", label=None, confidence=1.0, count=3):
    return Fingerprint(
        antecedent=items(*tokens),
        consequent=consequent,
        support=0.1,
        support_count=count,
        antecedent_count=count,
        confidence=confidence,
        lift=2.0,
        cause_label=label,
    )


def make_db(rules):
    return FingerprintDb(rules=list(rules), transaction_total=100, built_at=0)


def symptoms(item_tokens, consequent="Q"):
    event = AnomalyEvent("c1", consequent, 0, 300, 8.0, 0, Direction.UP)
    return SymptomSet(items=items(*item_tokens), consequent=consequent, event=event)


class TestJaccard:
    def test_identical_sets_distance_zero(self):
        a = items("rtt=HIGH", "loss=HIGH")
        assert jaccard_distance(a, a) == 0.0

    def test_partial_overlap(self):
        a = items("a=HIGH", "b=HIGH")
        b = items("b=HIGH", "c=HIGH")
        assert jaccard_distance(a, b) == pytest.approx(1 - 1 / 3)

    def test_disjoint_sets_distance_one(self):
        assert jaccard_distance(items("a=HIGH"), items("b=HIGH")) == 1.0

    def test_both_empty_is_zero(self):
        assert jaccard_distance(frozenset(), frozenset()) == 0.0

    def test_metric_properties_incl_triangle(self):
        rng = np.random.default_rng(55)
        universe = [f"m{i}={s}" for i in range(6) for s in ("HIGH", "LOW")]

        def rand_set():
            k = int(rng.integers(0, 6))
            return items(*rng.choice(universe, size=k, replace=False)) if k else frozenset()

        for _ in range(2000):
            a, b, c = rand_set(), rand_set(), rand_set()
            dab, dbc, dac = jaccard_distance(a, b), jaccard_distance(b, c), jaccard_distance(a, c)
            assert 0.0 <= dab <= 1.0
            assert dab == jaccard_distance(b, a)
            assert (dab == 0.0) == (a == b)
            assert dac <= dab + dbc + 1e-12


class TestDiagnose:
    def test_exact_signature_match(self):
        db = make_db([rule(["rtt=HIGH"], label="congestion")])
        result = diagnose(db, symptoms(["rtt=HIGH"]), k=3, match_threshold=0.5)
        assert result.matched
        assert result.ranked[0].cause_label == "congestion"
        assert result.ranked[0].distance == 0.0

    def test_distant_signature_unmatched(self):
        db = make_db([rule(["rtt=HIGH"], label="congestion")])
        result = diagnose(db, symptoms(["loss=HIGH"]), k=3, match_threshold=0.5)
        assert result.ranked[0].distance == 1.0
        assert not result.matched

    def test_consequent_filter(self):
        db = make_db([rule(["rtt=HIGH"], consequent="Q")])
        result = diagnose(db, symptoms(["rtt=HIGH"], consequent="R"), k=3, match_threshold=0.5)
        assert result.ranked == []
        assert not result.matched

    def test_k_truncates(self):
        db = make_db([rule([f"m{i}=HIGH"], label=f"cause{i}") for i in range(5)])
        result = diagnose(db, symptoms(["m0=HIGH"]), k=2, match_threshold=1.0)
        assert len(result.ranked) == 2
        assert result.ranked[0].cause_label == "cause0"

    def test_tie_break_by_confidence_then_support(self):
        db = make_db(
            [
                rule(["a=HIGH"], label="low_conf", confidence=0.8, count=9),
                rule(["b=HIGH"], label="high_conf", confidence=0.95, count=3),
            ]
        )
        result = diagnose(db, symptoms(["c=HIGH"]), k=2, match_threshold=1.0)
        assert [r.cause_label for r in result.ranked] == ["high_conf", "low_conf"]

    def test_top1_invariant_under_db_permutation(self):
        rng = np.random.default_rng(13)
        rules = [
            rule([f"m{i}=HIGH", f"m{(i + 1) % 8}=HIGH"], label=f"cause{i}", confidence=0.8 + i * 0.02)
            for i in range(8)
        ]
        query = symptoms(["m3=HIGH", "m4=HIGH"])
        baseline = diagnose(make_db(rules), query, k=3, match_threshold=1.0)
        for _ in range(10):
            shuffled = list(rules)
            rng.shuffle(shuffled)
            result = diagnose(make_db(shuffled), query, k=3, match_threshold=1.0)
            assert result.ranked[0].fingerprint == baseline.ranked[0].fingerprint
            assert [r.distance for r in result.ranked] == [r.distance for r in baseline.ranked]

    def test_parameter_validation(self):
        db = make_db([])
        with pytest.raises(ValueError):
            diagnose(db, symptoms([]), k=0, match_threshold=0.5)
        with pytest.raises(ValueError):
            diagnose(db, symptoms([]), k=1, match_threshold=1.5)

    def test_unlabeled_rules_render_as_unlabeled(self):
        db = make_db([rule(["rtt=HIGH"])])
        result = diagnose(db, symptoms(["rtt=HIGH"]), k=1, match_threshold=0.5)
        doc = result.to_json_dict()
        assert doc["ranked"][0]["cause"] == "UNLABELED"


# A small item pool so that random rules share items and tie on distance;
# OUTSIDE items appear only in queries, never in a rule.
POOL = [f"m{i}={state}" for i in range(4) for state in ("HIGH", "LOW")]
OUTSIDE = ["x0=HIGH", "x1=LOW"]


@st.composite
def random_rules(draw):
    return Fingerprint(
        antecedent=items(*draw(st.sets(st.sampled_from(POOL), max_size=4))),  # may be empty
        consequent=draw(st.sampled_from(["Q0", "Q1", "Q2"])),
        support=0.1,
        support_count=draw(st.integers(1, 3)),
        antecedent_count=3,
        confidence=draw(st.sampled_from([0.5, 0.8, 1.0])),
        lift=2.0,
        cause_label=draw(st.sampled_from([None, "a", "b"])),
    )


@st.composite
def random_queries(draw):
    tokens = draw(st.sets(st.sampled_from(POOL + OUTSIDE), max_size=5))  # may be empty
    return symptoms(tokens, consequent=draw(st.sampled_from(["Q0", "Q1", "Q2", "Q_no_rules"])))


def assert_same_diagnosis(got, want):
    # identity, not equality: duplicate rules must keep their db order
    assert [id(r.fingerprint) for r in got.ranked] == [id(r.fingerprint) for r in want.ranked]
    assert [r.distance for r in got.ranked] == [r.distance for r in want.ranked]
    assert [r.cause_label for r in got.ranked] == [r.cause_label for r in want.ranked]
    assert got.matched == want.matched
    assert got.to_json_dict() == want.to_json_dict()


class TestIndexAgainstBruteForce:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(random_rules(), max_size=14),
        st.lists(random_queries(), min_size=1, max_size=6),
        st.integers(1, 16),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    )
    def test_ranking_equals_filter_and_full_sort(self, rules, queries, k, threshold):
        db = make_db(rules)
        for query in queries:  # later queries run against the cached index
            assert_same_diagnosis(
                diagnose(db, query, k=k, match_threshold=threshold),
                brute_force_diagnose(db, query, k, threshold),
            )

    def test_empty_antecedent_and_empty_query_are_at_distance_zero(self):
        db = make_db([rule(["a=HIGH"], label="a"), rule([], label="empty")])
        result = diagnose(db, symptoms([]), k=5, match_threshold=0.0)
        assert [(r.cause_label, r.distance) for r in result.ranked] == [("empty", 0.0), ("a", 1.0)]
        assert result.matched


# The fleet's shape: 40 KPIs x HIGH/LOW is more items than one 64-bit word
# holds, buckets of up to a few hundred rules with 1-3 item antecedents, and
# queries of up to 15 items, some of them outside the db's vocabulary.
WIDE_POOL = [f"k{i:02d}={state}" for i in range(40) for state in ("HIGH", "LOW")]
WIDE_OUTSIDE = [f"x{i}=HIGH" for i in range(6)]


class TestWideVocabularyAgainstBruteForce:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 600), st.integers(1, 16))
    def test_ranking_equals_filter_and_full_sort(self, seed, n_rules, k):
        rng = np.random.default_rng(seed)
        rules = [
            rule(
                rng.choice(WIDE_POOL, size=int(rng.integers(1, 4)), replace=False),
                consequent=str(rng.choice(["Q0", "Q1"])),
                label=str(rng.choice(["a", "b", "c"])),
                confidence=float(rng.choice([0.5, 0.8, 1.0])),
                count=int(rng.integers(1, 4)),
            )
            for _ in range(n_rules)
        ]
        db = make_db(rules)
        for _ in range(20):  # later queries run against the cached index
            tokens = set(rng.choice(WIDE_POOL + WIDE_OUTSIDE, size=int(rng.integers(0, 13)), replace=False))
            if rng.random() < 0.5:  # near a rule, so that small distances rank too
                tokens |= {item.token for item in rules[int(rng.integers(n_rules))].antecedent}
            query = symptoms(tokens, consequent=str(rng.choice(["Q0", "Q1", "Q2"])))
            assert_same_diagnosis(
                diagnose(db, query, k=k, match_threshold=0.5),
                brute_force_diagnose(db, query, k, 0.5),
            )


class TestIndexCache:
    def test_appended_rule_is_seen(self):
        db = make_db([rule(["a=HIGH"], label="far")])
        assert diagnose(db, symptoms(["b=HIGH"])).ranked[0].cause_label == "far"
        db.rules.append(rule(["b=HIGH"], label="near"))
        assert diagnose(db, symptoms(["b=HIGH"])).ranked[0].cause_label == "near"

    def test_replaced_rule_list_is_seen(self):
        db = make_db([rule(["a=HIGH"], label="far")])
        assert diagnose(db, symptoms(["b=HIGH"])).ranked[0].cause_label == "far"
        db.rules = [rule(["b=HIGH"], label="near")]  # a new list of the same length
        assert diagnose(db, symptoms(["b=HIGH"])).ranked[0].cause_label == "near"

    def test_index_is_not_part_of_the_db_value(self):
        rules = [rule(["a=HIGH"], label="x"), rule(["b=HIGH"], consequent="R")]
        used, fresh = make_db(rules), make_db(rules)
        diagnose(used, symptoms(["a=HIGH"]))
        assert used._index is not None and fresh._index is None
        assert used == fresh
        assert db_to_json(used) == db_to_json(fresh)
        assert repr(used) == repr(fresh)
