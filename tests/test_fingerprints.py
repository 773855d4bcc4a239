import hashlib
import itertools
import json
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellwatch.baseline import Direction
from cellwatch import fingerprints
from cellwatch.errors import CorruptDb, SchemaMismatch, TooManyItemsets
from cellwatch.fingerprints import (
    Fingerprint,
    FingerprintDb,
    MineConfig,
    SymptomItem,
    SymptomState,
    Transaction,
    build_transactions,
    db_to_json,
    empty_db,
    itemset_count_tables,
    load_db,
    merge_count_tables,
    mine_from_counts,
    mine_rare_rules,
    save_db,
    update_db,
)
from cellwatch.baseline import DetectorConfig, fit_baseline, hour_bucket
from cellwatch.ingest import MetricKind
from cellwatch.postfilter import AnomalyEvent

from helpers import (
    apriori_rare_rules,
    make_series,
    random_mine_config,
    random_transactions,
    rules_as_oracle_set,
    table_sketch,
)


def item(token):
    return SymptomItem.from_token(token)


def tx(tokens, consequent="Q", key=("c1", 0)):
    return Transaction(frozenset(item(t) for t in tokens), consequent, key)


# metric names with "=" inside and non-ASCII characters
METRIC_NAMES = st.builds(
    lambda head, mark, tail: head + mark + tail,
    st.text(max_size=5),
    st.sampled_from(["=", "é", "a=b", "π=", "_", "=HIGH"]),
    st.text(max_size=5),
)


class TestSymptomItem:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(name=METRIC_NAMES, other=METRIC_NAMES, state=st.sampled_from(SymptomState))
    def test_one_item_however_it_is_built(self, tmp_path_factory, name, other, state):
        built = SymptomItem(name, state)
        parsed = SymptomItem.from_token(f"{name}={state.value}")
        path = tmp_path_factory.mktemp("db") / "db.json"
        save_db(FingerprintDb([Fingerprint(frozenset([built]), "Q", 1.0, 1, 1, 1.0, 1.0)], 1), path)
        (loaded,) = load_db(path).rules[0].antecedent
        for a, b in itertools.permutations([built, parsed, loaded], 2):
            assert a is not b
            assert a == b and hash(a) == hash(b)
            assert {a: "found"}[b] == "found"
            assert b in frozenset([a])
        assert repr(loaded) == f"SymptomItem(metric_name={name!r}, state={state!r})"

        flip = SymptomState.LOW if state is SymptomState.HIGH else SymptomState.HIGH
        flipped = replace(loaded, state=flip)
        assert flipped.token == f"{name}={flip.value}"
        assert flipped == SymptomItem.from_token(flipped.token) and flipped != loaded
        assert SymptomItem(other, state) != built or other == name

        restored = pickle.loads(pickle.dumps(loaded))
        assert restored == built and restored in {built} and restored.token == built.token

        items = [loaded, flipped, SymptomItem(other, state), SymptomItem(other, flip)]
        assert sorted(items) == sorted(items, key=lambda it: (it.metric_name, it.state.value))


class TestMineRareRules:
    def test_worked_example_counts(self):
        # brute-force confirms the frequent set {a}:3, {b}:2, {ab}:2
        transactions = [tx(["a=HIGH", "b=HIGH"]), tx(["a=HIGH", "b=HIGH"]), tx(["a=HIGH"])]
        cfg = MineConfig(s_min_count=2, s_max_fraction=1.0, c_min=0.05, lift_min=0.1, max_antecedent=4)
        oracle = apriori_rare_rules(transactions, cfg)
        counts = {tuple(sorted(i.token for i in a)): q_count for a, _, q_count, _ in oracle}
        assert counts == {("a=HIGH",): 3, ("b=HIGH",): 2, ("a=HIGH", "b=HIGH"): 2}
        assert rules_as_oracle_set(mine_rare_rules(transactions, cfg)) == oracle

    def test_confidence_is_global_ratio(self):
        transactions = [
            tx(["a=HIGH", "b=HIGH"], "Q"),
            tx(["a=HIGH", "b=HIGH"], "Q"),
            tx(["a=HIGH"], "R"),
        ]
        cfg = MineConfig(s_min_count=2, s_max_fraction=1.0, c_min=0.5, lift_min=0.1, max_antecedent=2)
        rules = {tuple(sorted(i.token for i in r.antecedent)): r for r in mine_rare_rules(transactions, cfg)}
        ab = rules[("a=HIGH", "b=HIGH")]
        assert ab.confidence == 1.0
        assert ab.support_count == 2
        assert ab.antecedent_count == 2
        a = rules[("a=HIGH",)]
        assert a.confidence == pytest.approx(2 / 3)

    def test_rarity_ceiling_drops_common_itemsets(self):
        transactions = [tx(["a=HIGH"]) for _ in range(10)] + [tx(["b=HIGH"])]
        cfg = MineConfig(s_min_count=1, s_max_fraction=0.2, c_min=0.05, lift_min=0.1, max_antecedent=2)
        rules = mine_rare_rules(transactions, cfg)
        tokens = {tuple(sorted(i.token for i in r.antecedent)) for r in rules}
        assert tokens == {("b=HIGH",)}  # ceiling is ceil(0.2 * 11) = 3 < 10

    def test_empty_items_after_filtering(self):
        transactions = [tx([]), tx([])]
        assert mine_rare_rules(transactions, MineConfig()) == []

    def test_no_transactions(self):
        assert mine_rare_rules([], MineConfig()) == []

    def test_output_order_is_total_and_deterministic(self):
        rng = np.random.default_rng(3)
        transactions = random_transactions(rng)
        cfg = MineConfig(s_min_count=1, s_max_fraction=1.0, c_min=0.05, lift_min=0.1, max_antecedent=3)
        a = mine_rare_rules(transactions, cfg)
        b = mine_rare_rules(list(reversed(transactions)), cfg)
        assert a == b
        keys = [( -r.confidence, -r.support_count, tuple(sorted(i.token for i in r.antecedent)), r.consequent) for r in a]
        assert keys == sorted(keys)

    def test_oracle_equivalence_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            transactions = random_transactions(rng)
            cfg = random_mine_config(rng)
            got = rules_as_oracle_set(mine_rare_rules(transactions, cfg))
            want = apriori_rare_rules(transactions, cfg)
            assert got == want

    def test_wide_id_range(self):
        # 270 symptoms need two-byte ids, and 271**9 > 2**63: nine-item
        # itemsets do not fit in one int64 however the ids are packed
        rng = np.random.default_rng(17)
        pool = [item(f"k{i:03d}={'HIGH' if i % 3 else 'LOW'}") for i in range(270)]
        transactions = [
            Transaction(frozenset(pool[9 * p : 9 * p + 9]), f"q{p % 3}", ("c", 3 * p + r))
            for p in range(30)
            for r in range(3)
        ]
        for i in range(60):
            chosen = rng.choice(270, size=9, replace=False)
            transactions.append(
                Transaction(frozenset(pool[int(c)] for c in chosen), f"q{int(rng.integers(3))}", ("c", 90 + i))
            )
        cfg = MineConfig(s_min_count=3, s_max_fraction=0.05, c_min=0.8, lift_min=1.5, max_antecedent=9)
        rules = mine_rare_rules(transactions, cfg)
        # recorded from the FP-growth miner this count-table path replaced
        assert len(rules) == 15143
        doc = db_to_json(FingerprintDb(rules, len(transactions)))
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "f36cd04bb0ad6c0f44c530e9c3f13c2ca564f3d9a7ff7a906a566abb6b05d9be"
        )
        last = next(r for r in rules if frozenset(pool[261:]) == r.antecedent)
        assert (last.consequent, last.support_count, last.antecedent_count) == ("q2", 3, 3)

    def test_antecedent_support_is_anti_monotone(self):
        rng = np.random.default_rng(9)
        transactions = random_transactions(rng)
        cfg = MineConfig(s_min_count=1, s_max_fraction=1.0, c_min=0.05, lift_min=0.1, max_antecedent=3)
        counts = {}
        for r in mine_rare_rules(transactions, cfg):
            counts[(r.antecedent, r.consequent)] = r.support_count
        for (antecedent, consequent), count in counts.items():
            for drop in antecedent:
                subset = antecedent - {drop}
                if subset and (subset, consequent) in counts:
                    assert count <= counts[(subset, consequent)]


class TestCountTables:
    def test_partition_sums_equal_pooled(self):
        rng = np.random.default_rng(21)
        vocabularies_differed = 0
        for _ in range(25):
            transactions = random_transactions(rng, max_tx=40)
            cfg = random_mine_config(rng)
            pooled = itemset_count_tables(transactions, cfg.max_antecedent)
            n_parts = int(rng.integers(2, 5))
            assignment = rng.integers(0, n_parts, len(transactions))
            parts = [
                itemset_count_tables(
                    [t for t, p in zip(transactions, assignment) if p == part],
                    cfg.max_antecedent,
                )
                for part in range(n_parts)
            ]
            merged = merge_count_tables(parts)
            assert merged.total == pooled.total
            assert merged.global_counts == pooled.global_counts
            assert merged.per_consequent == pooled.per_consequent
            assert merged.consequent_totals == pooled.consequent_totals
            assert json.dumps(merged.to_json_dict(), sort_keys=True) == json.dumps(
                pooled.to_json_dict(), sort_keys=True
            )
            # mining the merged tables equals mining the pooled transactions, field for field
            assert mine_from_counts(merged, cfg) == mine_rare_rules(transactions, cfg)
            vocabularies_differed += len({tuple(p.vocab) for p in parts}) > 1
        assert vocabularies_differed

    def test_subsets_over_the_limit_are_refused_before_any_is_enumerated(self, monkeypatch):
        transactions = [tx(["a=HIGH", "b=HIGH", "c=HIGH", "d=HIGH"]), tx(["a=HIGH", "b=LOW"], "R")]
        monkeypatch.setattr(fingerprints, "MAX_ITEMSETS", 18)  # 15 + 3 subsets
        assert itemset_count_tables(transactions, 4).total == 2
        monkeypatch.setattr(fingerprints, "MAX_ITEMSETS", 17)
        monkeypatch.setattr(fingerprints, "combinations", None)  # an enumeration would fail on it
        message = "up to 4 symptoms would enumerate 18 subsets, more than 17; the widest transaction has 4 symptoms"
        with pytest.raises(TooManyItemsets, match=message):
            itemset_count_tables(transactions, 4)
        monkeypatch.setattr(fingerprints, "MAX_ITEMSETS", 12)  # 4 + 6 + 2 + 1 subsets of at most 2 symptoms
        with pytest.raises(TooManyItemsets, match="enumerate 13 subsets, more than 12"):
            mine_rare_rules(transactions, MineConfig(max_antecedent=2))

    @pytest.mark.parametrize("id_dtype", [">u1", ">u2", ">u4"])
    def test_summed_orders_and_counts_keys_as_np_unique(self, id_dtype):
        rng = np.random.default_rng(5)
        top = {">u1": 255, ">u2": 65535, ">u4": 2**32 - 1}[id_dtype]
        # ids whose bytes hold 0x00, and their neighbours
        ids = np.array([1, 2, 255, 256, 257, 512, 513, 65535, 65536, 65537, 2**24], dtype=np.int64)
        ids = np.concatenate([ids[ids <= top], rng.integers(1, top, 12, endpoint=True)])
        rows = np.sort(rng.choice(ids, size=(300, 3)), axis=1).astype(id_dtype)
        rows[::4, 2] = 0  # shorter itemsets, zero-padded
        if top > 255:
            # keys equal up to a zero byte inside an id, then different
            rows[1::7, 0] = rows[1::7, 1] = 256
            rows[2::7, 0] = 256
        keys = fingerprints._keys(rows, 4)
        assert len(np.unique(keys)) < len(keys)

        want_keys, want_counts = np.unique(keys, return_counts=True)
        assert fingerprints._summed(keys) == fingerprints.ItemsetCounts(want_keys, want_counts)

        counts = rng.integers(1, 50, len(keys))
        _, inverse = np.unique(keys, return_inverse=True)
        summed = np.zeros(len(want_keys), dtype=np.int64)
        np.add.at(summed, inverse, counts)
        assert fingerprints._summed(keys, counts) == fingerprints.ItemsetCounts(want_keys, summed)
        assert fingerprints._summed(keys[:0], counts[:0]) == fingerprints.ItemsetCounts(keys[:0], counts[:0])

    def test_table_json_is_deterministic(self):
        rng = np.random.default_rng(2)
        transactions = random_transactions(rng, max_tx=20)
        a = json.dumps(itemset_count_tables(transactions, 3).to_json_dict(), sort_keys=True)
        b = json.dumps(itemset_count_tables(list(transactions), 3).to_json_dict(), sort_keys=True)
        assert a == b


class TestBuildTransactions:
    def setup_model(self):
        rng = np.random.default_rng(4)
        kpis = []
        for name in ("rtt", "loss"):
            values = [float(v) for v in rng.normal(10, 1, 240)]
            kpis.append(
                make_series(values, cell_id="c1", metric_name=name, kind=MetricKind.KPI, window_len=300)
            )
        model = fit_baseline(kpis, DetectorConfig(bin_count=64, tau=5.0, min_samples=3))
        return model, kpis

    def event(self, peak_window=600):
        return AnomalyEvent("c1", "kqi_x", peak_window, peak_window, 9.0, peak_window, Direction.UP)

    def test_quiet_kpis_give_empty_transaction(self):
        model, kpis = self.setup_model()
        (t,) = build_transactions([self.event()], kpis, model, z_symptom=3.0)
        assert t.items == frozenset()
        assert t.consequent == "kqi_x"

    def test_spiked_kpi_becomes_high_item(self):
        model, kpis = self.setup_model()
        kpis[0].values[2] = 30.0  # window 600, far above baseline
        (t,) = build_transactions([self.event()], kpis, model, z_symptom=3.0)
        assert t.items == frozenset({item("rtt=HIGH")})

    def test_up_and_down_spikes_get_matching_states(self):
        model, kpis = self.setup_model()
        kpis[0].values[2] = 30.0  # window 600
        kpis[1].values[2] = -10.0
        (t,) = build_transactions([self.event()], kpis, model, z_symptom=3.0)
        assert t.items == frozenset({item("rtt=HIGH"), item("loss=LOW")})

    def test_cell_without_kpi_data_logs_and_emits_empty(self, caplog):
        model, kpis = self.setup_model()
        event = AnomalyEvent("ghost", "kqi_x", 600, 600, 9.0, 600, Direction.UP)
        with caplog.at_level("WARNING"):
            (t,) = build_transactions([event], kpis, model, z_symptom=3.0)
        assert t.items == frozenset()
        assert any("no KPI data" in r.message for r in caplog.records)

    @pytest.mark.parametrize("z", [float("nan"), float("inf")])
    def test_non_finite_z_symptom_rejected(self, z):
        model, kpis = self.setup_model()
        with pytest.raises(ValueError, match="z_symptom must be > 0"):
            build_transactions([self.event()], kpis, model, z_symptom=z)

    def test_one_transaction_per_event_in_order(self):
        model, kpis = self.setup_model()
        events = [self.event(600), self.event(900)]
        txs = build_transactions(events, kpis, model, z_symptom=3.0)
        assert [t.key[1] for t in txs] == [600, 900]

    def test_symptoms_equal_a_per_event_oracle_loop(self):
        # several events per cell; peaks on MISSING or absent windows, in hours
        # without a sketch, and on a (cell, KPI) without any
        rng = np.random.default_rng(8)
        train, tests = [], []
        for cell in ("c1", "c2"):
            for name in ("rtt", "loss", "prb"):
                kw = dict(cell_id=cell, metric_name=name, kind=MetricKind.KPI)
                if (cell, name) != ("c2", "prb"):  # 240 windows of 300 s: hours 0..19
                    train.append(make_series([float(v) for v in rng.normal(10, 1, 240)], **kw))
                values = rng.normal(10, 4, 288)
                tests.append(make_series([None if rng.random() < 0.1 else float(v) for v in values], **kw))
        model = fit_baseline(train, DetectorConfig(bin_count=32, min_samples=3))
        events = [
            AnomalyEvent(str(rng.choice(["c1", "c2", "c3"])), "kqi_x", w, w, 9.0, w, Direction.UP)
            for w in (300 * rng.integers(0, 300, 60)).tolist()
        ]

        def oracle(event):
            items = set()
            for s in tests:
                at = np.flatnonzero(s.window_starts == event.peak_window)
                key = (s.cell_id, s.metric_name, hour_bucket(event.peak_window))
                if s.cell_id != event.cell_id or not len(at) or key not in model.sketches.keys:
                    continue
                value = float(s.values[at[0]])
                med, mad = table_sketch(model.sketches, model.sketches.keys.index(key)).estimate_median_mad()
                if abs(value - med) / (1.4826 * mad + 1e-9) >= 3.0:  # False for NaN
                    items.add(SymptomItem(s.metric_name, SymptomState.HIGH if value > med else SymptomState.LOW))
            return frozenset(items)

        txs = build_transactions(events, tests, model, z_symptom=3.0)
        assert [t.items for t in txs] == [oracle(e) for e in events]
        assert {it.state for t in txs for it in t.items} == {SymptomState.HIGH, SymptomState.LOW}


class TestUpdateDb:
    def rule(self, tokens, consequent="Q", confidence=1.0, count=3, label=None):
        return Fingerprint(
            antecedent=frozenset(item(t) for t in tokens),
            consequent=consequent,
            support=count / 10,
            support_count=count,
            antecedent_count=count,
            confidence=confidence,
            lift=2.0,
            cause_label=label,
        )

    def test_update_empty_db(self):
        rules = [self.rule(["a=HIGH"])]
        db = update_db(empty_db(), rules, transaction_total=10)
        assert db.rules == rules
        assert db.transaction_total == 10

    def test_stats_replaced_label_preserved(self):
        old = update_db(
            empty_db(),
            [self.rule(["a=HIGH"], confidence=0.9, label="congestion")],
            transaction_total=10,
        )
        new_rules = [self.rule(["a=HIGH"], confidence=1.0, count=5)]
        db = update_db(old, new_rules, transaction_total=12)
        (rule,) = db.rules
        assert rule.confidence == 1.0
        assert rule.support_count == 5
        assert rule.cause_label == "congestion"

    def test_labels_mapping_applies(self):
        rules = [self.rule(["a=HIGH"])]
        key = (rules[0].antecedent, "Q")
        db = update_db(empty_db(), rules, labels={key: "congestion"}, transaction_total=10)
        assert db.rules[0].cause_label == "congestion"

    def test_unmatched_old_rules_survive(self):
        old = update_db(empty_db(), [self.rule(["a=HIGH"])], transaction_total=10)
        db = update_db(old, [self.rule(["b=HIGH"])], transaction_total=10)
        assert len(db.rules) == 2


TOKENS = [f"m{i}={state}" for i in range(5) for state in ("HIGH", "LOW")]


@st.composite
def random_dbs(draw):
    """A valid db: labelled and unlabelled rules, 1-4 item antecedents, several consequents."""
    total = draw(st.integers(1, 10_000))
    keys = st.tuples(st.frozensets(st.sampled_from(TOKENS), min_size=1, max_size=4),
                     st.sampled_from(["Q0", "Q1", "Q2"]))
    rules = []
    for tokens, consequent in draw(st.lists(keys, max_size=12, unique=True)):
        count = draw(st.integers(1, total))
        antecedent_count = draw(st.integers(count, total))
        rules.append(
            Fingerprint(
                antecedent=frozenset(SymptomItem.from_token(t) for t in tokens),
                consequent=consequent,
                support=count / total,
                support_count=count,
                antecedent_count=antecedent_count,
                confidence=count / antecedent_count,
                lift=draw(st.floats(min_value=1e-6, max_value=1e6)),
                cause_label=draw(st.none() | st.text(max_size=12)),
            )
        )
    return FingerprintDb(rules=rules, transaction_total=total, built_at=draw(st.integers(0, 2**40)))


class TestPersistence:
    def make_db(self):
        rng = np.random.default_rng(6)
        transactions = random_transactions(rng, max_tx=30)
        cfg = MineConfig(s_min_count=1, s_max_fraction=1.0, c_min=0.2, lift_min=0.5, max_antecedent=3)
        rules = mine_rare_rules(transactions, cfg)
        return update_db(empty_db(), rules, transaction_total=len(transactions), built_at=12345)

    def test_round_trip_identity(self, tmp_path):
        db = self.make_db()
        path = tmp_path / "db.json"
        save_db(db, path)
        loaded = load_db(path)
        assert loaded == db
        again = tmp_path / "db2.json"
        save_db(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(db=random_dbs())
    def test_random_dbs_round_trip(self, tmp_path_factory, db):
        path = tmp_path_factory.mktemp("db") / "db.json"
        save_db(db, path)
        loaded = load_db(path)
        assert loaded == db
        again = path.with_name("again.json")
        save_db(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_confidence_out_of_range_rejected(self, tmp_path):
        db = self.make_db()
        doc = json.loads(db_to_json(db))
        doc["rules"][0]["confidence"] = 1.3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptDb):
            load_db(path)

    @pytest.mark.parametrize("lift", ["NaN", "Infinity", "1e999"])
    def test_non_finite_lift_rejected(self, tmp_path, lift):
        doc = json.loads(db_to_json(self.make_db()))
        doc["rules"][0]["lift"] = "X"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"X"', lift))
        with pytest.raises(SchemaMismatch, match=r"rules\[0\]\.lift: expected a finite number"):
            load_db(path)

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text('{"schema_version": 42, "rules": [], "transaction_total": 0, "built_at": 0}')
        with pytest.raises(SchemaMismatch):
            load_db(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("built_at"), "built_at: missing required key"),
            (lambda d: d.update(transaction_total="30"), "transaction_total: expected an integer"),
            (lambda d: d.update(rules={}), "rules: expected an array, got an object"),
            (lambda d: d["rules"].append(7), "rules[1]: expected an object, got an integer"),
            (lambda d: d["rules"][0].pop("lift"), "rules[0].lift: missing required key"),
            (lambda d: d["rules"][0].update(support_count=1.0), "rules[0].support_count: expected an integer"),
            (lambda d: d["rules"][0].update(cause_label=3), "rules[0].cause_label: expected a string"),
            (lambda d: d["rules"][0].update(note="x"), "rules[0].note: unknown key"),
            (lambda d: d["rules"][0].update(antecedent=["rtt_ms=UP"]), "rules[0].antecedent: bad symptom tokens"),
            (lambda d: d["rules"][0].update(antecedent=[5]), "rules[0].antecedent: bad symptom tokens"),
            (lambda d: d["rules"][0].update(antecedent=[["a=HIGH"]]), "rules[0].antecedent: bad symptom tokens"),
            (
                lambda d: d["rules"][0].update(antecedent=["a=HIGH", "a=HIGH"]),
                "rules[0].antecedent: repeated symptom tokens ['a=HIGH', 'a=HIGH']",
            ),
        ],
    )
    def test_malformed_document_names_the_key(self, tmp_path, edit, message):
        doc = json.loads(db_to_json(self.make_db()))
        doc["rules"] = doc["rules"][:1]
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch, match=re.escape(message)):
            load_db(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("[]")
        with pytest.raises(SchemaMismatch, match="document: expected an object, got an array"):
            load_db(path)

    def test_duplicate_rule_rejected(self, tmp_path):
        db = self.make_db()
        doc = json.loads(db_to_json(db))
        doc["rules"].append(doc["rules"][0])
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptDb):
            load_db(path)

    @pytest.mark.parametrize(
        "counts, problem",
        [
            ({"support_count": -5, "antecedent_count": 0, "confidence": 1.0}, "support_count -5 below 1"),
            ({"support_count": 0, "antecedent_count": 0, "confidence": 1.0}, "support_count 0 below 1"),
            ({"support_count": 2, "antecedent_count": 0, "confidence": 0.5}, "antecedent_count below support_count"),
            ({"support_count": 2, "antecedent_count": 4, "confidence": 0.75}, "confidence inconsistent with counts"),
            ({"antecedent": []}, "empty antecedent"),
            ({"support": 0.0}, "support 0.0 outside (0, 1]"),
            ({"support": 1.5}, "support 1.5 outside (0, 1]"),
            ({"lift": 0.0}, "lift 0.0 must be > 0"),
            ({"lift": -2.5}, "lift -2.5 must be > 0"),
        ],
    )
    def test_counts_no_mining_run_produces_rejected(self, tmp_path, counts, problem):
        doc = json.loads(db_to_json(self.make_db()))
        doc["rules"][0].update(counts)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptDb, match=re.escape(problem)):
            load_db(path)

    def test_support_count_above_total_rejected(self, tmp_path):
        db = self.make_db()
        doc = json.loads(db_to_json(db))
        doc["rules"][0]["support_count"] = doc["transaction_total"] + 1
        path = tmp_path / "over.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptDb):
            load_db(path)
