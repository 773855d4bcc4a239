"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cellwatch import synth
from cellwatch.baseline import (
    DetectorConfig,
    fit_baseline,
    load_model,
    model_to_json,
    save_model,
    score_series,
)
from cellwatch.cleaning import CleanConfig, after_training, clean
from cellwatch.cli import main
from cellwatch.fingerprints import (
    SymptomItem,
    mine_rare_rules,
    update_db,
    empty_db,
    save_db,
    load_db,
    db_to_json,
)
from cellwatch.fogsim import (
    Strategy,
    compare_dbs,
    compare_models,
    default_scenario,
    default_topology,
    simulate,
)
from cellwatch.ingest import MetricKind, parse_metric_csv, write_metric_csv
from cellwatch.postfilter import FilterConfig, _persistence_survivors, apply_filters
from cellwatch.rca import jaccard_distance

from helpers import (
    apriori_rare_rules,
    exact_median_mad,
    exact_robust_score,
    key_estimate,
    make_series,
    random_fog_case,
    random_mine_config,
    random_transactions,
    rules_as_oracle_set,
)


@contextmanager
def criterion(number: int, name: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {name}")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number} PASS: {name} ({elapsed:.1f}s)")


def test_criterion_1_miner_oracle_equivalence():
    with criterion(1, "miner matches brute-force oracle on 200 random instances"):
        started = time.monotonic()
        rng = np.random.default_rng(20240601)
        mismatches = 0
        for _ in range(200):
            transactions = random_transactions(rng, max_items=12, max_tx=64)
            cfg = random_mine_config(rng)
            got = rules_as_oracle_set(mine_rare_rules(transactions, cfg))
            want = apriori_rare_rules(transactions, cfg)
            if got != want:
                mismatches += 1
        elapsed = time.monotonic() - started
        assert mismatches == 0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_fog_equals_centralized():
    with criterion(2, "FOG and CENTRALIZED agree field-exact on 50 random scenarios"):
        started = time.monotonic()
        mismatches = 0
        for seed in range(50):
            topology, scenario = random_fog_case(31337 + seed)
            _, cent_model, cent_db = simulate(topology, Strategy.CENTRALIZED, scenario)
            _, fog_model, fog_db = simulate(topology, Strategy.FOG, scenario)
            if not (compare_models(fog_model, cent_model) and compare_dbs(fog_db, cent_db)):
                mismatches += 1
        elapsed = time.monotonic() - started
        assert mismatches == 0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_3_detector_statistics():
    with criterion(3, "histogram median/MAD within one bin; exact scorer affine-invariant"):
        rng = np.random.default_rng(7)
        cfg = DetectorConfig(bin_count=128, tau=5.0, min_samples=1)
        for _ in range(1000):
            n = int(rng.integers(5, 400))
            kind = int(rng.integers(4))
            if kind == 0:
                values = rng.normal(rng.uniform(-50, 50), rng.uniform(0.1, 20), n)
            elif kind == 1:
                values = rng.uniform(-100, 100, n)
            elif kind == 2:
                values = rng.lognormal(rng.uniform(0, 2), rng.uniform(0.2, 1.0), n)
            else:
                values = np.full(n, rng.uniform(-10, 10))  # constant
            values = [float(v) for v in values]
            model = fit_baseline([make_series(values, window_len=1)], cfg)
            est_med, est_mad, w = key_estimate(model, ("c1", "m1", 0))
            exact_med, exact_mad = exact_median_mad(values)
            assert abs(est_med - exact_med) <= w * (1 + 1e-9)
            assert abs(est_mad - exact_mad) <= w * (1 + 1e-9)

        for _ in range(1000):
            n = int(rng.integers(5, 200))
            data = [float(v) for v in rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 5), n)]
            med, mad = exact_median_mad(data)
            offset = float(rng.uniform(0.5, 8.0)) * max(mad, 0.1)
            x = med + (offset if rng.random() < 0.5 else -offset)
            a = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
            b = float(rng.uniform(-100, 100))
            base = exact_robust_score(data, x)
            mapped = exact_robust_score([a * v + b for v in data], a * x + b)
            assert abs(mapped - base) <= 1e-9 * abs(base)


def run_cli(args):
    rc = main(args)
    assert rc == 0, f"command failed ({rc}): {' '.join(args)}"


def detected_default_pipeline(tmp_path, spec, mine_overrides=()):
    """gen -> train -> detect -> mine -> diagnose -> eval via the CLI."""
    spec_path = tmp_path / "spec.json"
    synth.save_spec(spec, spec_path)
    data = tmp_path / "data"
    run_cli(["gen", "--spec", str(spec_path), "--out", str(data)])
    catalog = ["--catalog", str(data / "catalog.json")]
    run_cli(
        ["train", "--kqi", str(data / "kqi.csv"), "--kpi", str(data / "kpi.csv"),
         "--out", str(tmp_path / "model.json"), *catalog]
    )
    run_cli(
        ["detect", "--kqi", str(data / "kqi.csv"), "--model", str(tmp_path / "model.json"),
         "--out", str(tmp_path / "events.jsonl"), *catalog]
    )
    run_cli(
        ["mine", "--events", str(tmp_path / "events.jsonl"), "--kpi", str(data / "kpi.csv"),
         "--model", str(tmp_path / "model.json"), "--out", str(tmp_path / "db.json"),
         "--labels", str(data / "labels.json"), *catalog, *mine_overrides]
    )
    run_cli(
        ["diagnose", "--events", str(tmp_path / "events.jsonl"), "--kpi", str(data / "kpi.csv"),
         "--model", str(tmp_path / "model.json"), "--db", str(tmp_path / "db.json"),
         "--out", str(tmp_path / "diagnoses.jsonl"), "--z-symptom", "3.5", *catalog]
    )
    run_cli(
        ["eval", "--events", str(tmp_path / "events.jsonl"),
         "--diagnoses", str(tmp_path / "diagnoses.jsonl"),
         "--truth", str(data / "truth.json"), "--out", str(tmp_path / "eval.json")]
    )
    return json.loads((tmp_path / "eval.json").read_text())


def test_criterion_4_end_to_end_default_spec(tmp_path):
    with criterion(4, "end-to-end on the stock 50-cell scenario meets detection/RCA targets"):
        started = time.monotonic()
        spec = synth.default_spec()  # 50 cells, 14 days, 5-minute windows, 12 anomalies, 4 causes
        # desk-scale mining knobs: 12 transactions make the stock rarity
        # ceiling (10% of N) degenerate, and a single chance symptom can dent
        # confidence, so the band and floor are opened up for this run
        report = detected_default_pipeline(
            tmp_path,
            spec,
            mine_overrides=("--s-max-fraction", "0.5", "--c-min", "0.7", "--z-symptom", "3.5"),
        )
        elapsed = time.monotonic() - started
        assert report["recall"] >= 0.9, report
        assert report["precision"] >= 0.8, report
        assert report["rca_top1_accuracy"] >= 0.9, report
        assert report["counts"]["rca_considered"] >= 0.75 * report["counts"]["planted"], report
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_5_false_alarm_floor():
    with criterion(5, "zero-anomaly stock scenario stays under the 0.1% window floor"):
        spec = synth.default_spec(anomaly_count=0)
        _, kqi_series, kpi_series, catalog, _ = synth.generate_series(spec)
        bounds = {n: i.value_range for n, i in catalog.items() if i.value_range}
        detector_cfg = DetectorConfig(bounds=bounds)  # stock thresholds
        clean_cfg = CleanConfig()
        filter_cfg = FilterConfig()
        train, _ = clean(kqi_series + kpi_series, clean_cfg, spec.train_fraction)
        model = fit_baseline(train, detector_cfg)
        covered = 0
        total = 0
        n_events = 0
        for test in after_training(kqi_series, model.trained_through):
            total += len(test.points)
            events = apply_filters(
                score_series(model, test), filter_cfg,
                cell_id=test.cell_id, metric_name=test.metric_name,
            )
            n_events += len(events)
            for e in events:
                covered += (e.end_window - e.start_window) // spec.window_len + 1
        fraction = covered / total
        assert fraction <= 0.001, f"{n_events} events cover {fraction:.5%} of {total} windows"


def test_criterion_6_bandwidth_and_latency_ordering():
    with criterion(6, "FOG ships fewer bytes than CENTRALIZED; latency ordering holds"):
        topology = default_topology()
        scenario = default_scenario()
        cent, _, _ = simulate(topology, Strategy.CENTRALIZED, scenario)
        fog, _, _ = simulate(topology, Strategy.FOG, scenario)
        edge, _, _ = simulate(topology, Strategy.EDGE_INFERENCE, scenario)
        assert fog.total_bytes < cent.total_bytes, (fog.total_bytes, cent.total_bytes)
        assert edge.mean_latency <= fog.mean_latency <= cent.mean_latency
        assert cent.event_latencies, "default scenario must produce events"


def test_criterion_7_metric_and_format_properties(tmp_path):
    with criterion(7, "Jaccard triangle inequality, byte-stable round-trips, filter monotonicity"):
        rng = np.random.default_rng(4242)
        universe = [
            SymptomItem.from_token(f"m{i}={s}") for i in range(8) for s in ("HIGH", "LOW")
        ]

        def rand_set():
            k = int(rng.integers(0, 7))
            if k == 0:
                return frozenset()
            return frozenset(universe[int(j)] for j in rng.choice(len(universe), k, replace=False))

        for _ in range(10_000):
            a, b, c = rand_set(), rand_set(), rand_set()
            assert jaccard_distance(a, c) <= (
                jaccard_distance(a, b) + jaccard_distance(b, c) + 1e-12
            )

        # serialization round-trips, byte-identical on re-save
        series = [
            make_series([float(v) for v in rng.normal(10, 2, 60)], cell_id=f"c{i}", window_len=900)
            for i in range(3)
        ]
        series[0].values[5] = np.nan  # one MISSING window
        csv_path = tmp_path / "series.csv"
        write_metric_csv(series, csv_path)
        from cellwatch.ingest import MetricInfo, Polarity

        catalog = {"m1": MetricInfo(MetricKind.KQI, Polarity.HIGHER_IS_WORSE, 900)}
        parsed = parse_metric_csv(csv_path, MetricKind.KQI, catalog)
        csv_again = tmp_path / "series2.csv"
        write_metric_csv(parsed, csv_again)
        assert csv_path.read_bytes() == csv_again.read_bytes()

        model = fit_baseline(series, DetectorConfig(bin_count=32, min_samples=2))
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        assert load_model(model_path) == model
        assert model_to_json(load_model(model_path)) == model_to_json(model)

        transactions = random_transactions(rng, max_tx=40)
        cfg = random_mine_config(rng)
        rules = mine_rare_rules(transactions, cfg)
        db = update_db(empty_db(), rules, transaction_total=len(transactions), built_at=7)
        db_path = tmp_path / "db.json"
        save_db(db, db_path)
        assert load_db(db_path) == db
        assert db_to_json(load_db(db_path)) == db_to_json(db)

        # filter monotonicity in persistence_m over 1000 random flag streams
        for _ in range(1000):
            flags = [bool(v) for v in rng.random(40) < float(rng.uniform(0.05, 0.5))]
            n = int(rng.integers(2, 6))
            survivor_counts = [
                len(_persistence_survivors(flags, m, n)) for m in range(1, n + 1)
            ]
            assert survivor_counts == sorted(survivor_counts, reverse=True)
