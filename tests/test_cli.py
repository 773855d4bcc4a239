import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from cellwatch.cli import RunConfig, main
from cellwatch import synth
from cellwatch.jsondoc import decode, encode


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small generated scenario plus trained artifacts, built once."""
    root = tmp_path_factory.mktemp("cli")
    spec = synth.default_spec(
        n_cells=4, days=4.0, window_len=900, seed=2024, anomaly_count=3, calls_per_window=3.0
    )
    spec_path = root / "spec.json"
    synth.save_spec(spec, spec_path)
    data = root / "data"
    assert main(["gen", "--spec", str(spec_path), "--out", str(data)]) == 0
    catalog = ["--catalog", str(data / "catalog.json")]
    assert (
        main(
            ["train", "--kqi", str(data / "kqi.csv"), "--kpi", str(data / "kpi.csv"),
             "--cdr", str(data / "cdr.csv"), "--out", str(root / "model.json"),
             "--clean-report", str(root / "clean.json"),
             "--min-samples", "6", "--tau", "4.5", *catalog]
        )
        == 0
    )
    assert (
        main(
            ["detect", "--kqi", str(data / "kqi.csv"), "--cdr", str(data / "cdr.csv"),
             "--model", str(root / "model.json"), "--out", str(root / "events.jsonl"),
             "--tau", "4.5", *catalog]
        )
        == 0
    )
    assert (
        main(
            ["mine", "--events", str(root / "events.jsonl"), "--kpi", str(data / "kpi.csv"),
             "--model", str(root / "model.json"), "--out", str(root / "db.json"),
             "--labels", str(data / "labels.json"),
             "--s-min-count", "1", "--s-max-fraction", "0.9", "--c-min", "0.5", "--lift-min", "1.0",
             "--catalog", str(data / "catalog.json")]
        )
        == 0
    )
    assert (
        main(
            ["diagnose", "--events", str(root / "events.jsonl"), "--kpi", str(data / "kpi.csv"),
             "--model", str(root / "model.json"), "--db", str(root / "db.json"),
             "--out", str(root / "diagnoses.jsonl"), "--catalog", str(data / "catalog.json")]
        )
        == 0
    )
    assert (
        main(
            ["eval", "--events", str(root / "events.jsonl"), "--diagnoses", str(root / "diagnoses.jsonl"),
             "--truth", str(data / "truth.json"), "--out", str(root / "eval.json")]
        )
        == 0
    )
    return root


class TestPipeline:
    def test_artifacts_exist(self, workspace):
        for name in ("model.json", "clean.json", "events.jsonl", "db.json", "diagnoses.jsonl", "eval.json"):
            assert (workspace / name).exists(), name

    def test_eval_report_shape(self, workspace):
        doc = json.loads((workspace / "eval.json").read_text())
        assert set(doc) == {"precision", "recall", "rca_top1_accuracy", "counts"}
        assert 0.0 <= doc["precision"] <= 1.0

    def test_events_are_json_lines(self, workspace):
        lines = (workspace / "events.jsonl").read_text().strip().splitlines()
        for line in lines:
            doc = json.loads(line)
            assert {"cell_id", "metric", "start_window", "end_window"} <= set(doc)

    def test_report_command_handles_all_artifacts(self, workspace, capsys):
        for name in ("model.json", "clean.json", "events.jsonl", "db.json", "diagnoses.jsonl", "eval.json"):
            assert main(["report", str(workspace / name)]) == 0
            out = capsys.readouterr().out
            assert out.strip(), name

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        data = workspace / "data"
        out = tmp_path / "model.json"
        rc = main(
            ["train", "--kqi", str(data / "kqi.csv"), "--kpi", str(data / "kpi.csv"),
             "--cdr", str(data / "cdr.csv"), "--catalog", str(data / "catalog.json"),
             "--out", str(out), "--min-samples", "6", "--tau", "4.5"]
        )
        assert rc == 0
        assert out.read_bytes() == (workspace / "model.json").read_bytes()

    def test_detect_rerun_is_byte_identical(self, workspace, tmp_path):
        data = workspace / "data"
        out = tmp_path / "events.jsonl"
        rc = main(
            ["detect", "--kqi", str(data / "kqi.csv"), "--cdr", str(data / "cdr.csv"),
             "--catalog", str(data / "catalog.json"), "--model", str(workspace / "model.json"),
             "--out", str(out), "--tau", "4.5"]
        )
        assert rc == 0
        assert out.read_bytes() == (workspace / "events.jsonl").read_bytes()


class TestDetectTau:
    def test_detect_uses_the_model_tau_unless_the_run_names_one(self, workspace, tmp_path):
        data = workspace / "data"
        common = ["--kqi", str(data / "kqi.csv"), "--cdr", str(data / "cdr.csv"),
                  "--catalog", str(data / "catalog.json")]
        model = tmp_path / "model.json"
        rc = main(["train", *common, "--kpi", str(data / "kpi.csv"), "--out", str(model),
                   "--min-samples", "6", "--tau", "3.0"])
        assert rc == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"detector": {"tau": 5.0}}), encoding="utf-8")

        def detect(name, *extra):
            out = tmp_path / name
            assert main(["detect", *common, "--model", str(model), "--out", str(out), *extra]) == 0
            return out.read_bytes()

        model_tau = detect("model.jsonl")
        assert model_tau == detect("flag3.jsonl", "--tau", "3.0")
        named = detect("flag5.jsonl", "--tau", "5.0")
        assert named != model_tau
        assert detect("config5.jsonl", "--config", str(config)) == named


class TestGen:
    def test_gen_determinism(self, tmp_path):
        spec = synth.default_spec(n_cells=2, days=1.0, window_len=1800, seed=5, anomaly_count=1)
        spec_path = tmp_path / "spec.json"
        synth.save_spec(spec, spec_path)
        assert main(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "a")]) == 0
        assert main(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "b")]) == 0
        for name in ("cdr.csv", "kqi.csv", "kpi.csv", "catalog.json", "truth.json", "labels.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        rc = main(
            ["train", "--kqi", str(tmp_path / "nope.csv"), "--catalog", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "model.json")]
        )
        assert rc == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["train", "--in", "missing.csv"]) == 2

    def test_domain_error_is_exit_1(self, tmp_path):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(
            json.dumps({"m": {"kind": "KQI", "polarity": "HIGHER_IS_WORSE", "window_len_seconds": 300}})
        )
        kqi = tmp_path / "kqi.csv"
        kqi.write_text("cell_id,metric_name,window_start,value\n" + "\n".join(
            f"c1,m,{i * 300},1.0" for i in range(10)
        ) + "\n")
        rc = main(
            ["train", "--kqi", str(kqi), "--catalog", str(catalog), "--out", str(tmp_path / "m.json")]
        )
        assert rc == 1  # too few points after cleaning

    def test_grid_fill_beyond_the_limit_is_exit_1(self, tmp_path, caplog):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(
            json.dumps({"m": {"kind": "KQI", "polarity": "HIGHER_IS_WORSE", "window_len_seconds": 300}})
        )
        kqi = tmp_path / "kqi.csv"
        kqi.write_text("cell_id,metric_name,window_start,value\nc1,m,0,1.0\nc1,m,300000000000000000,1.0\n")
        caplog.clear()
        rc = main(
            ["train", "--kqi", str(kqi), "--catalog", str(catalog), "--out", str(tmp_path / "m.json")]
        )
        assert rc == 1
        assert "('c1', 'm') alone spans 999999999999999 windows without data" in caplog.text

    @pytest.mark.parametrize("doc", [{"schema_version": 1}, [1, 2, 3]])
    def test_malformed_model_is_exit_1(self, workspace, tmp_path, doc):
        data = workspace / "data"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            ["detect", "--kqi", str(data / "kqi.csv"), "--catalog", str(data / "catalog.json"),
             "--model", str(bad), "--out", str(tmp_path / "events.jsonl")]
        )
        assert rc == 1

    def test_bad_config_value_is_exit_2(self, tmp_path):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(
            json.dumps({"m": {"kind": "KQI", "polarity": "HIGHER_IS_WORSE", "window_len_seconds": 300}})
        )
        kqi = tmp_path / "kqi.csv"
        kqi.write_text("cell_id,metric_name,window_start,value\n" + "\n".join(
            f"c1,m,{i * 300},1.0" for i in range(50)
        ) + "\n")
        rc = main(
            ["train", "--kqi", str(kqi), "--catalog", str(catalog),
             "--out", str(tmp_path / "m.json"), "--tau", "-1"]
        )
        assert rc == 2


class TestFogsimCommand:
    def test_single_strategy_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["fogsim", "--strategy", "FOG", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["strategy"] == "FOG"
        assert main(["report", str(out)]) == 0

    def test_compare_writes_three_reports_and_table(self, tmp_path, capsys):
        out = tmp_path / "reports"
        assert main(["fogsim", "--compare", "--out", str(out)]) == 0
        table = capsys.readouterr().out
        for strategy in ("CENTRALIZED", "EDGE_INFERENCE", "FOG"):
            assert (out / f"{strategy.lower()}.json").exists()
            assert strategy in table
        assert "models_equal: True" in table
        assert "dbs_equal: True" in table

    def test_scenario_and_topology_files(self, tmp_path):
        from cellwatch.fogsim import default_topology_doc

        topo_path = tmp_path / "topo.json"
        topo_path.write_text(json.dumps(default_topology_doc()))
        spec = synth.default_spec(n_cells=8, days=1.0, window_len=1800, seed=3, anomaly_count=1)
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(
            json.dumps(
                {
                    "spec": encode(spec),
                    "detector": {"bin_count": 32, "tau": 3.5, "min_samples": 2},
                    "clean": {"iqr_multiplier": 6.0, "min_points": 8},
                    "z_symptom": 2.5,
                }
            )
        )
        out = tmp_path / "report.json"
        rc = main(
            ["fogsim", "--topology", str(topo_path), "--scenario", str(scenario_path),
             "--strategy", "CENTRALIZED", "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["strategy"] == "CENTRALIZED"


def test_config_file_overridden_by_flags(tmp_path):
    spec = synth.default_spec(n_cells=2, days=1.0, window_len=1800, seed=6, anomaly_count=0)
    spec_path = tmp_path / "spec.json"
    synth.save_spec(spec, spec_path)
    assert main(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"detector": {"min_samples": 999}, "clean": {"min_points": 8}}))
    # config alone: min_samples 999 makes every key insufficient, still trains
    rc = main(
        ["train", "--kqi", str(tmp_path / "d" / "kqi.csv"), "--kpi", str(tmp_path / "d" / "kpi.csv"),
         "--catalog", str(tmp_path / "d" / "catalog.json"), "--out", str(tmp_path / "m1.json"),
         "--config", str(config)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "m1.json").read_text())
    assert doc["config"]["min_samples"] == 999
    # flag wins over config
    rc = main(
        ["train", "--kqi", str(tmp_path / "d" / "kqi.csv"), "--kpi", str(tmp_path / "d" / "kpi.csv"),
         "--catalog", str(tmp_path / "d" / "catalog.json"), "--out", str(tmp_path / "m2.json"),
         "--config", str(config), "--min-samples", "3"]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "m2.json").read_text())
    assert doc["config"]["min_samples"] == 3


class TestMalformedDocuments:
    """Every malformed config or data document exits 1 and names the key path."""

    def run(self, argv, caplog):
        caplog.clear()
        rc = main(argv)
        return rc, caplog.text

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"detector": {"min_sampels": 3}}, "detector.min_sampels: unknown key"),
            ({"clen": {"min_points": 8}}, "clen: unknown key"),
            ({"detector": {"tau": "5"}}, "detector.tau: expected a number, got a string"),
            ({"detector": {"min_samples": True}}, "detector.min_samples: expected an integer"),
            ({"detector": {"bounds": {"page_load_ms": [0, 1]}}}, "detector.bounds: unknown key"),
            ({"filters": 3}, "filters: expected an object, got an integer"),
            ([1, 2], "document: expected an object, got an array"),
        ],
    )
    def test_train_config(self, workspace, tmp_path, caplog, doc, message):
        data = workspace / "data"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        rc, log = self.run(
            ["train", "--kqi", str(data / "kqi.csv"), "--catalog", str(data / "catalog.json"),
             "--out", str(tmp_path / "m.json"), "--config", str(config), "--tau", "4.5"],
            caplog,
        )
        assert rc == 1
        assert message in log
        assert not (tmp_path / "m.json").exists()

    def test_out_of_range_config_value_is_exit_2(self, workspace, tmp_path):
        data = workspace / "data"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"detector": {"tau": -1}}))
        rc = main(
            ["train", "--kqi", str(data / "kqi.csv"), "--catalog", str(data / "catalog.json"),
             "--out", str(tmp_path / "m.json"), "--config", str(config)]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"mine": {"c_mn": 0.5}}, "mine.c_mn: unknown key"),
            ([1, 2], "document: expected an object, got an array"),
            ({"z_symptom": "3"}, "z_symptom: expected a number, got a string"),
            ({"spec": {"n_cells": 2}}, "spec.days: missing required key"),
            ({"sizez": {}}, "sizez: unknown key"),
            ({"detector": {"bounds": None}}, "detector.bounds: unknown key"),
        ],
    )
    def test_fogsim_scenario(self, tmp_path, caplog, doc, message):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        rc, log = self.run(
            ["fogsim", "--scenario", str(scenario), "--out", str(tmp_path / "r.json")], caplog
        )
        assert rc == 1
        assert message in log

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(misssing_rate=0.01), "misssing_rate: unknown key"),
            (lambda d: d["cdr"].update(drop_prb=0.5), "cdr.drop_prb: unknown key"),
            (lambda d: d.pop("seed"), "seed: missing required key"),
            (lambda d: d["metrics"]["rtt_ms"].update(kind="KPIX"), "metrics.rtt_ms.kind: expected one of"),
        ],
    )
    def test_gen_spec(self, tmp_path, caplog, edit, message):
        doc = encode(synth.default_spec(n_cells=2, days=1.0, window_len=1800, seed=5))
        edit(doc)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        rc, log = self.run(["gen", "--spec", str(spec), "--out", str(tmp_path / "d")], caplog)
        assert rc == 1
        assert message in log

    def test_gen_spec_list(self, tmp_path, caplog):
        spec = tmp_path / "spec.json"
        spec.write_text("[1, 2]")
        rc, log = self.run(["gen", "--spec", str(spec), "--out", str(tmp_path / "d")], caplog)
        assert rc == 1
        assert "document: expected an object, got an array" in log

    def test_report_non_object(self, tmp_path, caplog):
        artifact = tmp_path / "thing.json"
        artifact.write_text("[1, 2]")
        rc, log = self.run(["report", str(artifact)], caplog)
        assert rc == 1
        assert "document: expected an object, got an array" in log

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"labels": [{"antecedent": ["rtt_ms=HIGH"], "consequent": "page_load_ms"}]},
                "labels[0].cause_label: missing required key",
            ),
            ({"labels": {"a": 1}}, "labels: expected an array, got an object"),
            (["congestion"], "document: expected an object, got an array"),
            (
                {"labels": [{"antecedent": ["rtt_ms=UP"], "consequent": "page_load_ms",
                             "cause_label": "congestion"}]},
                "labels[0].antecedent: bad symptom tokens",
            ),
        ],
    )
    def test_mine_labels(self, workspace, tmp_path, caplog, doc, message):
        data = workspace / "data"
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps(doc))
        rc, log = self.run(
            ["mine", "--events", str(workspace / "events.jsonl"), "--kpi", str(data / "kpi.csv"),
             "--model", str(workspace / "model.json"), "--out", str(tmp_path / "db.json"),
             "--labels", str(labels), "--catalog", str(data / "catalog.json")],
            caplog,
        )
        assert rc == 1
        assert message in log

    TRAIN = ["train", "--kqi", "{data}/kqi.csv", "--catalog", "{bad}", "--out", "{tmp}/m.json"]
    TRAIN_CDR = ["train", "--kqi", "{data}/kqi.csv", "--catalog", "{data}/catalog.json",
                 "--cdr", "{bad}", "--out", "{tmp}/m.json"]
    CDR_HEADER = "cell_id,start_time,duration,dropped,source_hash,dest_hash\n"
    EVAL = ["eval", "--events", "{ws}/events.jsonl", "--truth", "{data}/truth.json"]

    @pytest.mark.parametrize(
        "argv, text, rc, message",
        [
            (TRAIN, '{"m": {"kind": "KQI"}}', 1, "m.polarity: missing required key"),
            (
                TRAIN,
                '{"m": {"kind": "KQI", "polarity": "LOWER_IS_WORSE", "window_len_seconds": "300"}}',
                1,
                "m.window_len_seconds: expected an integer, got a string",
            ),
            (
                TRAIN,
                '{"m": {"kind": "KQI", "polarity": "LOWER_IS_WORSE", "window_len_seconds": 300.0}}',
                1,
                "m.window_len_seconds: expected an integer, got a number",
            ),
            (
                TRAIN,
                '{"m": {"kind": "KQI", "polarity": "LOWER_IS_WORSE", "window_len_seconds": 0}}',
                2,
                "window_len_seconds must be > 0",
            ),
            (
                ["fogsim", "--topology", "{bad}", "--out", "{tmp}/r.json"],
                "[1, 2]",
                1,
                "document: expected an object, got an array",
            ),
            (
                ["eval", "--events", "{ws}/events.jsonl", "--truth", "{bad}"],
                "[1, 2]",
                1,
                "document: expected an object, got an array",
            ),
            (
                ["eval", "--events", "{ws}/events.jsonl", "--truth", "{bad}"],
                '{"schema_version": 2, "planted_events": [], "planted_rules": [],'
                ' "train_cutoff_window": 0, "window_len": 300}',
                1,
                "unsupported truth schema 2",
            ),
            (
                ["eval", "--events", "{bad}", "--truth", "{data}/truth.json"],
                '{"cell_id": "c"}',
                1,
                "line 1.metric: missing required key",
            ),
            (
                ["diagnose", "--events", "{ws}/events.jsonl", "--kpi", "{data}/kpi.csv",
                 "--catalog", "{data}/catalog.json", "--model", "{ws}/model.json",
                 "--db", "{bad}", "--out", "{tmp}/d.jsonl"],
                "[]",
                1,
                "document: expected an object, got an array",
            ),
            (["report", "{bad}"], "5\n", 1, "line 1: expected an object, got an integer"),
            (
                [*EVAL, "--diagnoses", "{bad}"],
                '\n{"event": {}}\n',
                1,
                "line 2.event.cell_id: missing required key",
            ),
            (["report", "{doc}"], '{"rules": 5, "transaction_total": 1}', 1, "unsupported db schema None"),
            (["report", "{doc}"], '{"planted_events": 3}', 1, "planted_events: expected an array, got an integer"),
            (["report", "{doc}"], '{"keys": 5, "metrics": {}}', 1, "unsupported model schema None"),
            (["report", "{doc}"], '{"precision": "x"}', 1, "precision: expected a number, got a string"),
            (
                ["report", "{doc}"],
                '{"strategy": "FOG", "total_bytes": "1"}',
                1,
                "total_bytes: expected an integer, got a string",
            ),
            (["report", "{doc}"], '{"missing_removed": 1}', 1, "extremes_removed: missing required key"),
            (TRAIN_CDR, CDR_HEADER + "cell-000,100,nan,0,aa,bb\n", 1, "line 2: non-finite duration 'nan'"),
            (TRAIN_CDR, CDR_HEADER + "cell-000,100,30,0,aa,bb\ncell-000,200,inf,0,aa,bb\n", 1,
             "line 3: non-finite duration 'inf'"),
            (TRAIN_CDR, CDR_HEADER + "cell-000,99999999999999999999,30,0,aa,bb\n", 1,
             "line 2: start_time 99999999999999999999 "),
        ],
        ids=[
            "catalog_missing_key", "catalog_window_len_string", "catalog_window_len_float",
            "catalog_window_len_zero", "topology_array", "truth_array", "truth_schema_version",
            "events_missing_key", "db_array", "report_line_not_object", "diagnoses_missing_key",
            "report_db_rules_int", "report_truth_events_int", "report_model_keys_int",
            "report_eval_precision_string", "report_fogsim_bytes_string", "report_clean_missing_key",
            "cdr_nan_duration", "cdr_inf_duration", "cdr_start_time_beyond_int64",
        ],
    )
    def test_data_document(self, workspace, tmp_path, caplog, argv, text, rc, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        doc = tmp_path / "bad.json"  # report reads a .json path as one document
        doc.write_text(text)
        paths = {"data": workspace / "data", "ws": workspace, "tmp": tmp_path, "bad": bad, "doc": doc}
        got, log = self.run([arg.format(**paths) for arg in argv], caplog)
        assert got == rc
        assert message in log


def test_readme_config_table_matches_dataclass_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\w+) +\| (\w+) +\| ([-\d.]+) +\|", section, re.M)
    doc: dict = {}
    for name, key, value in rows:
        doc.setdefault(name, {})[key] = json.loads(value)
    assert decode(RunConfig, doc) == RunConfig()
    defaults = RunConfig()
    declared = {
        (s.name, f.name) for s in fields(RunConfig) for f in fields(getattr(defaults, s.name))
    }
    assert {(name, key) for name, key, _ in rows} == declared - {("detector", "bounds")}
