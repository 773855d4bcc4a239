import hashlib
import json
import re
import shlex
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellwatch.baseline import DetectorConfig, load_model
from cellwatch.cleaning import CleanConfig
from cellwatch.errors import TooFewPoints
from cellwatch.cli import PipelineConfig, RcaConfig, RunConfig, _DiagnosisLine, main
from cellwatch import cli, fingerprints, ingest, jsondoc, synth
from cellwatch.fingerprints import MineConfig, load_db
from cellwatch.fogsim import (
    RecordSizes,
    Strategy,
    compare_dbs,
    compare_models,
    default_scenario,
    default_topology,
    default_topology_doc,
    simulate,
)
from cellwatch.postfilter import AnomalyEvent, FilterConfig
from cellwatch.jsondoc import decode, encode

from helpers import ZERO_MAD_FALSE_ALARMS, covered_fraction, sparse_traffic_scenario, tiny_scenario


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

    def test_diagnoses_lines_are_their_dataclass(self, workspace):
        lines = (workspace / "diagnoses.jsonl").read_text().splitlines()
        assert any(json.loads(line)["ranked"] for line in lines)
        for n, line in enumerate(lines, start=1):
            doc = json.loads(line)
            assert encode(decode(_DiagnosisLine, doc, f"line {n}")) == doc

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


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


class TestPinnedOutput:
    """Report files and summaries of the workspace scenario, byte for byte."""

    FILES = {
        "clean.json": "1e4020fb7dcb478a1f7b73cb2408e0ee046a7b539e0bb23953239b8cbc051456",
        "eval.json": "7d389ae58a73b3954983de351de99f5e62849869c570c6e9987a16122b10ac2c",
    }
    REPORTS = {
        "model.json": "d7a461d9dbf4e6d04a448447a1b1e97f369b1a29d7b3f7d5b440815da8157c56",
        "clean.json": "671baf704261724dbdf76827f4031eeb33649f4e3925a53840b47d94cfc0923f",
        "events.jsonl": "15cd5ca446763456dfdfd8f76a7a5b05750861fd4f6b9cfad7177739738d965e",
        "db.json": "4951029a09b51b009fd71df210aa21c0db3d3cfe0045c2677bb6df1c16476ea1",
        "diagnoses.jsonl": "cc452c881f62a6c2c84bc3552d4eef4a6f3ff010b0635403766f52ac860b1861",
        "eval.json": "82e4d7a680eba71c7bb4eb373777802b17d724652f122a52c8ca469f81cd431c",
        "spec.json": "cc6b092ee08dccde8d1fe9b1ca2f7a025bb49de7a7de70a463fce267f04f0087",
        "data/truth.json": "74563c5d61ef2a9ee1bfd0467b096116a4bc7b8110baa233f3aad6a6dfd99161",
        "data/labels.json": "d0901177cfc099841651923653603312f4d042ab975dec397e5ae9997c80fa33",
        "data/catalog.json": "29355e1eb67978f79e26f3b94667530ca55c9bd890359c62b1fbca3f3d5659dd",
    }

    @pytest.mark.parametrize("name", sorted(FILES))
    def test_report_file(self, workspace, name):
        assert sha256((workspace / name).read_bytes()) == self.FILES[name]

    def test_eval_stdout(self, workspace, capsys):
        argv = ["eval", "--events", str(workspace / "events.jsonl"),
                "--diagnoses", str(workspace / "diagnoses.jsonl"),
                "--truth", str(workspace / "data" / "truth.json")]
        assert main(argv) == 0
        assert capsys.readouterr().out == (workspace / "eval.json").read_text()

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_report_stdout(self, workspace, capsys, name):
        assert main(["report", str(workspace / name)]) == 0
        assert sha256(capsys.readouterr().out) == self.REPORTS[name]

    def test_fogsim_report(self, tmp_path, capsys):
        spec = synth.default_spec(n_cells=8, days=2.0, window_len=1800, seed=3, anomaly_count=2)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"spec": encode(spec), "clean": {"min_points": 8},
                                        "detector": {"bin_count": 32, "tau": 3.5, "min_samples": 2}}))
        out = tmp_path / "report.json"
        argv = ["fogsim", "--scenario", str(scenario), "--strategy", "CENTRALIZED", "--out", str(out)]
        assert main(argv) == 0
        assert sha256(out.read_bytes()) == "c8c9019157c91251f9ca0361cdf8ad5f51e600ef8fa4bb5531e49e98b4bf70a0"
        assert main(["report", str(out)]) == 0
        assert capsys.readouterr().out == (
            "CENTRALIZED: 302592 bytes, mean latency 0.0404s over 30 events\n"
            '  model placement: {"inference": "cloud", "mining": "cloud", "training": "cloud"}\n'
        )


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

    def test_detect_reads_its_config_once(self, workspace, tmp_path, monkeypatch):
        data = workspace / "data"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"detector": {"tau": 4.5}}), encoding="utf-8")
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(jsondoc, "open", counting_open, raising=False)
        rc = main(["detect", "--kqi", str(data / "kqi.csv"), "--catalog", str(data / "catalog.json"),
                   "--model", str(workspace / "model.json"), "--out", str(tmp_path / "events.jsonl"),
                   "--config", str(config)])
        assert rc == 0
        assert opened.count(str(config)) == 1


class TestDetectSpan:
    """detect scores the windows that start after the model's last trained window."""

    @staticmethod
    def kqi_windows(workspace, path, keep):
        """The workspace's KQI file cut to the windows where ``keep(window_starts, trained_through)``."""
        data = workspace / "data"
        through = load_model(workspace / "model.json").trained_through
        series = ingest.parse_metric_csv(data / "kqi.csv", ingest.MetricKind.KQI,
                                         ingest.load_catalog(data / "catalog.json"))
        cut = [replace(s, window_starts=s.window_starts[kept], values=s.values[kept])
               for s in series for kept in [keep(s.window_starts, through)]]
        ingest.write_metric_csv([s for s in cut if len(s.values)], path)
        return through

    @staticmethod
    def detect(workspace, kqi, out):
        data = workspace / "data"
        rc = main(["detect", "--kqi", str(kqi), "--catalog", str(data / "catalog.json"),
                   "--model", str(workspace / "model.json"), "--out", str(out)])
        return rc, out.read_text() if rc == 0 else None

    def test_events_before_the_default_split_are_found(self, tmp_path):
        # 384 windows: train's 0.5 ends at window 192, the default 0.7 at window 269
        doc = encode(synth.default_spec(n_cells=2, days=4.0, window_len=900, seed=7, anomaly_count=0))
        doc.update(train_fraction=0.5, anomalies=[planted(220 * 900, 6)])
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        data = tmp_path / "data"
        assert main(["gen", "--spec", str(tmp_path / "spec.json"), "--out", str(data)]) == 0
        catalog, model = ["--catalog", str(data / "catalog.json")], tmp_path / "model.json"
        assert main(["train", "--kqi", str(data / "kqi.csv"), "--kpi", str(data / "kpi.csv"), *catalog,
                     "--out", str(model), "--train-fraction", "0.5", "--min-samples", "6"]) == 0
        assert load_model(model).trained_through == 191 * 900
        events = tmp_path / "events.jsonl"
        assert main(["detect", "--kqi", str(data / "kqi.csv"), *catalog, "--model", str(model),
                     "--out", str(events)]) == 0
        found = [json.loads(line) for line in events.read_text().splitlines()]
        assert any(e["cell_id"] == "cell-000" and e["metric"] == "page_load_ms"
                   and 220 * 900 <= e["peak_window"] < 226 * 900 for e in found), found

    def test_a_file_of_fresh_windows_gives_the_same_events(self, workspace, tmp_path):
        self.kqi_windows(workspace, tmp_path / "fresh.csv", lambda starts, through: starts > through)
        rc, full = self.detect(workspace, workspace / "data" / "kqi.csv", tmp_path / "full.jsonl")
        assert rc == 0 and full
        assert self.detect(workspace, tmp_path / "fresh.csv", tmp_path / "fresh.jsonl") == (0, full)

    def test_no_window_after_training_warns_and_finds_nothing(self, workspace, tmp_path, caplog):
        through = self.kqi_windows(workspace, tmp_path / "old.csv", lambda starts, through: starts <= through)
        caplog.clear()
        assert self.detect(workspace, tmp_path / "old.csv", tmp_path / "events.jsonl") == (0, "")
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert any(f"no window after {through}" in message for message in warnings), warnings

    def test_detect_takes_no_train_fraction(self, workspace, tmp_path):
        data = workspace / "data"
        rc = main(["detect", "--kqi", str(data / "kqi.csv"), "--catalog", str(data / "catalog.json"),
                   "--model", str(workspace / "model.json"), "--out", str(tmp_path / "events.jsonl"),
                   "--train-fraction", "0.5"])
        assert rc == 2

    def test_schema_2_model_asks_for_retraining(self, workspace, tmp_path, caplog):
        doc = json.loads((workspace / "model.json").read_text())
        del doc["trained_through"]
        doc["schema_version"] = 2
        (tmp_path / "v2.json").write_text(json.dumps(doc))
        caplog.clear()
        rc = main(["detect", "--kqi", str(workspace / "data" / "kqi.csv"),
                   "--catalog", str(workspace / "data" / "catalog.json"),
                   "--model", str(tmp_path / "v2.json"), "--out", str(tmp_path / "events.jsonl")])
        assert rc == 1
        assert "unsupported model schema 2" in caplog.text and "retrain" in caplog.text


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

    @pytest.mark.parametrize("order", ["clean_first", "split_first"])
    def test_train_names_the_first_series_that_fails(self, tmp_path, caplog, order):
        # c1/m keeps 7 of 10 training points (min_points 24); c2/m has one point, so its split leaves
        # an empty part. Each fails in a different step; the first in input order is named.
        catalog = tmp_path / "catalog.json"
        catalog.write_text(
            json.dumps({"m": {"kind": "KQI", "polarity": "HIGHER_IS_WORSE", "window_len_seconds": 300}})
        )
        cells = {"c1": 10, "c2": 1} if order == "clean_first" else {"c1": 1, "c2": 10}
        kqi = tmp_path / "kqi.csv"
        kqi.write_text("cell_id,metric_name,window_start,value\n" + "".join(
            f"{cell},m,{i * 300},1.0\n" for cell, n in cells.items() for i in range(n)
        ))
        caplog.clear()
        rc = main(["train", "--kqi", str(kqi), "--catalog", str(catalog), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        if order == "clean_first":
            assert "c1/m: 7 points after cleaning, need 24" in caplog.text
            assert "c2/m" not in caplog.text
        else:
            assert "c1/m: split 1/0 leaves an empty part" in caplog.text
            assert "c2/m" not in caplog.text

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

    def test_itemsets_over_the_limit_are_exit_1(self, workspace, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(fingerprints, "MAX_ITEMSETS", 0)
        data = workspace / "data"
        caplog.clear()
        rc = main(
            ["mine", "--events", str(workspace / "events.jsonl"), "--kpi", str(data / "kpi.csv"),
             "--model", str(workspace / "model.json"), "--out", str(tmp_path / "db.json"),
             "--catalog", str(data / "catalog.json")]
        )
        assert rc == 1
        assert "subsets, more than 0" in caplog.text
        caplog.clear()
        assert main(["fogsim", "--strategy", "FOG", "--out", str(tmp_path / "r.json")]) == 1
        assert "subsets, more than 0" in caplog.text

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

    def test_zero_mass_model_key_is_exit_1(self, workspace, tmp_path, caplog):
        data = workspace / "data"
        doc = json.loads((workspace / "model.json").read_text())
        keys, sketches = doc["keys"], doc["sketches"]
        kqis = {name for name, meta in doc["metrics"].items() if meta["kind"] == "KQI"}
        row = next(r for r, m in enumerate(keys["metric"]) if keys["metric_names"][m] in kqis)
        start = sum(sketches["nbins"][:row])
        for column in ("bins", "counts"):
            del sketches[column][start : start + sketches["nbins"][row]]
        for column in ("nbins", "underflow", "overflow"):
            sketches[column][row] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        caplog.clear()
        rc = main(
            ["detect", "--kqi", str(data / "kqi.csv"), "--catalog", str(data / "catalog.json"),
             "--model", str(bad), "--out", str(tmp_path / "events.jsonl")]
        )
        assert rc == 1
        assert "zero total mass" in caplog.text

    def test_model_bin_count_over_the_limit_is_exit_1(self, workspace, tmp_path, caplog):
        # one key and no bins: only bin_count would size the keys x bins matrix
        doc = {
            "schema_version": 3,
            "trained_through": 0,
            "config": {"bin_count": 10**15, "tau": 5.0, "min_samples": 1, "bounds": None},
            "metrics": {"m1": {"kind": "KQI", "polarity": "HIGHER_IS_WORSE"}},
            "keys": {"cell_names": ["c1"], "metric_names": ["m1"], "cell": [0], "metric": [0], "hour": [0]},
            "sketches": {"bin_count": 10**15, "lo": [0.0], "hi": [1.0], "underflow": [1], "overflow": [0],
                         "nbins": [0], "bins": [], "counts": []},
        }
        data, bad = workspace / "data", tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        caplog.clear()
        rc = main(
            ["detect", "--kqi", str(data / "kqi.csv"), "--catalog", str(data / "catalog.json"),
             "--model", str(bad), "--out", str(tmp_path / "events.jsonl")]
        )
        assert rc == 1
        assert "bin_count must be in [8, 4096], got 1000000000000000" in caplog.text
        caplog.clear()
        rc = main(
            ["train", "--kqi", str(data / "kqi.csv"), "--catalog", str(data / "catalog.json"),
             "--out", str(tmp_path / "m.json"), "--bins", "4097"]
        )
        assert rc == 2  # a flag out of range, as for every detector setting
        assert "bin_count must be in [8, 4096], got 4097" in caplog.text

    def test_v1_model_asks_for_retraining(self, workspace, tmp_path, caplog):
        data = workspace / "data"
        v1 = {"schema_version": 1, "config": {"bin_count": 8, "tau": 5.0, "min_samples": 1, "bounds": None},
              "metrics": {}, "keys": []}
        old = tmp_path / "old.json"
        old.write_text(json.dumps(v1))
        caplog.clear()
        rc = main(
            ["detect", "--kqi", str(data / "kqi.csv"), "--catalog", str(data / "catalog.json"),
             "--model", str(old), "--out", str(tmp_path / "events.jsonl")]
        )
        assert rc == 1
        assert "unsupported model schema 1" in caplog.text
        assert "retrain the model with `cellwatch train`" in caplog.text

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["report", "{bad}"], "broken.json"),
            (["fogsim", "--topology", "{bad}", "--out", "{tmp}/r.json"], "broken.json"),
            (["eval", "--events", "{bad_lines}", "--truth", "{data}/truth.json"], "broken.jsonl"),
        ],
        ids=["artifact", "topology", "events"],
    )
    def test_truncated_json_names_the_file(self, workspace, tmp_path, caplog, argv, name):
        bad = tmp_path / "broken.json"
        bad.write_text('{"a": ')
        lines = (workspace / "events.jsonl").read_text().splitlines(keepends=True)
        bad_lines = tmp_path / "broken.jsonl"
        bad_lines.write_text(lines[0] + lines[1][:20])
        paths = {"bad": bad, "bad_lines": bad_lines, "tmp": tmp_path, "data": workspace / "data"}
        caplog.clear()
        rc = main([arg.format(**paths) for arg in argv])
        assert rc == 2
        line = 2 if name.endswith(".jsonl") else 1
        assert f"{tmp_path / name}: malformed JSON at line {line} column " in caplog.text
        assert "invalid configuration" not in caplog.text

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["detect", "--kqi", "{data}/kqi.csv", "--catalog", "{data}/catalog.json", "--model", "{deep}",
              "--out", "{tmp}/events.jsonl"], "deep.json"),
            (["detect", "--kqi", "{data}/kqi.csv", "--catalog", "{deep}", "--model", "{root}/model.json",
              "--out", "{tmp}/events.jsonl"], "deep.json"),
            (["eval", "--events", "{deep_lines}", "--truth", "{data}/truth.json"], "deep.jsonl"),
        ],
        ids=["model", "document", "json_lines"],
    )
    def test_json_nested_too_deeply_is_malformed(self, workspace, tmp_path, caplog, argv, name):
        nested = "[" * 200_000 + "]" * 200_000
        (tmp_path / "deep.json").write_text(nested)
        first = (workspace / "events.jsonl").read_text().splitlines(keepends=True)[0]
        (tmp_path / "deep.jsonl").write_text(first + nested + "\n")
        paths = {"deep": tmp_path / "deep.json", "deep_lines": tmp_path / "deep.jsonl", "tmp": tmp_path,
                 "root": workspace, "data": workspace / "data"}
        caplog.clear()
        rc = main([arg.format(**paths) for arg in argv])
        assert rc == 2
        line = 2 if name.endswith(".jsonl") else 1
        message = f"io error: {tmp_path / name}: malformed JSON at line {line} column 1: arrays or objects nested"
        assert message in caplog.text

    @pytest.mark.parametrize(
        "argv, name, offset",
        [
            (["report", "{tmp}/bin.json"], "bin.json", 0),
            (["report", "{tmp}/bin.jsonl"], "bin.jsonl", 9000),
            (["fogsim", "--topology", "{tmp}/bin.json", "--out", "{tmp}/r.json"], "bin.json", 0),
        ],
        ids=["report_json", "report_jsonl", "topology"],
    )
    def test_non_utf8_file_names_the_file_and_byte(self, tmp_path, caplog, argv, name, offset):
        (tmp_path / "bin.json").write_bytes(b"\xff\xfe{}")
        (tmp_path / "bin.jsonl").write_bytes(b'{"a": 1}\n' * 1000 + b"\xff\n")  # past the first 8 KiB
        caplog.clear()
        rc = main([arg.format(tmp=tmp_path) for arg in argv])
        assert rc == 2
        assert f"io error: {tmp_path / name}: not UTF-8 text at byte {offset}: invalid start byte" in caplog.text

    @pytest.mark.parametrize("flag, name", [("--kqi", "kqi.csv"), ("--cdr", "cdr.csv")])
    def test_non_utf8_csv_names_the_file_and_byte(self, workspace, tmp_path, caplog, monkeypatch, flag, name):
        monkeypatch.setattr(ingest, "BLOCK_SIZE", 4096)
        data = workspace / "data"
        header, first, rest = (data / name).read_bytes().split(b"\n", 2)
        text = header + b"\n" + first + b",extra\n" + rest  # line 2 is a bad row
        at = text.index(b"\n", 9000) + 1  # past the first block and the text reader's first chunk
        bad = tmp_path / name
        bad.write_bytes(text[:at] + b"\xff" + text[at:])
        argv = ["train", "--kqi", str(data / "kqi.csv"), "--out", str(tmp_path / "m.json"),
                "--catalog", str(data / "catalog.json"), flag, str(bad)]
        caplog.clear()
        assert main(argv) == 2
        assert f"io error: {bad}: not UTF-8 text at byte {at}: invalid start byte" in caplog.text

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


@pytest.mark.parametrize(
    "scenario",
    [default_scenario(1), default_scenario(424242), sparse_traffic_scenario()],
    ids=["1", "424242", "sparse"],
)
def test_cli_pipeline_equals_the_centralized_simulation(tmp_path, scenario):
    # The CLI reads gen's CSVs back, CDR included; fogsim runs the same
    # stages on the generated arrays. Both must give one model, event count and rule set,
    # also when sparse traffic leaves the CDR-derived series on grids of different extents.
    synth.save_spec(scenario.spec, tmp_path / "spec.json")
    data = tmp_path / "data"
    assert main(["gen", "--spec", str(tmp_path / "spec.json"), "--out", str(data)]) == 0
    doc = encode(scenario)
    config = {
        "pipeline": {"train_fraction": scenario.spec.train_fraction},
        "clean": doc["clean"],
        "detector": {k: v for k, v in doc["detector"].items() if k != "bounds"},
        "filters": doc["filters"],
        "mine": doc["mine"],
        "rca": {"z_symptom": doc["z_symptom"]},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    common = ["--catalog", str(data / "catalog.json"), "--config", str(tmp_path / "config.json")]
    model, events, db = (str(tmp_path / name) for name in ("model.json", "events.jsonl", "db.json"))
    kqi, kpi, cdr = (str(data / name) for name in ("kqi.csv", "kpi.csv", "cdr.csv"))
    assert main(["train", "--kqi", kqi, "--kpi", kpi, "--cdr", cdr, "--out", model, *common]) == 0
    assert main(["detect", "--kqi", kqi, "--cdr", cdr, "--model", model, "--out", events, *common]) == 0
    assert main(["mine", "--events", events, "--kpi", kpi, "--model", model, "--out", db, *common]) == 0

    report, sim_model, sim_db = simulate(default_topology(), Strategy.CENTRALIZED, scenario)
    assert report.event_latencies and sim_db.rules  # 5 events and 4 rules at both seeds, 39 and 12 on sparse traffic
    assert compare_models(load_model(model), sim_model)
    assert len(Path(events).read_text().splitlines()) == len(report.event_latencies)
    assert compare_dbs(load_db(db), sim_db)


@pytest.mark.parametrize("seed, message", [
    (1, "cell-002/call_attempts: split 1/0 leaves an empty part"),
    (9, "cell-002/drop_rate: 1 points after cleaning, need 8"),
])
def test_simulate_rejects_the_series_that_train_rejects(tmp_path, caplog, seed, message):
    # At 0.01 calls per window some CDR-derived series are too sparse to train on: every
    # placement and the CLI reject training with the same first series.
    scenario = tiny_scenario(n_cells=8, days=2.0, seed=seed, calls_per_window=0.01)
    synth.save_spec(scenario.spec, tmp_path / "spec.json")
    data = tmp_path / "data"
    assert main(["gen", "--spec", str(tmp_path / "spec.json"), "--out", str(data)]) == 0
    config = {"pipeline": {"train_fraction": scenario.spec.train_fraction}, "clean": encode(scenario)["clean"]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    caplog.clear()
    rc = main(["train", *(f"--{kind}={data / kind}.csv" for kind in ("kqi", "kpi", "cdr")),
               "--catalog", str(data / "catalog.json"), "--config", str(tmp_path / "config.json"),
               "--out", str(tmp_path / "model.json")])
    assert rc == 1
    assert message in caplog.text
    for strategy in Strategy:
        with pytest.raises(TooFewPoints, match=f"^{re.escape(message)}$"):
            simulate(default_topology(), strategy, scenario)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ZERO_MAD_FALSE_ALARMS)
def test_cdr_defaults_stay_under_the_false_alarm_floor(tmp_path, monkeypatch):
    # The CDR defaults with nothing planted: drop_rate hour keys that train on
    # zeros only flag windows with one dropped call of four.
    spec = synth.default_spec(n_cells=6, days=6.0, window_len=300, seed=5, anomaly_count=0)
    spec.cdr = synth.CdrTraffic(calls_per_window=4.0)
    synth.save_spec(spec, tmp_path / "spec.json")
    data = tmp_path / "data"
    assert main(["gen", "--spec", str(tmp_path / "spec.json"), "--out", str(data)]) == 0
    kqi, kpi, cdr = (str(data / name) for name in ("kqi.csv", "kpi.csv", "cdr.csv"))
    model, events = str(tmp_path / "model.json"), tmp_path / "events.jsonl"
    catalog = ["--catalog", str(data / "catalog.json")]
    assert main(["train", "--kqi", kqi, "--kpi", kpi, "--cdr", cdr, "--out", model, *catalog]) == 0
    scored = []
    score = cli.score_series

    def counted(model, test, **kw):
        scored.append(len(test.values))
        return score(model, test, **kw)

    monkeypatch.setattr(cli, "score_series", counted)
    assert main(["detect", "--kqi", kqi, "--cdr", cdr, "--model", model, "--out", str(events), *catalog]) == 0
    found = [decode(AnomalyEvent, json.loads(line)) for line in events.read_text().splitlines()]
    fraction = covered_fraction(found, sum(scored), spec.window_len)
    assert fraction <= 0.001, f"{len(found)} events cover {fraction:.3%} of {sum(scored)} windows"


@pytest.fixture(scope="module")
def cdr_data(tmp_path_factory):
    """gen's files for 6 cells of CDR traffic at 4 calls per window, nothing planted."""
    root = tmp_path_factory.mktemp("cdr")
    spec = synth.default_spec(n_cells=6, days=6.0, window_len=300, seed=5, anomaly_count=0)
    spec.cdr = synth.CdrTraffic(calls_per_window=4.0)
    synth.save_spec(spec, root / "spec.json")
    assert main(["gen", "--spec", str(root / "spec.json"), "--out", str(root / "data")]) == 0
    return root / "data"


def test_a_pair_from_both_kqi_and_cdr_is_refused(cdr_data, tmp_path, caplog):
    # A KQI CSV that also holds the calls' aggregates gives each derived pair two series:
    # train would count every one of their points twice, and detect would repeat events.
    kqi, cdr, catalog = (cdr_data / name for name in ("kqi.csv", "cdr.csv", "catalog.json"))
    generated = ingest.parse_metric_csv(kqi, ingest.MetricKind.KQI, ingest.load_catalog(catalog))
    doubled = tmp_path / "kqi.csv"
    ingest.write_metric_csv(generated + ingest.aggregate_cdr(ingest.parse_cdr(cdr), 300), doubled)
    model = str(tmp_path / "model.json")
    common = ["--cdr", str(cdr), "--catalog", str(catalog)]
    assert main(["train", "--kqi", str(kqi), "--out", model, *common]) == 0
    message = f"error: cell-000/call_attempts is in both --kqi {doubled} and --cdr {cdr}"
    for command in (["train", "--out", str(tmp_path / "doubled.json")],
                    ["detect", "--model", model, "--out", str(tmp_path / "events.jsonl")]):
        caplog.clear()
        assert main([*command, "--kqi", str(doubled), *common]) == 1
        assert message in caplog.text


@pytest.mark.parametrize(
    "edit, named",
    [
        ({"drop_rate": None, "mean_duration": None}, "drop_rate as a KQI of polarity HIGHER_IS_WORSE"),
        ({"drop_rate": {"polarity": "LOWER_IS_WORSE"}}, "drop_rate as a KQI of polarity HIGHER_IS_WORSE"),
        ({"mean_duration": {"kind": "KPI"}}, "mean_duration as a KQI of polarity LOWER_IS_WORSE"),
        ({"call_attempts": {"window_len_seconds": 600}}, "drop_rate as a KQI"),
    ],
    ids=["derived_entries_missing", "drop_rate_polarity", "mean_duration_kind", "call_attempts_window_len"],
)
def test_cdr_needs_each_derived_metric_in_the_catalog(cdr_data, tmp_path, caplog, edit, named):
    doc = json.loads((cdr_data / "catalog.json").read_text())
    for name, change in edit.items():
        if change is None:
            del doc[name]
        else:
            doc[name].update(change)
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(doc))
    caplog.clear()
    rc = main(["train", "--kqi", str(cdr_data / "kqi.csv"), "--cdr", str(cdr_data / "cdr.csv"),
               "--catalog", str(catalog), "--out", str(tmp_path / "model.json")])
    assert rc == 1
    prefix = "error: catalog must declare the CDR-derived metrics (call_attempts, drop_rate, mean_duration)"
    assert f"{prefix} when --cdr is used: {named}" in caplog.text


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


def planted(start_window, n_windows):
    """A spec document's explicit anomaly on cell-000's page_load_ms."""
    return {"cell_id": "cell-000", "metric": "page_load_ms", "start_window": start_window,
            "n_windows": n_windows, "magnitude": 8.0}


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
            (lambda d: d["cdr"].update(calls_per_window=-1.0), "cdr.calls_per_window must be finite and >= 0"),
            (lambda d: d["cdr"].update(drop_prob=2.0), "cdr.drop_prob must be in [0, 1]"),
            (lambda d: d["cdr"].update(drop_prob=-0.5), "cdr.drop_prob must be in [0, 1]"),
            (lambda d: d["cdr"].update(duration_mean=0.0), "cdr.duration_mean must be finite and > 0"),
            (lambda d: d["cdr"].update(calls_per_window=4.0, duration_mean=-120.0),
             "cdr.duration_mean must be finite and > 0"),
            (lambda d: d.update(seed=-3), "seed must be >= 0, got -3"),
            # 61200 is the first test window of this spec
            (lambda d: d.update(anomalies=[planted(61200, 0)]), "anomalies[0].n_windows must be >= 1, got 0"),
            (lambda d: d.update(anomalies=[planted(61200, -3)]), "anomalies[0].n_windows must be >= 1, got -3"),
            (lambda d: d.update(anomalies=[planted(61207, 2)]),
             "anomalies[0].start_window 61207 is not a multiple of window_len 1800"),
            (lambda d: d.update(days=1e12), "points per metric, more than 16777216"),
            (lambda d: d["cdr"].update(calls_per_window=1e15), "expects more than 16777216 calls"),
            (lambda d: d.update(n_cells=0), "n_cells must be >= 1"),
            (lambda d: d.update(train_fraction=1.0), "train_fraction must be in (0, 1)"),
            (lambda d: d.update(missing_rate=1.0), "missing_rate must be in [0, 1)"),
            (lambda d: d.update(days=0.03), "grid needs at least two windows"),
            (lambda d: d["metrics"]["rtt_ms"].update(sigma=0.0), "metric 'rtt_ms': sigma must be > 0"),
            (lambda d: d["metrics"]["rtt_ms"].update(value_range=[5.0, 5.0]), "metric 'rtt_ms': bad value_range"),
            (lambda d: d["causes"][0].update(kqi="rtt_ms"), "cause 'congestion' targets unknown KQI 'rtt_ms'"),
            (lambda d: d["causes"][0]["pattern"].update(jitter_ms="HIGH"),
             "cause 'congestion' references unknown KPIs ['jitter_ms']"),
            (lambda d: d["causes"][0].update(symptom_magnitude=0.0),
             "cause 'congestion': symptom_magnitude must be > 0"),
            (lambda d: d["anomalies"].update(count=-1), "auto plan needs count >= 0 and magnitude > 0"),
            (lambda d: d["anomalies"].update(magnitude=0.0), "auto plan needs count >= 0 and magnitude > 0"),
            (lambda d: d["anomalies"].update(min_windows=0), "auto plan window range invalid"),
            (lambda d: d["anomalies"].update(min_windows=5, max_windows=4), "auto plan window range invalid"),
            (lambda d: d.update(causes=[], metrics={k: v for k, v in d["metrics"].items() if v["kind"] == "KPI"}),
             "cannot plant anomalies without KQI metrics"),
            (lambda d: d.update(anomalies=[{**planted(61200, 2), "magnitude": 0.0}]), "planted magnitudes must be > 0"),
            (lambda d: d.update(anomalies=[{**planted(61200, 2), "metric": "rtt_ms"}]),
             "anomaly targets non-KQI metric 'rtt_ms'"),
            (lambda d: d.update(anomalies=[{**planted(61200, 2), "cell_id": "cell-009"}]),
             "anomaly targets unknown cell 'cell-009'"),
            (lambda d: d.update(anomalies=[planted(0, 2)]), "planted anomalies must lie inside the test span"),
            # the grid ends at 48 windows of 1800 s, 86400
            (lambda d: d.update(anomalies=[planted(84600, 2)]), "planted anomaly extends past the grid"),
            # 2 cells x 2 KQIs hold at most 4 anomalies
            (lambda d: d["anomalies"].update(count=5), "could not place the requested anomaly count"),
            # the test span holds 14 of the 48 windows
            (lambda d: d["anomalies"].update(min_windows=20, max_windows=20),
             "test span too short for the planned anomaly durations"),
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

    def test_gen_negative_seed_override(self, tmp_path, caplog):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(encode(synth.default_spec(n_cells=2, days=1.0, window_len=1800, seed=5))))
        rc, log = self.run(["gen", "--spec", str(spec), "--seed", "-3", "--out", str(tmp_path / "d")], caplog)
        assert rc == 1
        assert "seed must be >= 0, got -3" in log

    @pytest.mark.parametrize(
        "cdr, message",
        [
            ({"calls_per_window": -4.0}, "cdr.calls_per_window must be finite and >= 0"),
            ({"drop_prob": 2.0}, "cdr.drop_prob must be in [0, 1]"),
            ({"duration_mean": -120.0}, "cdr.duration_mean must be finite and > 0"),
        ],
    )
    def test_fogsim_scenario_cdr(self, tmp_path, caplog, cdr, message):
        spec = encode(synth.default_spec(n_cells=2, days=1.0, window_len=1800, seed=5, calls_per_window=4.0))
        spec["cdr"].update(cdr)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"spec": spec}))
        rc, log = self.run(
            ["fogsim", "--scenario", str(scenario), "--strategy", "CENTRALIZED", "--out", str(tmp_path / "r.json")],
            caplog,
        )
        assert rc == 1
        assert message in log

    def test_fogsim_scenario_negative_seed(self, tmp_path, caplog):
        spec = encode(synth.default_spec(n_cells=2, days=1.0, window_len=1800, seed=-3))
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"spec": spec}))
        rc, log = self.run(
            ["fogsim", "--scenario", str(scenario), "--strategy", "CENTRALIZED", "--out", str(tmp_path / "r.json")],
            caplog,
        )
        assert rc == 1
        assert "seed must be >= 0, got -3" in log

    def test_gen_spec_list(self, tmp_path, caplog):
        spec = tmp_path / "spec.json"
        spec.write_text("[1, 2]")
        rc, log = self.run(["gen", "--spec", str(spec), "--out", str(tmp_path / "d")], caplog)
        assert rc == 1
        assert "document: expected an object, got an array" in log

    @pytest.mark.parametrize("literal, got", [("NaN", "nan"), ("-Infinity", "-inf"), ("1e999", "inf")])
    @pytest.mark.parametrize("kind", ["catalog", "config", "scenario", "topology"])
    def test_non_finite_number(self, workspace, tmp_path, caplog, kind, literal, got):
        data = workspace / "data"
        catalog = json.loads((data / "catalog.json").read_text())
        catalog["call_attempts"]["value_range"][1] = "X"
        topology = default_topology_doc()
        topology["links"]["edge-0"]["bandwidth_bps"] = "X"
        train = ["train", "--kqi", str(data / "kqi.csv"), "--out", str(tmp_path / "m.json")]
        doc, key, argv = {
            "catalog": (catalog, "call_attempts.value_range[1]", [*train, "--catalog"]),
            "config": ({"detector": {"tau": "X"}}, "detector.tau",
                       [*train, "--catalog", str(data / "catalog.json"), "--config"]),
            "scenario": ({"z_symptom": "X"}, "z_symptom",
                         ["fogsim", "--out", str(tmp_path / "r.json"), "--scenario"]),
            "topology": (topology, "links.edge-0.bandwidth_bps",
                         ["fogsim", "--out", str(tmp_path / "r.json"), "--topology"]),
        }[kind]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"X"', literal))
        rc, log = self.run([*argv, str(bad)], caplog)
        assert rc == 1
        assert f"{key}: expected a finite number, got {got}" in log

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
            (
                {"labels": [{"antecedent": ["rtt_ms=HIGH", "rtt_ms=HIGH"], "consequent": "page_load_ms",
                             "cause_label": "congestion"}]},
                "labels[0].antecedent: repeated symptom tokens",
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

    EVENT_READERS = {
        "mine": ["mine", "--events", "{events}", "--kpi", "{data}/kpi.csv", "--model", "{ws}/model.json",
                 "--out", "{tmp}/db.json", "--catalog", "{data}/catalog.json"],
        "diagnose": ["diagnose", "--events", "{events}", "--kpi", "{data}/kpi.csv", "--model", "{ws}/model.json",
                     "--db", "{ws}/db.json", "--out", "{tmp}/d.jsonl", "--catalog", "{data}/catalog.json"],
        "eval": ["eval", "--events", "{events}", "--truth", "{data}/truth.json"],
        "report_events": ["report", "{events}"],
        "eval_diagnoses": ["eval", "--events", "{ws}/events.jsonl", "--diagnoses", "{diagnoses}",
                           "--truth", "{data}/truth.json"],
        "report_diagnoses": ["report", "{diagnoses}"],
    }

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"peak_window": 2**63}, "peak_window: 9223372036854775808 is outside the int64 range"),
            ({"start_window": -(2**63) - 1}, "start_window: -9223372036854775809 is outside the int64 range"),
            ({"end_window": 2**64}, "end_window: 18446744073709551616 is outside the int64 range"),
            ({"start_window": 10**15}, "peak_window: {peak_window} is before start_window 1000000000000000"),
            ({"end_window": 0}, "end_window: 0 is before peak_window {peak_window}"),
        ],
        ids=["peak_beyond_int64", "start_below_int64", "end_beyond_int64", "start_after_peak", "end_before_peak"],
    )
    @pytest.mark.parametrize("command", sorted(EVENT_READERS))
    def test_event_windows(self, workspace, tmp_path, caplog, command, edit, message):
        """An event's window starts fit int64 and are in order, in an events or a diagnoses file."""
        source = "diagnoses" if command.endswith("diagnoses") else "events"
        lines = (workspace / f"{source}.jsonl").read_text().splitlines()
        doc = json.loads(lines[1])
        event = doc["event"] if source == "diagnoses" else doc
        message = message.format(**event)
        event.update(edit)
        lines[1] = json.dumps(doc)
        rc, log = self.run_event_reader(workspace, tmp_path, caplog, command, lines)
        assert rc == 1
        where = "line 2.event." if source == "diagnoses" else "line 2."
        assert where + message in log

    @pytest.mark.parametrize("command", sorted(EVENT_READERS))
    def test_repeated_event(self, workspace, tmp_path, caplog, command):
        """A line whose event has an earlier line's (cell, metric, start window) is refused, naming both."""
        source = "diagnoses" if command.endswith("diagnoses") else "events"
        lines = (workspace / f"{source}.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        event = first["event"] if source == "diagnoses" else first
        rc, log = self.run_event_reader(workspace, tmp_path, caplog, command, lines + lines[:1])
        assert rc == 1
        where = ".event" if source == "diagnoses" else ""
        assert (f"line {len(lines) + 1}{where}: {event['cell_id']}/{event['metric']} from window "
                f"{event['start_window']} repeats line 1{where}") in log

    @pytest.mark.parametrize("same_label", [False, True], ids=["other_label", "same_label"])
    def test_repeated_label(self, workspace, tmp_path, caplog, same_label):
        """A rule labelled twice is refused through ``mine``, naming both entries, whether the labels agree or not."""
        data = workspace / "data"
        doc = json.loads((data / "labels.json").read_text())
        first = dict(doc["labels"][0])
        if not same_label:
            first["cause_label"] = "other_cause"
        doc["labels"].append(first)
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps(doc))
        rc, log = self.run(
            ["mine", "--events", str(workspace / "events.jsonl"), "--kpi", str(data / "kpi.csv"),
             "--model", str(workspace / "model.json"), "--out", str(tmp_path / "db.json"),
             "--labels", str(labels), "--catalog", str(data / "catalog.json")],
            caplog,
        )
        assert rc == 1
        rule = f"{' & '.join(first['antecedent'])} -> {first['consequent']}"
        assert f"labels[{len(doc['labels']) - 1}]: {rule} repeats labels[0]" in log
        assert not (tmp_path / "db.json").exists()

    def test_repeated_planted_event(self, workspace, tmp_path, caplog):
        """``eval`` refuses a truth file that plants one (cell, metric, start window) twice, naming both."""
        doc = json.loads((workspace / "data" / "truth.json").read_text())
        first = doc["planted_events"][0]
        doc["planted_events"].append(dict(first))
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps(doc))
        rc, log = self.run(
            ["eval", "--events", str(workspace / "events.jsonl"), "--truth", str(truth),
             "--out", str(tmp_path / "eval.json")],
            caplog,
        )
        assert rc == 1
        assert (f"planted_events[{len(doc['planted_events']) - 1}]: {first['cell_id']}/{first['metric']} "
                f"from window {first['start_window']} repeats planted_events[0]") in log
        assert not (tmp_path / "eval.json").exists()

    def test_diagnosis_of_an_unknown_event(self, workspace, tmp_path, caplog):
        """``eval`` refuses a diagnoses line whose event is not in the events file, naming the line."""
        lines = (workspace / "diagnoses.jsonl").read_text().splitlines()
        doc = json.loads(lines[1])
        doc["event"]["cell_id"] = "no-such-cell"
        lines[1] = json.dumps(doc)
        diagnoses = tmp_path / "diagnoses.jsonl"
        diagnoses.write_text("\n".join(lines) + "\n")
        events = workspace / "events.jsonl"
        rc, log = self.run(
            ["eval", "--events", str(events), "--diagnoses", str(diagnoses),
             "--truth", str(workspace / "data" / "truth.json"), "--out", str(tmp_path / "eval.json")],
            caplog,
        )
        assert rc == 1
        event = doc["event"]
        assert (f"line 2.event: no-such-cell/{event['metric']} from window {event['start_window']} "
                f"is not an event of {events}") in log
        assert not (tmp_path / "eval.json").exists()

    def run_event_reader(self, workspace, tmp_path, caplog, command, lines):
        """``command`` on the workspace, with its events or diagnoses file replaced by ``lines``."""
        paths = {"data": workspace / "data", "ws": workspace, "tmp": tmp_path,
                 "events": workspace / "events.jsonl", "diagnoses": workspace / "diagnoses.jsonl"}
        source = "diagnoses" if command.endswith("diagnoses") else "events"
        paths[source] = tmp_path / f"bad.{source}.jsonl"
        paths[source].write_text("\n".join(lines) + "\n")
        return self.run([arg.format(**paths) for arg in self.EVENT_READERS[command]], caplog)

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
            (
                ["report", "{doc}"],
                '{"strategy": "FOG", "total_bytes": 0, "links": {}, "event_latencies": [],'
                ' "mean_latency": 0.0, "max_latency": 0.0, "model_location": {}}',
                1,
                "phases: missing required key",
            ),
            (
                ["report", "{doc}"],
                '{"missing_removed": 1, "extremes_removed": 0, "detail": [], "removed": 1}',
                1,
                "removed: unknown key",
            ),
            (TRAIN_CDR, CDR_HEADER + "cell-000,100,nan,0,aa,bb\n", 1, "line 2: non-finite duration 'nan'"),
            (TRAIN_CDR, CDR_HEADER + "cell-000,100,30,0,aa,bb\ncell-000,200,inf,0,aa,bb\n", 1,
             "line 3: non-finite duration 'inf'"),
            (TRAIN_CDR, CDR_HEADER + "cell-000,99999999999999999999,30,0,aa,bb\n", 1,
             "line 2: start_time 99999999999999999999 "),
            (["train", "--catalog", "{data}/catalog.json", "--out", "{tmp}/m.json"], "", 1,
             "no input series; pass --kqi/--kpi/--cdr"),
            (["detect", "--catalog", "{data}/catalog.json", "--model", "{ws}/model.json",
              "--out", "{tmp}/e.jsonl"], "", 1, "no KQI series; pass --kqi and/or --cdr"),
            (
                ["train", "--cdr", "{data}/cdr.csv", "--catalog", "{doc}", "--out", "{tmp}/m.json"],
                '{"m": {"kind": "KQI", "polarity": "LOWER_IS_WORSE", "window_len_seconds": 300}}',
                1,
                "catalog must declare the CDR-derived metrics",
            ),
        ],
        ids=[
            "catalog_missing_key", "catalog_window_len_string", "catalog_window_len_float",
            "catalog_window_len_zero", "topology_array", "truth_array", "truth_schema_version",
            "events_missing_key", "db_array", "report_line_not_object", "diagnoses_missing_key",
            "report_db_rules_int", "report_truth_events_int", "report_model_keys_int",
            "report_eval_precision_string", "report_fogsim_bytes_string", "report_clean_missing_key",
            "report_fogsim_missing_phases", "report_clean_unknown_key",
            "cdr_nan_duration", "cdr_inf_duration", "cdr_start_time_beyond_int64",
            "train_no_input", "detect_no_kqi", "cdr_catalog_without_derived_metrics",
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


class TestConfigChecks:
    """Out-of-range, NaN and infinite settings are usage errors (exit 2) at config resolution."""

    @pytest.mark.parametrize(
        "cls, name, value",
        [
            (PipelineConfig, "train_fraction", 1.0),
            (PipelineConfig, "train_fraction", float("nan")),
            (RcaConfig, "k", 0),
            (RcaConfig, "match_threshold", 2.0),
            (RcaConfig, "match_threshold", float("nan")),
            (RcaConfig, "z_symptom", 0.0),
            (RcaConfig, "z_symptom", float("nan")),
            (RcaConfig, "z_symptom", float("inf")),
            (CleanConfig, "iqr_multiplier", float("nan")),
            (CleanConfig, "iqr_multiplier", float("inf")),
            (DetectorConfig, "tau", float("nan")),
            (DetectorConfig, "tau", float("inf")),
            (FilterConfig, "min_peak_score", float("nan")),
            (FilterConfig, "min_peak_score", float("-inf")),
            (MineConfig, "lift_min", float("nan")),
            (MineConfig, "lift_min", float("inf")),
            (RecordSizes, "cdr_record_bytes", -64),
            (RecordSizes, "metric_row_bytes", -1),
            (RecordSizes, "transaction_bytes", -1),
            (RecordSizes, "alert_bytes", -1),
            (CleanConfig, "min_points", 3),
            (DetectorConfig, "min_samples", 0),
            (MineConfig, "s_min_count", 0),
            (MineConfig, "s_max_fraction", 0.0),
            (MineConfig, "s_max_fraction", 1.5),
            (MineConfig, "c_min", 0.0),
            (MineConfig, "c_min", 1.5),
            (MineConfig, "max_antecedent", 0),
        ],
    )
    def test_rejected(self, cls, name, value):
        with pytest.raises(ValueError, match=name):
            cls(**{name: value})

    def test_negative_record_size_is_exit_2(self, tmp_path, caplog):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"sizes": {"cdr_record_bytes": -64, "metric_row_bytes": -32}}))
        out = tmp_path / "r.json"
        assert main(["fogsim", "--scenario", str(scenario), "--strategy", "CENTRALIZED", "--out", str(out)]) == 2
        assert "cdr_record_bytes must be >= 0" in caplog.text
        assert not out.exists()

    def test_any_finite_min_peak_score_is_accepted(self):
        assert FilterConfig(min_peak_score=-1.0).min_peak_score == -1.0

    @pytest.mark.parametrize(
        "flags",
        [
            ["detect", "--tau", "nan"],
            ["detect", "--min-peak-score", "inf"],
            ["train", "--tau", "inf"],
            ["train", "--iqr-k", "nan"],
            ["train", "--train-fraction", "1.5"],
            ["mine", "--lift-min", "nan"],
            ["mine", "--z-symptom", "nan"],
            ["diagnose", "--k", "0"],
            ["diagnose", "--match-threshold", "2"],
            ["diagnose", "--z-symptom", "inf"],
        ],
    )
    def test_flag_is_exit_2(self, workspace, tmp_path, flags):
        data = workspace / "data"
        events = tmp_path / "events.jsonl"
        events.write_text("")
        inputs = {
            "train": [],  # no input series: only the config can fail
            "detect": ["--kqi", str(data / "kqi.csv"), "--model", str(workspace / "model.json")],
            "mine": ["--events", str(events), "--kpi", str(data / "kpi.csv"),
                     "--model", str(workspace / "model.json")],
            "diagnose": ["--events", str(events), "--kpi", str(data / "kpi.csv"),
                         "--model", str(workspace / "model.json"), "--db", str(workspace / "db.json")],
        }
        command, *rest = flags
        out = tmp_path / "out"
        argv = [command, *inputs[command], "--catalog", str(data / "catalog.json"), "--out", str(out), *rest]
        assert main(argv) == 2
        assert not out.exists()


def test_readme_walkthrough_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Pipeline walkthrough", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert [argv[0] for argv in commands] == ["cellwatch"] * 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv


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


# Every input document, each with the commands that read it. {bad} is the
# mutated copy; the other names are the fuzz pipeline's files.
FUZZ_READERS = {
    "model.json": [
        ["detect", "--kqi", "{data}/kqi.csv", "--cdr", "{data}/cdr.csv", "--catalog", "{data}/catalog.json",
         "--model", "{bad}", "--out", "{out}/events.jsonl"],
        ["diagnose", "--events", "{ws}/events.jsonl", "--kpi", "{data}/kpi.csv", "--catalog", "{data}/catalog.json",
         "--model", "{bad}", "--db", "{ws}/db.json", "--out", "{out}/diagnoses.jsonl"],
    ],
    "db.json": [
        ["diagnose", "--events", "{ws}/events.jsonl", "--kpi", "{data}/kpi.csv", "--catalog", "{data}/catalog.json",
         "--model", "{ws}/model.json", "--db", "{bad}", "--out", "{out}/diagnoses.jsonl"],
        ["mine", "--events", "{ws}/events.jsonl", "--kpi", "{data}/kpi.csv", "--catalog", "{data}/catalog.json",
         "--model", "{ws}/model.json", "--db-in", "{bad}", "--out", "{out}/db.json"],
    ],
    "events.jsonl": [
        ["mine", "--events", "{bad}", "--kpi", "{data}/kpi.csv", "--catalog", "{data}/catalog.json",
         "--model", "{ws}/model.json", "--labels", "{data}/labels.json", "--out", "{out}/db.json"],
        ["diagnose", "--events", "{bad}", "--kpi", "{data}/kpi.csv", "--catalog", "{data}/catalog.json",
         "--model", "{ws}/model.json", "--db", "{ws}/db.json", "--out", "{out}/diagnoses.jsonl"],
        ["eval", "--events", "{bad}", "--diagnoses", "{ws}/diagnoses.jsonl", "--truth", "{data}/truth.json",
         "--out", "{out}/eval.json"],
    ],
    "diagnoses.jsonl": [
        ["eval", "--events", "{ws}/events.jsonl", "--diagnoses", "{bad}", "--truth", "{data}/truth.json",
         "--out", "{out}/eval.json"],
    ],
    "labels.json": [
        ["mine", "--events", "{ws}/events.jsonl", "--kpi", "{data}/kpi.csv", "--catalog", "{data}/catalog.json",
         "--model", "{ws}/model.json", "--labels", "{bad}", "--out", "{out}/db.json"],
    ],
    "catalog.json": [
        ["train", "--kqi", "{data}/kqi.csv", "--kpi", "{data}/kpi.csv", "--cdr", "{data}/cdr.csv",
         "--catalog", "{bad}", "--out", "{out}/model.json"],
        ["detect", "--kqi", "{data}/kqi.csv", "--cdr", "{data}/cdr.csv", "--catalog", "{bad}",
         "--model", "{ws}/model.json", "--out", "{out}/events.jsonl"],
    ],
    "truth.json": [
        ["eval", "--events", "{ws}/events.jsonl", "--diagnoses", "{ws}/diagnoses.jsonl", "--truth", "{bad}",
         "--out", "{out}/eval.json"],
    ],
    "config.json": [
        ["train", "--kqi", "{data}/kqi.csv", "--kpi", "{data}/kpi.csv", "--cdr", "{data}/cdr.csv",
         "--catalog", "{data}/catalog.json", "--config", "{bad}", "--out", "{out}/model.json"],
        ["mine", "--events", "{ws}/events.jsonl", "--kpi", "{data}/kpi.csv", "--catalog", "{data}/catalog.json",
         "--model", "{ws}/model.json", "--config", "{bad}", "--out", "{out}/db.json"],
    ],
    "spec.json": [["gen", "--spec", "{bad}", "--out", "{out}/gen"]],
    "topology.json": [
        ["fogsim", "--topology", "{bad}", "--scenario", "{ws}/scenario.json", "--strategy", "FOG",
         "--out", "{out}/fog.json"],
    ],
    "scenario.json": [
        ["fogsim", "--topology", "{ws}/topology.json", "--scenario", "{bad}", "--strategy", "FOG",
         "--out", "{out}/fog.json"],
    ],
    "kqi.csv": [
        ["train", "--kqi", "{bad}", "--kpi", "{data}/kpi.csv", "--catalog", "{data}/catalog.json",
         "--out", "{out}/model.json"],
        ["detect", "--kqi", "{bad}", "--catalog", "{data}/catalog.json", "--model", "{ws}/model.json",
         "--out", "{out}/events.jsonl"],
    ],
    "kpi.csv": [
        ["mine", "--events", "{ws}/events.jsonl", "--kpi", "{bad}", "--catalog", "{data}/catalog.json",
         "--model", "{ws}/model.json", "--out", "{out}/db.json"],
        ["train", "--kpi", "{bad}", "--catalog", "{data}/catalog.json", "--out", "{out}/model.json"],
    ],
    "cdr.csv": [
        ["train", "--cdr", "{bad}", "--catalog", "{data}/catalog.json", "--out", "{out}/model.json"],
        ["detect", "--cdr", "{bad}", "--catalog", "{data}/catalog.json", "--model", "{ws}/model.json",
         "--out", "{out}/events.jsonl"],
    ],
}
# What a JSON mutation sets a value to; it may also drop a key or entry, or repeat a list entry.
FUZZ_VALUES = [None, True, -1, 0, 0.5, -0.0, 2**63, -(2**63) - 1, 10**15, 1e308, "", "x", "NaN", [], [1], {}]
# What a CSV mutation puts at a byte: a byte that ends or splits a field, starts a number or is not text.
FUZZ_BYTES = [b",", b"\n", b"\r", b"-", b".", b"0", b"9", b"e", b'"', b"\x00", b"\xff", b" "]


def json_paths(doc, path=()):
    """The path of every value in a JSON document, the document's own () first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from json_paths(value, (*path, key))


def mutate_json(doc, where: int, what: int):
    """doc with one value dropped, repeated or replaced: value ``where`` of json_paths, mutation ``what``."""
    doc = json.loads(json.dumps(doc))
    paths = list(json_paths(doc))
    path = paths[where % len(paths)]
    if not path:
        return FUZZ_VALUES[what % len(FUZZ_VALUES)]
    *parents, last = path
    ops = ["drop", *(["repeat"] if isinstance(last, int) else []), *FUZZ_VALUES]
    op = ops[what % len(ops)]
    parent = doc
    for key in parents:
        parent = parent[key]
    if op == "drop":
        del parent[last]
    elif op == "repeat":
        parent.insert(last, parent[last])
    else:
        parent[last] = op
    return doc


FUZZ_BYTE_OPS = [
    *(("replace", b) for b in FUZZ_BYTES), *(("insert", b) for b in FUZZ_BYTES),
    ("cut", b""), ("repeat", b""),
]


def mutate_bytes(data: bytes, where: int, what: int) -> bytes:
    """data with byte ``where`` replaced or preceded by a FUZZ_BYTES byte, or cut there, or its line repeated."""
    at = where % (len(data) + 1)
    op, byte = FUZZ_BYTE_OPS[what % len(FUZZ_BYTE_OPS)]
    if op == "replace":
        return data[:at] + byte + data[at + 1 :]
    if op == "insert":
        return data[:at] + byte + data[at:]
    if op == "cut":
        return data[:at]
    start, end = data.rfind(b"\n", 0, at) + 1, data.find(b"\n", at) + 1 or len(data)
    return data[:end] + data[start:end] + data[end:]


@pytest.fixture(scope="module")
def fuzz_inputs(workspace):
    """The directories the fuzz's commands name: the workspace, with a config, topology and scenario document added."""
    documents = {
        "config.json": {"pipeline": {"train_fraction": 0.6}, "detector": {"min_samples": 6, "tau": 4.5}},
        "topology.json": default_topology_doc(),
        "scenario.json": encode(tiny_scenario()),
    }
    for name, doc in documents.items():
        (workspace / name).write_text(json.dumps(doc))
    return {"ws": workspace, "data": workspace / "data"}


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(FUZZ_READERS)), st.integers(0, 2), st.integers(0, 2**20), st.integers(0, 255))
@example("catalog.json", 1, 178887, 92)  # call_attempts' window_len_seconds 2**63 overflowed the CDR grid's int64
@example("spec.json", 0, 142802, 160)  # an anomaly count of 2**63 kept the planner drawing for ever
@example("spec.json", 0, 723539, 214)  # days 1e308 overflowed to infinite seconds in the grid's window count
def test_every_reader_fails_closed(fuzz_inputs, tmp_path_factory, name, reader, where, what):
    # A mutated input ends in exit code 0, 1 or 2, never in an exception out of main.
    out = tmp_path_factory.mktemp("fuzz")
    source = fuzz_inputs["ws"] / name
    data = (source if source.exists() else fuzz_inputs["data"] / name).read_bytes()
    if name.endswith(".csv"):
        data = mutate_bytes(data, where, what)
    elif name.endswith(".jsonl"):
        lines = mutate_json([json.loads(line) for line in data.decode().splitlines()], where, what)
        data = "".join(json.dumps(line) + "\n" for line in (lines if isinstance(lines, list) else [lines])).encode()
    else:
        data = json.dumps(mutate_json(json.loads(data), where, what)).encode()
    bad = out / f"bad.{name}"
    bad.write_bytes(data)
    readers = FUZZ_READERS[name]
    paths = {**fuzz_inputs, "bad": bad, "out": out}
    argv = [arg.format(**paths) for arg in readers[reader % len(readers)]]
    assert main(argv) in (0, 1, 2)
