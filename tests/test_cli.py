"""End-to-end command-line tests: every subcommand exercised against
real files in a temp directory, exit codes checked on each failure path,
and rerun determinism verified byte for byte."""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import re
import tempfile
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tabformer.cli import RunConfig, _resolve, build_parser, main
from tabformer.data import CATEGORICAL, NUMERIC, load_csv
from tabformer.errors import ConfigError, from_dict, json_text
from tabformer.model import MODELS, load_checkpoint
from tabformer.training import TrainConfig


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "gen.json"
    doc = {
        "columns": [
            {"name": "x0", "kind": "numeric"},
            {"name": "x1", "kind": "numeric"},
            {"name": "x2", "kind": "numeric"},
        ],
        "weights": [6.0, 0.0, 0.0],
        "bias": 0.0,
        "seed": 7,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def data_path(spec_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "table.csv"
    rc = main(["synth", "--spec", spec_path, "--out", str(path), "--n", "160"])
    assert rc == 0
    return str(path)


def run_config_file(tmp_path, **overrides):
    doc = {
        "model": "logistic",
        "train_config": {"max_epochs": 12, "batch_size": 64, "patience": 4},
        "k_folds": 3,
    }
    doc.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_header_plus_n_rows(spec_path, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["synth", "--spec", spec_path, "--out", str(out), "--n", "50"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 51
    assert lines[0] == "x0,x1,x2,label"
    assert "prevalence" in capsys.readouterr().out


def test_synth_rerun_is_byte_identical(spec_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["synth", "--spec", spec_path, "--out", str(a), "--n", "80"])
    main(["synth", "--spec", spec_path, "--out", str(b), "--n", "80"])
    assert a.read_bytes() == b.read_bytes()


def test_synth_seed_flag_overrides_spec_seed(spec_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["synth", "--spec", spec_path, "--out", str(a), "--n", "80"])
    main(["synth", "--spec", spec_path, "--out", str(b), "--n", "80", "--seed", "99"])
    assert a.read_bytes() != b.read_bytes()


def test_synth_invalid_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    rc = main(["synth", "--spec", str(bad), "--out", str(tmp_path / "x.csv"), "--n", "5"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_synth_spec_with_no_columns_exits_2_and_writes_nothing(tmp_path, capsys):
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({"columns": [], "weights": []}), encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["synth", "--spec", str(spec), "--out", str(out), "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("names", [["x", "x"], ["x", "label"]], ids=["repeated", "target"])
def test_synth_spec_with_a_clashing_column_name_exits_2_and_writes_nothing(tmp_path, capsys, names):
    spec = tmp_path / "clash.json"
    spec.write_text(json.dumps({
        "columns": [{"name": name, "kind": "numeric"} for name in names],
        "weights": [1.0, 0.0],
    }), encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["synth", "--spec", str(spec), "--out", str(out), "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


def test_synth_output_is_loadable(data_path):
    ds = load_csv(data_path, "label")
    assert ds.rows.shape == (160, 3)
    assert set(np.unique(ds.labels)) <= {0, 1}


def test_synth_missing_rate_fraction(tmp_path):
    spec = tmp_path / "gen.json"
    spec.write_text(
        json.dumps({
            "columns": [
                {"name": "lab", "kind": "numeric", "missing": True},
                {"name": "x1", "kind": "numeric"},
            ],
            "weights": [1.0, 0.0],
            "missing_rate": 0.2,
            "seed": 13,
        }),
        encoding="utf-8",
    )
    out = tmp_path / "t.csv"
    assert main(["synth", "--spec", str(spec), "--out", str(out), "--n", "4000"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    empty = sum(1 for line in lines if line.split(",")[0] == "")
    assert abs(empty / 4000 - 0.2) < 0.02


def test_repeated_header_name_exits_3(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("x,label,label\n" + "0.5,1,0\n-0.5,0,1\n" * 10, encoding="utf-8")
    rc = main([
        "train", "--data", str(path), "--target", "label", "--model", "logistic",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "repeated header names ['label']" in err
    assert "Traceback" not in err


def test_empty_csv_file_exits_3(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_bytes(b"")
    rc = main([
        "train", "--data", str(path), "--target", "label", "--model", "logistic",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "file is empty" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# cv


def test_cv_writes_all_artifacts(data_path, tmp_path, capsys):
    cfg = run_config_file(tmp_path)
    out = tmp_path / "cv"
    rc = main([
        "cv", "--config", cfg, "--data", data_path, "--target", "label",
        "--out", str(out), "--seed", "3",
    ])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    expected = {"cv_report.json", "resolved_config.json"}
    for i in range(3):
        expected |= {f"fold_{i}_pr.csv", f"fold_{i}_trainlog.json"}
    assert names == expected

    report = json.loads((out / "cv_report.json").read_text(encoding="utf-8"))
    assert set(report["means"]) == {"accuracy", "precision", "recall", "f1", "auprc"}
    assert len(report["folds"]) == 3
    for fold in report["folds"]:  # the PR curve is in fold_<i>_pr.csv only
        assert set(fold) == {"fold", "threshold", "counts", *report["means"]}
    console = capsys.readouterr().out
    assert "f1" in console and "±" in console


def test_cv_rerun_is_byte_identical(data_path, tmp_path):
    cfg = run_config_file(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main([
            "cv", "--config", cfg, "--data", data_path, "--target", "label",
            "--out", str(out), "--seed", "3",
        ])
        assert rc == 0
        outs.append(out)
    for fname in ("cv_report.json", "fold_1_pr.csv", "fold_2_trainlog.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_cv_resolved_config_round_trips(data_path, tmp_path):
    cfg = run_config_file(tmp_path, threshold=0.6)
    out = tmp_path / "cv"
    # flag overrides the config file value
    rc = main([
        "cv", "--config", cfg, "--data", data_path, "--target", "label",
        "--out", str(out), "--threshold", "0.4",
    ])
    assert rc == 0
    doc = json.loads((out / "resolved_config.json").read_text(encoding="utf-8"))
    resolved = from_dict(RunConfig, doc)
    assert resolved.threshold == 0.4
    assert resolved.model == "logistic"
    assert resolved.k_folds == 3
    assert resolved.data == data_path
    # echo survives another round trip unchanged
    assert from_dict(RunConfig, asdict(resolved)) == resolved


def test_cv_missing_data_setting_exits_2(tmp_path, capsys):
    rc = main(["cv", "--target", "label", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "data" in capsys.readouterr().err


def test_cv_unknown_config_field_exits_2(data_path, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"modle": "logistic"}), encoding="utf-8")
    rc = main([
        "cv", "--config", str(path), "--data", data_path, "--target", "label",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


def test_cv_k_exceeding_class_count_exits_3(data_path, tmp_path):
    cfg = run_config_file(tmp_path, k_folds=150)
    rc = main([
        "cv", "--config", cfg, "--data", data_path, "--target", "label",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3


@pytest.mark.parametrize(
    "argv, positives", [(["train"], 6), (["cv", "--k-folds", "2"], 12)], ids=["train", "cv"]
)
def test_too_few_rows_of_a_class_for_the_validation_holdout_exits_3(tmp_path, capsys, argv, positives):
    """``train``'s table and each of ``cv``'s two training pools hold 6
    positives, too few for the 1-in-8 early-stopping holdout; the
    message names that holdout, not a k-fold deal."""
    path = tmp_path / "table.csv"
    x = np.random.default_rng(0).normal(size=60)
    labels = [1] * positives + [0] * (60 - positives)
    path.write_text("x0,label\n" + "".join(f"{v!r},{y}\n" for v, y in zip(x, labels)))
    rc = main([
        *argv, "--data", str(path), "--target", "label", "--model", "logistic",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "early-stopping validation holdout" in err and "class 1 has 6" in err
    assert "k=8" not in err and "Traceback" not in err


def test_cv_k_below_two_exits_2(data_path, tmp_path):
    rc = main([
        "cv", "--data", data_path, "--target", "label", "--model", "logistic",
        "--k-folds", "1", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


def test_cv_missing_file_exits_3(tmp_path, capsys):
    rc = main([
        "cv", "--data", str(tmp_path / "nope.csv"), "--target", "label",
        "--model", "logistic", "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_cv_bad_target_column_exits_3(data_path, tmp_path):
    cfg = run_config_file(tmp_path)
    rc = main([
        "cv", "--config", cfg, "--data", data_path, "--target", "wrong",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3


# ---------------------------------------------------------------------------
# train


@pytest.fixture(scope="module")
def trained_dir(data_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg = out / "run.json"
    cfg.write_text(
        json.dumps({
            "model": "logistic",
            "train_config": {
                "lr": 0.05, "max_epochs": 60, "batch_size": 64, "patience": 10,
            },
        }),
        encoding="utf-8",
    )
    rc = main([
        "train", "--config", str(cfg), "--data", data_path, "--target", "label",
        "--out", str(out), "--seed", "5",
    ])
    assert rc == 0
    return out


def test_train_artifacts(trained_dir, data_path):
    for name in ("model.json", "model.bin", "trainlog.json", "resolved_config.json"):
        assert (trained_dir / name).exists()
    log = json.loads((trained_dir / "trainlog.json").read_text(encoding="utf-8"))
    assert log["epochs"] >= 1
    assert log["best_epoch"] >= 1

    model = load_checkpoint(str(trained_dir / "model"))
    ds = load_csv(data_path, "label")
    assert model.schema.fingerprint() == ds.schema.fingerprint()
    # stamped stats make the checkpoint self-contained
    assert all(c.mean is not None for c in model.schema.columns if c.kind == "numeric")


def test_train_rerun_is_byte_identical(trained_dir, data_path, tmp_path):
    out = tmp_path / "again"
    rc = main([
        "train", "--config", str(trained_dir / "run.json"), "--data", data_path,
        "--target", "label", "--out", str(out), "--seed", "5",
    ])
    assert rc == 0
    for name in ("model.bin", "model.json", "trainlog.json"):
        assert (out / name).read_bytes() == (trained_dir / name).read_bytes()


def test_train_checkpoint_predicts(trained_dir, data_path):
    from tabformer.data import apply_standardizer, standardizer_from_schema

    model = load_checkpoint(str(trained_dir / "model"))
    ds = load_csv(data_path, "label")
    X = apply_standardizer(ds.rows, standardizer_from_schema(model.schema))
    probs = model.predict_proba(X)
    assert probs.shape == (160,)
    assert np.all((probs > 0) & (probs < 1))
    preds = probs > 0.5
    assert (preds == ds.labels.astype(bool)).mean() > 0.8


# ---------------------------------------------------------------------------
# importance


def test_importance_artifacts_and_top_n(trained_dir, data_path, tmp_path, capsys):
    out = tmp_path / "imp"
    rc = main([
        "importance", "--data", data_path, "--target", "label",
        "--checkpoint", str(trained_dir / "model"), "--out", str(out),
        "--k-folds", "4", "--fold", "1", "--repeats", "3", "--top-n", "2",
        "--seed", "5",
    ])
    assert rc == 0
    assert "baseline F1" in capsys.readouterr().out

    doc = json.loads((out / "importance.json").read_text(encoding="utf-8"))
    assert len(doc["features"]) == 3
    assert doc["repeats"] == 3
    names_by_rank = [f["name"] for f in doc["features"]]
    assert names_by_rank[0] == "x0"  # the only active feature

    csv_lines = (out / "importance.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "feature,mean_drop"
    assert len(csv_lines) == 3  # header + top 2


def test_importance_identity_check_all_zero(trained_dir, data_path, tmp_path):
    out = tmp_path / "imp"
    rc = main([
        "importance", "--data", data_path, "--target", "label",
        "--checkpoint", str(trained_dir / "model"), "--out", str(out),
        "--identity-check",
    ])
    assert rc == 0
    doc = json.loads((out / "importance.json").read_text(encoding="utf-8"))
    assert all(f["mean_drop"] == 0.0 for f in doc["features"])


def test_importance_schema_mismatch_exits_3(trained_dir, tmp_path):
    other = tmp_path / "other.csv"
    other.write_text("a,b,label\n1.0,2.0,0\n3.0,4.0,1\n", encoding="utf-8")
    rc = main([
        "importance", "--data", str(other), "--target", "label",
        "--checkpoint", str(trained_dir / "model"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 3


@pytest.fixture(scope="module")
def city_run(tmp_path_factory):
    """(table lines, checkpoint prefix): a table with a 3-level categorical
    column, and a logistic checkpoint trained on it."""
    out = tmp_path_factory.mktemp("city")
    rng = np.random.default_rng(11)
    cities = ["oslo", "lima", "rome"]
    lines = ["x0,city,label"]
    for i in range(120):
        x, city = rng.normal(), cities[i % 3]
        lines.append(f"{x!r},{city},{int(x + (city == 'rome') + 0.5 * rng.normal() > 0.5)}")
    (out / "t.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["train", "--data", str(out / "t.csv"), "--target", "label", "--model", "logistic",
               "--out", str(out), "--seed", "3"])
    assert rc == 0
    return lines, str(out / "model")


def importance_on(lines, checkpoint, tmp_path):
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return main(["importance", "--data", str(tmp_path / "t.csv"), "--target", "label",
                 "--checkpoint", checkpoint, "--out", str(tmp_path / "o"), "--repeats", "2"])


@pytest.mark.parametrize("change", ["reordered", "unseen-level"])
def test_importance_scores_a_reordered_table_or_an_unseen_level(city_run, tmp_path, capsys, change):
    lines, checkpoint = city_run
    if change == "reordered":  # a "lima" row first, so the table's own vocabulary reorders
        lines = [lines[0], lines[2], lines[1], *lines[3:]]
    else:
        lines = [line.replace(",rome,", ",kyiv,") if i % 2 else line for i, line in enumerate(lines)]
    assert importance_on(lines, checkpoint, tmp_path) == 0, capsys.readouterr().err
    assert (tmp_path / "o" / "importance.csv").exists()


def test_importance_on_the_training_table_scores_it_as_loaded(city_run, tmp_path):
    from tabformer.data import apply_standardizer, stratified_k_fold
    from tabformer.importance import permutation_importance

    lines, checkpoint = city_run
    assert importance_on(lines, checkpoint, tmp_path) == 0
    model, ds = load_checkpoint(checkpoint), load_csv(tmp_path / "t.csv", "label")
    held_out = stratified_k_fold(ds.labels, 5, 0).fold_indices(0)
    report = permutation_importance(
        model, apply_standardizer(ds.rows[held_out], model.schema), ds.labels[held_out], repeats=2, seed=0
    )
    assert (tmp_path / "o" / "importance.json").read_text(encoding="utf-8") == report.to_json()
    assert (tmp_path / "o" / "importance.csv").read_text(encoding="utf-8") == report.to_csv()


def test_importance_fold_out_of_range_exits_2(trained_dir, data_path, tmp_path):
    rc = main([
        "importance", "--data", data_path, "--target", "label",
        "--checkpoint", str(trained_dir / "model"), "--out", str(tmp_path / "o"),
        "--fold", "9",
    ])
    assert rc == 2


def test_importance_fold_is_checked_before_any_file_is_read(data_path, tmp_path, capsys):
    for fold in ("9", "-1"):
        rc = main([
            "importance", "--data", str(tmp_path / "absent.csv"), "--target", "label",
            "--checkpoint", str(tmp_path / "absent"), "--out", str(tmp_path / "o"),
            "--fold", fold,
        ])
        assert rc == 2
        assert "fold must lie in [0, 5)" in capsys.readouterr().err


def test_importance_repeats_below_one_exits_2_before_any_file_is_read(trained_dir, data_path, tmp_path, capsys):
    # the same exit whether or not the files exist, from a flag or a config file
    files = [(str(tmp_path / "absent.csv"), tmp_path / "absent"), (data_path, trained_dir / "model")]
    for data, checkpoint in files:
        for repeats in ("0", "-1"):
            out = tmp_path / "o"
            rc = main([
                "importance", "--data", data, "--target", "label",
                "--checkpoint", str(checkpoint), "--out", str(out), "--repeats", repeats,
            ])
            assert rc == 2
            assert f"repeats must be at least 1, got {repeats}" in capsys.readouterr().err
            assert not out.exists()
        rc = main([
            "importance", "--config", run_config_file(tmp_path, repeats=0), "--data", data,
            "--target", "label", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "repeats must be at least 1, got 0" in capsys.readouterr().err


def test_importance_csv_quotes_names_with_commas_and_quotes(tmp_path):
    names = ["a,b", 'say "hi"', "plain"]
    rng = np.random.default_rng(3)
    table = tmp_path / "odd.csv"
    with open(table, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["label"])
        for _ in range(80):
            x = rng.normal(size=3)
            writer.writerow([f"{v:.6f}" for v in x] + [int(x[0] > 0)])
    common = ["--data", str(table), "--target", "label", "--model", "logistic"]
    assert main(["train", *common, "--out", str(tmp_path / "m")]) == 0
    out = tmp_path / "imp"
    rc = main([
        "importance", *common, "--checkpoint", str(tmp_path / "m" / "model"),
        "--out", str(out), "--repeats", "1",
    ])
    assert rc == 0
    with open(out / "importance.csv", newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    assert records[0] == ["feature", "mean_drop"]
    assert all(len(r) == 2 for r in records)
    doc = json.loads((out / "importance.json").read_text(encoding="utf-8"))
    assert [r[0] for r in records[1:]] == [f["name"] for f in doc["features"]]
    assert sorted(r[0] for r in records[1:]) == sorted(names)
    assert [float(r[1]) for r in records[1:]] == [f["mean_drop"] for f in doc["features"]]


def test_checkpoint_with_a_flipped_byte_exits_3(trained_dir, data_path, tmp_path, capsys):
    (tmp_path / "model.json").write_bytes((trained_dir / "model.json").read_bytes())
    raw = bytearray((trained_dir / "model.bin").read_bytes())
    raw[5] ^= 0x01
    (tmp_path / "model.bin").write_bytes(bytes(raw))
    rc = main([
        "importance", "--data", data_path, "--target", "label",
        "--checkpoint", str(tmp_path / "model"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "SHA-256" in err
    assert "Traceback" not in err


def test_checkpoint_with_a_nan_parameter_exits_3(trained_dir, data_path, tmp_path, capsys):
    raw = bytearray((trained_dir / "model.bin").read_bytes())
    raw[:8] = np.array([np.nan], dtype="<f8").tobytes()
    manifest = json.loads((trained_dir / "model.json").read_text(encoding="utf-8"))
    manifest["bin_sha256"] = hashlib.sha256(raw).hexdigest()
    (tmp_path / "model.json").write_text(json.dumps(manifest), encoding="utf-8")
    (tmp_path / "model.bin").write_bytes(bytes(raw))
    rc = main([
        "importance", "--data", data_path, "--target", "label",
        "--checkpoint", str(tmp_path / "model"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "not finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "reader, code", [("config", 2), ("spec", 2), ("data", 3), ("manifest", 3)]
)
def test_file_that_is_not_utf8_exits_cleanly(
    trained_dir, data_path, spec_path, tmp_path, capsys, reader, code
):
    def spoiled(source, name):
        path = tmp_path / name
        path.write_bytes(Path(source).read_bytes() + b"\xff")
        return str(path)

    (tmp_path / "run.json").write_text('{"model": "logistic"}', encoding="utf-8")
    (tmp_path / "model.bin").write_bytes((trained_dir / "model.bin").read_bytes())
    out = str(tmp_path / "o")
    common = ["--target", "label", "--out", out]
    argv = {
        "config": ["train", "--config", spoiled(tmp_path / "run.json", "run.json"),
                   "--data", data_path, *common],
        "spec": ["synth", "--spec", spoiled(spec_path, "spec.json"), "--n", "5", "--out", out],
        "data": ["train", "--data", spoiled(data_path, "t.csv"), "--model", "logistic", *common],
        "manifest": ["importance", "--data", data_path, *common,
                     "--checkpoint", spoiled(trained_dir / "model.json", "model.json")[:-5]],
    }[reader]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "can't decode byte 0xff" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "cv"])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_table_with_no_feature_columns_exits_3(tmp_path, capsys, command, model):
    path = tmp_path / "labels.csv"
    path.write_text("label\n" + "1\n0\n" * 10, encoding="utf-8")
    rc = main([
        command, "--data", str(path), "--target", "label", "--model", model,
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "no feature columns" in err
    assert "Traceback" not in err


def test_importance_missing_checkpoint_setting_exits_2(data_path, tmp_path):
    rc = main([
        "importance", "--data", data_path, "--target", "label",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


def test_importance_top_n_below_one_exits_2(trained_dir, data_path, tmp_path, capsys):
    for top_n in ("0", "-1"):
        out = tmp_path / f"top{top_n}"
        rc = main([
            "importance", "--data", data_path, "--target", "label",
            "--checkpoint", str(trained_dir / "model"), "--out", str(out),
            "--top-n", top_n,
        ])
        assert rc == 2
        assert "top_n must be at least 1" in capsys.readouterr().err
        assert not out.exists()


def test_threshold_out_of_range_exits_2(trained_dir, data_path, tmp_path, capsys):
    for command in ("cv", "train", "importance"):
        for value in ("7", "1", "0", "-0.5", "nan"):
            out = tmp_path / f"{command}{value}"
            args = [
                command, "--data", data_path, "--target", "label",
                "--out", str(out), "--threshold", value,
            ]
            if command == "importance":
                args += ["--checkpoint", str(trained_dir / "model")]
            assert main(args) == 2, (command, value)
            # NaN is not a finite float, so the type check names it, as it does in a config file
            expected = "threshold must lie in (0, 1)"
            if value == "nan":
                expected = "RunConfig.threshold must be float, got nan"
            assert expected in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize(
    "command, missing",
    [("cv", "data"), ("cv", "target"), ("train", "data"), ("train", "target"),
     ("importance", "data"), ("importance", "target"), ("importance", "checkpoint")],
)
def test_a_missing_required_setting_exits_2_and_is_named(command, missing, tmp_path, capsys):
    given = {"data": str(tmp_path / "absent.csv"), "target": "label", "checkpoint": str(tmp_path / "absent")}
    argv = [command, "--out", str(tmp_path / "o")]
    for name in ("data", "target") + (("checkpoint",) if command == "importance" else ()):
        if name != missing:
            argv += [f"--{name}", given[name]]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: missing required setting {missing!r} (flag or config file)\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def every_run_dir(data_path, trained_dir, tmp_path_factory):
    """Output directories of one cv, one train and one importance run."""
    root = tmp_path_factory.mktemp("every_run")
    cfg = run_config_file(root)
    common = ["--data", data_path, "--target", "label"]
    runs = {
        "cv": ["cv", "--config", cfg, *common],
        "train": ["train", "--config", cfg, *common],
        "importance": ["importance", *common, "--checkpoint", str(trained_dir / "model"), "--repeats", "2"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(root / name)]) == 0
    return root


@pytest.mark.parametrize("command", ["cv", "train", "importance"])
def test_every_json_file_a_command_writes_is_json_text(every_run_dir, command):
    paths = sorted((every_run_dir / command).glob("*.json"))
    assert "resolved_config.json" in {p.name for p in paths} and len(paths) >= 2
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert text == json_text(json.loads(text)), path.name


# ---------------------------------------------------------------------------
# config plumbing


_OUT_OF_RANGE = [
    ({"model": "forest"}, "unknown model kind 'forest'"),
    ({"train_config": {"seed": 1}}, "train_config may not set 'seed'; set the top-level 'seed' or pass --seed"),
    ({"k_folds": 1}, "k_folds must be at least 2, got 1"),
    ({"threshold": 0.0}, "threshold must lie in (0, 1), got 0.0"),
    ({"threshold": 1}, "threshold must lie in (0, 1), got 1"),
    ({"threshold": -0.5}, "threshold must lie in (0, 1), got -0.5"),
    ({"top_n": 0}, "top_n must be at least 1, got 0"),
    ({"fold": 5}, "fold must lie in [0, 5), got 5"),
    ({"fold": -1}, "fold must lie in [0, 5), got -1"),
    ({"fold": 3, "k_folds": 3}, "fold must lie in [0, 3), got 3"),
]


@pytest.mark.parametrize("values, message", _OUT_OF_RANGE)
def test_run_config_rejects_an_out_of_range_value_read_or_replaced(values, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        from_dict(RunConfig, values)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(RunConfig(), **values)


def test_run_config_is_frozen():
    cfg = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.fold = 9
    assert cfg.fold == 0


@pytest.mark.parametrize(
    "in_file, argv, message",
    [
        ({"fold": 6}, ["--k-folds", "8"], "fold must lie in [0, 5), got 6"),
        ({"threshold": 2.0}, ["--threshold", "0.5"], "threshold must lie in (0, 1), got 2.0"),
        ({"k_folds": "5"}, ["--k-folds", "3"], "RunConfig.k_folds must be int, got '5'"),
        ({"fold": "1"}, ["--fold", "1"], "RunConfig.fold must be int, got '1'"),
    ],
)
def test_a_config_file_is_checked_on_its_own_before_the_flags(in_file, argv, message, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(in_file), encoding="utf-8")
    rc = main([
        "importance", "--config", str(path), "--data", str(tmp_path / "absent.csv"), "--target", "label",
        "--checkpoint", str(tmp_path / "absent"), "--out", str(tmp_path / "o"), *argv,
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_run_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields"):
        from_dict(RunConfig, {"learning_rate": 0.1})


def test_unknown_model_kind_exits_2(data_path, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "forest"}), encoding="utf-8")
    rc = main([
        "cv", "--config", str(cfg), "--data", data_path, "--target", "label",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


def _flag_and_values(action):
    """(config-file value, argv giving another value, that value) for one option."""
    flag = action.option_strings[0]
    if action.nargs == 0:
        return False, [flag], action.const
    if action.choices:
        a, b = sorted(action.choices)[:2]
        return a, [flag, b], b
    if action.type is float:
        return 0.25, [flag, "0.75"], 0.75
    if action.type is int:
        return 2, [flag, "3"], 3
    return "from-config", [flag, "from-flag"], "from-flag"


@pytest.mark.parametrize("command", ["cv", "train", "importance"])
def test_every_run_config_flag_overrides_the_config_file(command, tmp_path):
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    names = {f.name for f in fields(RunConfig)}
    options = [a for a in commands.choices[command]._actions if a.dest not in ("help", "config")]
    assert {a.dest for a in options} <= names  # no flag that _resolve would drop
    path = tmp_path / "run.json"
    for action in options:
        in_file, argv, from_flag = _flag_and_values(action)
        path.write_text(json.dumps({action.dest: in_file}), encoding="utf-8")
        given = _resolve(parser.parse_args([command, "--config", str(path), *argv]))
        assert getattr(given, action.dest) == from_flag, action.dest
        absent = _resolve(parser.parse_args([command, "--config", str(path)]))
        assert getattr(absent, action.dest) == in_file, action.dest


def test_identity_check_in_the_config_file_survives_without_the_flag(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"identity_check": True}), encoding="utf-8")
    args = build_parser().parse_args(["importance", "--config", str(path)])
    assert _resolve(args).identity_check is True


def test_model_choices_are_the_registry():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name in ("cv", "train", "importance"):
        (model,) = [a for a in commands.choices[name]._actions if a.dest == "model"]
        assert set(model.choices) == set(MODELS)


def test_unknown_model_config_key_exits_2(data_path, tmp_path, capsys):
    cfg = run_config_file(tmp_path, model="transformer", model_config={"embed_size": 16})
    rc = main([
        "train", "--config", cfg, "--data", data_path, "--target", "label",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "embed_size" in err
    assert "Traceback" not in err


def _importance_with_manifest(trained_dir, data_path, tmp_path, edit):
    manifest = json.loads((trained_dir / "model.json").read_text(encoding="utf-8"))
    edit(manifest)
    (tmp_path / "model.json").write_text(json.dumps(manifest), encoding="utf-8")
    (tmp_path / "model.bin").write_bytes((trained_dir / "model.bin").read_bytes())
    return main([
        "importance", "--data", data_path, "--target", "label",
        "--checkpoint", str(tmp_path / "model"), "--out", str(tmp_path / "o"),
    ])


@pytest.mark.parametrize("key", ["schema", "kind", "seed", "config", "schema_fingerprint"])
def test_manifest_missing_key_exits_3(trained_dir, data_path, tmp_path, capsys, key):
    rc = _importance_with_manifest(trained_dir, data_path, tmp_path, lambda m: m.pop(key))
    assert rc == 3
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


def test_manifest_with_no_feature_columns_exits_3(trained_dir, data_path, tmp_path, capsys):
    rc = _importance_with_manifest(
        trained_dir, data_path, tmp_path, lambda m: m["schema"].update(columns=[])
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "no feature columns" in err
    assert "Traceback" not in err


def test_manifest_unknown_config_key_exits_3(trained_dir, data_path, tmp_path, capsys):
    def edit(manifest):
        manifest["kind"] = "transformer"
        manifest["config"] = {"embed_size": 16}

    rc = _importance_with_manifest(trained_dir, data_path, tmp_path, edit)
    assert rc == 3
    err = capsys.readouterr().err
    assert "embed_size" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("model", ["logistic", "mlp", "transformer"])
def test_numeric_failure_exits_4_with_one_line(data_path, tmp_path, capsys, model):
    # an lr of 1e300 overflows the first update of a model with a hidden layer; logistic
    # regression's one affine layer needs weights near the float64 limit, which 1e308 reaches;
    # the op check names the failure, numpy stays quiet
    tiny = {"embed_dim": 8, "n_heads": 2, "n_blocks": 1, "ffn_dim": 8} if model == "transformer" else {}
    cfg = run_config_file(
        tmp_path, model=model, model_config=tiny,
        train_config={"lr": 1e308 if model == "logistic" else 1e300, "weight_decay": 0, "max_epochs": 3},
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--config", cfg, "--data", data_path, "--target", "label",
                   "--out", str(tmp_path / "o")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1, err
    assert "Warning" not in err
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("command", ["train", "cv"])
def test_nonpositive_eps_adam_exits_2(data_path, tmp_path, capsys, command):
    cfg = run_config_file(tmp_path, train_config={"max_epochs": 1, "eps_adam": 0})
    rc = main([
        command, "--config", cfg, "--data", data_path, "--target", "label",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "eps_adam must be positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "cv"])
def test_decay_factor_at_or_below_zero_exits_2(data_path, tmp_path, capsys, command):
    # lr * weight_decay = 2: AdamW's decay factor 1 - lr * wd would flip every decayed weight
    cfg = run_config_file(tmp_path, train_config={"max_epochs": 1, "lr": 0.5, "weight_decay": 4.0})
    out = tmp_path / "o"
    rc = main([command, "--config", cfg, "--data", data_path, "--target", "label", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "weight_decay must lie in [0, 1 / lr), got 4.0" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"k_folds": "5"},
        {"seed": "1"},
        {"train_config": {"lr": "x"}},
        {"train_config": {"betas": 5}},
        {"train_config": {"max_epochs": 1.5}},
        {"model": "transformer", "model_config": {"embed_dim": "64"}},
        {"model": "transformer", "model_config": {"dropout": "0.1"}},
        {"model": "transformer", "model_config": {"embed_dim": True}},
    ],
)
def test_wrongly_typed_config_value_exits_2(data_path, tmp_path, capsys, overrides):
    cfg = run_config_file(tmp_path, **overrides)
    rc = main([
        "train", "--config", cfg, "--data", data_path, "--target", "label",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err


def test_integer_config_value_is_a_valid_float():
    assert from_dict(TrainConfig, {"weight_decay": 0}).weight_decay == 0


def _set(key, value, kind=None):
    def edit(manifest):
        manifest[key] = value
        if kind is not None:
            manifest["kind"] = kind

    return edit


def _drop_column_kind(manifest):
    del manifest["schema"]["columns"][0]["kind"]


def _unknown_column_kind(manifest):
    manifest["schema"]["columns"][0]["kind"] = "ordinal"


def _set_column(**values):
    def edit(manifest):
        manifest["schema"]["columns"][0].update(values)

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set("schema", {}),
        _drop_column_kind,
        _unknown_column_kind,
        _set("seed", "x"),
        _set("config", []),
        _set("config", [], kind="transformer"),
        _set("kind", ["x"]),
        _set("config", {"embed_dim": "64"}, kind="transformer"),
        _set_column(std=-1.0),
        _set_column(vocabulary=["u", "u"]),
    ],
    ids=[
        "empty-schema", "column-without-kind", "unknown-column-kind", "string-seed",
        "list-config", "list-transformer-config", "list-kind", "string-embed-dim",
        "negative-std", "repeated-vocabulary-entry",
    ],
)
def test_malformed_manifest_value_exits_3(trained_dir, data_path, tmp_path, capsys, edit):
    rc = _importance_with_manifest(trained_dir, data_path, tmp_path, edit)
    assert rc == 3
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzz: any CSV ends in a clean exit code, and a table `train` accepts
# loads the way a per-cell reference reads it

numbers = st.floats(-1e6, 1e6).map(repr) | st.integers(-99, 99).map(str)
words = st.sampled_from(["a", "b", "a,b", 'say "hi"', "é", "x\ny"])
odd = st.sampled_from(["", "nan", "inf", "-inf", "1e400", "1e308", "1_0", "0x1", " 2", "-0"]) | st.text(
    alphabet='01.e-+ ,"ab\t\r\n', max_size=4
)


def rarely(usual, unusual):
    """``usual`` nine times in ten, otherwise ``unusual``."""
    return st.integers(0, 9).flatmap(lambda i: usual if i else unusual)


def padded(cell):
    return st.tuples(st.sampled_from(["", " ", "\t"]), cell, st.sampled_from(["", " "])).map("".join)


@st.composite
def csv_texts(draw):
    n = draw(st.integers(16, 24))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        typical = draw(st.sampled_from([numbers, words]))
        columns.append(draw(st.lists(rarely(typical, odd | padded(typical)), min_size=n, max_size=n)))
    labels = draw(st.permutations(["0", "1"] * (n // 2) + ["1"] * (n % 2)))
    if draw(st.integers(0, 4)) == 0:
        labels[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from(["2", "", "x", "0.5", "nan", " 1 ", "1.0", "-0"])
        )
    target = draw(st.integers(0, len(columns)))
    header = [f"f{j}" for j in range(len(columns))]
    header.insert(target, "label")
    columns.insert(target, labels)
    rows = [list(row) for row in zip(*columns)]
    if draw(st.integers(0, 9)) == 0:  # one ragged row
        row = rows[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append("1")
    if draw(st.integers(0, 9)) == 0:  # unquoted, so commas and quotes split cells
        return "".join(",".join(row) + "\n" for row in [header, *rows])
    out = io.StringIO()
    csv.writer(out).writerows([header, *rows])
    return out.getvalue()


def is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_cells(path):
    """What a table loads as, one cell at a time: each feature column's
    (name, kind, vocabulary, values), and the labels."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    target = header.index("label")
    columns = []
    for j, name in enumerate(header):
        tokens = [row[j].strip() for row in rows]
        if j == target:
            continue
        if all(tok == "" or is_number(tok) for tok in tokens):
            columns.append((name, NUMERIC, (), [float(tok) if tok else 0.0 for tok in tokens]))
        else:
            vocab = tuple(dict.fromkeys(tokens))
            columns.append((name, CATEGORICAL, vocab, [float(vocab.index(tok)) for tok in tokens]))
    return columns, [int(float(row[target])) for row in rows]


@settings(
    database=None,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(text=csv_texts())
def test_fuzzed_csv_exits_cleanly(text, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        data, cfg, out = Path(tmp, "t.csv"), Path(tmp, "run.json"), Path(tmp, "o")
        data.write_text(text, encoding="utf-8", newline="")
        cfg.write_text('{"model": "logistic", "train_config": {"max_epochs": 1}}', encoding="utf-8")
        capsys.readouterr()
        rc = main([
            "train", "--config", str(cfg), "--data", str(data), "--target", "label", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert rc in (0, 2, 3, 4), err
        assert "Traceback" not in err
        if rc == 0:
            columns, labels = read_cells(data)
            ds = load_csv(data, "label")
            got = [(c.name, c.kind, c.vocabulary, ds.rows[:, j].tolist()) for j, c in enumerate(ds.schema.columns)]
            assert got == columns
            assert ds.labels.tolist() == labels
            manifest = json.loads((out / "model.json").read_text(encoding="utf-8"))
            schema = [(c["name"], c["kind"], tuple(c["vocabulary"])) for c in manifest["schema"]["columns"]]
            assert schema == [c[:3] for c in columns]
