"""End-to-end command-line tests: every subcommand exercised against
real files in a temp directory, exit codes checked on each failure path,
and rerun determinism verified byte for byte."""

import argparse
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tabformer.cli import RunConfig, build_parser, main
from tabformer.data import CATEGORICAL, NUMERIC, load_csv
from tabformer.errors import ConfigError
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
    resolved = RunConfig.from_dict(doc)
    assert resolved.threshold == 0.4
    assert resolved.model == "logistic"
    assert resolved.k_folds == 3
    assert resolved.data == data_path
    # echo survives another round trip unchanged
    assert RunConfig.from_dict(resolved.to_dict()) == resolved


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
            assert "threshold must lie in (0, 1)" in capsys.readouterr().err
            assert not out.exists()


# ---------------------------------------------------------------------------
# config plumbing


def test_run_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields"):
        RunConfig.from_dict({"learning_rate": 0.1})


def test_unknown_model_kind_exits_2(data_path, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "forest"}), encoding="utf-8")
    rc = main([
        "cv", "--config", str(cfg), "--data", data_path, "--target", "label",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


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


def test_manifest_unknown_config_key_exits_3(trained_dir, data_path, tmp_path, capsys):
    def edit(manifest):
        manifest["kind"] = "transformer"
        manifest["config"] = {"embed_size": 16}

    rc = _importance_with_manifest(trained_dir, data_path, tmp_path, edit)
    assert rc == 3
    err = capsys.readouterr().err
    assert "embed_size" in err
    assert "Traceback" not in err


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
    assert TrainConfig.from_dict({"weight_decay": 0}).weight_decay == 0


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
    ],
    ids=[
        "empty-schema", "column-without-kind", "unknown-column-kind", "string-seed",
        "list-config", "list-transformer-config", "list-kind", "string-embed-dim",
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
