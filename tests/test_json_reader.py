"""The one JSON reader (``errors.from_dict``) behind run configs, train
and model configs, generator specs and checkpoint schemas: unknown keys,
missing fields and wrongly typed values are config errors (exit 2, or
exit 3 inside a checkpoint manifest), and no value is ever cast. Spec
and run-config documents and damaged checkpoints are fuzzed through the
command line."""

import contextlib
import io
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tabformer.cli import main
from tabformer.data import (
    CATEGORICAL,
    NUMERIC,
    ColumnSchema,
    FeatureSchema,
    GeneratorColumn,
    GeneratorSpec,
)
from tabformer.errors import ConfigError, check_field_types, from_dict
from tabformer.seeding import stream_rng
from tabformer.training import TrainConfig

SPEC = {
    "columns": [
        {"name": "x0", "kind": "numeric"},
        {"name": "g", "kind": "categorical", "categories": 3},
        {"name": "x1", "kind": "numeric", "missing": True},
    ],
    "weights": [4.0, 0.5, 0.0],
    "missing_rate": 0.2,
    "interactions": [{"pair": [0, 2], "weight": 1.5}],
    "seed": 3,
}


@dataclass(frozen=True)
class Leaf:
    a: int
    b: float = 0.5

    def __post_init__(self):
        check_field_types(self)


@dataclass(frozen=True)
class Tree:
    leaves: Tuple[Leaf, ...]
    pair: Tuple[int, int] = (0, 0)

    def __post_init__(self):
        check_field_types(self)


def run(argv):
    """(exit code, stderr) of one ``tabformer`` invocation."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def synth(tmp, doc, *extra):
    spec = Path(tmp) / "spec.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    out = str(Path(tmp) / "t.csv")
    return run(["synth", "--spec", str(spec), "--out", out, "--n", "12", *extra])


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    spec = tmp / "spec.json"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp / "t.csv"), "--n", "120"]) == 0
    return str(tmp / "t.csv")


def train(data_path, out, doc):
    cfg = Path(out) / "run.json"
    Path(out).mkdir(parents=True, exist_ok=True)
    base = {
        "model": "logistic",
        "train_config": {"max_epochs": 2, "batch_size": 64, "patience": 2},
    }
    cfg.write_text(json.dumps({**base, **doc}), encoding="utf-8")
    return run([
        "train", "--config", str(cfg), "--data", data_path, "--target", "label",
        "--out", str(out),
    ])


# ---------------------------------------------------------------------------
# the reader itself


class TestFromDict:
    def test_reads_nested_dataclasses_and_tuples(self):
        tree = from_dict(Tree, {"leaves": [{"a": 1}, {"a": 2, "b": 3}], "pair": [4, 5]})
        assert tree == Tree((Leaf(1), Leaf(2, 3)), (4, 5))

    @pytest.mark.parametrize("doc", [[], "x", None, 3])
    def test_non_object_is_rejected(self, doc):
        with pytest.raises(ConfigError, match="JSON object"):
            from_dict(Tree, doc)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config fields.*'c'"):
            from_dict(Tree, {"leaves": [{"a": 1, "c": 2}]})

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="leaves"):
            from_dict(Tree, {"pair": [1, 2]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"leaves": [{"a": "1"}]},
            {"leaves": [{"a": 1.0}]},
            {"leaves": [{"a": True}]},
            {"leaves": [{"a": 1, "b": "0.5"}]},
            {"leaves": [{"a": 1}], "pair": [1]},
            {"leaves": [{"a": 1}], "pair": [1, 2.0]},
            {"leaves": {"a": 1}},
            {"leaves": [5]},
        ],
    )
    def test_values_are_checked_not_cast(self, doc):
        with pytest.raises(ConfigError):
            from_dict(Tree, doc)

    def test_integers_are_valid_floats(self):
        assert from_dict(Leaf, {"a": 1, "b": 2}).b == 2

    def test_to_dict_json_is_unchanged(self):
        spec = GeneratorSpec(
            columns=(GeneratorColumn("a"), GeneratorColumn("c", CATEGORICAL, 4, True)),
            weights=(2.0, -1.0),
            interactions=(((0, 1), 3.0),),
        )
        assert json.dumps(spec.to_dict()) == (
            '{"columns": [{"name": "a", "kind": "numeric", "categories": 2, "missing": false}, '
            '{"name": "c", "kind": "categorical", "categories": 4, "missing": true}], '
            '"weights": [2.0, -1.0], "bias": 0.0, "noise_rate": 0.0, "missing_rate": 0.0, '
            '"interactions": [{"pair": [0, 1], "weight": 3.0}], "seed": 0, "target": "label"}'
        )
        schema = FeatureSchema(
            (ColumnSchema("a", NUMERIC, mean=0.5, std=2.0), ColumnSchema("c", CATEGORICAL, ("u",)))
        )
        assert json.dumps(schema.to_dict()) == (
            '{"columns": [{"name": "a", "kind": "numeric", "vocabulary": [], '
            '"mean": 0.5, "std": 2.0}, {"name": "c", "kind": "categorical", '
            '"vocabulary": ["u"], "mean": null, "std": null}]}'
        )
        assert json.dumps(TrainConfig().to_dict()) == (
            '{"lr": 0.0003, "betas": [0.9, 0.999], "weight_decay": 0.001, "batch_size": 256, '
            '"max_epochs": 200, "patience": 10, "seed": 0, "eps_adam": 1e-08}'
        )

    @pytest.mark.parametrize("seed, key", [(-1, ()), (0, (-2,))])
    def test_negative_seed_or_key(self, seed, key):
        with pytest.raises(ConfigError, match="non-negative"):
            stream_rng(seed, "synth", *key)


# ---------------------------------------------------------------------------
# through the command line


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["columns"][2].update(missing="false"),
        lambda d: d["columns"][1].update(categories=2.9),
        lambda d: d.update(weights=["1", 0.5, 0.0]),
        lambda d: d["interactions"][0].update(pair=[0.0, 1]),
        lambda d: d.update(weight_scale=2.0),
        lambda d: d["columns"][0].update(width=3),
        lambda d: d["interactions"][0].pop("weight"),
        lambda d: d.update(seed=-3),
    ],
    ids=[
        "string-missing", "float-categories", "string-weight", "float-pair",
        "unknown-key", "unknown-column-key", "interaction-without-weight", "negative-seed",
    ],
)
def test_malformed_spec_exits_2(tmp_path, edit):
    doc = json.loads(json.dumps(SPEC))
    edit(doc)
    rc, err = synth(tmp_path, doc)
    assert rc == 2
    assert "config error" in err
    assert "Traceback" not in err


def test_synth_negative_seed_flag_exits_2(tmp_path):
    rc, err = synth(tmp_path, SPEC, "--seed", "-3")
    assert rc == 2
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "doc",
    [
        {"train_config": {"max_epochs": 2, "learning_rate": 0.1}},
        {"seed": -1},
        {"model": "mlp", "model_config": {"hidden": "x"}},
        {"model": "mlp", "model_config": {"hidden": 5}},
        {"model": "mlp", "model_config": {"hidden": [2.7]}},
        {"model": "mlp", "model_config": {"hidden": [True]}},
    ],
    ids=[
        "unknown-train-key", "negative-seed",
        "string-hidden", "int-hidden", "float-hidden", "bool-hidden",
    ],
)
def test_bad_run_config_exits_2(data_path, tmp_path, doc):
    rc, err = train(data_path, tmp_path, doc)
    assert rc == 2
    assert "Traceback" not in err


def test_baselines_ignore_transformer_keys(data_path, tmp_path):
    doc = {"model": "mlp", "model_config": {"hidden": [4], "embed_dim": 16}}
    rc, err = train(data_path, tmp_path, doc)
    assert rc == 0, err
    manifest = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
    assert manifest["config"] == {"hidden": [4]}


@pytest.fixture(scope="module")
def mlp_dir(data_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("mlp")
    rc, err = train(data_path, out, {"model": "mlp", "model_config": {"hidden": [3]}})
    assert rc == 0, err
    return out


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.update(seed=-1),
        lambda m: m.update(config={"hidden": "x"}),
        lambda m: m.update(config={"hidden": [3.0]}),
        lambda m: m["schema"]["columns"][0].update(mean="0.5"),
        lambda m: m["schema"]["columns"][0].update(vocabulary=[1]),
        lambda m: m["schema"].update(extra=1),
    ],
    ids=[
        "negative-seed", "string-hidden", "float-hidden",
        "string-mean", "int-vocabulary", "unknown-schema-key",
    ],
)
def test_malformed_manifest_exits_3(data_path, mlp_dir, tmp_path, edit):
    manifest = json.loads((mlp_dir / "model.json").read_text(encoding="utf-8"))
    edit(manifest)
    (tmp_path / "model.json").write_text(json.dumps(manifest), encoding="utf-8")
    (tmp_path / "model.bin").write_bytes((mlp_dir / "model.bin").read_bytes())
    rc, err = run([
        "importance", "--data", data_path, "--target", "label",
        "--checkpoint", str(tmp_path / "model"), "--out", str(tmp_path / "o"), "--repeats", "1",
    ])
    assert rc == 3
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# fuzz: any spec document ends in a clean exit code

def json_values(max_int):
    leaf = (
        st.none()
        | st.booleans()
        | st.integers(-3, max_int)
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.text(max_size=3)
    )
    return st.recursive(
        leaf,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    )


json_value = json_values(2**40)


def mostly(valid, other=json_value):
    """``valid`` nine times in ten, otherwise ``other``: any JSON value."""
    return st.integers(0, 9).flatmap(lambda i: valid if i else other)


number = mostly(st.floats(-8, 8) | st.integers(-3, 3))
column = mostly(
    st.fixed_dictionaries(
        {"name": mostly(st.text(max_size=3))},
        optional={
            "kind": mostly(st.sampled_from([NUMERIC, CATEGORICAL])),
            "categories": mostly(st.integers(-1, 6)),
            "missing": mostly(st.booleans()),
        },
    )
)
interaction = mostly(
    st.fixed_dictionaries(
        {
            "pair": mostly(st.lists(mostly(st.integers(-1, 3)), min_size=2, max_size=2)),
            "weight": number,
        }
    )
)


def spec_with(n_columns):
    return st.fixed_dictionaries(
        {
            "columns": st.lists(column, min_size=n_columns, max_size=n_columns),
            "weights": mostly(st.lists(number, min_size=n_columns, max_size=n_columns)),
            "seed": mostly(st.integers(-3, 3) | st.integers(0, 2**64)),
        },
        optional={
            "bias": number,
            "noise_rate": mostly(st.floats(0, 1)),
            "missing_rate": mostly(st.floats(0, 1)),
            "interactions": mostly(st.lists(interaction, max_size=2)),
            "target": mostly(st.text(max_size=3)),
        },
    )


spec_doc = mostly(st.integers(0, 3).flatmap(spec_with))


@settings(
    database=None, max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(doc=spec_doc)
def test_fuzzed_spec_exits_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        rc, err = synth(tmp, doc)
    assert rc in (0, 2, 3, 4), err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# fuzz: any run config, and any one-byte damage to a checkpoint, ends in a
# clean exit code

# A run config sizes the work, so its integers stay small: no document
# asks for unbounded epochs or a huge hidden layer.
small_json_value = json_values(4)


def sized(valid):
    return mostly(valid, small_json_value)


run_doc = sized(
    st.fixed_dictionaries(
        {
            "model": sized(st.sampled_from(["logistic", "mlp"])),
            "train_config": sized(
                st.fixed_dictionaries(
                    {"max_epochs": sized(st.integers(-1, 3))},
                    optional={
                        "lr": number,
                        "weight_decay": number,
                        "eps_adam": number,
                        "betas": sized(st.lists(sized(st.floats(-0.5, 1.5)), min_size=2, max_size=2)),
                        "batch_size": sized(st.integers(-1, 64)),
                        "patience": sized(st.integers(-1, 3)),
                        "seed": sized(st.integers(-3, 3) | st.integers(0, 2**64)),
                    },
                )
            ),
        },
        optional={
            "model_config": sized(
                st.fixed_dictionaries({}, optional={"hidden": sized(st.lists(sized(st.integers(-1, 4)), max_size=2))})
            ),
            "seed": sized(st.integers(-3, 3) | st.integers(0, 2**64)),
            "k_folds": sized(st.integers(-1, 6)),
            "threshold": sized(st.floats(-0.5, 1.5)),
            "schema_hints": sized(
                st.dictionaries(
                    st.sampled_from(["x0", "g", "x1", "y"]),
                    sized(st.sampled_from([NUMERIC, CATEGORICAL])),
                    max_size=2,
                )
            ),
            "add_missing_indicators": sized(st.booleans()),
            "fold": sized(st.integers(-1, 5)),
            "top_n": sized(st.integers(-1, 3)),
            "repeats": sized(st.integers(-1, 3)),
            "identity_check": sized(st.booleans()),
        },
    )
)


@settings(
    database=None, max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(doc=run_doc)
def test_fuzzed_run_config_exits_cleanly(data_path, doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        rc, err = run([
            "train", "--config", str(cfg), "--data", data_path, "--target", "label",
            "--out", str(Path(tmp) / "o"),
        ])
    assert rc in (0, 2, 3, 4), err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def logistic_dir(data_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("logistic")
    rc, err = train(data_path, out, {})
    assert rc == 0, err
    return out


@settings(
    database=None, max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    damaged=st.sampled_from(["model.json", "model.bin"]),
    edit=st.sampled_from(["flip", "truncate", "extend"]),
    at=st.integers(0, 2**20),
    byte=st.integers(1, 255),
)
def test_fuzzed_checkpoint_exits_cleanly(data_path, logistic_dir, damaged, edit, at, byte):
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("model.json", "model.bin"):
            raw = bytearray((logistic_dir / name).read_bytes())
            if name == damaged:
                i = at % len(raw)
                if edit == "flip":
                    raw[i] ^= byte
                elif edit == "truncate":
                    del raw[i:]
                else:
                    raw.insert(i, byte)
            (Path(tmp) / name).write_bytes(raw)
        rc, err = run([
            "importance", "--data", data_path, "--target", "label", "--repeats", "1",
            "--checkpoint", str(Path(tmp) / "model"), "--out", str(Path(tmp) / "o"),
        ])
    assert rc in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if damaged == "model.bin":
        assert rc == 3, err  # the manifest's SHA-256 covers every byte


# ---------------------------------------------------------------------------
# non-finite floats and a missing spec file


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_floats_are_rejected(value):
    with pytest.raises(ConfigError, match="lr"):
        TrainConfig.from_dict({"lr": value})
    with pytest.raises(ConfigError, match="betas"):
        TrainConfig.from_dict({"betas": [0.9, value]})


def test_nan_learning_rate_exits_2(data_path, tmp_path):
    # json.dumps writes the float as the bare token NaN, which json reads back
    rc, err = train(data_path, tmp_path, {"model": "transformer", "train_config": {"lr": float("nan")}})
    assert rc == 2
    assert "TrainConfig.lr" in err
    assert "Traceback" not in err


def test_infinite_spec_bias_exits_2(tmp_path):
    rc, err = synth(tmp_path, {**SPEC, "bias": float("inf")})
    assert rc == 2
    assert "GeneratorSpec.bias" in err
    assert "Traceback" not in err


def test_missing_spec_file_exits_2(tmp_path):
    rc, err = run([
        "synth", "--spec", str(tmp_path / "nothere.json"), "--out", str(tmp_path / "t.csv"), "--n", "12",
    ])
    assert rc == 2
    assert "spec file not found" in err
    assert "Traceback" not in err
