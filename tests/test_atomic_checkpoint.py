"""Checkpoints and reports are written atomically: each file goes in full
to a temp file beside it and is renamed over its target, so a write that
fails part-way leaves the old files, or none, and no temp file."""

import builtins
import json

import numpy as np
import pytest

from tabformer.cli import main
from tabformer.data import NUMERIC, ColumnSchema, FeatureSchema
from tabformer.model import LogisticModel, Model, ModelConfig, load_checkpoint, save_checkpoint

TINY = ModelConfig(embed_dim=8, n_heads=2, n_blocks=1, ffn_dim=16, dropout=0.0)


def numeric_schema(n):
    return FeatureSchema(tuple(ColumnSchema(f"x{j}", NUMERIC) for j in range(n)))


def fail_write_half_way(monkeypatch, name):
    """Make every write to a file whose path holds ``name`` stop half-way
    with a full disk."""
    real_open = builtins.open

    def failing_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if name not in str(path):
            return fh
        real_write = fh.write

        def write(data):
            real_write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

        fh.write = write
        return fh

    monkeypatch.setattr(builtins, "open", failing_open)


def snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestAtomicCheckpoints:
    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        old = Model(TINY, numeric_schema(3), seed=28)
        save_checkpoint(old, tmp_path / "ckpt")
        before = snapshot(tmp_path)
        fail_write_half_way(monkeypatch, ".bin")
        with pytest.raises(OSError):
            save_checkpoint(Model(TINY, numeric_schema(3), seed=29), tmp_path / "ckpt")
        assert snapshot(tmp_path) == before
        X = np.random.default_rng(12).normal(size=(3, 3))
        reloaded = load_checkpoint(tmp_path / "ckpt")
        assert np.array_equal(reloaded.predict_proba(X), old.predict_proba(X))

    def test_failed_first_write_leaves_no_file(self, tmp_path, monkeypatch):
        fail_write_half_way(monkeypatch, ".bin")
        with pytest.raises(OSError):
            save_checkpoint(LogisticModel(numeric_schema(3), seed=30), tmp_path / "lr")
        assert list(tmp_path.iterdir()) == []

    def test_bytes_match_a_direct_write(self, tmp_path):
        model = Model(TINY, numeric_schema(4), seed=31)
        save_checkpoint(model, tmp_path / "tf")
        text = (tmp_path / "tf.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        flat = np.concatenate([p.data.ravel() for p in model.parameters()])
        assert (tmp_path / "tf.bin").read_bytes() == flat.astype("<f8").tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tf.bin", "tf.json"]


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    rng = np.random.default_rng(5)
    x = rng.normal(size=(90, 2))
    labels = (x[:, 0] + 0.3 * rng.normal(size=90) > 0).astype(int)
    lines = ["x0,x1,label"] + [f"{a!r},{b!r},{y}" for (a, b), y in zip(x.tolist(), labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def run(command, table, out, *extra):
    common = ["--data", table, "--target", "label", "--model", "logistic", "--k-folds", "3", "--out", str(out)]
    return main([command, *common, *extra])


@pytest.mark.parametrize("command, name", [("importance", "importance.csv"), ("cv", "fold_1_pr.csv")])
class TestAtomicReports:
    """A report whose write fails part-way exits 3 and leaves the run's
    earlier reports (or none) in place, whole."""

    @pytest.fixture(scope="class")
    def checkpoint(self, table, tmp_path_factory):
        out = tmp_path_factory.mktemp("train")
        assert run("train", table, out) == 0
        return str(out / "model")

    @staticmethod
    def options(command, checkpoint):
        return ["--checkpoint", checkpoint, "--repeats", "2"] if command == "importance" else []

    def test_failed_report_write_keeps_the_old_reports(self, table, checkpoint, tmp_path, monkeypatch,
                                                       command, name):
        extra = self.options(command, checkpoint)
        assert run(command, table, tmp_path, *extra, "--seed", "1") == 0
        before = snapshot(tmp_path)
        assert name in before
        fail_write_half_way(monkeypatch, name)
        assert run(command, table, tmp_path, *extra, "--seed", "2") == 3
        assert snapshot(tmp_path) == before

    def test_failed_first_report_write_leaves_no_file(self, table, checkpoint, tmp_path, monkeypatch,
                                                      command, name):
        fail_write_half_way(monkeypatch, name)
        assert run(command, table, tmp_path / "o", *self.options(command, checkpoint)) == 3
        assert list((tmp_path / "o").iterdir()) == []
