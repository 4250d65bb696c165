"""Checkpoints are written atomically: each file goes in full to a temp
file beside it and is renamed over its target, so a write that fails
part-way leaves the old checkpoint, or none, and no temp file."""

import json

import numpy as np
import pytest

from tabformer import model as model_module
from tabformer.data import NUMERIC, ColumnSchema, FeatureSchema
from tabformer.model import LogisticModel, Model, ModelConfig, load_checkpoint, save_checkpoint

TINY = ModelConfig(embed_dim=8, n_heads=2, n_blocks=1, ffn_dim=16, dropout=0.0)


def numeric_schema(n):
    return FeatureSchema(tuple(ColumnSchema(f"x{j}", NUMERIC) for j in range(n)))


class TestAtomicCheckpoints:
    @staticmethod
    def fail_bin_write_half_way(monkeypatch):
        """Make ``save_checkpoint``'s write of the .bin temp file stop
        half-way with a full disk."""

        def failing_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            if ".bin" not in str(path):
                return fh
            real_write = fh.write

            def write(data):
                real_write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

            fh.write = write
            return fh

        monkeypatch.setattr(model_module, "open", failing_open, raising=False)

    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        old = Model(TINY, numeric_schema(3), seed=28)
        save_checkpoint(old, tmp_path / "ckpt")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        self.fail_bin_write_half_way(monkeypatch)
        with pytest.raises(OSError):
            save_checkpoint(Model(TINY, numeric_schema(3), seed=29), tmp_path / "ckpt")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        X = np.random.default_rng(12).normal(size=(3, 3))
        reloaded = load_checkpoint(tmp_path / "ckpt")
        assert np.array_equal(reloaded.predict_proba(X), old.predict_proba(X))

    def test_failed_first_write_leaves_no_file(self, tmp_path, monkeypatch):
        self.fail_bin_write_half_way(monkeypatch)
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
