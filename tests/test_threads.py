"""The fused sublayers' threads: results are bitwise equal for any number
of workers and any OpenBLAS thread count, and the helper pool survives a
fork."""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from tabformer import autodiff as ad
from tabformer.autodiff import Tape, Tensor
from tabformer.cli import main
from tabformer.data import NUMERIC, ColumnSchema, FeatureSchema
from tabformer.model import Model, ModelConfig, TransformerBlock
from test_fused_sublayers import fused_attention, fused_ffn

ROOT = Path(__file__).resolve().parents[1]
CPUS = len(os.sched_getaffinity(0))
needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="needs two CPUs")
CFG = ModelConfig(dropout=0.1)
FUSED = {"attention": fused_attention, "ffn": fused_ffn}


def forward_and_gradients(kind, rate):
    """Eval output, train output, input gradient and parameter gradients
    over 600 samples of 10 tokens: several tiles for every loop."""
    blk = TransformerBlock(CFG, np.random.default_rng(0), index=0)
    x0 = np.random.default_rng(1).normal(size=(600, 10, CFG.embed_dim))
    w = Tensor(np.random.default_rng(2).normal(size=x0.shape))
    rng = np.random.default_rng(3) if rate > 0.0 else None
    x = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        out = FUSED[kind](blk, x, rate, rng)
        tape.backward(ad.sum_all(ad.mul(out, w)))
    evaluated = FUSED[kind](blk, Tensor(x0), 0.0, None).data
    return [evaluated, out.data, x.grad] + [p.grad for p in blk.parameters()]


@needs_two_cpus
@pytest.mark.parametrize("kind", ["attention", "ffn"])
@pytest.mark.parametrize("rate", [0.0, 0.1], ids=["eval", "train"])
def test_fused_ops_are_bitwise_equal_for_one_and_two_workers(kind, rate, monkeypatch):
    monkeypatch.setattr(ad, "_WORKERS", 1)
    serial = forward_and_gradients(kind, rate)

    threads = set()
    ln_rows = ad._ln_rows

    def recording(*args):
        threads.add(threading.get_ident())
        ln_rows(*args)

    monkeypatch.setattr(ad, "_WORKERS", 2)
    monkeypatch.setattr(ad, "_ln_rows", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads' claims as finely as possible
    try:
        for _ in range(3):
            parallel = forward_and_gradients(kind, rate)
            for a, b in zip(serial, parallel):
                assert np.array_equal(a, b)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) > 1  # a helper thread ran some tiles


# (training, samples): 600, and odd, even and one past a tile budget
LAST_ONLY = [(training, n) for n in (600, 255, 256, 257, 513) for training in (False, True)]


@needs_two_cpus
@pytest.mark.parametrize(
    "training, n", LAST_ONLY,
    ids=[("train" if training else "eval") + ("" if n == 600 else f"-{n}") for training, n in LAST_ONLY],
)
def test_last_only_block_is_bitwise_equal_for_one_and_two_workers(training, n, monkeypatch):
    blk = TransformerBlock(CFG, np.random.default_rng(0), index=0)
    x0 = np.random.default_rng(1).normal(size=(n, 10, CFG.embed_dim))

    def outputs():
        x = Tensor(x0, requires_grad=True)
        for p in blk.parameters():
            p.zero_grad()
        with Tape() as tape:
            out = blk.forward(x, training, np.random.default_rng(3), last_only=True)
            tape.backward(ad.sum_all(out))
        return [out.data, x.grad] + [p.grad.copy() for p in blk.parameters()]

    monkeypatch.setattr(ad, "_WORKERS", 1)
    serial = outputs()
    monkeypatch.setattr(ad, "_WORKERS", 2)
    for a, b in zip(serial, outputs()):
        assert np.array_equal(a, b)


class TileError(Exception):
    pass


@needs_two_cpus
@pytest.mark.parametrize("kind", ["attention", "ffn"])
@pytest.mark.parametrize("raiser", ["helper", "caller"])
def test_a_tile_that_raises_fails_the_op_and_the_next_call_is_exact(kind, raiser, monkeypatch):
    monkeypatch.setattr(ad, "_WORKERS", 1)
    serial = forward_and_gradients(kind, 0.1)
    monkeypatch.setattr(ad, "_WORKERS", 2)
    caller, ln_rows = threading.get_ident(), ad._ln_rows

    def failing(*args):
        if (threading.get_ident() == caller) == (raiser == "caller"):
            raise TileError(raiser)
        time.sleep(0.01)  # the other thread is sure to claim a tile meanwhile
        ln_rows(*args)

    blk = TransformerBlock(CFG, np.random.default_rng(0), index=0)
    x0 = np.random.default_rng(1).normal(size=(600, 10, CFG.embed_dim))
    monkeypatch.setattr(ad, "_ln_rows", failing)
    with pytest.raises(TileError, match=raiser):
        FUSED[kind](blk, Tensor(x0), 0.0, None)
    with pytest.raises(TileError, match=raiser), Tape():
        FUSED[kind](blk, Tensor(x0, requires_grad=True), 0.1, np.random.default_rng(3))
    monkeypatch.setattr(ad, "_ln_rows", ln_rows)
    for a, b in zip(serial, forward_and_gradients(kind, 0.1)):
        assert np.array_equal(a, b)


def tiny_model():
    schema = FeatureSchema(tuple(ColumnSchema(f"x{j}", NUMERIC) for j in range(6)))
    X = np.random.default_rng(4).normal(size=(700, 6))
    return Model(ModelConfig(), schema, seed=0), X


def _predict_in_child(conn):
    model, X = tiny_model()
    conn.send(model.predict_proba(X).tobytes())
    conn.close()


@needs_two_cpus
def test_forked_child_predicts_after_the_parent_started_its_pool(monkeypatch):
    monkeypatch.setattr(ad, "_WORKERS", 2)
    model, X = tiny_model()
    want = model.predict_proba(X).tobytes()
    assert ad._POOL is not None
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_predict_in_child, args=(send,))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child did not answer within 60 s"
        assert receive.recv() == want
        child.join(30)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()


def child_env(**extra):
    """This process's environment with this checkout's ``src`` on PYTHONPATH."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src, **extra)


def train_in_subprocess(data, out, blas_threads):
    env = child_env(OPENBLAS_NUM_THREADS=str(blas_threads))
    config = out.parent / f"run-{blas_threads}.json"
    config.write_text(json.dumps({"train_config": {"max_epochs": 1}}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "tabformer.cli", "train", "--config", str(config),
         "--data", str(data), "--target", "label", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return [(out / name).read_bytes() for name in ("model.bin", "trainlog.json")]


def test_train_artifacts_do_not_depend_on_openblas_threads(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "columns": [{"name": f"x{j}", "kind": "numeric"} for j in range(9)],
        "weights": [1.5, -1.0, 0.5, 0.0, 0.8, 0.0, 0.3, 0.2, -0.4],
        "bias": -0.3,
        "seed": 5,
    }), encoding="utf-8")
    data = tmp_path / "table.csv"
    assert main(["synth", "--spec", str(spec), "--out", str(data), "--n", "1000"]) == 0
    one = train_in_subprocess(data, tmp_path / "one", 1)
    two = train_in_subprocess(data, tmp_path / "two", 2)
    assert one == two


def test_the_cli_imports_no_scipy_and_pins_every_openblas():
    # numpy's bundled OpenBLAS exports only scipy_openblas_set_num_threads64_,
    # so _pin_blas must keep looking for that name
    code = (
        "import json, os, sys; import tabformer.cli; from tabformer import autodiff as ad; "
        "maps = open('/proc/self/maps').read().lower(); "
        "print(json.dumps({'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "'openblas': 'openblas' in maps, 'pinned': ad._pin_blas(), 'workers': ad._WORKERS, "
        "'cpus': len(os.sched_getaffinity(0))}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["scipy"] == []
    if seen["openblas"]:
        assert seen["pinned"] is True
        assert seen["workers"] == seen["cpus"]
