"""The benchmark in ``perfbench/`` patches named attributes of the
package (``cli.train``, ``data.Dataset.subset``, every autodiff op, ...).
Installing and removing its probes here makes a rename that drops one
of those names fail the tests rather than the benchmark."""

from pathlib import Path

from tabformer import autodiff, cli, data

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_probes_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes
    import spans

    originals = (cli.train, data.Dataset.subset, autodiff.matmul)
    tracer = spans.Tracer()
    try:
        probes.install_layers(tracer, {})
        assert cli.train is not originals[0]
    finally:
        tracer.restore()
    assert (cli.train, data.Dataset.subset, autodiff.matmul) == originals
