"""The benchmark's layer tracer still finds, and still times, every name it wraps.

`bench/layers.py` patches functions at the module-level names their callers
look them up under.  A refactor that renames one, moves it off the call path
or writes a file around the patched writers breaks `bench/run.py --trace 1`
or silently zeroes a per-layer metric; these tests catch both.
"""
import csv
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nvcoh import (baselines, cli, inference, rank_core, simulation, spectral,
                   vector_measure)

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
MODULES = {"cli": cli, "spectral": spectral, "vector_measure": vector_measure,
           "rank_core": rank_core, "inference": inference,
           "simulation": simulation, "baselines": baselines}


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_main(layers, monkeypatch, argv) -> dict:
    """Run ``cli.main(argv)`` in this process under the tracer; its metrics."""
    for module in (cli, simulation):
        monkeypatch.setattr(module, "ProcessPoolExecutor", layers.SerialExecutor)
    tracer = layers.LayerTrace()
    try:
        tracer.install(MODULES)
        assert cli.main(argv) == cli.EXIT_OK
        metrics = tracer.metrics()
    finally:
        assert tracer.uninstall() == []
    return metrics


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir())


def test_every_traced_name_installs_and_restores(layers):
    assert callable(cli.ProcessPoolExecutor)
    assert callable(simulation.ProcessPoolExecutor)
    tracer = layers.LayerTrace()
    try:
        tracer.install(MODULES)
        patched = len(tracer._patched)
    finally:
        broken = tracer.uninstall()
    assert patched > 0
    assert broken == []


def test_analyze_runs_through_the_traced_names(layers, monkeypatch, tmp_path):
    rec = tmp_path / "rec.csv"
    with open(rec, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a1", "a2", "b1"])
        writer.writerows(np.random.default_rng(0).standard_normal((3000, 3)).tolist())
    regions = tmp_path / "regions.json"
    regions.write_text('{"regions": {"RA": ["a1", "a2"], "RB": ["b1"]}}')
    out = tmp_path / "out"
    m = _traced_main(layers, monkeypatch, [
        "analyze", "--input", str(rec), "--regions", str(regions), "--measure", "tstar",
        "--null-reps", "50", "--threads", "2", "--out-dir", str(out), "--seed", "1"])
    assert m["cli.ingest_s"] > 0
    assert m["cli.write_bytes"] == _dir_bytes(out)
    assert m["spectral.periodogram_s"] > 0
    assert m["inference.null_builds"] == 1
    assert m["inference.null_draws"] > 0
    assert m["inference.pvalue_s"] > 0


def test_simulate_runs_through_the_traced_names(layers, monkeypatch, tmp_path):
    out = tmp_path / "sim"
    m = _traced_main(layers, monkeypatch, [
        "simulate", "--cases", "3", "--n-secs", "20", "--reps", "10", "--null-reps",
        "50", "--threads", "2", "--out-dir", str(out), "--seed", "2"])
    assert m["simulation.replicates"] == 10
    assert m["simulation.gen_case_s"] > 0
    assert m["spectral.profiles"] == 10
    # each profile is a one-pair montage plan: no per-frequency t_n_bar call
    assert m["vector_measure.stat_calls"] == 0
    assert m["cli.write_bytes"] == _dir_bytes(out)
    assert m["inference.null_builds"] == 1
