"""Which commands load scipy: the import closure, checked in fresh interpreters.

`analyze`, `compare` and `null-dist` below 160 blocks need numpy alone, so
``import nvcoh`` and ``import nvcoh.cli`` must load no scipy module.  Only
`baseline` and `simulate` import it, inside their command functions.  The
test process itself has scipy loaded by other tests, so each check runs in a
subprocess.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import nvcoh
from nvcoh import baselines, cli

SRC = str(Path(nvcoh.__file__).resolve().parents[1])

# prints the scipy modules loaded once the snippet has run
_REPORT = ("\nimport sys, json\n"
           "print(json.dumps(sorted(m for m in sys.modules "
           "if m.split('.')[0] == 'scipy')))")


def _scipy_after(code: str) -> list[str]:
    """Scipy modules in ``sys.modules`` after ``code`` runs in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code + _REPORT], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _recording(tmp_path, n_samples: int) -> tuple[Path, Path]:
    rec = tmp_path / "rec.csv"
    data = np.random.default_rng(0).standard_normal((n_samples, 3))
    rec.write_text("a1,a2,b1\n" + "\n".join(",".join(map(repr, row))
                                            for row in data.tolist()) + "\n")
    regions = tmp_path / "regions.json"
    regions.write_text('{"regions": {"RA": ["a1", "a2"], "RB": ["b1"]}}')
    return rec, regions


def _main(*argv) -> str:
    return f"from nvcoh import cli\nassert cli.main({list(map(str, argv))!r}) == 0"


def test_package_and_cli_import_no_scipy():
    assert _scipy_after("import nvcoh") == []
    assert _scipy_after("import nvcoh.cli") == []


def test_analyze_below_160_blocks_loads_no_scipy(tmp_path):
    rec, regions = _recording(tmp_path, 159 * 100)
    assert _scipy_after(_main(
        "analyze", "--input", rec, "--regions", regions, "--discard-secs", 0,
        "--null-reps", 50, "--out-dir", tmp_path / "out", "--seed", 1)) == []


def test_baseline_and_simulate_load_scipy_themselves(tmp_path):
    rec, regions = _recording(tmp_path, 3000)
    loaded = _scipy_after(_main(
        "baseline", "--input", rec, "--regions", regions,
        "--out-dir", tmp_path / "base", "--seed", 1))
    assert "scipy.signal" in loaded
    loaded = _scipy_after(_main(
        "simulate", "--cases", 3, "--n-secs", 10, "--reps", 10, "--null-reps", 20,
        "--out-dir", tmp_path / "sim", "--seed", 1))
    assert "scipy.signal" in loaded


def test_every_public_name_resolves():
    for name in nvcoh.__all__:
        assert getattr(nvcoh, name) is not None
    assert set(nvcoh.__all__) <= set(dir(nvcoh))


def test_rbp_is_one_object():
    # bench/layers.py patches cli.rbp and wraps baselines.rbp
    assert baselines.rbp is cli.rbp is nvcoh.rbp
