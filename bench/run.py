"""nvcoh benchmark: run the `nvc` CLI on seeded workloads and report metrics.

Run from the repository root (stdlib and numpy only; the package is taken
from ``src/``):

    python3 bench/run.py                         # every workload, end to end
    python3 bench/run.py --trace 1               # every workload, per layer
    python3 bench/run.py --workload analyze_tstar --seed 3 --seconds 30 --trace 0

End to end (``--trace 0``), each run of a workload is one fresh interpreter
that imports ``nvcoh.cli`` and calls ``main(argv)`` once; runs repeat until
``--seconds`` have passed and the medians are reported:

    wall_s       seconds of ``main(argv)``, imports excluded
    setup_s      seconds from starting an interpreter to ``nvcoh.cli``
                 imported, measured in interpreters of its own
    work_per_s   the workload's work units divided by wall_s
    peak_rss_mb  peak resident set of the interpreter running ``main``
                 (process-pool workers not included)

Per layer (``--trace 1``), a traced interpreter runs the same argv with the
process pools replaced by an in-process executor and every layer function
wrapped (see ``layers.py``); it alternates with an untraced interpreter
running the same in-process configuration, and ``trace.overhead_s`` is the
difference of their median wall times.  With ``--workload all`` the traced
interpreter runs every workload in one process.

Input generation and output checks are outside every metric.  Each run's
output files are hashed: all runs of a workload and seed, traced or not, must
write byte-identical files, and must match the digests stored in
``reference/digests.json`` for that seed on the same platform (CPU model and
flags, Python, numpy and scipy versions) when there are any.  The first run's
outputs are also checked against independent recomputations (see
``workloads.py``).  A run fails when the CLI exits non-zero or a check fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
from workloads import RECORDING, WORKLOADS, write_recording

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference" / "digests.json"

SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


class Outcome:
    """What one child interpreter did for one workload."""

    def __init__(self, wall_s=None, peak_rss_mb=None, layers=None, problems=()):
        self.wall_s = wall_s
        self.peak_rss_mb = peak_rss_mb
        self.layers = layers
        self.problems = list(problems)
        self.digests = None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NVC_SEED", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") \
        else src
    return env


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def platform_key(plat: dict) -> str:
    """Digests are only comparable on one CPU and one build of the libraries."""
    blob = json.dumps(plat, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_process(cmd, workdir: Path) -> tuple[int, str]:
    """Run ``cmd`` in its own session; on timeout kill the whole session."""
    with subprocess.Popen(cmd, cwd=workdir, env=child_env(), text=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return -signal.SIGKILL, f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    return proc.returncode, err


def time_setup(workdir: Path) -> float:
    t0 = perf_counter()
    rc, err = run_process([sys.executable, "-c", "import nvcoh.cli"], workdir)
    if rc != 0:
        raise RuntimeError(f"importing nvcoh.cli failed: {err.strip()[-300:]}")
    return perf_counter() - t0


def run_child(names, seed, workdir: Path, *, trace: bool, serial: bool,
              check: bool) -> dict[str, Outcome]:
    """One fresh interpreter running each named workload's argv in turn."""
    outs = {name: f"out_{name}" for name in names}
    for out in outs.values():
        shutil.rmtree(workdir / out, ignore_errors=True)
    job, result = workdir / "job.json", workdir / "result.json"
    result.unlink(missing_ok=True)
    job.write_text(json.dumps({
        "argvs": [WORKLOADS[n].argv(seed) + ["--out-dir", outs[n]] for n in names],
        "trace": trace, "serial": serial}))
    rc, err = run_process([sys.executable, str(BENCH / "child.py"), str(job),
                           str(result)], workdir)
    if rc != 0:
        tail = err.strip().splitlines()[-1:] or ["no message"]
        return {n: Outcome(problems=[f"interpreter exited {rc}: {tail[0]}"])
                for n in names}
    res = json.loads(result.read_text())
    outcomes = {}
    for name, run in zip(names, res["runs"]):
        o = Outcome(wall_s=run["wall_s"], peak_rss_mb=res["peak_rss_mb"],
                    layers=run["layers"])
        o.problems += [f"{name}.{n} not restored" for n in res["not_restored"]]
        if run["rc"] != 0:
            o.problems.append(f"nvc exited {run['rc']}: {err.strip()[-300:]}")
        else:
            out = workdir / outs[name]
            o.digests = digest_dir(out)
            if check:
                o.problems += WORKLOADS[name].check(workdir, out, seed)
            if o.layers is not None:
                o.layers["simulation.failed_replicates"] = failed_replicates(out)
        outcomes[name] = o
    return outcomes


def failed_replicates(out: Path) -> int:
    report = out / "report.json"
    if not report.exists():
        return 0
    return json.loads(report.read_text())["meta"]["n_failures"]


class Tally:
    """Runs attempted and failed for one workload, with the digest check."""

    def __init__(self, name: str, seed: int, reference: dict):
        self.expected = reference.get(name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests = None

    def add(self, outcome: Outcome) -> bool:
        self.attempted += 1
        problems = list(outcome.problems)
        digests = outcome.digests
        if digests is not None:
            want = self.expected or self.digests
            if want is not None and digests != want:
                bad = sorted(k for k in set(want) | set(digests)
                             if want.get(k) != digests.get(k))
                problems.append(f"outputs differ from the reference: {bad[:5]}")
            self.digests = self.digests or digests
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems


def more(seconds: float, started: float, runs: int) -> bool:
    """Whether to start another run: at least one, then until time is up."""
    return runs == 0 or perf_counter() - started < seconds


def end_to_end(name: str, seed: int, seconds: float, workdir: Path,
               reference: dict):
    wl = WORKLOADS[name]
    # the median discards the first sample when it also compiles bytecode
    setups = [time_setup(workdir) for _ in range(SETUP_SAMPLES)]
    tally = Tally(name, seed, reference)
    walls, rss = [], []
    started = perf_counter()
    while more(seconds, started, tally.attempted):
        o = run_child([name], seed, workdir, trace=False, serial=False,
                      check=tally.attempted == 0)[name]
        if tally.add(o):
            walls.append(o.wall_s)
            rss.append(o.peak_rss_mb)
    if not walls:
        return tally, None, {}
    wall = statistics.median(walls)
    metrics = {"wall_s": wall, "setup_s": statistics.median(setups),
               "work_per_s": wl.units / wall,
               "peak_rss_mb": statistics.median(rss)}
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    return tally, metrics, samples


def per_layer(names, seed: int, seconds: float, workdir: Path, reference: dict):
    tallies = {n: Tally(n, seed, reference) for n in names}
    plain = {n: [] for n in names}
    traced = {n: [] for n in names}
    # a CPU coming out of idle runs slow for some seconds; keep that out of
    # the first timed interpreter, as the setup samples do end to end
    for _ in range(SETUP_SAMPLES):
        time_setup(workdir)
    started = perf_counter()
    rounds = 0
    while more(seconds, started, rounds):
        for trace in (False, True):
            outcomes = run_child(names, seed, workdir, trace=trace, serial=True,
                                 check=rounds == 0 and not trace)
            for n, o in outcomes.items():
                if tallies[n].add(o):
                    (traced if trace else plain)[n].append(o)
        rounds += 1
    results = {}
    for n in names:
        if not traced[n] or not plain[n]:
            results[n] = None
            continue
        metrics = {k: statistics.median(o.layers[k] for o in traced[n])
                   for k in traced[n][0].layers}
        metrics["trace.overhead_s"] = (
            statistics.median(o.wall_s for o in traced[n])
            - statistics.median(o.wall_s for o in plain[n]))
        results[n] = metrics
    return tallies, results


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_info() -> tuple[str, str]:
    """CPU model name and a digest of its feature flags."""
    model, flags = platform.processor() or platform.machine(), ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    model = value.strip()
                elif key.strip() == "flags":
                    flags = " ".join(sorted(value.split()))
                    break
    except OSError:
        pass
    return model, hashlib.sha256(flags.encode()).hexdigest()[:16]


def platform_info() -> dict:
    model, flags = cpu_info()
    return {"cpu": model, "cpu_flags": flags, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy")}


def environment(names, plat: dict) -> dict:
    return {**plat, "nproc": os.cpu_count(), "commit": git_commit(),
            "processes": {n: WORKLOADS[n].processes for n in names}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="PATH",
                        help="append the full result as one JSON line to PATH")
    parser.add_argument("--update-reference", action="store_true",
                        help="store this seed's output digests as the reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nvcoh" / "cli.py").is_file():
        print(f"bench: no nvcoh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    plat = platform_info()
    plat_key = platform_key(plat)
    stored = load_reference()
    reference = stored.get(plat_key, {}).get("outputs", {})
    env = environment(names, plat)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run_", dir=ROOT / ".bench_work"))
    try:
        if any(WORKLOADS[n].needs_recording for n in names):
            write_recording(workdir / RECORDING, args.seed)
        if args.trace:
            tallies, results = per_layer(names, args.seed, args.seconds, workdir,
                                         reference)
            units = layers.METRICS
            samples = {}
        else:
            tallies, results, samples = {}, {}, {}
            for n in names:
                tallies[n], results[n], samples[n] = end_to_end(
                    n, args.seed, args.seconds, workdir, reference)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for n in names:
        for problem in tallies[n].problems:
            print(f"{n}: FAILED {problem}")
    if any(results[n] is None for n in names):
        print("bench: no run of a workload succeeded", file=sys.stderr)
        return 1

    print(json.dumps({"env": env, "seed": args.seed, "seconds": args.seconds}))
    for n in names:
        wl = WORKLOADS[n]
        source = "stored" if tallies[n].expected else "first run's"
        print(f"{n}: {wl.why}; {wl.units} {wl.unit_name} per run, "
              f"{wl.processes} process(es), {tallies[n].attempted} runs, "
              f"outputs compared with the {source} digests")
    metrics = {}
    for n in names:
        for key, unit in units.items():
            value = results[n][key]
            print(f"{n:20s} {key:32s} {value:>16.6g} {unit}")
            metrics[key if len(names) == 1 else f"{n}.{key}"] = \
                {"value": value, "unit": unit}
        # always 0 when the benchmark passes, so it is printed but is not one
        # of the result metrics; the result carries it as failed/attempted
        print(f"{n:20s} {'failed_frac':32s} "
              f"{tallies[n].failed / tallies[n].attempted:>16.6g} ratio")
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}

    if args.update_reference and final["correct"]:
        entry = stored.setdefault(plat_key, {"platform": plat, "outputs": {}})
        for n in names:
            entry["outputs"].setdefault(n, {})[str(args.seed)] = tallies[n].digests
        REFERENCE.parent.mkdir(exist_ok=True)
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"env": env, "workload": args.workload,
                                 "seed": args.seed, "seconds": args.seconds,
                                 "trace": args.trace, "samples": samples,
                                 "result": final}) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
