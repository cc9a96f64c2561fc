"""Per-layer timings and counts, taken from outside the package.

`LayerTrace.install` replaces each layer's public function with a timing
wrapper at the name its caller looks it up under (a module global read at
call time), so the package itself is not modified.  `uninstall` puts every
original back and reports any name it could not restore.

``rank_core.nn_distinct_ratio`` counts, within each evaluation of the
vector statistic, the distinct predictor matrices searched, over all
searches: the share of neighbour searches a per-statistic cache would keep.

All times are inclusive wall-clock seconds of the wrapped calls; nested
layers overlap (``rank_core.xi_s`` contains ranks and neighbour search).
``rank_core.xi_self_s`` subtracts the nested parts and the tracer's own
bookkeeping inside xi.

`SerialExecutor` stands in for the process pool so that every call of a run
happens in the traced process; results keep their order, so outputs are
unchanged.
"""
from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

import numpy as np

NN_BACKENDS = ("kdtree", "exhaustive", "sort1d")

# per-layer metric name -> unit, in report order
METRICS = {
    "cli.ingest_s": "s",
    "cli.ingest_mb_per_s": "MB/s",
    "cli.write_s": "s",
    "cli.write_bytes": "bytes",
    "spectral.periodogram_s": "s",
    "spectral.profile_s": "s",
    "spectral.profiles": "count",
    "spectral.degenerate_freqs": "count",
    "vector_measure.stat_s": "s",
    "vector_measure.stat_calls": "count",
    "vector_measure.xi_per_stat": "ratio",
    "rank_core.xi_s": "s",
    "rank_core.xi_calls": "count",
    "rank_core.ranks_s": "s",
    "rank_core.ranks_calls": "count",
    "rank_core.xi_self_s": "s",
    **{f"rank_core.nn_s.{b}": "s" for b in NN_BACKENDS},
    **{f"rank_core.nn_calls.{b}": "count" for b in NN_BACKENDS},
    "rank_core.nn_distinct_ratio": "ratio",
    "inference.null_s": "s",
    "inference.null_builds": "count",
    "inference.null_draws": "count",
    "inference.pvalue_s": "s",
    "simulation.gen_case_s": "s",
    "simulation.replicates": "count",
    "simulation.failed_replicates": "count",
    "baselines.bandpass_s": "s",
    "baselines.pbc_s": "s",
    "baselines.pbc_calls": "count",
    "baselines.lag_corrs": "count",
    "baselines.rbp_s": "s",
    "trace.overhead_s": "s",
}


class SerialExecutor:
    """In-process stand-in for `concurrent.futures.ProcessPoolExecutor`."""

    def __init__(self, max_workers=None, **kwargs):
        pass

    def map(self, fn, *iterables, chunksize=1):
        return list(map(fn, *iterables))

    def shutdown(self, wait=True, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


class LayerTrace:
    """Timing wrappers around the layers' functions, installed by name."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self.predictors: set[int] = set()

    # ------------------------------------------------------------ patching

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _timed(self, key: str, fn, after=None):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.time[key] += perf_counter() - t0
                self.count[key] += 1
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def _neighbors(self, fn, rank_core):
        def wrapper(v, *args, **kwargs):
            t0 = perf_counter()
            arr = np.asarray(v, dtype=np.float64)
            if arr.ndim == 1 or arr.shape[1] == 1:
                key = "nn.sort1d"
            elif arr.shape[0] < rank_core._EXHAUSTIVE_MAX_N:
                key = "nn.exhaustive"
            else:
                key = "nn.kdtree"
            self.predictors.add(hash(np.ascontiguousarray(arr).tobytes()))
            t1 = perf_counter()
            self.time["bookkeeping"] += t1 - t0
            try:
                return fn(v, *args, **kwargs)
            finally:
                self.time[key] += perf_counter() - t1
                self.count[key] += 1
        return wrapper

    def install(self, modules) -> None:
        """Wrap every traced name; ``modules`` maps short names to modules."""
        cli, spectral, vm, rc = (modules[k] for k in
                                 ("cli", "spectral", "vector_measure", "rank_core"))
        inf, sim, base = (modules[k] for k in ("inference", "simulation", "baselines"))

        def count_bytes(key, path_arg=0):
            def after(result, *args, **kwargs):
                self.bytes[key] += os.path.getsize(args[path_arg])
            return after

        def count_degenerate(profile, *args, **kwargs):
            self.count["degenerate"] += profile.meta["n_degenerate"]

        def count_null_draws(result, n, q, want, *args, **kwargs):
            self.count["null_draws"] += want * (2 * q - 1)

        def count_lags(result, x, y, max_lag=base.DEFAULT_MAX_LAG):
            self.count["lag_corrs"] += 2 * max_lag + 1

        def count_distinct(*args, **kwargs):
            self.count["nn_distinct"] += len(self.predictors)
            self.predictors.clear()

        self._patch(cli, "ingest_csv", self._timed("ingest", cli.ingest_csv,
                                                   count_bytes("ingest")))
        for name in ("_write_csv", "_write_json"):
            self._patch(cli, name, self._timed("write", getattr(cli, name),
                                               count_bytes("write")))
        report = sim.SimulationReport
        for name in ("write_csv", "write_json"):
            method = getattr(report, name)
            self._patch(report, name, self._timed("write", method,
                                                  count_bytes("write", 1)))
        periodograms = spectral.block_periodograms
        for owner in (spectral, base):
            self._patch(owner, "block_periodograms",
                        self._timed("periodogram", periodograms))
        for owner in (cli, sim):
            self._patch(owner, "nvc_profile", self._timed(
                "profile", spectral.nvc_profile, count_degenerate))
            self._patch(owner, "null_ensemble",
                        self._timed("null", inf.null_ensemble))
            self._patch(owner, "p_values", self._timed("pvalue", inf.p_values))
        self._patch(cli, "bh_adjust", self._timed("pvalue", inf.bh_adjust))
        self._patch(inf, "_null_batch", self._timed("null_batch", inf._null_batch,
                                                    count_null_draws))
        for name in ("t_n", "t_n_bar", "t_n_star"):
            self._patch(spectral, name, self._timed("stat", getattr(spectral, name),
                                                    count_distinct))
        self._patch(vm, "xi_n", self._timed("xi", vm.xi_n))
        self._patch(rc, "compute_ranks", self._timed("ranks", rc.compute_ranks))
        self._patch(rc, "nearest_neighbors", self._neighbors(rc.nearest_neighbors, rc))
        self._patch(sim, "gen_case", self._timed("gen_case", sim.gen_case))
        self._patch(sim, "_replicate", self._timed("replicate", sim._replicate))
        self._patch(base, "bandpass", self._timed("bandpass", base.bandpass))
        self._patch(base, "pbc", self._timed("pbc", base.pbc, count_lags))
        self._patch(cli, "rbp", self._timed("rbp", base.rbp))

    def uninstall(self) -> list[str]:
        """Restore every original; return the names that did not come back."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        broken = [f"{getattr(owner, '__name__', owner)}.{name}"
                  for owner, name, original in self._patched
                  if getattr(owner, name) is not original]
        self._patched = []
        return broken

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything run since the last `reset`."""
        t, c = self.time, self.count
        ingest_mb = self.bytes["ingest"] / 1e6
        nn_s = sum(t[f"nn.{b}"] for b in NN_BACKENDS)
        searches = sum(c[f"nn.{b}"] for b in NN_BACKENDS)
        out = {
            "cli.ingest_s": t["ingest"],
            "cli.ingest_mb_per_s": ingest_mb / t["ingest"] if t["ingest"] else 0.0,
            "cli.write_s": t["write"],
            "cli.write_bytes": self.bytes["write"],
            "spectral.periodogram_s": t["periodogram"],
            "spectral.profile_s": t["profile"],
            "spectral.profiles": c["profile"],
            "spectral.degenerate_freqs": c["degenerate"],
            "vector_measure.stat_s": t["stat"],
            "vector_measure.stat_calls": c["stat"],
            "vector_measure.xi_per_stat": c["xi"] / c["stat"] if c["stat"] else 0.0,
            "rank_core.xi_s": t["xi"],
            "rank_core.xi_calls": c["xi"],
            "rank_core.ranks_s": t["ranks"],
            "rank_core.ranks_calls": c["ranks"],
            "rank_core.xi_self_s": t["xi"] - t["ranks"] - nn_s - t["bookkeeping"],
            "rank_core.nn_distinct_ratio":
                c["nn_distinct"] / searches if searches else 0.0,
            "inference.null_s": t["null"],
            "inference.null_builds": c["null"],
            "inference.null_draws": c["null_draws"],
            "inference.pvalue_s": t["pvalue"],
            "simulation.gen_case_s": t["gen_case"],
            "simulation.replicates": c["replicate"],
            "baselines.bandpass_s": t["bandpass"],
            "baselines.pbc_s": t["pbc"],
            "baselines.pbc_calls": c["pbc"],
            "baselines.lag_corrs": c["lag_corrs"],
            "baselines.rbp_s": t["rbp"],
        }
        for b in NN_BACKENDS:
            out[f"rank_core.nn_s.{b}"] = t[f"nn.{b}"]
            out[f"rank_core.nn_calls.{b}"] = c[f"nn.{b}"]
        return out
