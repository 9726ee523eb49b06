"""Run one rakikit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload c04_eraki --seed 0 --seconds 26 --trace 0

Builds the workload's inputs from the seed, reconstructs them repeatedly
for about ``--seconds`` seconds through rakikit's public entry points, and
checks the outputs. The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` count the output checks;
``metrics`` holds the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a separate traced pass (``--trace 1``). The lines before it
print every per-method result by name and unit. A full record, with the
spans of a traced run, goes to ``perfbench/out/``. See NOTES.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


NPROC = _available_cores()
# BLAS reads its thread count once, when numpy loads: one per available core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

MIN_SETUPS, SETUP_BUDGET_S, MAX_SETUPS = 5, 1.5, 25


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _setups(workload, seed):
    """Build the inputs several times; the median is setup_s."""
    times = []
    while len(times) < MIN_SETUPS or (
            sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS):
        inp = None
        gc.collect()
        t0 = time.perf_counter()
        inp = workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return inp, times


def _rep(workload, inp) -> dict:
    gc.collect()
    t0 = time.perf_counter()
    out = workload.recon(inp)
    return _scored(workload, inp, out, time.perf_counter() - t0)


def _scored(workload, inp, out, recon_s) -> dict:
    quality, checks = workload.score(inp, out)
    return {"recon_s": recon_s, "times": out.times, "quality": quality,
            "checks": checks}


def _timed_reps(workload, inp, seconds: float) -> list[dict]:
    """Reconstruct while the next repetition should end within ``seconds``.

    The first always runs; each further one is expected to last as long as
    the one before it.
    """
    reps = []
    t_start = time.perf_counter()
    while not reps or (time.perf_counter() - t_start
                       + reps[-1]["recon_s"] <= seconds):
        # outputs are dropped after scoring, so every repetition starts from
        # the same live memory and peak_rss_mb does not depend on their count
        reps.append(_rep(workload, inp))
    return reps


def _median(values):
    return float(statistics.median(values))


def _traced_pass(name, workload, seed, scenes, tracing):
    """One setup and one reconstruction with every layer boundary traced."""
    with tracing.Tracer(name, namespaces=(scenes,)) as tracer:
        inp = workload.setup(seed)
        gc.collect()
        t0 = time.perf_counter()
        out = workload.recon(inp)
        recon_s = time.perf_counter() - t0
    return _scored(workload, inp, out, recon_s), out, tracer.spans


def _print_report(name, seed, trace, setup_times, reps, quality, env, checks):
    n = len(reps)
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"reconstructions {n}  setups {len(setup_times)}")
    print(f"  {'setup_s':<24}{_median(setup_times):12.4f} s")
    print(f"  {'recon_s':<24}{_median([r['recon_s'] for r in reps]):12.4f} s")
    for key in reps[0]["times"]:
        value = _median([r["times"][key] for r in reps])
        print(f"  {key:<24}{value:12.4f} s")
    for key, value in quality.items():
        print(f"  {key:<24}{value:12.6f} ratio")
    times = reps[0]["times"]
    if "raki_learn_s" in times:
        ratio = (_median([r["times"]["raki_learn_s"] for r in reps])
                 / _median([r["times"]["eraki_learn_s"] for r in reps]))
        print(f"  learning-time ratio raki/eraki {ratio:.2f} (context, not gated)")
    print(f"  environment {json.dumps(env)}")
    for label, ok in checks:
        if not ok:
            print(f"  check FAILED: {label}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rakikit" / "__init__.py").is_file():
        print(f"no rakikit sources at {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import rakikit
    if Path(rakikit.__file__).resolve().parent != SRC / "rakikit":
        print(f"imported rakikit from {rakikit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import scenes
    import tracing

    if args.workload not in scenes.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(scenes.WORKLOADS)}", file=sys.stderr)
        return 2
    name, seed = args.workload, args.seed
    workload = scenes.WORKLOADS[name]
    env = environment(np)

    inp, setup_times = _setups(workload, seed)
    reps = _timed_reps(workload, inp, args.seconds)
    base = reps[0]["quality"]
    checks = [c for r in reps for c in r["checks"]]
    checks += [(f"quality of reconstruction {i} identical to the first",
                r["quality"] == base) for i, r in enumerate(reps[1:], 1)]
    record = {"workload": name, "seed": seed, "trace": args.trace,
              "environment": env, "setup_s": setup_times,
              "reps": [{k: r[k] for k in ("recon_s", "times", "quality")}
                       for r in reps]}

    if args.trace:
        del inp  # the traced pass builds its own; do not hold two at once
        traced, out, spans = _traced_pass(name, workload, seed, scenes, tracing)
        checks += traced["checks"]
        checks.append(("traced quality identical to untraced",
                       traced["quality"] == base))
        metrics = tracing.layer_metrics(spans)
        model, x = workload.trained_model(out)
        metrics.update(tracing.conv_layer_metrics(model, x, len(scenes.KERNELS)))
        metrics["trace.overhead_s"] = (
            traced["recon_s"] - _median([r["recon_s"] for r in reps]))
        record["computed"] = [k for k in metrics if k in tracing.COMPUTED
                              or k.endswith(".fwd_gflop")]
        record["spans"] = spans
        record["traced_recon_s"] = traced["recon_s"]
        units = {k: _unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": _median(setup_times),
            "recon_s": _median([r["recon_s"] for r in reps]),
            "nrmse": base[workload.nrmse_key],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "recon_s": "s", "nrmse": "ratio",
                 "peak_rss_mb": "MB"}
    record["checks"] = [{"check": c, "ok": ok} for c, ok in checks]
    record["metrics"] = metrics

    _print_report(name, seed, args.trace, setup_times, reps, base, env, checks)
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    (outdir / f"{name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    failed = sum(1 for _, ok in checks if not ok)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _unit(metric: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_gflops", "GFLOP/s"), ("_gflop", "GFLOP"),
                         ("_frac", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
