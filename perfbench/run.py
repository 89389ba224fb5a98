"""Benchmark entry point.

    python3 perfbench/run.py --workload {meta-train,translate,pretrain}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Untraced (--trace 0) it reports the
end-to-end metrics: setup_s, tokens_per_s and peak_rss_mib. Traced
(--trace 1) it wraps the program's layer boundaries and reports the
per-layer metrics instead, and writes every span to perfbench/out/. Either
way it checks the program's outputs after the timed phase, prints one line
per metric and the environment, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
from inputs import OUT_DIR, BenchError, import_program, load_configs

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 2


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS this process loaded, if it is OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name, "blas_threads": blas_threads(),
            "cores": len(os.sched_getaffinity(0)), "python": platform.python_version()}


def measure(workload, env, seed: int, seconds: float, tracer=None) -> dict:
    """Set up, run the timed chunks, then count tokens and check outputs."""
    chunk_rounds = workload.chunk_rounds(seconds)
    setups = []
    chunk_s = []
    outputs = []
    if tracer is not None:
        tracing.install(tracer)
    try:
        for i in range(1 if tracer is not None else SETUP_REPEATS):
            state = None
            shutil.rmtree(env.work_dir, ignore_errors=True)
            t0 = time.perf_counter()
            state = workload.setup(env, seed, chunk_rounds, env.work_dir / f"world-{i}")
            setups.append(time.perf_counter() - t0)
        for chunk in state.chunks:
            t0 = time.perf_counter()
            outputs.append(workload.run_chunk(state, chunk))
            chunk_s.append(time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.restore()
    chunk_tokens, attempted, errors = workload.finish(state, outputs)
    return {"rounds": chunk_rounds * len(chunk_s), "attempted": attempted,
            "tokens": sum(chunk_tokens), "elapsed_s": sum(chunk_s),
            "chunk_tokens": chunk_tokens, "chunk_s": chunk_s, "setups_s": setups,
            "errors": errors}


def tokens_per_s(result: dict) -> float:
    """Median over the timed chunks of each chunk's target tokens per second."""
    return statistics.median(t / s for t, s in zip(result["chunk_tokens"], result["chunk_s"]))


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": (statistics.median(result["setups_s"]), "s"),
        "tokens_per_s": (tokens_per_s(result), "tokens/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer, workload: str) -> dict:
    missing = tracer.unfired(tracing.FIRES["common"] + tracing.FIRES[workload])
    if missing:
        raise BenchError(f"traced spans never fired: {', '.join(missing)}")
    return {name: (value, tracing.PER_LAYER_UNITS[name])
            for name, value in tracing.per_layer_metrics(tracer).items()}


def render(result: dict, metrics: dict, env_info: dict) -> tuple[dict, list[str]]:
    """The result object and the lines to print; the JSON object comes last."""
    out = {"correct": not result["errors"], "attempted": result["attempted"], "failed": 0,
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in metrics.items()}}
    lines = [f"{result['rounds']} rounds, {result['tokens']} target tokens "
             f"in {result['elapsed_s']:.3f} s",
             "environment " + json.dumps(env_info, sort_keys=True)]
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(json.dumps(out))
    return out, lines


def main(argv=None) -> int:
    import_program()
    args = parse_args(argv)
    from workloads import WORKLOADS, Env

    cfg = load_configs()
    env = Env(raw=cfg.raw, spec=cfg.spec, work_dir=OUT_DIR / f"work-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    try:
        result = measure(WORKLOADS[args.workload], env, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(env.work_dir, ignore_errors=True)
    metrics = end_to_end(result) if tracer is None else per_layer(tracer, args.workload)
    env_info = environment()
    out, lines = render(result, metrics, env_info)
    run = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "environment": env_info, "tokens_per_s": tokens_per_s(result),
           **result}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{tag}.jsonl", run)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({**out, "run": run}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for error in result["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print("\n".join(lines))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
