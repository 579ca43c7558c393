"""Run one benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones from a traced run. perfbench/README.md defines every metric.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads these once, when numpy is first imported; children inherit them
os.environ.update({v: "1" for v in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_PROBES = 5
MAX_SPANS = 600_000
BLOCKS = 10
TAIL_BLOCK = 1000
NAMES = ("exact", "coverage", "certify", "cli")

END_TO_END = {
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "pass_frac": "frac",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "linalg.eig.calls": "count",
    "linalg.eig.calls_on_rho": "count",
    "linalg.eig.ms": "ms",
    "linalg.eig.flops_computed": "flop",
    "operators.self_ms": "ms",
    "operators.validate_density.ms": "ms",
    "reference.support_basis.calls": "count",
    "reference.self_ms": "ms",
    "reference.build_ms": "ms",
    "entropy.self_ms": "ms",
    "entropy.reference_overlap.calls": "count",
    "harness.self_ms": "ms",
    "harness.born_sample.calls": "count",
    "harness.born_sample.effects": "count",
    "harness.born_sample.ms": "ms",
    "harness.simulate_record.calls": "count",
    "stats.self_ms": "ms",
    "stats.cp_endpoints": "count",
    "linalg.betainc.calls": "count",
    "stats.betainc_per_endpoint": "ratio",
    "bounds.self_ms": "ms",
    "bounds.solve_bootstrap.calls": "count",
    "io.load_state.ms": "ms",
    "io.bytes_read": "B",
    "io.dumps_json.ms": "ms",
    "cli.import_ms": "ms",
    "cli.scipy_special_loaded": "frac",
    "cli.run_ms": "ms",
    "windows.self_ms": "ms",
    "trace.overhead": "ratio",
}
# layers that every correct program must enter on each workload; the traced
# run fails if one records no call. Only layers the operation itself implies
# are named, so that an optimisation that stops calling a helper does not
# fail the check: `linalg` on `exact` and `cli` is any Hermitian eigensolve
# (an entropy needs a spectrum), and `certify` names `stats`, not the beta
# functions its endpoints happen to use
LAYERS_RUN = {
    "exact": ("operators", "entropy", "harness", "linalg"),
    "coverage": ("harness", "stats"),
    "certify": ("harness", "stats"),
    "cli": ("cli", "io", "operators", "harness", "stats", "windows", "linalg"),
}


def env_stamp(seed: int) -> dict:
    """Versions, BLAS threads actually in effect, cores, and the seed."""
    import ctypes
    from importlib.metadata import version

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),  # without importing it into this process
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads_runtime": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure(w, ctx, seconds: float, first_op: int, probe, tracer=None):
    """Closed loop, one client: whole cycles of the workload's pool until
    `seconds` have passed, or the number of cycles that fills `seconds` at
    the workload's nominal cycle time. The host-speed probe is sampled
    between operations. Returns the per-operation latencies in seconds,
    the factor that scales each to the nominal host speed, and the failure
    reason of every failed operation."""
    pool = w.pool_size(ctx)
    states = w.states(ctx)
    lat, starts, fails = [], [], []
    k = first_op
    probe.sample()
    t_end = time.perf_counter() + seconds
    cycles = None if w.cycle_seconds is None else max(1, round(seconds / w.cycle_seconds))
    while True:
        for _ in range(pool):
            if probe.due():
                probe.sample()
            if tracer is not None:
                tracer.current_op = k - first_op
                tracer.watched = list(states)
                root = tracer.open("bench.op")
            t0 = time.perf_counter()
            try:
                out, reason = w.run(ctx, k), None
            except Exception as exc:  # an operation that raises is a failed operation
                out, reason = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(root)
                tracer.current_op = -1
            lat.append(t1 - t0)
            starts.append(t0)
            if reason is None:
                try:
                    reason = w.check(ctx, k, out)
                except Exception as exc:  # a malformed output fails its operation
                    reason = f"output check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                fails.append(reason)
            k += 1
        if cycles is not None:
            done = len(lat) >= cycles * pool
        else:
            done = time.perf_counter() >= t_end or (tracer is not None and len(tracer) >= MAX_SPANS)
        if done:
            probe.sample()
            return lat, [probe.scale(t) for t in starts], fails


def throughput(lat: list[float], pool: int, items: int) -> float:
    """Median over blocks of whole pool cycles (about a tenth of the run
    each) of the items completed per busy second."""
    cycles = len(lat) // pool
    per_block = pool * max(1, cycles // BLOCKS)
    blocks = [lat[i:i + per_block] for i in range(0, len(lat) - per_block + 1, per_block)]
    return statistics.median(items * len(b) / sum(b) for b in blocks)


def tail(lat: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    A run with many samples is cut into blocks of about TAIL_BLOCK
    consecutive samples and the median of the blocks' tails is returned:
    over 30,000 samples the ten slowest are stalls of the host, not of the
    program. Returns the latency, the percentile and the block size.
    """
    blocks = max(1, len(lat) // TAIL_BLOCK)
    size = len(lat) // blocks
    tails = []
    for b in range(blocks):
        s = sorted(lat[b * size:(b + 1) * size])
        tails.append(s[-11] if size > 10 else s[-1])
    pct = 100.0 * (size - 10) / size if size > 10 else 100.0
    return statistics.median(tails), pct, size


def setup_seconds(name: str, seed: int, smoke: bool, work: Path, probes: int,
                  speed: SpeedProbe) -> list[dict]:
    """Time the set-up in `probes` fresh interpreters, one after another.

    Each set-up is scaled to the nominal host speed by this process's
    kernel, sampled before and after it: the kernel timed inside a fresh
    interpreter read up to a third faster in some interpreters than in
    others, which made the scaled set-up time bimodal.
    """
    from workloads import child_env

    out = []
    speed.sample()
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
             "1" if smoke else "0", str(work)],
            capture_output=True, text=True, env=child_env(), cwd=str(ROOT), timeout=170,
        )
        t1 = time.perf_counter()
        speed.sample()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        times["speed_scale"] = speed.scale(t0, t1)
        times["setup_s"] = times["raw_setup_s"] * times["speed_scale"]
        out.append(times)
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    import workloads

    w = workloads.WORKLOADS[name]
    work = WORK / f"{name}-trace{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stamp = env_stamp(seed)
    inputs = w.generate(seed, smoke)
    w.write(inputs, work)
    probe = SpeedProbe(w.probe)
    probes = [] if traced else setup_seconds(name, seed, smoke, work,
                                             1 if smoke else SETUP_PROBES, probe)

    ctx = w.build(inputs, work)
    w.expect(ctx)
    w.warmup(ctx)
    phase = seconds / 2 if traced else seconds
    raw, scales, fails = measure(w, ctx, phase, 0, probe)
    lat = [x * f for x, f in zip(raw, scales)]
    fails += w.finish(ctx)
    pool, items = w.pool_size(ctx), w.items_per_op(ctx)
    result = {"workload": name, "env": stamp, "trace": int(traced)}
    if not traced:
        if name == "cli":
            rss_kb = ctx["max_rss_kb"]
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        def end_to_end(x, setup_key):
            return {
                "ops_per_s": throughput(x, pool, items),
                "p50_ms": statistics.median(x) * 1e3,
                "tail_ms": tail(x)[0] * 1e3,
                "pass_frac": 1.0 - min(len(fails), len(x)) / len(x),
                "peak_rss_mb": rss_kb / 1024.0,
                "setup_s": statistics.median(p[setup_key] for p in probes),
            }

        values, raw_values = end_to_end(lat, "setup_s"), end_to_end(raw, "raw_setup_s")
        _, pct, block = tail(lat)
        result.update(units=END_TO_END, tail_percentile=pct, tail_block=block, samples=len(lat),
                      raw_values=raw_values, probes=probes,
                      speed_scale=statistics.median(probe.scale(t) for t in probe.times))
        problems = []
    else:
        import tracer as trace_mod

        tr = trace_mod.Tracer()
        uninstall = trace_mod.install(tr)
        try:
            traced_ctx = w.build(inputs, work)
            w.expect(traced_ctx)
            traced_ctx.update(traced=True, tracer=tr)
            traced_raw, traced_scales, traced_fails = measure(w, traced_ctx, phase, len(lat),
                                                              probe, tr)
        finally:
            uninstall()
        fails += traced_fails + w.finish(traced_ctx)
        traced_lat = [x * f for x, f in zip(traced_raw, traced_scales)]
        values, layer_calls = trace_mod.summarize(tr, traced_scales,
                                                  traced_ctx.get("child_info", ()))
        values["trace.overhead"] = (throughput(traced_lat, pool, items)
                                    / throughput(lat, pool, items))
        tr.write(work / "spans.npz")
        lat = lat + traced_lat
        problems = [f"layer {lay} recorded no call" for lay in LAYERS_RUN[name]
                    if layer_calls.get(lay, 0) == 0]
        result.update(units=PER_LAYER, layer_calls=layer_calls, spans=len(tr),
                      traced_ops=len(traced_lat), effect_counts=trace_mod.effect_counts(tr))
    unexpected = [r for r in fails if not r.startswith(workloads.TAIL_DEFECT)]
    result.update(
        correct=not unexpected and not problems,
        attempted=len(lat),
        failed=min(len(fails), len(lat)),
        failures=sorted(set(fails))[:20],
        problems=problems,
        values=values,
    )
    (work / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def report(result: dict) -> dict:
    """Print the metrics by name with their units; return the result line."""
    units = result["units"]
    print(f"# workload {result['workload']}  trace {result['trace']}  env {json.dumps(result['env'])}")
    for key, unit in units.items():
        print(f"  {key:32s} {result['values'][key]:.6g} {unit}")
    if "tail_percentile" in result:
        print(f"  tail_ms is p{result['tail_percentile']:.2f} over blocks of {result['tail_block']}"
              f" of {result['samples']} operations")
    if "effect_counts" in result:
        print(f"  born_sample calls by effect count: {result['effect_counts']}")
    for reason in result["failures"] + result["problems"]:
        print(f"  failure: {reason}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["values"][k], "unit": u} for k, u in units.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh process, untraced and then traced."""
    modes = [args.trace] if args.trace is not None else [0, 1]
    lines, ok = {}, True
    for name in NAMES:
        for mode in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(mode)]
            proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                                  capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                ok = False
                continue
            lines[(name, mode)] = json.loads(proc.stdout.strip().splitlines()[-1])
    untraced = {name: line for (name, mode), line in lines.items() if mode == 0}
    if untraced:
        print("# summary (end-to-end metrics, untraced runs)")
    for name, line in untraced.items():
        cells = "  ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in line["metrics"].items())
        print(f"  {name:9s} {cells}  failed {line['failed']}/{line['attempted']}")
    metrics = {f"{name}.trace{mode}.{k}": m
               for (name, mode), line in lines.items() for k, m in line["metrics"].items()}
    print(json.dumps({
        "correct": ok and all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()) or 1,
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": metrics,
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per run (default 20, run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1 for the traced per-layer run (default 0; both for 'all')")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, for testing the benchmark")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "rcc" / "__init__.py").is_file():
        print(f"perfbench: no rcc package under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
