"""Check that `rcc` source trees compute the same outputs, bit for bit.

    python tools/same_outputs.py OLD_SRC NEW_SRC [--small]
    python tools/same_outputs.py SRC --write FILE [--small]
    python tools/same_outputs.py SRC --against FILE

OLD_SRC, NEW_SRC and SRC are directories holding the `rcc` package (a
checkout's `src`). Each tree runs one fixed, seeded battery in its own
child process, with one BLAS thread, which prints every output leaf as one
JSON object; the two trees' children run at once, and this process
compares their leaves. The battery covers a grid of Clopper-Pearson
endpoints, a grid of bootstrap roots by each method, the two planners'
sample sizes, coverage summaries (of one protocol per run, and of all
three in one run), simulated records and
their certificates, `pipeline` reports (apart from `timestamp`), window
sweeps, every entropy functional on each (reference, state) case and on a
grid of scalar arguments, and the CLI's output (stdout, stderr, exit code
and any `--out` file) of `certify` (also on a witness record with
`--witness-rank` agreeing with its rank and conflicting, and at `--epsilon`
0.6 and 0.5 on a hypothesis-test record alone and beside a witness record),
`compute` (on the sector and on the XXI stabilizer, and at `--epsilon 0.6`),
`coverage --protocol all`, `sweep`, `thermo` in each variant, `simulate
--witness` (also with another protocol), and `simulate` of each protocol at
one seed with `certify` of those three records.
An output that raises an `RccError` is compared by its exception type and
message. `--small` runs a shorter battery.

`--write FILE` stores one tree's leaves in FILE, one per line, with the
numpy, scipy and BLAS versions that computed them and which battery ran.
`--against FILE` runs that battery on SRC and compares its leaves with the
stored ones. It first compares the versions: a version that differs from
the stored one is reported as a mismatch, since another LAPACK may move the
last bits, and the battery is then not run.

Every differing field is printed with the number of its leaves that differ
and its largest absolute change (a field is a leaf path with its case
indices dropped). The exit status is 1 on any difference or version
mismatch and 0 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REFERENCES = [
    {"type": "sector", "g": 2, "addressable_units": 2, "n_qubits": 4, "hamming_weight": 2},
    {"type": "stabilizer", "g": 2, "addressable_units": 3, "n_qubits": 3,
     "generators": ["ZZI"]},
    {"type": "blocks", "g": 3, "addressable_units": 2, "blocks": [[2, 1], [1, 2, 3]]},
    # an X-type generator: H_R is not spanned by basis vectors, so the battery
    # also covers the references read through a dense support basis
    {"type": "stabilizer", "g": 2, "addressable_units": 3, "n_qubits": 3,
     "generators": ["XXI"]},
]
# (seed, n_samples, delta, eta, trials, test_calibration, witness_rank)
COVERAGE = [(0, 2000, 0.05, 0.25, 200, 0.5, 1), (7, 50, 0.2, 0.3, 300, 0.7, 2),
            (11, 10**6, 0.01, 0.1, 100, 0.5, 1), (3, 7, 0.3, 0.2, 500, 0.9, 1),
            (13, 400, 1e-6, 0.05, 200, 0.3, 3), (5, 3216643036, 0.05, 0.25, 50, 0.5, 1)]
ENDPOINT_N = [1, 7, 100, 2000, 12345, 10**6, 3216643036, 10**12]
ENDPOINT_DELTA = [1e-9, 1e-4, 0.025, 0.05, 0.3]
PLAN_BITS = (10, 20, 30)
# solve_bootstrap's (D, c) grid: D below 1, c small against D = 1e6, and c
# large enough that D - alpha*ln(1+D) is negative
BOOTSTRAP_D = (0.3, 1.5, 2.5, 10.0, 37.5, 1e3, 1e6)
BOOTSTRAP_C = (1e-3, 0.5, 1.0, 20.0, 1000.0)
# ht_sample_plan's (target_bits, delta) and witness_sample_plan's
# (p0, target_bits, rank, d_R, delta)
HT_PLANS = [(0, 0.05), (10, 0.05), (20, 1e-6), (30, 0.25), (40, 5e-324), (12.3, 0.01)]
WITNESS_PLANS = [(0.9, 2.0, 1, 5, 0.05), (0.5, 1, 1, 8, 5e-324), (0.99, -3.0, 2, 64, 1e-9),
                 (0.3, 0.5, 3, 16, 0.2)]
# the testing divergence's levels, and the smoothing of the full leakage mode
ENTROPY_ETAS = (0.05, 0.3)
LEAKAGE_DELTA = 0.05
# scalar arguments, each with values at the edges, past them (an error) and
# where the result is inf
SHANNON_P = [(0.5, 0.5), (1.0, 0.0), (0.2, 0.3, 0.5), (1e-300, 1.0), (0.5, 0.6), (-0.1, 1.1),
             (), (float("nan"), 1.0)]
BINARY_V = (0.0, 1e-300, 0.11, 0.5, 1.0, 1.5, -0.0)
BERNOULLI_QP = [(0.3, 0.3), (0.5, 0.0), (0.5, 1.0), (0.0, 0.0), (1.0, 1.0), (0.0, 0.5),
                (1.0, 0.5), (0.9, 0.1), (1e-12, 0.5), (1.2, 0.5), (0.5, -0.1)]


def _leaves(obj, path: str, out: dict) -> None:
    """Flatten nested dicts, lists and arrays into out."""
    import numpy as np

    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            _leaves(obj[key], f"{path}.{key}", out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        for i, value in enumerate(obj):
            _leaves(value, f"{path}[{i}]", out)
    elif isinstance(obj, np.generic):
        out[path] = obj.item()
    else:
        out[path] = obj


def _guard(fn):
    """fn()'s value, or the type and message of the RccError it raises."""
    from rcc import RccError

    try:
        return fn()
    except RccError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _states(ref, rng):
    """States on ref: a mixed and a pure state inside H_R, and a full-rank
    state that leaks out of it."""
    import numpy as np

    from rcc import validate_density

    def ginibre(dim, rank):
        a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        m = a @ a.conj().T
        return m / np.trace(m).real

    v = ref.support_basis()
    inside = [v @ ginibre(ref.d_r, rank) @ v.conj().T for rank in (ref.d_r, 1)]
    return [validate_density(0.5 * (m + m.conj().T))
            for m in (*inside, ginibre(ref.dim, ref.dim))]


def _repaired_state(ref, rng):
    """A rank-2 state inside H_R with a third eigenvalue drifted to -1e-12,
    which validate_density clips to 0 (its `clipped` flag) while it keeps
    the matrix as given."""
    import numpy as np

    from rcc import validate_density

    a = rng.normal(size=(ref.d_r, 3)) + 1j * rng.normal(size=(ref.d_r, 3))
    q = np.linalg.qr(a)[0]
    v = ref.support_basis() @ q
    m = v @ np.diag([0.6 + 1e-12, 0.4, -1e-12]) @ v.conj().T
    rho = validate_density(0.5 * (m + m.conj().T))
    if not rho.clipped:
        raise SystemExit("the repaired battery state was not clipped")
    return rho


def _entropies(ref, rho) -> dict:
    """Every entropy functional of rho against ref, in bits, and the purity
    ceiling."""
    from rcc import entropy

    return {
        "von_neumann": _guard(lambda: entropy.von_neumann(rho)),
        "min_entropy": _guard(lambda: entropy.min_entropy(rho)),
        "spectral_skew": _guard(lambda: entropy.spectral_skew(rho)),
        "reference_overlap": entropy.reference_overlap(rho, ref),
        "relative": _guard(lambda: entropy.relative_to_reference(rho, ref)),
        "max_relative": _guard(lambda: entropy.max_relative_to_reference(rho, ref)),
        "testing": [_guard(lambda: entropy.hypothesis_testing_divergence(rho, ref, eta))
                    for eta in ENTROPY_ETAS],
        "leakage_multiplicative": _guard(lambda: entropy.leakage_adjusted_divergence(rho, ref)),
        "leakage_full": _guard(lambda: entropy.leakage_adjusted_divergence(
            rho, ref, "full", LEAKAGE_DELTA)),
        "purity_ceiling": _guard(lambda: vars(entropy.purity_upper_bound(rho, ref))),
    }


def _scalar_entropies() -> dict:
    """shannon, binary_entropy and bernoulli_kl on their argument grids."""
    from rcc import entropy

    return {"shannon": [_guard(lambda: entropy.shannon(p)) for p in SHANNON_P],
            "binary": [_guard(lambda: entropy.binary_entropy(v)) for v in BINARY_V],
            "bernoulli_kl": [_guard(lambda: entropy.bernoulli_kl(q, p)) for q, p in BERNOULLI_QP]}


def _record_payload(record) -> dict:
    return {"protocol": record.protocol, "n": record.n, "counts": dict(record.counts),
            "meta": dict(record.meta)}


def _plan_record(n_null: int, null_h1: int, bits: int, delta: float) -> dict:
    """A zero-failure hypothesis-test record at the planner's size."""
    from rcc import ht_sample_plan

    n = ht_sample_plan(bits, delta)
    return {"protocol": "hypothesis_test", "n": n_null + n,
            "counts": {"null_accept_h1": null_h1, "null_accept_h0": n_null - null_h1,
                       "alt_accept_h1": n, "alt_accept_h0": 0}, "meta": {}}


def _run_cli(src: str, workdir: Path, args: list[str], out: str | None = None) -> dict:
    """`rcc ARGS`, run from workdir with relative paths so that the paths a
    report echoes are the same for both trees; with out, the file that
    `--out out` wrote too, byte for byte."""
    env = {**os.environ, "PYTHONPATH": src}
    if out is not None:
        (workdir / out).unlink(missing_ok=True)
        args = [*args, "--out", out]
    proc = subprocess.run([sys.executable, "-m", "rcc.cli", *args], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=300)
    try:
        report = json.loads(proc.stdout)
        report.pop("timestamp", None)
    except ValueError:
        report = proc.stdout
    result = {"exit": proc.returncode, "stdout": report, "stderr": proc.stderr}
    if out is not None and (workdir / out).exists():
        result["out"] = (workdir / out).read_bytes().decode()
    return result


def _compute_cli(src: str, workdir: Path, ref_cfg: dict, rho, tag: str) -> dict:
    """`rcc compute` on rho against the reference ref_cfg."""
    from rcc import io

    (workdir / f"{tag}_ref.json").write_text(json.dumps(ref_cfg))
    io.dump_state(rho, workdir / f"{tag}_state.json")
    return _run_cli(src, workdir, ["compute", "--state", f"{tag}_state.json",
                                   "--reference", f"{tag}_ref.json"])


def _certify_cli(src: str, workdir: Path, ref_cfg: dict, records: list[dict], tag: str,
                 flags: tuple[str, ...] = ()) -> dict:
    """`rcc certify` on the records, with flags."""
    (workdir / "ref.json").write_text(json.dumps(ref_cfg))
    args = ["certify", "--reference", "ref.json", *flags]
    for i, payload in enumerate(records):
        name = f"{tag}_{i}.json"
        (workdir / name).write_text(json.dumps(payload))
        args += ["--record", name]
    return _run_cli(src, workdir, args)


# process traces (t, Pi, T, C): a steady one, one whose potential changes
# sign, and one whose mean potential overflows
TRACES = ["t,Pi,T,C\n0,0.5,3,0\n1,0.7,2.5,1.25\n2.5,0.2,3,2\n",
          "t,Pi,T,C\n0,-1,2,0\n1,3,2,0.5\n3,0.5,1,0.75\n",
          "t,Pi,T,C\n0,1e308,3,0\n10,1e308,3,1\n"]
# each variant's own flags; every variant runs on the trace's defaults, then
# with --delta-c and --pi-avg given
THERMO_FLAGS = {"envelope": [], "net_gain": [], "full": ["--log-correction", "0.25"],
                "isothermal": ["--temperature", "1.5"], "sign_robust": []}


def _other_cli(src: str, workdir: Path, ref_cfg: dict, ref, rho, family) -> dict:
    """`compute --epsilon 0.6`, past the precision range (0, 1/2], `coverage
    --protocol all` on 20 trials, `sweep` (stdout and --out), `thermo` in
    every variant with and without --delta-c and --pi-avg, `simulate
    --witness` with a projector onto the top of H_R, with a missing file and
    with `--protocol dephase`, `simulate` of each protocol at one seed, and
    `certify` of those three records, all on the first case."""
    from rcc import io
    from rcc.records import PROTOCOLS

    (workdir / "ref.json").write_text(json.dumps(ref_cfg))
    io.dump_state(rho, workdir / "state.json")
    (workdir / "windows.json").write_text(json.dumps({"windows": [
        {"xi": w.xi, "blocks": [list(b) for b in w.partition.blocks]} for w in family.windows]}))
    on_state = ["--state", "state.json", "--reference", "ref.json"]
    sweep = ["sweep", *on_state, "--windows", "windows.json"]
    out = {"sweep": [_run_cli(src, workdir, sweep), _run_cli(src, workdir, sweep, "sweep.csv")],
           "compute_epsilon": _run_cli(src, workdir, ["compute", *on_state, "--epsilon", "0.6"]),
           "coverage": _run_cli(src, workdir, ["coverage", *on_state, "--protocol", "all",
                                               "--trials", "20"])}

    thermo = []
    for i, text in enumerate(TRACES):
        (workdir / f"trace{i}.csv").write_text(text)
        for variant, flags in THERMO_FLAGS.items():
            args = ["thermo", "--trace", f"trace{i}.csv", "--gamma-r", "3",
                    "--variant", variant, *flags]
            thermo += [_run_cli(src, workdir, args),
                       _run_cli(src, workdir, [*args, "--delta-c", "0.5", "--pi-avg", "2"])]
    out["thermo"] = thermo

    v = ref.support_basis()[:, :1]
    (workdir / "witness.json").write_text(json.dumps(io.matrix_to_payload(v @ v.conj().T)))
    simulate = ["simulate", *on_state, "--n", "500", "--seed", "3", "--protocol"]
    out["simulate_witness"] = [
        *(_run_cli(src, workdir, [*simulate, "witness", "--witness", name], "rec.json")
          for name in ("witness.json", "missing.json")),
        _run_cli(src, workdir, [*simulate, "dephase", "--witness", "witness.json"], "rec.json")]
    # every protocol's record at one seed, then those records certified together
    out["simulate"] = [_run_cli(src, workdir, [*simulate, proto], f"sim_{proto}.json")
                       for proto in PROTOCOLS]
    certify = ["certify", "--reference", "ref.json"]
    for proto in PROTOCOLS:
        certify += ["--record", f"sim_{proto}.json"]
    out["simulate_certify"] = _run_cli(src, workdir, certify)
    return out


def battery(src: str, small: bool) -> dict:
    """Every output of the battery, as leaf path -> JSON value."""
    import numpy as np

    import rcc
    from rcc import (BlockPartition, ObservationWindow, RunConfig, WindowFamily,
                     coverage_experiment, io, pipeline, simulate_record, stats, sweep_windows)
    from rcc.records import PROTOCOLS

    out: dict = {}
    sizes = ENDPOINT_N[::3] if small else ENDPOINT_N
    deltas = ENDPOINT_DELTA[::2] if small else ENDPOINT_DELTA
    grid = []
    for n in sizes:
        for k in sorted({k for k in (0, 1, 2, 5, 17, n // 3, n // 2, n - 1, n) if k <= n}):
            for delta in deltas:
                grid.append({"k": k, "n": n, "delta": delta,
                             "upper": stats.clopper_pearson_upper(k, n, delta),
                             "lower": stats.clopper_pearson_lower(k, n, delta)})
    _leaves(grid, "endpoints", out)
    roots = [{method: _guard(lambda: rcc.solve_bootstrap(d, c, method))
              for method in rcc.bounds.METHODS} for d in BOOTSTRAP_D for c in BOOTSTRAP_C]
    _leaves(roots, "bootstrap", out)
    plans = [_guard(lambda: stats.ht_sample_plan(*args)) for args in HT_PLANS]
    plans += [_guard(lambda: stats.witness_sample_plan(*args)) for args in WITNESS_PLANS]
    _leaves(plans, "plans", out)

    rng = np.random.default_rng(20261019)
    refs = [(ref_cfg, io.reference_from_config(ref_cfg))
            for ref_cfg in (REFERENCES[:1] if small else REFERENCES)]
    cases = [(ref_cfg, ref, rho) for ref_cfg, ref in refs for rho in _states(ref, rng)]
    # drawn after the other states, which so keep their draws and positions
    cases += [(ref_cfg, ref, _repaired_state(ref, rng)) for ref_cfg, ref in refs]
    coverage_settings = COVERAGE[:1] if small else COVERAGE
    summaries, together, records, certificates, reports = [], [], [], [], []
    for ref_cfg, ref, rho in cases:
        for setting, (seed, n, delta, eta, trials, calibration, rank) in enumerate(
                coverage_settings):
            def config(*protocols):
                return RunConfig(state=rho, reference=ref, protocols=protocols, delta=delta,
                                 eta=eta, seed=seed, n_samples=n,
                                 test_calibration=calibration, witness_rank=rank)

            report = _guard(lambda: pipeline(config("exact", *PROTOCOLS)))
            report.pop("timestamp", None)
            reports.append(report)
            if setting < 2:
                # every protocol in one run, which shares one read of rho
                together.append(_guard(lambda: coverage_experiment(config(*PROTOCOLS), trials)))
            for proto in PROTOCOLS:
                # one protocol per run, so that a leaking state's dephase
                # summary is not lost to the test's LeakageError
                summaries.append(_guard(lambda: coverage_experiment(config(proto), trials)))
                record = _guard(lambda: simulate_record(
                    rho, ref, proto, n, seed=seed, eta=eta, test_calibration=calibration,
                    witness_rank=rank))
                if not isinstance(record, rcc.MeasurementRecord):
                    records.append(record)
                    continue
                records.append(_record_payload(record))
                certified = _guard(lambda: pipeline(RunConfig(
                    state=None, reference=ref, protocols=(proto,), records={proto: record},
                    delta=delta, eta=eta, witness_rank=rank)))
                certified.pop("timestamp", None)
                certificates.append(certified)
    _leaves(summaries, "coverage", out)
    _leaves(together, "coverage_all", out)
    _leaves(records, "records", out)
    _leaves(certificates, "certificates", out)
    _leaves(reports, "pipeline", out)
    # the first reference's states, swept from its basis states to the whole space
    dim = cases[0][1].dim
    family = WindowFamily((
        ObservationWindow(BlockPartition.singletons(dim), 0.0),
        ObservationWindow(BlockPartition(tuple((i, i + 1) for i in range(0, dim, 2))), 1.0),
        ObservationWindow(BlockPartition.whole(dim), 2.0)))
    _leaves([_guard(lambda: sweep_windows(rho, ref, family)) for _, ref, rho in cases[:3]],
            "sweep", out)
    _leaves([_entropies(ref, rho) for _, ref, rho in cases], "entropy", out)
    _leaves(_scalar_entropies(), "entropy_scalars", out)

    ref_cfg, ref, rho = cases[0]
    cli_sets = [[_record_payload(simulate_record(rho, ref, proto, 2000, seed=5))
                 for proto in PROTOCOLS]]
    cli_sets += [[_plan_record(2000, 251, bits, 0.05)]
                 for bits in (PLAN_BITS[1:2] if small else PLAN_BITS)]
    # too many null acceptances: the test cannot certify at eta (exit 3)
    cli_sets.append([_plan_record(2000, 900, 10, 0.05)])
    # a witness record of rank 2 with no --witness-rank, the same rank and
    # another one (exit 2)
    rank2 = [_record_payload(simulate_record(rho, ref, "witness", 2000, seed=5, witness_rank=2))]
    with tempfile.TemporaryDirectory() as tmp:
        cli = [_certify_cli(src, Path(tmp), ref_cfg, recs, f"set{i}")
               for i, recs in enumerate(cli_sets)]
        cli += [_certify_cli(src, Path(tmp), ref_cfg, rank2, "rank2", flags)
                for flags in ((), ("--witness-rank", "2"), ("--witness-rank", "1"))]
        # a planned hypothesis-test record alone and beside a simulated
        # witness record, past the precision range (0, 1/2] and at its top
        test, witness = cli_sets[1], cli_sets[0][1:2]
        cli += [_certify_cli(src, Path(tmp), ref_cfg, recs, f"eps{i}", ("--epsilon", epsilon))
                for epsilon in ("0.6", "0.5") for i, recs in enumerate((test, test + witness))]
        other = _other_cli(src, Path(tmp), ref_cfg, ref, rho, family)
        # the first case, and the XXI stabilizer's first (a mixed state inside
        # H_R, read through a dense support basis) unless --small skips it
        xxi = [case for case in cases if case[0] is REFERENCES[3]][:1]
        compute = [_compute_cli(src, Path(tmp), cfg, state, f"compute{i}")
                   for i, (cfg, _, state) in enumerate([cases[0], *xxi])]
    _leaves(cli, "cli_certify", out)
    _leaves(compute, "cli_compute", out)
    _leaves(other, "cli", out)
    return out


def _field(path: str) -> str:
    return re.sub(r"\[\d+\]", "", path)


def _change(old, new) -> float | None:
    """|new - old| for two numbers (not bools), None otherwise."""
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        return abs(new - old)
    return None


def compare(old: dict, new: dict) -> list[str]:
    """One line per field whose leaves differ between the two outputs,
    with how many differ and the largest absolute change; a leaf present on
    one side only differs."""
    fields: dict[str, list] = {}
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path, "<missing>"), new.get(path, "<missing>")
        if type(a) is type(b) and json.dumps(a) == json.dumps(b):
            continue
        fields.setdefault(_field(path), []).append(_change(a, b))
    lines = []
    for name, changes in sorted(fields.items()):
        numeric = [c for c in changes if c is not None]
        what = [f"largest absolute change {max(numeric):.3g}"] if numeric else []
        if len(numeric) < len(changes):
            what.append("non-numeric change")
        lines.append(f"{name}: {len(changes)} differing, {'; '.join(what)}")
    return lines


def versions() -> dict:
    """The numpy, scipy and BLAS builds that this interpreter computes with."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def mismatches(stored: dict, found: dict) -> list[str]:
    """One line per version in `stored` that `found` does not share."""
    return [f"version mismatch: {name} {found.get(name)} here, {want} in the stored file"
            for name, want in sorted(stored.items()) if found.get(name) != want]


# one BLAS thread: a threaded reduction's order, and so its last bits, may
# depend on the machine's core count
_ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")}


def _run_children(srcs: list[str], small: bool) -> list[dict]:
    """The battery's {"versions", "leaves"} on each tree in srcs, one child
    process per tree, all running at once; when one fails, the others are
    killed."""
    flags = ["--small"] if small else []
    procs = [subprocess.Popen([sys.executable, __file__, "--emit", src, *flags],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, **_ONE_THREAD}) for src in srcs]
    try:
        found = []
        for proc, src in zip(procs, srcs):
            stdout, stderr = proc.communicate(timeout=3600)
            if proc.returncode != 0:
                raise SystemExit(f"the battery failed on {src}:\n{stderr}")
            found.append(json.loads(stdout))
        return found
    finally:
        for proc in procs:
            proc.kill()  # a no-op on a child that has exited
            proc.wait()


def _report(lines: list[str], leaves: int) -> int:
    for line in lines:
        print(line)
    print(f"{leaves} leaves compared; " + (f"differences: {len(lines)}" if lines
                                          else "all identical"))
    return 1 if lines else 0


def main(argv: list[str]) -> int:
    small = "--small" in argv
    argv = [a for a in argv if a != "--small"]
    if len(argv) == 2 and argv[0] == "--emit":
        src = str(Path(argv[1]).resolve())
        sys.path.insert(0, src)
        import rcc

        if not Path(rcc.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"rcc was imported from {rcc.__file__}, not from {src}")
        json.dump({"versions": versions(), "leaves": battery(src, small)}, sys.stdout)
        return 0
    if len(argv) == 3 and argv[1] == "--write":
        [found] = _run_children([str(Path(argv[0]).resolve())], small)
        stored = {"battery": "small" if small else "full", **found}
        Path(argv[2]).write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n")
        return 0
    if len(argv) == 3 and argv[1] == "--against":
        stored = json.loads(Path(argv[2]).read_text())
        # the battery's child runs this interpreter, so its versions are these
        lines = mismatches(stored["versions"], versions())
        if lines:
            return _report(lines, 0)
        [found] = _run_children([str(Path(argv[0]).resolve())], stored["battery"] == "small")
        return _report(compare(stored["leaves"], found["leaves"]), len(stored["leaves"]))
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (found["leaves"]
                for found in _run_children([str(Path(a).resolve()) for a in argv], small))
    return _report(compare(old, new), len(old))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
