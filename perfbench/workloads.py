"""The four benchmark workloads.

Each workload makes its inputs from a seed with numpy alone (the program
under test only ever receives the generated inputs), builds the program's
one-time state, runs one operation, and checks that operation's output
against a value the benchmark computes independently of the code under
test. `rcc` is imported inside `build`, never at module import, so the
set-up probe can time `import rcc` in a fresh process.

A check returns None when the output is right and a reason otherwise. A
reason starting with TAIL_DEFECT marks the one known fault: the type-II
Clopper-Pearson endpoint of the 20- and 30-bit plan-sized records, whose
binomial tail exceeds its confidence share (the bisection endpoint defect).
It is counted as a failed operation; any other failure is unexpected.

The checks use no scipy, so that the benchmark process loads no more of it
than the program does and `peak_rss_mb` stays the program's.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

PROTOCOLS = ("hypothesis_test", "witness", "dephase")
DELTA = 0.05
ETA = 0.25
TEST_CALIBRATION = 0.5
N_SAMPLES = 2000
TAIL_DEFECT = "known endpoint defect"
# (plan_bits, endpoint) of the records that hit the known defect on the seed
KNOWN_DEFECT = {(20, "beta_upper"), (30, "beta_upper")}
TAIL_RTOL = 1e-5
EXACT_TOL = 1e-9
PLAN_BITS = (10, 20, 25, 30)
# simulated record sets per plan-sized record in the certify pool; with more
# than one, the median latency falls inside the slower simulated group
# instead of on the edge between the two groups
SIM_PER_PLAN = 3
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BOOT = HERE / "cli_boot.py"
# d=256 state files the cli workload computes on, one command each per cycle:
# with three, the cli tail (the 11th slowest of 52 operations) falls among
# these io-heavy commands instead of on the noisy edge between them and
# the half-second ones
BIG_STATES = 3


def code_space(n_qubits: int) -> np.ndarray:
    """Basis indices of the +1 eigenspace of Z Z I...I (first qubit most
    significant), i.e. bitstrings whose first two bits agree."""
    i = np.arange(2**n_qubits)
    return np.flatnonzero(((i >> (n_qubits - 1)) & 1) == ((i >> (n_qubits - 2)) & 1))


def weight_sector(n_qubits: int, weight: int) -> np.ndarray:
    """Basis indices of the fixed-Hamming-weight sector."""
    return np.array([i for i in range(2**n_qubits) if bin(i).count("1") == weight])


def ginibre_state(rng: np.random.Generator, dim: int, support: np.ndarray) -> np.ndarray:
    """Full-rank Ginibre state on the given basis indices, exactly Hermitian."""
    k = support.size
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    s = g @ g.conj().T
    m = np.zeros((dim, dim), dtype=complex)
    m[np.ix_(support, support)] = s / np.trace(s).real
    return 0.5 * (m + m.conj().T)


def entropy_bits(matrix: np.ndarray) -> float:
    w = np.linalg.eigvalsh(matrix)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def expected_rcc(matrix: np.ndarray, d_r: int, gamma: int) -> float:
    """(log2 d_R - S)/log2 Gamma_R with S from the benchmark's own eigensolve."""
    return max(0.0, (math.log2(d_r) - entropy_bits(matrix)) / math.log2(gamma))


class Workload:
    """One operation, repeated in a closed loop by a single client."""

    name = ""
    # None: run whole cycles until the time is up. A number: run the cycles
    # that fill the time at this nominal cycle time, so a run always has the
    # same sample count (and so the same tail percentile)
    cycle_seconds: float | None = None
    # the speed.py kernel whose drift resembles the operation's
    probe = "blas"

    def generate(self, seed: int, smoke: bool) -> dict:
        raise NotImplementedError

    def write(self, inputs: dict, work: Path) -> None:
        """Write inputs that the program reads from files (none by default)."""

    def build(self, inputs: dict, work: Path):
        """The program's one-time work before the first operation."""
        raise NotImplementedError

    def expect(self, ctx) -> None:
        """Reference values for the output checks that need the program."""

    def warmup(self, ctx) -> None:
        self.run(ctx, 0)

    def states(self, ctx) -> list:
        """State matrices shared by every operation (for the tracer)."""
        return []

    def pool_size(self, ctx) -> int:
        return 1

    def items_per_op(self, ctx) -> int:
        """Units of work one operation completes, for ops_per_s."""
        return 1

    def run(self, ctx, k: int):
        raise NotImplementedError

    def check(self, ctx, k: int, out) -> str | None:
        raise NotImplementedError

    def finish(self, ctx) -> list[str]:
        """Checks after the timed loop; each reason fails one operation."""
        return []


class Exact(Workload):
    """validate_density then the exact pipeline at d=256, d_R=128, Gamma_R=16."""

    name = "exact"

    def generate(self, seed, smoke):
        n_qubits, units, pool = (4, 4, 2) if smoke else (8, 8, 4)
        rng = np.random.default_rng([seed, 1])
        dim = 2**n_qubits
        support = code_space(n_qubits)
        states = [ginibre_state(rng, dim, support) for _ in range(pool)]
        gamma = 2 * units
        return {
            "n_qubits": n_qubits,
            "generators": ["ZZ" + "I" * (n_qubits - 2)],
            "g": 2,
            "units": units,
            "states": states,
            "expected": [expected_rcc(m, support.size, gamma) for m in states],
        }

    def build(self, inputs, work):
        import rcc

        ref = rcc.stabilizer_reference(
            inputs["n_qubits"], inputs["generators"], inputs["g"], inputs["units"]
        )
        return {"rcc": rcc, "ref": ref, **inputs}

    def pool_size(self, ctx):
        return len(ctx["states"])

    def run(self, ctx, k):
        rcc = ctx["rcc"]
        rho = rcc.validate_density(ctx["states"][k % len(ctx["states"])])
        return rcc.pipeline(rcc.RunConfig(state=rho, reference=ctx["ref"], protocols=("exact",)))

    def check(self, ctx, k, out):
        got = out["exact"]["rcc_structons"]
        want = ctx["expected"][k % len(ctx["expected"])]
        if not abs(got - want) <= EXACT_TOL:
            return f"rcc_structons {got!r} differs from (log2 d_R - S)/log2 Gamma_R = {want!r}"
        return None


def sector_inputs(seed: int) -> dict:
    """The coverage state: Ginibre inside the 6-qubit weight-3 sector."""
    rng = np.random.default_rng([seed, 2])
    support = weight_sector(6, 3)
    return {"n_qubits": 6, "weight": 3, "g": 2, "units": 6,
            "support": support, "state": ginibre_state(rng, 64, support)}


def build_sector(inputs: dict):
    import rcc

    ref = rcc.sector_reference(inputs["n_qubits"], inputs["weight"], inputs["g"], inputs["units"])
    return rcc, ref


class Coverage(Workload):
    """coverage_experiment over all three protocols, 50 trials per call."""

    name = "coverage"

    def generate(self, seed, smoke):
        inputs = sector_inputs(seed)
        inputs["trials"] = 2 if smoke else 50
        inputs["master"] = int(np.random.default_rng([seed, 3]).integers(2**31))
        return inputs

    def build(self, inputs, work):
        rcc, ref = build_sector(inputs)
        rho = rcc.validate_density(inputs["state"])
        return {"rcc": rcc, "ref": ref, "rho": rho, "first": None, **inputs}

    def items_per_op(self, ctx):
        return len(PROTOCOLS) * ctx["trials"]

    def states(self, ctx):
        return [ctx["rho"].matrix]

    def run(self, ctx, k):
        rcc = ctx["rcc"]
        config = rcc.RunConfig(
            state=ctx["rho"], reference=ctx["ref"], protocols=PROTOCOLS,
            delta=DELTA, eta=ETA, n_samples=N_SAMPLES, seed=ctx["master"] + k,
        )
        return rcc.coverage_experiment(config, ctx["trials"])

    def check(self, ctx, k, out):
        trials = ctx["trials"]
        if out.get("schema") != "rcc-coverage/1" or out.get("trials") != trials:
            return "coverage summary has the wrong schema or trial count"
        if out.get("seed") != ctx["master"] + k or sorted(out["protocols"]) != sorted(PROTOCOLS):
            return "coverage summary has the wrong seed or protocols"
        for proto, row in out["protocols"].items():
            v = row["violations"]
            if row["trials"] != trials or not 0 <= v <= trials:
                return f"{proto}: wrong trial or violation count"
            if row["invalid_runs"] != 0:
                return f"{proto}: {row['invalid_runs']} invalid runs"
            if row["violation_fraction"] != v / trials or not row["true_value_bits"] >= 0.0:
                return f"{proto}: inconsistent violation fraction or target"
        if k == 0:
            ctx["first"] = json.dumps(out, sort_keys=True)
        return None

    def finish(self, ctx):
        if ctx["first"] is None:
            return []
        again = json.dumps(self.run(ctx, 0), sort_keys=True)
        return [] if again == ctx["first"] else ["re-running the first seed changed the summary"]


def sample_records(rng: np.random.Generator, state: np.ndarray, support: np.ndarray) -> dict:
    """n=2000 records for the three protocols, drawn from the exact outcome
    probabilities of the state (not from the program's simulator)."""
    d_r = support.size
    n = N_SAMPLES
    diag = np.clip(np.diagonal(state).real[support], 0.0, None)
    dephase = rng.multinomial(n, diag / diag.sum())
    w = np.sort(np.clip(np.linalg.eigvalsh(state[np.ix_(support, support)]), 0.0, None))[::-1]
    success = int(rng.binomial(n, w[0]))
    # waterfilling test at eta * calibration: null acceptance is exactly its
    # type-I level, the alternative accepts the top eigenvalues it covers
    eta_test = ETA * TEST_CALIBRATION
    budget = eta_test * d_r
    top = int(math.floor(budget))
    accepted = float(w[:top].sum()) + (budget - top) * float(w[top])
    null_h1 = int(rng.binomial(n, eta_test))
    alt_h1 = int(rng.binomial(n, min(1.0, accepted)))
    return {
        "hypothesis_test": {
            "protocol": "hypothesis_test", "n": 2 * n,
            "counts": {"null_accept_h1": null_h1, "null_accept_h0": n - null_h1,
                       "alt_accept_h1": alt_h1, "alt_accept_h0": n - alt_h1},
            "meta": {"eta": ETA, "eta_test": eta_test},
        },
        "witness": {
            "protocol": "witness", "n": n,
            "counts": {"success": success, "failure": n - success}, "meta": {"rank": 1},
        },
        "dephase": {
            "protocol": "dephase", "n": n,
            "counts": {str(i): int(c) for i, c in enumerate(dephase)}, "meta": {},
        },
    }


def plan_record(null_counts: dict, bits: int) -> dict:
    """Zero type-II failures at the hypothesis-test planner's size
    ceil(2^L ln(1/delta)), with the null calibration of a simulated run."""
    n_alt = math.ceil(2.0**bits * math.log(1.0 / DELTA) - 1e-9)
    counts = {"null_accept_h1": null_counts["null_accept_h1"],
              "null_accept_h0": null_counts["null_accept_h0"],
              "alt_accept_h1": n_alt, "alt_accept_h0": 0}
    return {"protocol": "hypothesis_test", "n": sum(counts.values()), "counts": counts,
            "meta": {"eta": ETA, "plan_bits": bits}}


@functools.lru_cache(maxsize=4096)
def binom_tail(lower: bool, k: int, n: int, p: float) -> float:
    """P(X >= k) if lower else P(X <= k), for X ~ Binomial(n, p).

    The terms of the tail are summed from its far end (0, or n) in log
    space, each from the one before by the ratio of binomial coefficients,
    so the sum is accurate to about 1e-9 relative even for the plan-sized
    records (n up to 3e9 with k = 0). Cached: the certify pool is fixed, so
    every cycle reports the same endpoints.
    """
    if p <= 0.0 or p >= 1.0:
        terms = range(k, n + 1) if lower else range(0, k + 1)
        return 1.0 if (0 if p <= 0.0 else n) in terms else 0.0
    lp, lq = math.log(p), math.log1p(-p)
    if lower:
        logs = [n * lp]
        for i in range(n, k, -1):
            logs.append(logs[-1] + math.log(i / (n - i + 1)) + lq - lp)
    else:
        logs = [n * lq]
        for i in range(1, k + 1):
            logs.append(logs[-1] + math.log((n - i + 1) / i) + lp - lq)
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(x - top) for x in logs)


def binom_tail_excess(lower: bool, k: int, n: int, p: float, share: float) -> float:
    """Relative excess of the binomial tail at an endpoint over its delta share."""
    return binom_tail(lower, k, n, p) / share - 1.0


class Certify(Workload):
    """Records-only pipeline over a fixed pool: simulated record sets
    interleaved with zero-failure records at the planner's sizes."""

    name = "certify"
    probe = "python"

    def generate(self, seed, smoke):
        sector = sector_inputs(seed)
        rng = np.random.default_rng([seed, 4])
        pool = []
        for bits in PLAN_BITS:
            sims = [sample_records(rng, sector["state"], sector["support"])
                    for _ in range(SIM_PER_PLAN)]
            pool += sims
            pool.append({"hypothesis_test": plan_record(sims[0]["hypothesis_test"]["counts"], bits)})
        return {**{k: sector[k] for k in ("n_qubits", "weight", "g", "units")}, "pool": pool}

    def build(self, inputs, work):
        rcc, ref = build_sector(inputs)
        pool = [{p: rcc.MeasurementRecord(r["protocol"], r["n"], r["counts"], r["meta"])
                 for p, r in entry.items()} for entry in inputs["pool"]]
        return {"rcc": rcc, "ref": ref, "pool": pool, "raw": inputs["pool"]}

    def pool_size(self, ctx):
        return len(ctx["pool"])

    def run(self, ctx, k):
        rcc = ctx["rcc"]
        records = ctx["pool"][k % len(ctx["pool"])]
        return rcc.pipeline(rcc.RunConfig(
            state=None, reference=ctx["ref"], protocols=tuple(records), records=records,
            delta=DELTA, eta=ETA,
        ))

    def check(self, ctx, k, out):
        raw = ctx["raw"][k % len(ctx["raw"])]
        bounds = out.get("certified_bounds", [])
        if [b["protocol"] for b in bounds] != list(raw) or "combined" not in out:
            return "report lacks a certified bound per record or the combination"
        for b in bounds:
            rec, p = raw[b["protocol"]], b["params"]
            if b["protocol"] == "hypothesis_test":
                c = rec["counts"]
                split = p["delta_split"]
                endpoints = [
                    ("alpha_upper", False, c["null_accept_h1"],
                     c["null_accept_h1"] + c["null_accept_h0"], DELTA * split),
                    ("beta_upper", False, c["alt_accept_h0"],
                     c["alt_accept_h1"] + c["alt_accept_h0"], DELTA * (1.0 - split)),
                ]
            elif b["protocol"] == "witness":
                endpoints = [("p_lower", True, rec["counts"]["success"], rec["n"], DELTA)]
            else:
                endpoints = []
            for key, lower, count, n, share in endpoints:
                excess = binom_tail_excess(lower, count, n, p[key], share)
                if excess > TAIL_RTOL:
                    known = (rec["meta"].get("plan_bits"), key) in KNOWN_DEFECT
                    return (f"{TAIL_DEFECT if known else 'endpoint tail'}: {b['protocol']} "
                            f"{key} at n={n} exceeds its delta share by a relative {excess:.3g}")
        return None


def state_payload(matrix: np.ndarray) -> dict:
    return {"dim": int(matrix.shape[0]), "re": matrix.real.tolist(), "im": matrix.imag.tolist()}


def stabilizer_config(n_qubits: int, units: int) -> dict:
    return {"type": "stabilizer", "g": 2, "addressable_units": units, "n_qubits": n_qubits,
            "generators": ["ZZ" + "I" * (n_qubits - 2)]}


def windows_config(dim: int) -> dict:
    """Nested family: singletons, then pairs, then the whole space."""
    return {"windows": [
        {"xi": 0.0, "blocks": [[i] for i in range(dim)]},
        {"xi": 1.0, "blocks": [[i, i + 1] for i in range(0, dim, 2)]},
        {"xi": 2.0, "blocks": [list(range(dim))]},
    ]}


def trace_csv(rng: np.random.Generator, rows: int = 64) -> str:
    t = np.arange(rows, dtype=float)
    pi = 0.5 + 0.1 * rng.random(rows)
    temp = 2.0 + rng.random(rows)
    c = np.cumsum(rng.random(rows))
    lines = ["t,Pi,T,C"] + [",".join(repr(float(v)) for v in row) for row in zip(t, pi, temp, c)]
    return "\n".join(lines) + "\n"


def child_env() -> dict:
    """Environment of a child process: the source tree on the path; the BLAS
    thread variables are inherited from the benchmark, which pins them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


class Cli(Workload):
    """One `python -m rcc.cli` child per operation, cycling a fixed list."""

    name = "cli"
    # thirteen children of about half a second each on a 2-core x86 VM
    cycle_seconds = 5.0

    def generate(self, seed, smoke):
        rng = np.random.default_rng([seed, 5])
        small = ginibre_state(rng, 16, code_space(4))
        big = [] if smoke else [ginibre_state(rng, 256, code_space(8)) for _ in range(BIG_STATES)]
        return {"small": small, "big": big, "smoke": smoke,
                "trace": trace_csv(rng), "sim_seed": int(rng.integers(2**31))}

    def write(self, inputs, work):
        files = {
            "state16.json": state_payload(inputs["small"]),
            "ref16.json": stabilizer_config(4, 4),
            "ref256.json": stabilizer_config(8, 8),
            "windows16.json": windows_config(16),
        }
        for i, matrix in enumerate(inputs["big"]):
            files[f"state256_{i}.json"] = state_payload(matrix)
        for name, payload in files.items():
            (work / name).write_text(json.dumps(payload), encoding="utf-8")
        (work / "trace.csv").write_text(inputs["trace"], encoding="utf-8")

    def commands(self, inputs, work):
        w = str(work)
        s16, r16 = f"{w}/state16.json", f"{w}/ref16.json"
        seed = str(inputs["sim_seed"])
        cmds = [("compute", ["compute", "--state", s16, "--reference", r16])]
        for i in range(len(inputs["big"])):
            cmds.append(("compute", ["compute", "--state", f"{w}/state256_{i}.json",
                                     "--reference", f"{w}/ref256.json"]))
        sims = []
        for proto in PROTOCOLS:
            out = f"{w}/record_{proto}.json"
            sims.append(out)
            cmds.append(("simulate", ["simulate", "--state", s16, "--reference", r16,
                                      "--protocol", proto, "--n", str(N_SAMPLES),
                                      "--seed", seed, "--out", out]))
        cmds.append(("certify", ["certify", "--reference", r16]
                     + [a for s in sims for a in ("--record", s)]))
        cmds += [
            ("plan", ["plan", "--protocol", "hypothesis_test", "--target-bits", "20"]),
            ("plan", ["plan", "--protocol", "witness", "--target-bits", "1", "--p0", "0.5",
                      "--dr", "8"]),
            ("sweep", ["sweep", "--state", s16, "--reference", r16,
                       "--windows", f"{w}/windows16.json"]),
            ("rect", ["rect", "--sigma-avail", "2", "--delta-t", "3", "--c-opt", "1",
                      "--s-e", "1.5", "--gamma-j", "1"]),
            ("thermo", ["thermo", "--trace", f"{w}/trace.csv", "--gamma-r", "8"]),
        ]
        if inputs["smoke"]:
            cmds = [c for c in cmds if c[0] in ("compute", "plan", "rect")]
        return cmds

    def build(self, inputs, work):
        import rcc.cli
        from rcc import io

        refs = {name: io.load_reference(work / name) for name in ("ref16.json", "ref256.json")}
        return {"rcc": rcc, "work": work, "refs": refs,
                "commands": self.commands(inputs, work), "traced": False,
                "child_info": [], "tracer": None, "max_rss_kb": 0}

    def warmup(self, ctx):
        """One command in-process: the program's first-use cost without a child."""
        _, args = ctx["commands"][0]
        ctx["rcc"].cli.main(args + ["--out", str(ctx["work"] / "warmup.json")],
                            prog_name="rcc", standalone_mode=False)

    def expect(self, ctx):
        """Library value of every compute command, for the output check."""
        rcc, io = ctx["rcc"], ctx["rcc"].io
        ctx["expected"] = {}
        for _, args in ctx["commands"]:
            if args[0] == "compute":
                state, ref = args[2], args[4]
                report = rcc.pipeline(rcc.RunConfig(
                    state=io.load_state(state), reference=io.load_reference(ref)))
                ctx["expected"][state] = report["exact"]["rcc_structons"]

    def pool_size(self, ctx):
        return len(ctx["commands"])

    def run(self, ctx, k):
        work = ctx["work"]
        _, args = ctx["commands"][k % len(ctx["commands"])]
        if ctx["traced"]:
            spans = work / f"spans_{k}.json"
            argv = [sys.executable, str(BOOT), str(spans)] + args
        else:
            argv = [sys.executable, "-m", "rcc.cli"] + args
        out_path, err_path = work / "stdout.txt", work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    env=child_env(), cwd=str(ROOT))
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        ctx["max_rss_kb"] = max(ctx["max_rss_kb"], usage.ru_maxrss)
        if ctx["traced"]:
            with open(spans, encoding="utf-8") as fh:
                payload = json.load(fh)
            spans.unlink()
            ctx["child_info"].append(payload.pop("boot"))
            ctx["tracer"].merge(payload, ctx["tracer"].current_op)
        return proc.returncode, out_path.read_text(encoding="utf-8"), err_path

    def check(self, ctx, k, out):
        code, text, err_path = out
        kind, args = ctx["commands"][k % len(ctx["commands"])]
        if code != 0:
            tail = err_path.read_text(encoding="utf-8").strip().splitlines()[-1:]
            return f"{kind} exited with {code}: {' '.join(tail)}"
        if kind == "sweep":
            rows = text.strip().splitlines()
            if rows[0] != "xi,S_bits,C_structons" or len(rows) != 4:
                return "sweep CSV has the wrong header or row count"
            return None
        if kind == "simulate":
            text = Path(args[-1]).read_text(encoding="utf-8")
        try:
            payload = json.loads(text)
        except ValueError:
            return f"{kind} output is not JSON"
        if kind == "compute":
            got = payload["exact"]["rcc_structons"]
            want = ctx["expected"][args[2]]
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
                return f"compute gave {got!r}, the library gives {want!r}"
        elif kind == "simulate":
            if payload["protocol"] != args[args.index("--protocol") + 1] or \
                    sum(payload["counts"].values()) != payload["n"]:
                return "simulated record has the wrong protocol or counts"
        elif kind == "certify":
            if len(payload.get("certified_bounds", [])) != len(PROTOCOLS) or \
                    "combined" not in payload:
                return "certify report lacks a bound per record or the combination"
        elif kind == "plan":
            if not isinstance(payload.get("n"), int) or payload["n"] < 1:
                return "plan gave no positive sample size"
        elif kind == "rect":
            if not {"eta_qsl", "eta_lr", "identity_residual"} <= set(payload):
                return "rect output lacks the efficiency factors"
        elif kind == "thermo":
            if not {"w_info", "time_bound"} <= set(payload):
                return "thermo output lacks the work or the time bound"
        return None


WORKLOADS = {w.name: w for w in (Exact(), Coverage(), Certify(), Cli())}
