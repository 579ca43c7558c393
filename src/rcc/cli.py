"""Command-line surface: batch analysis over state and reference files.

Exit codes: 0 success, 2 config error, 3 protocol cannot certify at the
requested level, 4 numerical or validation failure.
"""

from __future__ import annotations

import functools
import sys

import click
import numpy as np

from . import io
from .bounds import METHODS, BoundConstants
from .errors import ConfigError, ProtocolInvalidError, RccError
from .harness import (
    _UNITS,
    RunConfig,
    coverage_experiment,
    pipeline,
    simulate_record,
    stream,
    sweep_windows,
)
from .records import PROTOCOLS
from .windows import (
    TIME_BOUND_VARIANTS,
    info_work,
    process_time_bound,
    rect_efficiency,
    rect_identity_check,
    rect_performance_check,
)

EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_NUMERICAL = 4


def _guarded(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except ProtocolInvalidError as exc:
            click.echo(f"protocol invalid: {exc}", err=True)
            sys.exit(EXIT_PROTOCOL)
        except RccError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)

    return wrapper


def _emit(payload: dict, out: str | None) -> None:
    text = io.dumps_json(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _load_constants(path: str | None) -> BoundConstants:
    if path is None:
        return BoundConstants()
    cfg = io._read_json(path)
    try:
        return BoundConstants(
            c1=float(cfg.get("c1", 1.0)),
            c1_prime=float(cfg.get("c1_prime", 1.0)),
            c2_prime=float(cfg.get("c2_prime", 1.0)),
        )
    except RccError:
        raise
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _thermo_constants(path: str | None) -> tuple[float, float]:
    if path is None:
        return 1.0, 1.0
    cfg = io._read_json(path)
    try:
        return float(cfg.get("hbar", 1.0)), float(cfg.get("k_b", 1.0))
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc


state_opt = click.option("--state", "state_path", type=click.Path(), help="State file (JSON).")
reference_opt = click.option(
    "--reference", "reference_path", type=click.Path(), required=True,
    help="Reference config (JSON).",
)
delta_opt = click.option("--delta", type=float, default=0.05, show_default=True)
eta_opt = click.option("--eta", type=float, default=0.25, show_default=True)
epsilon_opt = click.option("--epsilon", type=float, default=0.01, show_default=True)
constants_opt = click.option(
    "--constants", "constants_path", type=click.Path(),
    help="JSON with c1, c1_prime, c2_prime (and hbar, k_b for thermo).",
)
seed_opt = click.option("--seed", type=int, default=0, show_default=True)
out_opt = click.option("--out", type=click.Path(), help="Write output here instead of stdout.")
unit_opt = click.option(
    "--unit", type=click.Choice(_UNITS), default="structons",
    show_default=True,
)
method_opt = click.option(
    "--method", type=click.Choice(METHODS), default="lambert", show_default=True,
)


@click.group()
@click.version_option(package_name="rcc")
def main() -> None:
    """Certified lower bounds on circuit complexity from states or data."""


@main.command()
@state_opt
@reference_opt
@epsilon_opt
@constants_opt
@method_opt
@unit_opt
@out_opt
@_guarded
def compute(state_path, reference_path, epsilon, constants_path, method, unit, out):
    """Exact-state complexity and the circuit lower bound."""
    if state_path is None:
        raise ConfigError("--state is required for compute")
    config = RunConfig(
        state=io.load_state(state_path),
        reference=io.load_reference(reference_path),
        protocols=("exact",),
        epsilon=epsilon,
        constants=_load_constants(constants_path),
        method=method,
        unit=unit,
        echo={"state_path": state_path, "reference_path": reference_path},
    )
    _emit(pipeline(config), out)


@main.command()
@reference_opt
@state_opt
@click.option(
    "--record", "record_paths", type=click.Path(), multiple=True, required=True,
    help="Measurement record (JSON); repeatable.",
)
@delta_opt
@eta_opt
@epsilon_opt
@constants_opt
@click.option("--witness-rank", type=int, default=1, show_default=True)
@method_opt
@unit_opt
@out_opt
@_guarded
def certify(reference_path, state_path, record_paths, delta, eta, epsilon,
            constants_path, witness_rank, method, unit, out):
    """Certified bounds from measurement records, combined across paths."""
    records = {}
    for path in record_paths:
        rec = io.load_record(path)
        if rec.protocol in records:
            raise ConfigError(f"duplicate record for protocol {rec.protocol!r}")
        records[rec.protocol] = rec
    config = RunConfig(
        state=io.load_state(state_path) if state_path else None,
        reference=io.load_reference(reference_path),
        protocols=tuple(records),
        records=records,
        delta=delta,
        eta=eta,
        epsilon=epsilon,
        constants=_load_constants(constants_path),
        witness_rank=witness_rank,
        method=method,
        unit=unit,
        echo={
            "state_path": state_path,
            "reference_path": reference_path,
            "record_paths": list(record_paths),
        },
    )
    _emit(pipeline(config), out)


@main.command()
@state_opt
@reference_opt
@click.option("--protocol", type=click.Choice(PROTOCOLS), required=True)
@click.option("--n", "n_samples", type=int, default=2000, show_default=True)
@seed_opt
@eta_opt
@click.option("--test-calibration", type=float, default=0.5, show_default=True,
              help="Fraction of eta at which the simulated test is calibrated.")
@click.option("--witness-rank", type=int, default=1, show_default=True)
@click.option("--witness", "witness_path", type=click.Path(),
              help="Witness projector matrix (state-file layout).")
@out_opt
@_guarded
def simulate(state_path, reference_path, protocol, n_samples, seed, eta,
             test_calibration, witness_rank, witness_path, out):
    """Draw Born-rule samples and emit a measurement record."""
    if state_path is None:
        raise ConfigError("--state is required for simulate")
    if witness_path is not None and protocol != "witness":
        raise ConfigError("--witness applies only to --protocol witness")
    rho = io.load_state(state_path)
    ref = io.load_reference(reference_path)
    projector = None
    if witness_path is not None:
        payload = io._read_json(witness_path)
        projector = io._matrix_from_payload(payload, witness_path)
    record = simulate_record(
        rho, ref, protocol, n_samples, seed=seed, eta=eta,
        test_calibration=test_calibration, witness_rank=witness_rank,
        witness_projector=projector, rng=stream(seed),
    )
    _emit(io.record_to_payload(record), out)


@main.command()
@click.option("--protocol", type=click.Choice(["hypothesis_test", "witness"]),
              required=True)
@click.option("--target-bits", type=float, required=True,
              help="Divergence level L (bits) the run should certify.")
@delta_opt
@click.option("--p0", type=float, help="Anticipated occupation probability (witness).")
@click.option("--rank", type=int, default=1, show_default=True)
@click.option("--dr", "d_r", type=int, help="Reference subspace dimension (witness).")
@out_opt
@_guarded
def plan(protocol, target_bits, delta, p0, rank, d_r, out):
    """Sample-size planners for the certification protocols."""
    from .stats import ht_sample_plan, witness_sample_plan

    if protocol == "hypothesis_test":
        n = ht_sample_plan(target_bits, delta)
    else:
        if p0 is None or d_r is None:
            raise ConfigError("witness planning needs --p0 and --dr")
        n = witness_sample_plan(p0, target_bits, rank, d_r, delta)
    _emit({"protocol": protocol, "target_bits": target_bits, "delta": delta, "n": n}, out)


@main.command()
@state_opt
@reference_opt
@click.option(
    "--protocol", "protocols", multiple=True,
    type=click.Choice([*PROTOCOLS, "all"]),
    default=("all",), show_default=True,
)
@click.option("--trials", type=int, default=500, show_default=True)
@click.option("--n", "n_samples", type=int, default=2000, show_default=True)
@delta_opt
@eta_opt
@click.option("--test-calibration", type=float, default=0.5, show_default=True)
@click.option("--witness-rank", type=int, default=1, show_default=True)
@seed_opt
@out_opt
@_guarded
def coverage(state_path, reference_path, protocols, trials, n_samples, delta, eta,
             test_calibration, witness_rank, seed, out):
    """Monte Carlo check that certified bounds violate their targets at
    most a delta fraction of the time."""
    if state_path is None:
        raise ConfigError("--state is required for coverage")
    if "all" in protocols:
        protocols = PROTOCOLS
    config = RunConfig(
        state=io.load_state(state_path),
        reference=io.load_reference(reference_path),
        protocols=tuple(protocols),
        delta=delta,
        eta=eta,
        seed=seed,
        n_samples=n_samples,
        test_calibration=test_calibration,
        witness_rank=witness_rank,
        echo={"state_path": state_path, "reference_path": reference_path},
    )
    _emit(coverage_experiment(config, trials), out)


@main.command()
@state_opt
@reference_opt
@click.option("--windows", "windows_path", type=click.Path(), required=True,
              help="Window family (JSON).")
@out_opt
@_guarded
def sweep(state_path, reference_path, windows_path, out):
    """Windowed entropy and complexity along a nested window family (CSV)."""
    if state_path is None:
        raise ConfigError("--state is required for sweep")
    rho = io.load_state(state_path)
    ref = io.load_reference(reference_path)
    family = io.load_window_family(windows_path)
    rows = sweep_windows(rho, ref, family)
    if out:
        io.dump_sweep_csv(rows, out)
    else:
        click.echo("xi,S_bits,C_structons")
        for xi, s_bits, c_st in rows:
            click.echo(f"{xi!r},{s_bits!r},{c_st!r}")


@main.command()
@click.option("--sigma-avail", type=float, required=True,
              help="Available energy fluctuation scale.")
@click.option("--delta-t", type=float, required=True, help="Process duration.")
@click.option("--c-opt", type=float, required=True, help="Instruction-step count.")
@click.option("--s-e", type=float, required=True, help="Entanglement output.")
@click.option("--gamma-j", type=float, required=True,
              help="Locality constant times coupling scale.")
@click.option("--hbar", type=float, default=1.0, show_default=True)
@click.option("--c-r", type=float, help="Complexity value for the performance check.")
@click.option("--j", type=float, help="Characteristic energy scale for the "
              "dimensionless margin.")
@out_opt
@_guarded
def rect(sigma_avail, delta_t, c_opt, s_e, gamma_j, hbar, c_r, j, out):
    """Efficiency factors, the accounting identity, and performance margins."""
    eff = rect_efficiency(sigma_avail, delta_t, c_opt, s_e, gamma_j, hbar=hbar)
    residual = rect_identity_check(sigma_avail, s_e, eff.eta_qsl, eff.eta_lr,
                                   gamma_j, c_opt)
    payload = {
        "eta_qsl": eff.eta_qsl,
        "eta_lr": eff.eta_lr,
        "qsl_satisfied": eff.qsl_satisfied,
        "lr_satisfied": eff.lr_satisfied,
        "identity_residual": residual,
        "inputs": {
            "sigma_avail": sigma_avail, "delta_t": delta_t, "c_opt": c_opt,
            "s_e": s_e, "gamma_j": gamma_j, "hbar": hbar,
        },
    }
    if c_r is not None:
        if j is None:
            raise ConfigError("--c-r needs --j for the dimensionless margin")
        perf = rect_performance_check(sigma_avail, s_e, eff.eta_qsl, eff.eta_lr,
                                      gamma_j, j, c_r)
        payload["performance"] = {
            "margin": perf.margin,
            "margin_dimensionless": perf.margin_dimensionless,
            "passed": perf.passed,
        }
    _emit(payload, out)


@main.command()
@click.option("--trace", "trace_path", type=click.Path(), required=True,
              help="Process trace CSV with columns t, Pi, T, C.")
@click.option("--gamma-r", type=float, required=True, help="Instruction alphabet size.")
@click.option(
    "--variant", type=click.Choice(TIME_BOUND_VARIANTS), default="envelope",
    show_default=True,
)
@click.option("--delta-c", type=float, help="Complexity change; defaults to the "
              "trace's net change.")
@click.option("--pi-avg", type=float, help="Average work potential; defaults to the "
              "trace's time average.")
@click.option("--temperature", type=float, help="Temperature for the isothermal variant.")
@click.option("--log-correction", type=float, default=0.0, show_default=True)
@constants_opt
@out_opt
@_guarded
def thermo(trace_path, gamma_r, variant, delta_c, pi_avg, temperature,
           log_correction, constants_path, out):
    """Work accounting and complexity-driven lower bounds on process time."""
    hbar, k_b = _thermo_constants(constants_path)
    trace = io.load_trace_csv(trace_path)
    work, t_avg = info_work(trace, gamma_r)
    if delta_c is None:
        delta_c = float(trace.complexities[-1] - trace.complexities[0])
    if pi_avg is None and variant not in ("isothermal", "sign_robust"):
        span = float(trace.times[-1] - trace.times[0])
        pi_avg = float(np.trapezoid(trace.potentials, trace.times) / span)
    bound = process_time_bound(
        delta_c, pi_avg, variant, log_correction=log_correction,
        temperature=temperature, trace=trace, hbar=hbar, k_b=k_b,
    )
    _emit({
        "w_info": work,
        "t_avg_weighted": t_avg,
        "delta_c": delta_c,
        "time_bound": {
            "value": bound.value,
            "variant": bound.variant,
            "approximate": bound.approximate,
        },
        "inputs": {"gamma_r": gamma_r, "hbar": hbar, "k_b": k_b,
                   "trace_path": trace_path},
    }, out)


if __name__ == "__main__":
    main()
