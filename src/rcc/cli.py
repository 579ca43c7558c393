"""Command-line surface: batch analysis over state and reference files.

Exit codes: 0 success, 2 config error, 3 protocol cannot certify at the
requested level, 4 numerical or validation failure.
"""

from __future__ import annotations

import sys
from dataclasses import asdict

import click
from click.core import ParameterSource

from . import io
from .bounds import DEFAULT_CONSTANTS, BoundConstants
from .errors import ConfigError, ProtocolInvalidError, RccError
from .harness import (
    RunConfig,
    coverage_experiment,
    pipeline,
    simulate_record,
    sweep_windows,
)
from .records import PROTOCOLS
from .windows import (
    _VARIANT_INPUTS,
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


class _Group(click.Group):
    """The command group: an RccError from any command is one stderr line
    and its exit code, so no command handles its own."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except ProtocolInvalidError as exc:
            click.echo(f"protocol invalid: {exc}", err=True)
            sys.exit(EXIT_PROTOCOL)
        except RccError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)


def _emit(text: str, out: str | None) -> None:
    """Write a command's output to the file out, or to stdout: the same bytes."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _constants(path: str | None, **defaults: float) -> dict[str, float]:
    """The constants file's value of each key of defaults, or its default.
    A value that is not a JSON number (a bool, a string or null), or an
    integer past the float range, is a ConfigError naming its key; NaN and
    inf pass, to the finiteness checks of the code that reads them."""
    if path is None:
        return defaults
    cfg = io._read_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: constants must be a JSON object")
    values = {}
    for key, default in defaults.items():
        value = cfg.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: {key!r} must be a number, got {value!r}")
        try:
            values[key] = float(value)
        except OverflowError as exc:
            raise ConfigError(f"{path}: {key!r}: {exc}") from exc
    return values


state_opt = click.option(
    "--state", "state_path", type=click.Path(), required=True,
    help="State file (JSON).",
)
reference_opt = click.option(
    "--reference", "reference_path", type=click.Path(), required=True,
    help="Reference config (JSON).",
)
delta_opt = click.option("--delta", type=float, default=RunConfig.delta, show_default=True)
eta_opt = click.option("--eta", type=float, default=RunConfig.eta, show_default=True)
epsilon_opt = click.option("--epsilon", type=float, default=RunConfig.epsilon, show_default=True)
constants_opt = click.option(
    "--constants", "constants_path", type=click.Path(),
    help="JSON with c1, c1_prime, c2_prime (and hbar, k_b for thermo).",
)
seed_opt = click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
test_calibration_opt = click.option(
    "--test-calibration", type=float, default=RunConfig.test_calibration, show_default=True,
    help="Fraction of eta, in (0, 1), at which the simulated test is calibrated.",
)
out_opt = click.option("--out", type=click.Path(), help="Write output here instead of stdout.")
witness_rank_opt = click.option("--witness-rank", type=int, default=RunConfig.witness_rank,
                                 show_default=True)


def _check_rank_flag(witness_rank: int, rank, source: str) -> None:
    """A --witness-rank given on the command line must be the rank of the
    witness it sits beside; left at its default, it yields to that rank."""
    given = click.get_current_context().get_parameter_source(
        "witness_rank") is not ParameterSource.DEFAULT
    if given and witness_rank != rank:
        raise ConfigError(f"--witness-rank {witness_rank} conflicts with the rank {rank} "
                          f"of {source}")


@click.group(cls=_Group)
@click.version_option(package_name="rcc")
def main() -> None:
    """Certified lower bounds on circuit complexity from states or data."""


@main.command()
@state_opt
@reference_opt
@epsilon_opt
@constants_opt
@out_opt
def compute(state_path, reference_path, epsilon, constants_path, out):
    """Exact-state complexity and the circuit lower bound."""
    config = RunConfig(
        state=io.load_state(state_path),
        reference=io.load_reference(reference_path),
        protocols=("exact",),
        epsilon=epsilon,
        constants=BoundConstants(**_constants(constants_path, **asdict(DEFAULT_CONSTANTS))),
    )
    report = pipeline(config)
    report["inputs"].update(state_path=state_path, reference_path=reference_path)
    _emit(io.dumps_json(report), out)


@main.command()
@reference_opt
@click.option(
    "--record", "record_paths", type=click.Path(), multiple=True, required=True,
    help="Measurement record (JSON); repeatable.",
)
@delta_opt
@eta_opt
@epsilon_opt
@constants_opt
@witness_rank_opt
@out_opt
def certify(reference_path, record_paths, delta, eta, epsilon, constants_path, witness_rank,
            out):
    """Certified bounds from measurement records, combined across paths."""
    records = {}
    for path in record_paths:
        rec = io.load_record(path)
        if rec.protocol in records:
            raise ConfigError(f"duplicate record for protocol {rec.protocol!r}")
        if rec.protocol == "witness" and "rank" in rec.meta:
            _check_rank_flag(witness_rank, rec.meta["rank"], f"the witness record {path}")
        records[rec.protocol] = rec
    config = RunConfig(
        state=None,
        reference=io.load_reference(reference_path),
        protocols=tuple(records),
        records=records,
        delta=delta,
        eta=eta,
        epsilon=epsilon,
        constants=BoundConstants(**_constants(constants_path, **asdict(DEFAULT_CONSTANTS))),
        witness_rank=witness_rank,
    )
    report = pipeline(config)
    report["inputs"].update(state_path=None, reference_path=reference_path,
                            record_paths=list(record_paths))
    _emit(io.dumps_json(report), out)


@main.command()
@state_opt
@reference_opt
@click.option("--protocol", type=click.Choice(PROTOCOLS), required=True)
@click.option("--n", "n_samples", type=int, default=RunConfig.n_samples, show_default=True)
@seed_opt
@eta_opt
@test_calibration_opt
@witness_rank_opt
@click.option("--witness", "witness_path", type=click.Path(),
              help="Witness projector matrix (state-file layout).")
@out_opt
def simulate(state_path, reference_path, protocol, n_samples, seed, eta,
             test_calibration, witness_rank, witness_path, out):
    """Draw Born-rule samples and emit a measurement record."""
    rho = io.load_state(state_path)
    ref = io.load_reference(reference_path)
    projector = io.read_matrix(witness_path) if witness_path is not None else None
    record = simulate_record(
        rho, ref, protocol, n_samples, seed=seed, eta=eta,
        test_calibration=test_calibration, witness_rank=witness_rank,
        witness_projector=projector,
    )
    if projector is not None:
        _check_rank_flag(witness_rank, record.meta["rank"], "the --witness projector")
    _emit(io.dumps_json(io.record_to_payload(record)), out)


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
def plan(protocol, target_bits, delta, p0, rank, d_r, out):
    """Sample-size planners for the certification protocols."""
    from .stats import ht_sample_plan, witness_sample_plan

    if protocol == "hypothesis_test":
        n = ht_sample_plan(target_bits, delta)
    else:
        if p0 is None or d_r is None:
            raise ConfigError("witness planning needs --p0 and --dr")
        n = witness_sample_plan(p0, target_bits, rank, d_r, delta)
    _emit(io.dumps_json({"protocol": protocol, "target_bits": target_bits, "delta": delta,
                         "n": n}), out)


@main.command()
@state_opt
@reference_opt
@click.option(
    "--protocol", "protocols", multiple=True,
    type=click.Choice([*PROTOCOLS, "all"]),
    default=("all",), show_default=True,
)
@click.option("--trials", type=int, default=500, show_default=True)
@click.option("--n", "n_samples", type=int, default=RunConfig.n_samples, show_default=True)
@delta_opt
@eta_opt
@test_calibration_opt
@witness_rank_opt
@seed_opt
@out_opt
def coverage(state_path, reference_path, protocols, trials, n_samples, delta, eta,
             test_calibration, witness_rank, seed, out):
    """Monte Carlo check that certified bounds violate their targets at
    most a delta fraction of the time."""
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
    )
    _emit(io.dumps_json(coverage_experiment(config, trials)), out)


@main.command()
@state_opt
@reference_opt
@click.option("--windows", "windows_path", type=click.Path(), required=True,
              help="Window family (JSON).")
@out_opt
def sweep(state_path, reference_path, windows_path, out):
    """Windowed entropy and complexity along a nested window family (CSV)."""
    rho = io.load_state(state_path)
    ref = io.load_reference(reference_path)
    family = io.load_window_family(windows_path)
    _emit(io.dumps_sweep_csv(sweep_windows(rho, ref, family)), out)


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
    _emit(io.dumps_json(payload), out)


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
              "trace's time average. isothermal and sign_robust take none.")
@click.option("--temperature", type=float, help="Temperature for the isothermal variant.")
@click.option("--log-correction", type=float, help="Logarithmic correction budget for the "
              "full variant; defaults to 0.")
@constants_opt
@out_opt
def thermo(trace_path, gamma_r, variant, delta_c, pi_avg, temperature,
           log_correction, constants_path, out):
    """Work accounting and complexity-driven lower bounds on process time."""
    hbar, k_b = _constants(constants_path, hbar=1.0, k_b=1.0).values()
    trace = io.load_trace_csv(trace_path)
    work, t_avg = info_work(trace, gamma_r)
    # a default that overflows is rejected by process_time_bound's checks
    if delta_c is None:
        delta_c = trace.net_change
    if pi_avg is None and "pi_avg" in _VARIANT_INPUTS[variant][0]:
        pi_avg = trace.time_average(trace.potentials)
    bound = process_time_bound(
        delta_c, pi_avg, variant, log_correction=log_correction,
        temperature=temperature, trace=trace, hbar=hbar, k_b=k_b,
    )
    _emit(io.dumps_json({
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
    }), out)


if __name__ == "__main__":
    main()
