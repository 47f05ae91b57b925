"""Batch command-line front end.

Subcommands compute bound sweeps (`bounds`), Monte Carlo constellation
experiments (`montecarlo`), coverage design queries (`coverage`), the ML
efficiency demo (`ml`), and the cross-oracle verification chain (`verify`).
Everything is deterministic for a fixed (config, seed): output bytes repeat
across runs.

Config files are flat ``key = value`` text (``#`` comments allowed) or a JSON
object with the same keys. Keys match the dataclass field names: system
parameters (r, h, phi_l_max, eta_rho, n_sats, eta, c) and signal parameters
(pulse, pulse_width, sample_rate, obs_window, n0, es_max), plus seed, format,
and output_path. Angles are degrees in files and radians internally. The key
``c`` sets the one propagation speed shared by both parameter sets. A seed,
from a file or ``--seed``, is an integer in [0, 2**64 - 1].

Exit codes: 0 success, 2 usage or config error, 3 degenerate geometry or
unachievable target, 4 verification failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import click
import numpy as np

from .closed_form import (
    DegenerateGeometry,
    lcrb_tdoa,
    lcrb_tdoa_arrays,
    lcrb_tdoa_from_moments,
    lcrb_tdoa_rss,
    lcrb_tdoa_rss_from_moments,
    limit_coefficients_arrays,
    moment_integrals,
    quadrature_moments,
    raise_first,
    two_term,
)
from .coverage import (
    COVERAGE_RULE,
    Unachievable,
    coverage_prob,
    coverage_prob_arrays,
    min_angle_for_coverage,
    min_height_for_coverage,
    visibility_prob,
)
from .fim import SingularInformation
from .geometry import SEED_MAX, SWEEP_RANGES, InvalidConfig, SystemParams, check_seed
from .montecarlo import ConvergenceRow, convergence_sweep, crb_distribution
from .planar import PlanarSensors, planar_crb_closed, planar_crb_fim
from .signal_ml import (
    SignalConfig,
    decoupling_check,
    mse_experiment,
    zenith_ring_geometry,
)

DEFAULT_SEED = 20260819
FORMATS = ("csv", "json")

_PARAM_KEYS = ("r", "h", "phi_l_max", "eta_rho", "n_sats", "eta", "c")
_SIGNAL_KEYS = ("pulse", "pulse_width", "sample_rate", "obs_window", "n0", "es_max")
_META_KEYS = ("seed", "format", "output_path")


def default_signal_config(c: float) -> SignalConfig:
    """Gaussian pulse with a 10 kHz effective bandwidth, sampled at 1.5 MHz
    over a window long enough for the zenith-plus-ring delay spread."""
    sigma = 1.0 / (2.0 * math.pi * math.sqrt(2.0) * 1.0e4)
    return SignalConfig(
        pulse="gaussian",
        pulse_width=sigma,
        sample_rate=1.5e6,
        obs_window=2.6e-3,
        n0=1.0e-2,
        es_max=1.0,
        c=c,
    )


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams
    signal: SignalConfig | None
    seed: int
    output_path: str | None
    format: str


def _parse_scalar(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, ValueError):
        return raw


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidConfig(f"cannot read config file {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InvalidConfig(f"config file {path} must hold a JSON object")
        return data
    data = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if "=" not in body:
            raise InvalidConfig(
                f"{path}:{lineno}: expected 'key = value', got {line!r}"
            )
        key, raw = body.split("=", 1)
        data[key.strip()] = _parse_scalar(raw)
    return data


def _config_number(key: str, value, kind: type):
    """The value of a numeric config key as kind, float or int; InvalidConfig
    naming the key unless it is a number (an integer for int), not a bool,
    and kind holds it (an integer beyond the float range does not)."""
    if not isinstance(value, bool) and isinstance(value, (int, kind)):
        with contextlib.suppress(OverflowError):
            return kind(value)
    noun = "an integer" if kind is int else "a number"
    raise InvalidConfig(f"config key {key} must be {noun}, got {value!r}")


def load_run_config(
    config_path: str | None,
    seed: int | None = None,
    output_path: str | None = None,
    fmt: str | None = None,
) -> RunConfig:
    """Merge config-file values with CLI overrides into a RunConfig."""
    data = _read_config_file(config_path) if config_path else {}
    known = set(_PARAM_KEYS) | set(_SIGNAL_KEYS) | set(_META_KEYS)
    unknown = sorted(set(data) - known)
    if unknown:
        raise InvalidConfig(f"unknown config keys: {', '.join(unknown)}")

    param_kwargs = {}
    for key in _PARAM_KEYS:
        if key in data and data[key] is not None:
            value = _config_number(key, data[key], int if key == "n_sats" else float)
            param_kwargs[key] = math.radians(value) if key == "phi_l_max" else value
    params = SystemParams(**param_kwargs)

    signal = None
    if any(key in data for key in _SIGNAL_KEYS):
        base = default_signal_config(c=params.c)
        sig_kwargs = {}
        for key in _SIGNAL_KEYS:
            if key in data:
                sig_kwargs[key] = (
                    str(data[key])
                    if key == "pulse"
                    else _config_number(key, data[key], float)
                )
        signal = dataclasses.replace(base, c=params.c, **sig_kwargs)

    file_seed = data.get("seed")
    final_seed = check_seed(
        seed
        if seed is not None
        else (file_seed if file_seed is not None else DEFAULT_SEED)
    )
    final_fmt = fmt if fmt is not None else str(data.get("format", "csv"))
    if final_fmt not in FORMATS:
        raise InvalidConfig(f"format must be one of {FORMATS}, got {final_fmt!r}")
    final_out = (
        output_path if output_path is not None else data.get("output_path") or None
    )
    return RunConfig(
        params=params,
        signal=signal,
        seed=final_seed,
        output_path=final_out,
        format=final_fmt,
    )


def _kind(value) -> type:
    """bool, int or float: how a column whose first cell is value prints."""
    for kind, types in ((bool, np.bool_), (int, np.integer), (float, np.floating)):
        if isinstance(value, (kind, types)):
            return kind
    raise TypeError(f"no column format for {value!r}")


# one CSV formatter per column kind, mapping a whole column to strings lazily,
# so only one row's cells exist at a time
_CSV_COLUMN = {
    bool: lambda col: ("true" if v else "false" for v in col),
    int: lambda col: map(str, map(int, col)),
    float: lambda col: map("{:.12e}".format, map(float, col)),
}


def render_rows(header: Sequence[str], columns: Sequence[Sequence], fmt: str) -> str:
    """Rows given column by column, as CSV with CRLF line ends or a JSON array
    of objects; each column is converted by one formatter, chosen by its first
    cell. Cells are numbers and flags, so no CSV field needs quoting."""
    kinds = [_kind(col[0]) for col in columns]
    if fmt == "csv":
        buf = io.StringIO()
        cells = zip(*(_CSV_COLUMN[k](c) for k, c in zip(kinds, columns)))
        for line in itertools.chain([header], cells):
            buf.write(",".join(line) + "\r\n")
        return buf.getvalue()
    values = [list(map(k, c)) for k, c in zip(kinds, columns)]
    payload = [dict(zip(header, row)) for row in zip(*values)]
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, output_path: str | None) -> None:
    if output_path:
        with open(output_path, "w", newline="") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


def _grid_values(spec: str | None, axis: str) -> np.ndarray:
    """Grid flag: 'lo:hi:n' (geometric for h, linear for the angle) or a
    comma-separated list. Angle values are degrees."""
    if spec is None:
        if axis == "h":
            return np.geomspace(500.0, 40000.0, 80)
        return np.linspace(5.0, 90.0, 80)
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise InvalidConfig(f"grid must be lo:hi:n, got {spec!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise InvalidConfig(f"bad grid range {spec!r}") from exc
        if n < 1 or not 0.0 < lo <= hi:
            raise InvalidConfig(f"bad grid range {spec!r}")
        if axis == "h":
            return np.geomspace(lo, hi, n)
        return np.linspace(lo, hi, n)
    try:
        values = np.array([float(tok) for tok in spec.split(",") if tok.strip()])
    except ValueError as exc:
        raise InvalidConfig(f"bad grid list {spec!r}") from exc
    if len(values) == 0:
        raise InvalidConfig("grid list is empty")
    return values


def _number_list(spec: str, name: str, kind: type) -> list:
    try:
        values = [kind(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"bad {name} list {spec!r}") from exc
    if not values:
        raise InvalidConfig(f"{name} list is empty")
    return values


# ---------------------------------------------------------------------------
# verification chain


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def run_verification(
    params: SystemParams,
    signal: SignalConfig | None,
    seed: int,
    literal_eta_rho_factor: float = 1.0,
) -> list[CheckResult]:
    """Cross-oracle checks; `literal_eta_rho_factor` skews the scale used by
    the literal closed-form route only, so tests can confirm a mismatch in a
    single path is actually detected."""
    checks: list[CheckResult] = []
    # the (h, phi_l_max) grid of checks 1 and 2, each point with an eta split
    grid = [
        SystemParams(
            r=params.r,
            h=h,
            phi_l_max=math.radians(phi),
            eta_rho=params.eta_rho,
            n_sats=params.n_sats,
            c=params.c,
        ).with_split(1.0e6 / h**2)
        for h in (500.0, 2000.0, 20000.0, 40000.0)
        for phi in (10.0, 35.0, 60.0, 90.0)
    ]

    # 1. closed-form moments against Gauss-Legendre quadrature
    worst = 0.0
    for p in grid:
        closed = moment_integrals(p)
        quad = quadrature_moments(p, n_points=128)
        for field in ("m_l", "m_l_cos", "m_l_sin2", "m_k_sin2", "m_k_cos2"):
            worst = max(worst, _rel(getattr(closed, field), getattr(quad, field)))
    checks.append(
        CheckResult(
            "moments-quadrature", worst < 1e-8, f"max_rel={worst:.3e} gate=1e-08"
        )
    )

    # 2. literal limit formulas against moment assembly
    worst = 0.0
    for p in grid:
        p_literal = dataclasses.replace(p, eta_rho=p.eta_rho * literal_eta_rho_factor)
        for literal_fn, assembly_fn in (
            (lcrb_tdoa, lcrb_tdoa_from_moments),
            (lcrb_tdoa_rss, lcrb_tdoa_rss_from_moments),
        ):
            lit = literal_fn(p_literal)
            asm = assembly_fn(moment_integrals(p))
            worst = max(worst, _rel(lit.xy, asm.xy), _rel(lit.z, asm.z))
    checks.append(
        CheckResult(
            "limit-routes", worst < 1e-9, f"max_rel={worst:.3e} gate=1e-09"
        )
    )

    # 3. Monte Carlo median against the limit
    n_big = 2000
    dist = crb_distribution(
        dataclasses.replace(params, n_sats=n_big), "tdoa", trials=200, seed=seed
    )
    limit = lcrb_tdoa(params)
    dev = max(
        abs(dist.median_xy / limit.xy - 1.0), abs(dist.median_z / limit.z - 1.0)
    )
    checks.append(
        CheckResult(
            "montecarlo-limit", dev < 0.05, f"max_median_dev={dev:.3e} gate=5e-02"
        )
    )

    # 4. planar closed form against direct FIM inversion
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(30):
        m = int(rng.integers(3, 8))
        sensors = PlanarSensors(
            angles=tuple(rng.uniform(0.0, 2.0 * math.pi, m)) ,
            distances=tuple(rng.uniform(1.0, 100.0, m)),
            gamma=float(rng.uniform(1.0, 3.0)),
            w_e=1.0e6,
            rho=100.0,
            c=params.c,
        )
        worst = max(worst, _rel(planar_crb_closed(sensors), planar_crb_fim(sensors)))
    checks.append(
        CheckResult(
            "planar-oracle", worst < 1e-10, f"max_rel={worst:.3e} gate=1e-10"
        )
    )

    # 5. amplitude/(position, clock) decoupling for the symmetric pulse
    sig = signal if signal is not None else default_signal_config(c=params.c)
    coupling = decoupling_check(zenith_ring_geometry(params), sig)
    checks.append(
        CheckResult(
            "decoupling", coupling < 1e-3, f"max_coupling={coupling:.3e} gate=1e-03"
        )
    )
    return checks


# ---------------------------------------------------------------------------
# click wiring


def _computation_errors(fn: Callable[[], None]) -> None:
    """Map library errors to documented exit codes."""
    try:
        fn()
    except (DegenerateGeometry, Unachievable, SingularInformation) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(3) from exc
    except InvalidConfig as exc:
        raise click.UsageError(str(exc)) from exc


@click.group()
@click.option("--config", "config_path", default=None, help="Config file (key=value or JSON).")
@click.option("--seed", type=click.IntRange(0, SEED_MAX), default=None, help="RNG seed.")
@click.option("--out", "output_path", default=None, help="Output file (default stdout).")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default=None, help="Row output format.")
@click.pass_context
def main(ctx, config_path, seed, output_path, fmt):
    """Bounds, Monte Carlo, coverage, and ML experiments for satellite
    TDOA/RSS receiver localization."""
    ctx.obj = (config_path, seed, output_path, fmt)


def _load(ctx) -> RunConfig:
    config_path, seed, output_path, fmt = ctx.obj
    try:
        return load_run_config(config_path, seed, output_path, fmt)
    except InvalidConfig as exc:
        raise click.UsageError(str(exc)) from exc


@main.command()
@click.option("--axis", type=click.Choice(["h", "phi_l_max"]), default="h", help="Sweep axis.")
@click.option("--grid", default=None, help="lo:hi:n or comma list (degrees for the angle).")
@click.pass_context
def bounds(ctx, axis, grid):
    """Closed-form bound sweep: limit, per-N approximation, two-term
    approximation, limit coefficients, and coverage per grid point."""
    run = _load(ctx)

    def work() -> None:
        values = _grid_values(grid, axis)
        p = run.params
        # one array evaluation per sweep; the fixed axis is a length-1 array
        swept = values if axis == "h" else np.radians(values)
        h = swept if axis == "h" else np.array([p.h])
        phi = swept if axis == "phi_l_max" else np.array([p.phi_l_max])
        limit, checks = lcrb_tdoa_arrays(p, h, phi)
        coeff, coeff_checks = limit_coefficients_arrays(p, h, phi)
        # the first bad point wins, as point by point: an illegal value (replace
        # raises its InvalidConfig), then the LCRB's checks, the coefficients'
        illegal = ~SWEEP_RANGES[axis](swept)
        raise_first([
            (illegal, lambda j: dataclasses.replace(p, **{axis: float(swept[j])})),
            *checks,
            *coeff_checks,
        ])
        per_n = limit.scaled(1.0 / p.n_sats)
        approx = two_term(coeff, h)
        p_cov = coverage_prob_arrays(p, h, phi)
        columns = {
            "axis_value": values, "lcrb_xy": limit.xy, "lcrb_z": limit.z,
            "acrb_xy": per_n.xy, "acrb_z": per_n.z,
            "aacrb_xy": approx.xy, "aacrb_z": approx.z,
            "alpha_xy": coeff.alpha_xy, "alpha_z": coeff.alpha_z,
            "beta_xy": coeff.beta_xy, "beta_z": coeff.beta_z,
            "coverage_prob": p_cov, "covered": p_cov >= COVERAGE_RULE,
        }
        cells = [np.broadcast_to(c, values.shape).tolist() for c in columns.values()]
        _emit(render_rows(list(columns), cells, run.format), run.output_path)

    _computation_errors(work)


# one column per ConvergenceRow field, in order; n_sats prints as N
_MC_FIELDS = [f.name for f in dataclasses.fields(ConvergenceRow)]
MONTECARLO_HEADER = ("N", *_MC_FIELDS[1:])


@main.command()
@click.option("--model", type=click.Choice(["tdoa", "tdoa_rss"]), default="tdoa")
@click.option("--trials", type=click.IntRange(min=1), default=200)
@click.option("--n-list", default="250,500,1000,2000", help="Comma list of satellite counts.")
@click.pass_context
def montecarlo(ctx, model, trials, n_list):
    """Random-constellation N*CRB distribution against the closed-form limit."""
    run = _load(ctx)

    def work() -> None:
        counts = _number_list(n_list, "n", int)
        rows = [
            dataclasses.astuple(row)
            for row in convergence_sweep(run.params, model, counts, trials, run.seed)
        ]
        _emit(render_rows(MONTECARLO_HEADER, list(zip(*rows)), run.format), run.output_path)

    _computation_errors(work)


@main.command()
@click.option(
    "--query",
    type=click.Choice(["prob", "min_angle", "min_height"]),
    default="prob",
)
@click.option("--target", type=float, default=0.9, help="Coverage target for min_* queries.")
@click.pass_context
def coverage(ctx, query, target):
    """Coverage probability and inverse design queries (single JSON object)."""
    run = _load(ctx)

    def work() -> None:
        p = run.params
        inputs = {
            "r": p.r,
            "h": p.h,
            "phi_l_max_deg": math.degrees(p.phi_l_max),
            "n_sats": p.n_sats,
        }
        if query == "prob":
            answer = {
                "p_single": visibility_prob(p),
                "p_cov": coverage_prob(p),
            }
        elif query == "min_angle":
            inputs["target"] = target
            answer = {
                "phi_l_max_deg": math.degrees(min_angle_for_coverage(p, target))
            }
        else:
            inputs["target"] = target
            answer = {"h_km": min_height_for_coverage(p, target)}
        text = (
            json.dumps({"query": query, "inputs": inputs, "answer": answer}, indent=2)
            + "\n"
        )
        _emit(text, run.output_path)

    _computation_errors(work)


ML_HEADER = ("snr_db", "mse_xy", "mse_xyz", "crb_xy", "crb_xyz")


@main.command()
@click.option("--snr-grid", default="6,10,14,18,22,26,30", help="Es,max/N0 points in dB.")
@click.option("--trials", type=click.IntRange(min=50), default=200)
@click.pass_context
def ml(ctx, snr_grid, trials):
    """ML localization MSE against the bound on the zenith-plus-ring geometry."""
    run = _load(ctx)

    def work() -> None:
        snrs = _number_list(snr_grid, "snr", float)
        sig = run.signal if run.signal is not None else default_signal_config(run.params.c)
        geometry = zenith_ring_geometry(run.params)
        rows = [
            (row.snr_db, row.mse_xy, row.mse_xyz, row.crb_xy, row.crb_xyz)
            for row in mse_experiment(geometry, sig, snrs, trials, run.seed)
        ]
        _emit(render_rows(ML_HEADER, list(zip(*rows)), run.format), run.output_path)

    _computation_errors(work)


@main.command()
@click.pass_context
def verify(ctx):
    """Run the cross-oracle verification chain; exit 0 iff every check passes."""
    run = _load(ctx)

    def work() -> None:
        checks = run_verification(run.params, run.signal, run.seed)
        lines = [
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks
        ]
        text = "\n".join(lines) + "\n"
        _emit(text, run.output_path)
        if not all(c.passed for c in checks):
            raise SystemExit(4)

    _computation_errors(work)


if __name__ == "__main__":
    main()
