"""Batch command-line front end.

Subcommands compute bound sweeps (`bounds`), Monte Carlo constellation
experiments (`montecarlo`), coverage design queries (`coverage`), the ML
efficiency demo (`ml`), and the cross-oracle verification chain (`verify`).
Everything is deterministic for a fixed (config, seed): output bytes repeat
across runs. This module is the command line alone: config loading, row
rendering and the click wiring. Every computation is a library call, and
the checks `verify` prints, one line each, are the rows of
`satcrb.verify.CHECKS`.

Config files are flat ``key = value`` text (``#`` comments allowed) or a JSON
object with the same keys. Keys match the dataclass field names: system
parameters (r, h, phi_l_max, eta_rho, n_sats, eta, c) and signal parameters
(pulse, pulse_width, sample_rate, obs_window, n0, es_max), plus seed, format,
and output_path. Angles are degrees in files and radians internally. The key
``c`` sets the one propagation speed shared by both parameter sets. A seed,
from a file or ``--seed``, is an integer in [0, 2**64 - 1].

Every command runs through one runner, `_runs`, which loads the RunConfig
and maps library errors to exit codes: 0 success; 2 usage or config error
(InvalidConfig, reported as a click usage error); 3 degenerate geometry,
unachievable target or singular information (DegenerateGeometry,
Unachievable, SingularInformation, reported as ``error: ...`` on stderr);
4 verification failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import click
import numpy as np

from .closed_form import (
    DegenerateGeometry,
    lcrb_tdoa_arrays,
    limit_coefficients_arrays,
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
from .montecarlo import MODELS, ConvergenceRow, convergence_sweep
from .signal_ml import (
    SignalConfig,
    default_signal_config,
    mse_experiment,
    zenith_ring_geometry,
)
from .verify import run_verification

DEFAULT_SEED = 20260819
FORMATS = ("csv", "json")

_PARAM_KEYS = tuple(f.name for f in dataclasses.fields(SystemParams))
# c is one key, a system parameter that the signal config shares
_SIGNAL_KEYS = tuple(f.name for f in dataclasses.fields(SignalConfig) if f.name != "c")
_META_KEYS = ("seed", "format", "output_path")
# most points a lo:hi:n grid may ask for; a sweep holds about 13 columns of
# n doubles
GRID_MAX = 10**6


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams
    signal: SignalConfig
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
    and kind holds it as a finite value (an integer beyond the float range,
    Infinity and NaN do not)."""
    if not isinstance(value, bool) and isinstance(value, (int, kind)):
        with contextlib.suppress(OverflowError):
            number = kind(value)
            if kind is int or math.isfinite(number):
                return number
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

    signal = dataclasses.replace(
        default_signal_config(params.c),
        **{
            key: str(data[key]) if key == "pulse" else _config_number(key, data[key], float)
            for key in _SIGNAL_KEYS
            if key in data
        },
    )

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


# A CSV cell is a slot of _SLOT zero-padded bytes, then 4 separator bytes,
# ',' or CR LF padded with zero bytes. Slots are filled as uint32 words of 4
# bytes in native order, and the zero bytes are dropped when a block of rows
# becomes text. 20 bytes hold the widest cell printed: '{:.12e}' of a
# negative double with a three-digit exponent, or an int64 (a larger count
# fails before it reaches a row).
_SLOT = 20
# rows rendered per array pass, which bounds the temporaries of a sweep
_ROW_BLOCK = 8192
# _POW10[k - _POW10_LO] is 10**k correctly rounded; the float cells written
# by array passes, |x| in [1e-290, 1e290], read k from -279 to 303
_POW10_LO = -300
_POW10 = np.array(list(map(float, [f"1e{k}" for k in range(_POW10_LO, 309)])))


def _word_table(*columns) -> np.ndarray:
    """One uint32 word per row whose four bytes, in order, are the byte
    columns given (a scalar repeats)."""
    rows = np.column_stack(np.broadcast_arrays(*columns)).astype(np.uint8)
    return rows.view(np.uint32)[:, 0]


def _digit_tables() -> tuple[np.ndarray, ...]:
    """The words a float cell is made of: the sign, the lead digit, '.' and
    the next digit, indexed by 100·(x < 0) + the two digits; four digits of
    n < 10**4; three digits of n < 1000 and 'e'; the exponent e's sign and
    at least two digits, indexed by e - _POW10_LO."""
    # column n holds the four ASCII digits of n
    d = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + np.uint8(ord("0"))
    i = np.arange(200)
    sign = np.where(i >= 100, ord("-"), 0)
    head = _word_table(sign, d[2, i % 100], ord("."), d[3, i % 100])
    quad = _word_table(*d)
    tail = _word_table(*d[1:, :1000], ord("e"))
    e = np.arange(_POW10_LO, 1 - _POW10_LO)
    wide = np.abs(e) >= 100
    ed = d[:, np.abs(e)]
    exponent = _word_table(
        np.where(e < 0, ord("-"), ord("+")),
        np.where(wide, ed[1], ed[2]),
        np.where(wide, ed[2], ed[3]),
        np.where(wide, ed[3], 0),
    )
    return head, quad, tail, exponent


_HEAD, _QUAD, _TAIL, _EXPONENT = _digit_tables()


def _text_words(texts, width: int = _SLOT) -> np.ndarray:
    """Texts as zero-padded rows of width bytes, in uint32 words."""
    cells = np.array([t.encode() for t in texts], dtype=f"S{width}")
    return cells.view(np.uint32).reshape(-1, width // 4)


_BOOL_WORDS = _text_words(["false", "true"])
_COMMA, _CRLF = _text_words([",", "\r\n"], 4)[:, 0]


def _float_words(x: np.ndarray) -> np.ndarray:
    """'{:.12e}'.format of each cell of the float array x, byte for byte, as
    x.shape + (_SLOT // 4,) words.

    With E = floor(log10|x|), y = |x|·10**(12 − E) lies in [1e12, 1e13) and
    rint(y) gives the 13 digits; 10**13 carries into the exponent. y passes
    through two roundings (the power of ten and the product), so it is
    within 2.3e-3 of exact, and rint(y) is the correctly rounded value
    unless y lies within 0.005 of a rounding half. Those cells, and those
    outside [1e-290, 1e290] (±0, NaN, ±inf, subnormals), are written by
    Python's own formatter."""
    a = np.abs(x)
    in_range = (a >= 1e-290) & (a <= 1e290)
    a = np.where(in_range, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * _POW10[12 - e - _POW10_LO]
    # log10 can land one decade off next to a power of ten
    e += (y >= 1e13).astype(np.int64) - (y < 1e12)
    y = a * _POW10[12 - e - _POW10_LO]
    exact = in_range & (np.abs(y - np.floor(y) - 0.5) >= 0.005)
    digits = np.rint(y).astype(np.int64)
    carry = digits == 10**13
    digits[carry] = 10**12
    e += carry
    top, rest = np.divmod(digits, 10**11)
    words = np.empty(x.shape + (_SLOT // 4,), np.uint32)
    words[..., 0] = _HEAD[top + 100 * (x < 0.0)]
    words[..., 1] = _QUAD[rest // 10**7]
    words[..., 2] = _QUAD[rest // 1000 % 10**4]
    words[..., 3] = _TAIL[rest % 1000]
    words[..., 4] = _EXPONENT[e - _POW10_LO]
    if not exact.all():
        words[~exact] = _text_words(map("{:.12e}".format, x[~exact].tolist()))
    return words


def _csv_block(kinds: Sequence[type], columns: Sequence[Sequence]) -> str:
    """The rows of equally long columns as CSV text with CRLF line ends."""
    cells = np.zeros((len(columns[0]), len(columns), _SLOT // 4 + 1), np.uint32)
    cells[:, :, -1] = _COMMA
    cells[:, -1, -1] = _CRLF
    floats = [j for j, kind in enumerate(kinds) if kind is float]
    if floats:
        block = np.stack([np.asarray(columns[j], dtype=float) for j in floats], axis=1)
        cells[:, floats, :-1] = _float_words(block)
    for j, kind in enumerate(kinds):
        if kind is bool:
            cells[:, j, :-1] = _BOOL_WORDS[np.asarray(columns[j], dtype=np.intp)]
        elif kind is int:
            cells[:, j, :-1] = _text_words(map(str, map(int, columns[j])))
    text = cells.view(np.uint8)
    return text[text != 0].tobytes().decode("ascii")


def _json_float(value) -> float | None:
    """A float cell in JSON, which has no NaN or infinity (RFC 8259): null
    where it is not finite."""
    value = float(value)
    return value if math.isfinite(value) else None


_JSON_CELL = {bool: bool, int: int, float: _json_float}


def render_rows(header: Sequence[str], columns: Sequence[Sequence], fmt: str) -> str:
    """Rows given column by column, as CSV with CRLF line ends or a JSON array
    of objects; each column is converted by one formatter, chosen by its first
    cell. Cells are numbers and flags, so no CSV field needs quoting. A CSV
    float cell is byte for byte '{:.12e}'.format, so one that is not finite
    prints as nan or inf; a JSON one prints as null. CSV rows are rendered
    _ROW_BLOCK at a time."""
    kinds = [_kind(col[0]) for col in columns]
    if fmt == "csv":
        blocks = (
            _csv_block(kinds, [c[lo : lo + _ROW_BLOCK] for c in columns])
            for lo in range(0, len(columns[0]), _ROW_BLOCK)
        )
        return "".join([",".join(header) + "\r\n", *blocks])
    values = [list(map(_JSON_CELL[k], c)) for k, c in zip(kinds, columns)]
    payload = [dict(zip(header, row)) for row in zip(*values)]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _emit(text: str, output_path: str | None) -> None:
    if output_path:
        try:
            with open(output_path, "w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise InvalidConfig(f"cannot write output file {output_path}: {exc}") from exc
    else:
        click.echo(text, nl=False)


def _number_list(spec: str, name: str, kind: type) -> list:
    try:
        values = [kind(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"bad {name} list {spec!r}") from exc
    if not values:
        raise InvalidConfig(f"{name} list is empty")
    return values


def _grid_values(spec: str | None, axis: str) -> np.ndarray:
    """Grid flag: 'lo:hi:n' (geometric for h, linear for the angle) or a
    comma-separated list. Angle values are degrees."""
    if spec is None:
        spec = "500:40000:80" if axis == "h" else "5:90:80"
    if ":" not in spec:
        return np.array(_number_list(spec, "grid", float))
    parts = spec.split(":")
    if len(parts) != 3:
        raise InvalidConfig(f"grid must be lo:hi:n, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InvalidConfig(f"bad grid range {spec!r}") from exc
    if not (1 <= n <= GRID_MAX and 0.0 < lo <= hi):
        raise InvalidConfig(f"bad grid range {spec!r} (n from 1 to {GRID_MAX})")
    if axis == "h":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# click wiring


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


def _runs(body: Callable[..., None]) -> Callable[..., None]:
    """The click callback of a command: body(run, **options) on the loaded
    RunConfig. DegenerateGeometry, Unachievable and SingularInformation print
    ``error: ...`` on stderr and exit 3; InvalidConfig, from the config or an
    option, is a usage error (exit 2)."""

    @functools.wraps(body)
    @click.pass_context
    def command(ctx, **options) -> None:
        try:
            body(load_run_config(*ctx.obj), **options)
        except (DegenerateGeometry, Unachievable, SingularInformation) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(3) from exc
        except InvalidConfig as exc:
            raise click.UsageError(str(exc)) from exc

    return command


@main.command()
@click.option("--axis", type=click.Choice(["h", "phi_l_max"]), default="h", help="Sweep axis.")
@click.option("--grid", default=None, help="lo:hi:n or comma list (degrees for the angle).")
@_runs
def bounds(run: RunConfig, axis, grid):
    """Closed-form bound sweep: limit, per-N approximation, two-term
    approximation, limit coefficients, and coverage per grid point."""
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
    cells = [np.broadcast_to(c, values.shape) for c in columns.values()]
    _emit(render_rows(list(columns), cells, run.format), run.output_path)


# one column per ConvergenceRow field, in order; n_sats prints as N
_MC_FIELDS = [f.name for f in dataclasses.fields(ConvergenceRow)]
MONTECARLO_HEADER = ("N", *_MC_FIELDS[1:])


@main.command()
@click.option("--model", type=click.Choice(MODELS), default="tdoa")
@click.option("--trials", type=click.IntRange(min=1), default=200)
@click.option("--n-list", default="250,500,1000,2000", help="Comma list of satellite counts.")
@_runs
def montecarlo(run: RunConfig, model, trials, n_list):
    """Random-constellation N*CRB distribution against the closed-form limit."""
    counts = _number_list(n_list, "n", int)
    rows = [
        dataclasses.astuple(row)
        for row in convergence_sweep(run.params, model, counts, trials, run.seed)
    ]
    _emit(render_rows(MONTECARLO_HEADER, list(zip(*rows)), run.format), run.output_path)


@main.command()
@click.option(
    "--query",
    type=click.Choice(["prob", "min_angle", "min_height"]),
    default="prob",
)
@click.option("--target", type=float, default=0.9, help="Coverage target for min_* queries.")
@_runs
def coverage(run: RunConfig, query, target):
    """Coverage probability and inverse design queries (single JSON object)."""
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


ML_HEADER = ("snr_db", "mse_xy", "mse_xyz", "crb_xy", "crb_xyz")


@main.command()
@click.option("--snr-grid", default="6,10,14,18,22,26,30", help="Es,max/N0 points in dB.")
@click.option("--trials", type=click.IntRange(min=50), default=200)
@_runs
def ml(run: RunConfig, snr_grid, trials):
    """ML localization MSE against the bound on the zenith-plus-ring geometry."""
    snrs = _number_list(snr_grid, "snr", float)
    geometry = zenith_ring_geometry(run.params)
    rows = [
        (row.snr_db, row.mse_xy, row.mse_xyz, row.crb_xy, row.crb_xyz)
        for row in mse_experiment(geometry, run.signal, snrs, trials, run.seed)
    ]
    _emit(render_rows(ML_HEADER, list(zip(*rows)), run.format), run.output_path)


@main.command()
@_runs
def verify(run: RunConfig):
    """Run the cross-oracle verification chain; exit 0 iff every check passes."""
    checks = run_verification(run.params, run.signal, run.seed)
    lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks]
    _emit("\n".join(lines) + "\n", run.output_path)
    if not all(c.passed for c in checks):
        raise SystemExit(4)


if __name__ == "__main__":
    main()
