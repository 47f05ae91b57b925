"""The benchmark's workloads: fixed satcrb command lists and their checks.

One pass of a workload runs its command list once, in process, through the
click entry point; the benchmark repeats passes. A workload builds each
pass's commands from the run's seed and the pass index, so one seed always
gives the same inputs. Each command carries a check of its stdout; a
workload may add a check over the outputs of all its passes (the ML
efficiency gate is stated over as many trials as acceptance criterion 09
uses, so it pools passes).

`build(tiny=True)` gives the same workloads at sizes that run in about a
second, for the benchmark's self-test.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from satcrb.closed_form import lcrb_tdoa_from_moments, quadrature_moments
from satcrb.coverage import coverage_prob
from satcrb.geometry import SystemParams

ETA_CONFIG = Path(__file__).resolve().parent / "eta.cfg"

ML_THRESHOLD_DB = 10.0  # criterion 09: rows at or above it are gated
ML_RATIO_GATE = (0.8, 2.0)  # criterion 09's mse/crb gate
ML_POOLED_TRIALS = 200  # criterion 09's trial count
MC_LIMIT_N = 2000  # verify check 3 runs N = 2000 ...
MC_LIMIT_GATE = 0.05  # ... and gates the median's deviation from the LCRB
BOUNDS_REL_GATE = 1e-8  # verify check 1's moment-against-quadrature gate
BOUNDS_SAMPLE = 64  # bounds rows checked per command
VERIFY_CHECKS = 5

Check = Callable[[bytes], list[str]]


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]  # satcrb arguments, global options first
    check: Check  # problems found in the command's stdout; empty if none


@dataclass(frozen=True)
class Workload:
    name: str
    size: str  # the input size one pass runs
    commands: Callable[[int, int], list[Command]]  # (seed, pass index) -> commands
    pooled_check: Callable[[list[list[bytes]]], list[str]] | None = None
    min_passes: int = 4  # fewest passes a run makes, whatever its length


def pass_seed(seed: int, index: int) -> int:
    """Seed of one pass: a fixed function of the run's seed and the pass."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _csv_rows(out: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(out.decode())))


def _positive(row: dict[str, str], keys: tuple[str, ...], where: str) -> list[str]:
    bad = []
    for key in keys:
        value = float(row[key])
        if not (math.isfinite(value) and value > 0.0):
            bad.append(f"{where}: {key}={row[key]} is not finite and positive")
    return bad


# ---------------------------------------------------------------------------
# ml_snr


ML_COLUMNS = ("mse_xy", "mse_xyz", "crb_xy", "crb_xyz")


def _check_ml(snrs: tuple[float, ...]) -> Check:
    def check(out: bytes) -> list[str]:
        rows = _csv_rows(out)
        if [float(r["snr_db"]) for r in rows] != list(snrs):
            return [f"ml: expected rows for {snrs}, got {len(rows)} rows"]
        problems = []
        for row in rows:
            problems += _positive(row, ML_COLUMNS, f"ml {row['snr_db']} dB")
        return problems

    return check


def _pooled_ml_gate(outputs: list[list[bytes]]) -> list[str]:
    """Criterion 09's gate on the mean MSE over every pass's trials."""
    by_snr: dict[float, list[dict[str, str]]] = {}
    for pass_outputs in outputs:
        for row in _csv_rows(pass_outputs[0]):
            by_snr.setdefault(float(row["snr_db"]), []).append(row)
    problems = []
    lo, hi = ML_RATIO_GATE
    for snr, rows in by_snr.items():
        if snr < ML_THRESHOLD_DB:
            continue
        for mse_key, crb_key in (("mse_xy", "crb_xy"), ("mse_xyz", "crb_xyz")):
            mse = sum(float(r[mse_key]) for r in rows) / len(rows)
            ratio = mse / float(rows[0][crb_key])
            if not lo <= ratio <= hi:
                problems.append(
                    f"ml {snr} dB: pooled {mse_key}/{crb_key}={ratio:.4f} "
                    f"over {len(rows)} passes is outside [{lo}, {hi}]"
                )
    return problems


def ml_snr(tiny: bool) -> Workload:
    snrs = (18.0,) if tiny else (6.0, 18.0, 30.0)
    trials = 50  # the CLI's minimum
    grid = ",".join(f"{s:g}" for s in snrs)
    return Workload(
        name="ml_snr",
        size=f"{len(snrs)} SNR points x {trials} trials x 2 ML solves",
        commands=lambda seed, index: [
            Command(
                ("--seed", str(pass_seed(seed, index)), "ml", "--snr-grid", grid,
                 "--trials", str(trials)),
                _check_ml(snrs),
            )
        ],
        pooled_check=_pooled_ml_gate,
        min_passes=-(-ML_POOLED_TRIALS // trials),
    )


# ---------------------------------------------------------------------------
# mc_small_fleets, mc_large_fleet


MC_COLUMNS = (
    "median_xy",
    "p10_xy",
    "p90_xy",
    "median_z",
    "p10_z",
    "p90_z",
    "lcrb_xy",
    "lcrb_z",
)


def _check_montecarlo(n_list: tuple[int, ...]) -> Check:
    def check(out: bytes) -> list[str]:
        rows = _csv_rows(out)
        if [int(r["N"]) for r in rows] != list(n_list):
            return [f"montecarlo: expected rows for N={n_list}, got {len(rows)} rows"]
        problems = []
        for row in rows:
            where = f"montecarlo N={row['N']}"
            problems += _positive(row, MC_COLUMNS, where)
            if int(row["singular_count"]) < 0:
                problems.append(f"{where}: negative singular_count")
            if int(row["N"]) >= MC_LIMIT_N:
                for axis in ("xy", "z"):
                    dev = abs(float(row[f"median_{axis}"]) / float(row[f"lcrb_{axis}"]) - 1.0)
                    if not dev < MC_LIMIT_GATE:
                        problems.append(
                            f"{where}: median_{axis} is {dev:.3e} from the LCRB "
                            f"(gate {MC_LIMIT_GATE})"
                        )
        return problems

    return check


def _montecarlo(seed: int, trials: int, n_list: tuple[int, ...], model: str = "tdoa") -> Command:
    args = ("montecarlo", "--trials", str(trials), "--n-list", ",".join(map(str, n_list)))
    if model != "tdoa":
        # the TDOA+RSS limit needs the (eta, rho) split; eta.cfg supplies it
        args = ("--config", str(ETA_CONFIG), *args, "--model", model)
    return Command(("--seed", str(seed), *args), _check_montecarlo(n_list))


def mc_small_fleets(tiny: bool) -> Workload:
    trials, n_list = (100, (250, 2000)) if tiny else (1000, (250, 500, 1000, 2000))
    return Workload(
        name="mc_small_fleets",
        size=f"2 models x {len(n_list)} fleet sizes x {trials} trials",
        commands=lambda seed, index: [
            _montecarlo(pass_seed(seed, index), trials, n_list),
            _montecarlo(pass_seed(seed, index), trials, n_list, model="tdoa_rss"),
        ],
    )


def mc_large_fleet(tiny: bool) -> Workload:
    trials, n = (10, 100_000) if tiny else (200, 100_000)
    return Workload(
        name="mc_large_fleet",
        size=f"1 fleet of N={n} x {trials} trials",
        commands=lambda seed, index: [_montecarlo(pass_seed(seed, index), trials, (n,))],
    )


# ---------------------------------------------------------------------------
# closed_form_grid


BOUND_COLUMNS = ("lcrb_xy", "lcrb_z", "acrb_xy", "acrb_z", "aacrb_xy", "aacrb_z")


def _check_bounds(axis: str, n: int, seed: int) -> Check:
    """Every row finite; a seeded subsample of rows against the quadrature
    route to the limit. Rows are streamed, so the check adds little to the
    process's peak memory."""
    sample = set(random.Random(seed).sample(range(n), min(BOUNDS_SAMPLE, n)))

    def check(out: bytes) -> list[str]:
        problems = []
        count = 0
        for count, row in enumerate(csv.DictReader(io.StringIO(out.decode())), start=1):
            if count - 1 in sample:
                problems += _against_quadrature(axis, row)
            where = f"bounds {axis}={row['axis_value']}"
            problems += _positive(row, BOUND_COLUMNS, where)
            for key in ("alpha_xy", "alpha_z", "beta_xy", "beta_z"):
                if not math.isfinite(float(row[key])):
                    problems.append(f"{where}: {key}={row[key]} is not finite")
            if not 0.0 <= float(row["coverage_prob"]) <= 1.0:
                problems.append(f"{where}: coverage_prob={row['coverage_prob']}")
        if count != n:
            problems.append(f"bounds {axis}: expected {n} rows, got {count}")
        return problems

    return check


def _against_quadrature(axis: str, row: dict[str, str]) -> list[str]:
    value = float(row["axis_value"])
    if axis == "h":
        p = SystemParams(h=value)
    else:
        p = SystemParams(phi_l_max=math.radians(value))
    ref = lcrb_tdoa_from_moments(quadrature_moments(p))
    problems = []
    for key, want in (("lcrb_xy", ref.xy), ("lcrb_z", ref.z)):
        rel = abs(float(row[key]) / want - 1.0)
        if not rel <= BOUNDS_REL_GATE:
            problems.append(f"bounds {axis}={value}: {key} is {rel:.3e} from quadrature")
    return problems


def _check_coverage(query: str, target: float) -> Check:
    """The answer is the upper end of a bisection bracket: coverage reaches
    the target there and not one tolerance step below it."""

    def check(out: bytes) -> list[str]:
        answer = json.loads(out)["answer"]
        base = SystemParams()
        if query == "min_height":
            value, tol = float(answer["h_km"]), 1.0
            at = lambda v: coverage_prob(dataclasses.replace(base, h=v))  # noqa: E731
        else:
            value, tol = math.radians(float(answer["phi_l_max_deg"])), 1e-4
            at = lambda v: coverage_prob(dataclasses.replace(base, phi_l_max=v))  # noqa: E731
        if not (math.isfinite(value) and value > tol):
            return [f"coverage {query} {target}: answer {value} out of range"]
        # the degree round trip may move the angle by an ulp
        if not at(value * (1.0 + 1e-12)) >= target or not at(value - tol) < target:
            return [f"coverage {query} {target}: {value} does not bracket the target"]
        return []

    return check


def _check_verify(out: bytes) -> list[str]:
    lines = out.decode().splitlines()
    bad = [line for line in lines if not line.startswith("PASS ")]
    if len(lines) != VERIFY_CHECKS or bad:
        return [f"verify: expected {VERIFY_CHECKS} PASS lines, got {lines}"]
    return []


def closed_form_grid(tiny: bool) -> Workload:
    n = 100 if tiny else 10_000
    sweeps = (("h", "500:40000"), ("phi_l_max", "5:90"))
    targets = (0.5, 0.9, 0.99)

    def commands(seed: int, index: int) -> list[Command]:
        # Every pass runs the run's own seed. Only verify reads it, and
        # verify's planar-oracle check fails at some seeds; one seed per run
        # makes a run's failure share depend on its seed, not on how many
        # passes fit in its time.
        out = [
            Command(
                ("--seed", str(seed), "bounds", "--axis", axis, "--grid", f"{span}:{n}"),
                _check_bounds(axis, n, pass_seed(seed, index)),
            )
            for axis, span in sweeps
        ]
        out += [
            Command(
                ("--seed", str(seed), "coverage", "--query", query, "--target", str(t)),
                _check_coverage(query, t),
            )
            for query in ("min_height", "min_angle")
            for t in targets
        ]
        out.append(Command(("--seed", str(seed), "verify"), _check_verify))
        return out

    return Workload(
        name="closed_form_grid",
        size=f"2 bounds sweeps x {n} points, {2 * len(targets)} coverage queries, verify",
        commands=commands,
    )


def build(tiny: bool = False) -> dict[str, Workload]:
    return {
        w.name: w
        for w in (
            ml_snr(tiny),
            mc_small_fleets(tiny),
            mc_large_fleet(tiny),
            closed_form_grid(tiny),
        )
    }
