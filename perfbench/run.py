"""Benchmark of the satcrb command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ./src; the run
fails, printing no result, if the sources are not there.

A workload is a fixed list of satcrb commands (see workloads.py). One
client in one process runs the list again and again, each command waiting
for the previous one (a closed loop), until at least S seconds have been
measured and the workload's minimum number of passes has run. A workload
builds each pass's inputs from N and the pass index, so one N always gives
the same inputs.

--trace 0 reports the end-to-end metrics:
    setup_s      median wall time of a fresh interpreter importing
                 satcrb.cli (paid on every CLI call), measured before the
                 first command
    wall_s       median wall time of one pass of the command list
    peak_rss_mb  peak resident memory of this process (ru_maxrss)
--trace 1 splits the time between untraced and traced passes and reports
the per-layer metrics of tracer.py, with the tracing overhead.

Every command's output is checked outside the timed region. The last line
of stdout is one JSON object: correct, attempted, failed (commands run and
commands whose exit code or output failed a check) and metrics. A full
record, with a sha256 of every command's output, goes to
perfbench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS_DIR = HERE / "results"

SETUP_REPEATS = 3
# The thread pool this variable enables is slated for deletion and was
# measured slower than sequential runs; every run is the sequential baseline.
THREADS_VAR = "SATCRB_THREADS"
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass
class PassRecord:
    index: int
    wall_s: float
    commands: list[dict] = field(default_factory=list)


@dataclass
class Passes:
    """Outcome of a sequence of passes of one workload."""

    records: list[PassRecord] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    pooled: list[list[bytes]] = field(default_factory=list)

    @property
    def walls(self) -> list[float]:
        return [r.wall_s for r in self.records]


class Invoker:
    """Runs satcrb commands in this process through the click entry point.

    One stdout and one stderr stream serve every command. click caches a
    text wrapper per sys.stdout object, and the cache keeps each stream
    alive; a fresh capture stream per command (what click.testing.CliRunner
    makes) would keep every command's output in memory, so peak memory would
    grow with the number of passes a run fits.
    """

    def __init__(self) -> None:
        from satcrb.cli import main

        self._main = main
        self._out, self._err = io.BytesIO(), io.BytesIO()
        self._stdout = io.TextIOWrapper(self._out, encoding="utf-8", write_through=True)
        self._stderr = io.TextIOWrapper(self._err, encoding="utf-8", write_through=True)

    def __call__(self, args: tuple[str, ...]) -> tuple[int, bytes, bytes]:
        """Exit code, stdout and stderr of `satcrb ARGS`."""
        for buf in (self._out, self._err):
            buf.seek(0)
            buf.truncate()
        with contextlib.redirect_stdout(self._stdout), contextlib.redirect_stderr(self._stderr):
            try:
                self._main.main(args=list(args), prog_name="satcrb")
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # a crash is a failed command; keep its traceback
                traceback.print_exc()
                code = 1
        return code, self._out.getvalue(), self._err.getvalue()


def run_passes(workload, seed: int, seconds: float, min_passes: int,
               first_index: int = 0, tracer=None, into: Passes | None = None) -> Passes:
    """Run passes until `seconds` of pass time and `min_passes` passes.

    Only the commands are timed (and traced); output checks run after each
    pass.
    """
    invoke = Invoker()
    out = into if into is not None else Passes()
    measured = 0.0
    index = first_index
    while index - first_index < min_passes or measured < seconds:
        commands = workload.commands(seed, index)
        if tracer is not None:
            tracer.start_pass()
        t0 = time.perf_counter()
        results = [invoke(c.args) for c in commands]
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_pass()
        measured += wall

        record = PassRecord(index=index, wall_s=wall)
        for command, (code, stdout, stderr) in zip(commands, results):
            if code != 0:
                problems = [f"exit code {code}: {(stdout + stderr)[-300:]!r}"]
            else:
                problems = command.check(stdout)
            out.attempted += 1
            out.failed += bool(problems)
            out.problems += [f"pass {index}: {p}" for p in problems]
            record.commands.append(
                {
                    "args": list(command.args),
                    "exit_code": code,
                    "sha256": hashlib.sha256(stdout).hexdigest(),
                    "problems": problems,
                }
            )
        if workload.pooled_check is not None:
            out.pooled.append([stdout for _, stdout, _ in results])
        out.records.append(record)
        index += 1
    return out


def finish_pooled(workload, passes: Passes) -> None:
    """Apply the workload's check over all passes; a failure fails every op."""
    if workload.pooled_check is None:
        return
    problems = workload.pooled_check(passes.pooled)
    if problems:
        passes.problems += problems
        passes.failed = passes.attempted


def measure_setup(repeats: int) -> list[float]:
    """Wall time of fresh interpreters importing satcrb.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import satcrb.cli"],
            env=env,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            check=True,
        )
        times.append(time.perf_counter() - t0)
    return times


def environment() -> dict:
    import numpy as np
    import scipy
    from importlib.metadata import version

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_lib = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "blas": blas_lib,
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_VARS},
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
                 min_passes: int | None = None, setup_repeats: int = SETUP_REPEATS,
                 results_dir: Path | None = RESULTS_DIR, emit=print) -> dict:
    """Run one workload and return the result object of the last stdout line."""
    import workloads

    removed = os.environ.pop(THREADS_VAR, None)
    workload = workloads.build(tiny=tiny)[name]
    need = workload.min_passes if min_passes is None else min_passes
    env = environment()
    env[THREADS_VAR] = "unset" if removed is None else f"removed (was {removed!r})"
    emit(f"workload {name}: {workload.size} per pass, closed loop, 1 client")
    for c in workload.commands(seed, 0):
        emit(f"  satcrb {' '.join(c.args)}  (pass 0)")
    emit("env " + json.dumps(env))

    metrics: dict[str, tuple[float, str]] = {}
    record: dict = {"workload": name, "seed": seed, "trace": int(trace), "env": env}
    if not trace:
        setup = measure_setup(setup_repeats)
        record["setup_s"] = setup
        passes = run_passes(workload, seed, seconds, need)
        finish_pooled(workload, passes)
        walls = passes.walls
        q1, med, q3 = _quartiles(walls)
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["wall_s"] = (med, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        emit(f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(setup)} fresh imports: "
             + ", ".join(f"{t:.4f}" for t in setup) + ")")
        emit(f"wall_s {med:.4f} s (median of {len(walls)} passes; q1 {q1:.4f} q3 {q3:.4f} "
             f"min {min(walls):.4f} max {max(walls):.4f})")
        emit(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MiB")
    else:
        from tracer import Tracer

        half = max(1, -(-need // 2))
        passes = run_passes(workload, seed, seconds / 2.0, half)
        untraced = list(passes.walls)
        tracer = Tracer()
        tracer.install()
        try:
            run_passes(workload, seed, seconds / 2.0, half, first_index=len(untraced),
                       tracer=tracer, into=passes)
        finally:
            tracer.uninstall()
        finish_pooled(workload, passes)
        traced = passes.walls[len(untraced):]
        base, with_trace = statistics.median(untraced), statistics.median(traced)
        for line in tracer.table(with_trace):
            emit(line)
        emit(f"tracing overhead {with_trace - base:+.4f} s per pass "
             f"({100.0 * (with_trace / base - 1.0):+.1f}%; traced wall_s {with_trace:.4f} "
             f"over {len(traced)} passes, untraced {base:.4f} over {len(untraced)})")
        metrics = tracer.metrics()
        record["tracing_overhead_s"] = with_trace - base

    for i, c in enumerate(passes.records[0].commands):
        emit(f"sha256 pass 0 command {i}: {c['sha256']}")
    emit(f"ops_attempted {passes.attempted}")
    emit(f"ops_failed {passes.failed}")
    for problem in passes.problems[:20]:
        emit(f"FAILED {problem}")

    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if results_dir is not None:
        record.update(
            passes=[vars(r) for r in passes.records],
            problems=passes.problems,
            result=result,
        )
        results_dir.mkdir(parents=True, exist_ok=True)
        path = results_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "satcrb" / "cli.py").is_file():
        print(f"error: satcrb sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = sorted(workloads.build())
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
