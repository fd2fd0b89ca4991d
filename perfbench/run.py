"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Runs one workload (see ``perfbench/README.md``) through the public Python
entry points of ``repro.eval`` and ``repro.testing`` for ``--seconds``,
checks its outputs, and prints a human-readable summary followed by one
JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps the program's layer boundaries in spans and reports
the per-layer metrics instead.  All scratch files live in a private
directory under ``.perfbench-work/`` in the checkout, removed on exit.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up is timed from the first line

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Set-up samples per run: this process plus fresh child processes.
SETUP_SAMPLES = 3

#: Seconds the reference loop takes on a host at nominal speed.  Timings
#: are reported as raw wall time x (this / the run's median reference-loop
#: time): shared hosts drift by a third between runs, and the loop, timed
#: next to the measurement, cancels that drift (README.md).  Never change
#: it: every reported timing scales with it.
NOMINAL_REFERENCE_S = 0.045
REFERENCE_SAMPLES = 3

def _fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _cpu_ticks() -> List[int]:
    """(steal, total) jiffies of the whole host, from /proc/stat."""
    fields = [int(value) for value in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    return [fields[7], sum(fields)]


def _reference_loop_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed,
    which drifts on shared machines independently of the program."""
    started = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value & 7
    return time.perf_counter() - started


def _reference_samples() -> List[float]:
    return [_reference_loop_s() for _ in range(REFERENCE_SAMPLES)]


def _host_facts(ticks_before: List[int], reference_s: float) -> Dict[str, object]:
    from repro.testing.native import have_arm_toolchain

    gcc = subprocess.run(["gcc", "--version"], capture_output=True, text=True, check=True)
    steal, total = (after - before for after, before in zip(_cpu_ticks(), ticks_before))
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "gcc": gcc.stdout.splitlines()[0],
        "arm_toolchain": have_arm_toolchain(),
        "python": sys.version.split()[0],
        "cpu_steal_share": round(steal / total, 4) if total else 0.0,
        "reference_loop_s": round(reference_s, 4),
    }


def _isolate(workload: str) -> Path:
    """A private scratch directory inside the checkout for every temp file
    this process and its compilers create."""
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    tempfile.tempdir = str(workdir / "tmp")
    os.makedirs(tempfile.tempdir)
    os.environ["TMPDIR"] = tempfile.tempdir
    return workdir


def _survivors(workdir: Path) -> List[int]:
    """Processes other than this one whose command line names ``workdir``
    (fork servers run binaries built there)."""
    marker = str(workdir).encode()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if marker in cmdline:
            found.append(int(entry.name))
    return found


def _reap(pids: List[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            continue
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # not our child: its own parent reaps it


def _percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _setup_child(args: argparse.Namespace) -> float:
    """One set-up sample in a fresh interpreter (imports included)."""
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--setup-only",
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {completed.stderr.strip()}")
    return json.loads(completed.stdout.splitlines()[-1])["setup_s"]


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SOURCE / "repro" / "eval" / "__init__.py").is_file():
        _fail(f"no program source at {SOURCE}; run from a full checkout", 2)
    if shutil.which("gcc") is None:
        # The toolchain-free backend measures a different program.
        _fail("gcc is required (the x86 native legs are what is measured)", 3)
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))

    from spans import PER_LAYER, Tracer, install_layers, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", 2)
    workdir = _isolate(args.workload)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        from repro.testing.native import have_native_toolchain

        if not have_native_toolchain():
            _fail("gcc cannot build native x86 binaries on this host", 3)
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
        references = _reference_samples()
        normalized_setup_s = setup_s * NOMINAL_REFERENCE_S / statistics.median(references)
        if args.setup_only:
            print(json.dumps({"setup_s": normalized_setup_s}))
            return 0

        tracer = Tracer()
        span_cost_s = 0.0
        if args.trace:
            install_layers(tracer)
            span_cost_s = tracer.span_cost_s()
        ticks = _cpu_ticks()
        try:
            measurement = workload.run(args.seconds, tracer)
        finally:
            tracer.uninstall()
        references += _reference_samples()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.check()
    finally:
        workload.close()
        survivors = _survivors(workdir)
        _reap(survivors)
        shutil.rmtree(workdir, ignore_errors=True)

    problems: List[str] = []
    if survivors:
        problems.append(f"{len(survivors)} process(es) outlived the run")
    if workload.wrong:
        problems.append(f"{workload.wrong} of {workload.attempted} outputs were wrong")

    if args.trace:
        values = layer_metrics(
            tracer, measurement.traced_wall_s, span_cost_s, measurement.layer_extra
        )
        silent = [
            layer
            for layer in workload.required_layers
            if not tracer.layers.get(layer, {}).get("calls")
        ]
        if tracer.missing:
            problems.append(f"entry points not found: {', '.join(tracer.missing)}")
        if silent:
            problems.append(f"layers with no calls: {', '.join(silent)}")
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER
        }
        for phase in sorted(tracer.phase_layers):
            if not phase:
                continue
            shares = sorted(tracer.phase_layers[phase].items(), key=lambda kv: -kv[1])
            top = ", ".join(f"{name} {seconds:.2f}s" for name, seconds in shares[:6])
            print(f"# phase {phase}: {top}")
    else:
        setup_samples = [normalized_setup_s] + [
            _setup_child(args) for _ in range(SETUP_SAMPLES - 1)
        ]
        latencies = measurement.latencies_ms
        raw = {
            "throughput": statistics.median(measurement.rates),
            "latency_p50_ms": _percentile(latencies, 0.5),
            "latency_p90_ms": _percentile(latencies, 0.9),
        }
        # > 1 when the host ran slower than nominal during the run.
        slowdown = (
            statistics.median(references) / NOMINAL_REFERENCE_S
            if workload.cpu_bound
            else 1.0
        )
        values = {
            "throughput": raw["throughput"] * slowdown,
            "latency_p50_ms": raw["latency_p50_ms"] / slowdown,
            "latency_p90_ms": raw["latency_p90_ms"] / slowdown,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {
            "throughput": "1/s",
            "latency_p50_ms": "ms",
            "latency_p90_ms": "ms",
            "setup_s": "s",
            "peak_rss_mb": "MB",
        }
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        print(
            f"# {args.workload}: raw wall-clock throughput {raw['throughput']:.2f} "
            f"{workload.operation}/s (median of {len(measurement.rates)}) "
            f"over {measurement.window_s:.1f}s, latency p50 {raw['latency_p50_ms']:.2f} ms "
            f"p90 {raw['latency_p90_ms']:.2f} ms over {len(latencies)} samples; "
            f"host slowdown {slowdown:.3f}; normalized set-up samples "
            + ", ".join(f"{sample:.3f}" for sample in setup_samples)
        )

    attempted = max(1, workload.attempted)
    print(f"# host: {json.dumps(_host_facts(ticks, statistics.median(references)), sort_keys=True)}")
    print(
        f"# fail_rate {workload.failed / attempted:.4f} "
        f"({workload.failed}/{workload.attempted}) {json.dumps(workload.notes, sort_keys=True)}"
    )
    for problem in problems:
        print(f"# problem: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": workload.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
