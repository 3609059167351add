"""hourahead benchmark: end-to-end throughput, set-up time and memory, plus
per-layer timings from a separate traced run.

Usage, from the repository root:

    python3 bench/run.py --workload compare --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

Every workload is a closed-loop batch job with one caller: the next batch
starts when the previous one has finished. The package is imported from
``src/`` of the tree this file sits in, never from an installed copy.
Reported times are scaled to a nominal host speed that a reference loop
measures around each of them (see REFERENCE_NOMINAL_S).

With ``--trace 0`` the run times batches for ``--seconds`` and reports the
end-to-end metrics named in BENCHMARK.json. With ``--trace 1`` it alternates
untraced and traced batches (see tracer.py) and reports the per-layer
metrics. Every batch's output is checked; a batch that fails a
check counts all its instances as failed. The last stdout line is one JSON
object with keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 7
SETUP_PROBES = 9  # timed spawns, after one untimed spawn that writes the bytecode cache

# The default market of the paper's comparison, pinned here so that a change
# of the CLI defaults shows as a change of workload rather than of speed.
P_MIN, P_MAX = 10.0, 40.0
CAPACITY, RATE = 20.0, 10.0
LEVELS = 400  # the CLI's default storage grid: eta = capacity / 400
HORIZON = 360
RUNS_PER_BATCH = 1  # short batches keep the reference loop timings close to the batch
# criterion 4: the grid optimum plus one quantum per slot dominates every
# strategy, so a profit above offline + P_MAX * eta * T is wrong
SLACK = P_MAX * (CAPACITY / LEVELS) * HORIZON
# criterion 5: socs stays within 5% of its closed-form guarantee
CR_SLACK = 1.05
ADVERSARY_INSTANCES = (4 * 3) ** 4
STRATEGIES = ("socs", "ocsmb", "mocsmb", "fonline")

# The shared host this benchmark was defined on changes speed by up to 1.6x
# for tens of seconds at a time, for all code alike. A fixed interpreter-bound
# loop, timed before and after every timed batch and set-up spawn, measures
# that speed, and each reported time is scaled to a loop time of
# REFERENCE_NOMINAL_S. The unscaled figures are kept in the results file.
REFERENCE_LOOPS = 200_000
REFERENCE_NOMINAL_S = 0.02


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def compare_argv(seed: int, runs: int = RUNS_PER_BATCH) -> list[str]:
    return [
        "compare",
        "--runs", str(runs),
        "--horizon", str(HORIZON),
        "--seed", str(seed),
        "--pmin", str(P_MIN),
        "--pmax", str(P_MAX),
        "--capacity", str(CAPACITY),
        "--charge-rate", str(RATE),
        "--discharge-rate", str(RATE),
    ]  # fmt: skip


SWEEP_OFFERS = list(range(1, 16))
SWEEP_FLAGS = ["--sweep-offers", f"{SWEEP_OFFERS[0]}-{SWEEP_OFFERS[-1]}"]
ADVERSARY_ARGV = [
    "adversary", "--strategy", "socs", "--pmin", "10", "--pmax", "40",
    "--capacity", "4", "--horizon", "4", "--levels", "4",
]  # fmt: skip


# -- output checks -----------------------------------------------------------


def compare_violations(rows: list[dict[str, str]], runs: int, slack: float = SLACK) -> set[int]:
    """Runs 0..runs-1 of a per-run CSV that lack a row, or where a strategy
    earns more than the clairvoyant optimum plus `slack` (criterion 4)."""
    profit = {(int(r["run"]), r["strategy"]): float(r["profit"]) for r in rows}
    bad = set()
    for run in range(runs):
        offline = profit.get((run, "offline"))
        for name in STRATEGIES:
            mine = profit.get((run, name))
            if offline is None or mine is None or not offline + slack >= mine:
                bad.add(run)
    return bad


def sweep_ok(rows: list[dict], offers: list[int], slack: float = SLACK) -> bool:
    """Criterion 4 on the sweep's mean profits (the per-run rule, summed),
    with one row per offer count."""
    return [row["offers"] for row in rows] == offers and all(
        row["offline_mean_profit"] + slack >= row[key]
        for row in rows
        for key in ("ocsmb_mean_profit", "socs_mean_profit")
    )


def adversary_ok(report: dict) -> bool:
    """Criterion 5: bounded, within 5% of the guarantee, bucket max == max."""
    best = report["max_ratio"]
    buckets = list(report["bucket_ratios"].values())
    if best == "unbounded" or "unbounded" in buckets or not buckets:
        return False
    return (
        report["instances"] == ADVERSARY_INSTANCES
        and best <= report["theoretical_bound"] * CR_SLACK
        and max(buckets) == best
    )


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


# -- workloads ---------------------------------------------------------------


def run_cli(argv: list[str]) -> str:
    from hourahead import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"hourahead {' '.join(argv)} exited with {code}")
    return buf.getvalue()


@dataclass
class Workload:
    """One closed-loop batch job. `run` returns the report text; `failures`
    counts the failed instances of that report, outside the timed region."""

    name: str
    instances: int
    argv: Callable[[int], list[str]]
    run: Callable[["Workload", int, Path], str]
    failures: Callable[["Workload", str, Path], int]
    workers: int = 1
    serial_digest: str = ""  # of the serial report; set before a parallel run


def _compare_run(w: Workload, seed: int, scratch: Path) -> str:
    return run_cli(w.argv(seed) + ["--csv", str(scratch / "runs.csv")])


def _compare_failures(w: Workload, text: str, scratch: Path) -> int:
    return len(compare_violations(read_rows(scratch / "runs.csv"), w.instances))


def _cli_run(w: Workload, seed: int, scratch: Path) -> str:
    return run_cli(w.argv(seed))


def _sweep_failures(w: Workload, text: str, scratch: Path) -> int:
    return 0 if sweep_ok(json.loads(text), SWEEP_OFFERS) else w.instances


def _adversary_failures(w: Workload, text: str, scratch: Path) -> int:
    return 0 if adversary_ok(json.loads(text)) else w.instances


class MeteredPool(ProcessPoolExecutor):
    """Process pool that records the summed peak RSS of its workers."""

    peak_mb = 0.0

    def shutdown(self, wait=True, *, cancel_futures=False):
        pids = list(self._processes or ())
        MeteredPool.peak_mb = max(MeteredPool.peak_mb, sum(vm_hwm_mb(pid) for pid in pids))
        super().shutdown(wait=wait, cancel_futures=cancel_futures)


def _parallel_run(w: Workload, seed: int, scratch: Path) -> str:
    from hourahead import experiment
    from hourahead.market import PriceBounds, StorageSpec

    cfg = experiment.ExperimentConfig(
        runs=w.instances,
        horizon=HORIZON,
        seed=seed,
        bounds=PriceBounds(P_MIN, P_MAX),
        spec=StorageSpec(CAPACITY, RATE, RATE),
    )
    report = experiment.run_experiment(cfg, parallel=True, workers=w.workers)
    experiment.emit_report(report, csv_path=scratch / "runs.csv")
    return report.to_json()


def _parallel_failures(w: Workload, text: str, scratch: Path) -> int:
    # the pool must reproduce the serial CLI report byte for byte
    if digest(text) != w.serial_digest:
        return w.instances
    return _compare_failures(w, text, scratch)


WORKLOADS = {
    "compare": Workload("compare", RUNS_PER_BATCH, compare_argv, _compare_run, _compare_failures),
    "sweep": Workload(
        "sweep",
        RUNS_PER_BATCH,
        lambda seed: compare_argv(seed) + SWEEP_FLAGS,
        _cli_run,
        _sweep_failures,
    ),
    "adversary": Workload(
        "adversary",
        ADVERSARY_INSTANCES,
        lambda seed: list(ADVERSARY_ARGV),  # exhaustive: the seed does not enter
        _cli_run,
        _adversary_failures,
    ),
    "compare-parallel": Workload(
        "compare-parallel",
        RUNS_PER_BATCH * nproc(),
        lambda seed: compare_argv(seed, RUNS_PER_BATCH * nproc()),
        _parallel_run,
        _parallel_failures,
        workers=nproc(),
    ),
}


# -- measurement -------------------------------------------------------------


@dataclass
class Window:
    seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: list[str] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # reference loop before each batch, and after


def reference_seconds() -> float:
    """Time the fixed reference loop: the host's current speed."""
    acc, table = 0.0, {}
    t0 = perf_counter()
    for i in range(REFERENCE_LOOPS):
        acc += (i & 15) * 0.5
        table[i & 255] = acc
    return perf_counter() - t0


def normalized(times: list[float], refs: list[float]) -> list[float]:
    """Scale times[i] to the nominal host speed, measured by the mean of the
    reference loop just before (refs[i]) and just after (refs[i + 1]) it."""
    return [t * 2.0 * REFERENCE_NOMINAL_S / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from /proc (0 where unavailable)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_batch(w: Workload, seed: int, scratch: Path, win: Window, tracer=None) -> None:
    """Time one batch into `win`, then check its report outside the timing."""
    t0 = perf_counter()
    try:
        if tracer is None:
            text = w.run(w, seed, scratch)
        else:
            tracer.install()
            try:
                text = tracer.span("bench.batch", w.run, w, seed, scratch)
            finally:
                tracer.uninstall()
    except Exception:  # a crashing program is a failed batch, not a crashed benchmark
        traceback.print_exc()
        text = None
    win.seconds.append(perf_counter() - t0)
    win.attempted += w.instances
    if text is None:
        win.failed += w.instances
    else:
        win.digests.append(digest(text))
        win.failed += w.failures(w, text, scratch)


def measure(w: Workload, seed: int, seconds: float, scratch: Path, tracer=None) -> list[Window]:
    """Run batches back to back until `seconds` have passed (at least one).

    With a tracer, untraced and traced batches alternate, so that a drift of
    the machine's speed does not show up as tracing overhead; the result is
    then [untraced, traced], else [untraced].
    """
    windows = [Window()] if tracer is None else [Window(), Window()]
    plain = windows[0]
    plain.refs.append(reference_seconds())
    deadline = perf_counter() + seconds
    while True:
        run_batch(w, seed, scratch, plain)
        plain.refs.append(reference_seconds())
        if tracer is not None:
            run_batch(w, seed, scratch, windows[1], tracer)
        if perf_counter() >= deadline:
            return windows


def setup_seconds(w: Workload, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times the probe reports from fresh interpreters, and the
    reference loop times around them."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), w.name, *w.argv(seed)]
    subprocess.run(probe, cwd=ROOT, check=True, capture_output=True)  # writes the bytecode cache
    times, refs = [], [reference_seconds()]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, cwd=ROOT, check=True, capture_output=True, text=True)
        times.append(float(done.stdout))
        refs.append(reference_seconds())
    return times, refs


def serial_digest(w: Workload, seed: int) -> str:
    """Digest of the serial CLI report for the parallel workload, made in its
    own process so that its memory does not count towards the pool's ("" if
    the CLI fails, so that every parallel batch fails its check)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "hourahead.cli", *w.argv(seed)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    sys.stderr.write(done.stderr)
    return digest(done.stdout) if done.returncode == 0 else ""


def source_fingerprint() -> str:
    """Hash of the package and of this benchmark: what a report depends on."""
    h = hashlib.sha256()
    for path in [*sorted((SRC / "hourahead").glob("*.py")), Path(__file__).resolve()]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cross_run_mismatch(name: str, seed: int, digests: list[str]) -> bool:
    """Record this run's report digest for the current source tree and say
    whether an earlier run of the same code and seed produced another."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    by_run = known.setdefault(source_fingerprint(), {})
    key = f"{name}/seed{seed}"
    earlier = by_run.setdefault(key, digests[0])
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return earlier != digests[0]


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end, layer


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    w = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    if name == "compare-parallel":
        from hourahead import experiment

        w.serial_digest = serial_digest(w, seed)
        experiment.ProcessPoolExecutor = MeteredPool
    end_units, layer_units = metric_units()
    values: dict[str, float] = {}
    env = {
        "workload": name,
        "seed": seed,
        "nproc": nproc(),
        "workers": w.workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "instances_per_batch": w.instances,
    }
    try:
        if trace:
            from tracer import Tracer

            tracer = Tracer(scratch)
            windows = measure(w, seed, seconds, scratch, tracer)
            plain, traced = windows
            tracer.collect()
            tracer.save(OUT / f"spans-{name}-seed{seed}.npz")
            values.update(tracer.layer_metrics(sum(traced.seconds)))
            values["experiment.workers"] = float(w.workers)
            values["trace.overhead_frac"] = (
                statistics.median(traced.seconds) / statistics.median(plain.seconds) - 1.0
            )
            units = layer_units
        else:
            setup, setup_refs = setup_seconds(w, seed)
            windows = measure(w, seed, seconds, scratch)
            (win,) = windows
            self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            batch_s = normalized(win.seconds, win.refs)
            values["instances_per_s"] = w.instances / statistics.median(batch_s)
            values["setup_s"] = statistics.median(normalized(setup, setup_refs))
            values["peak_rss_mb"] = self_mb + MeteredPool.peak_mb
            env["unscaled_instances_per_s"] = w.instances / statistics.median(win.seconds)
            env["unscaled_setup_s"] = statistics.median(setup)
            env["setup_samples_s"] = setup
            env["reference_s"] = win.refs + setup_refs
            units = end_units
    finally:
        for leftover in scratch.iterdir():
            leftover.unlink()
        scratch.rmdir()

    attempted = sum(win.attempted for win in windows)
    failed = sum(win.failed for win in windows)
    digests = [d for win in windows for d in win.digests]
    # a report that differs between repetitions of the same code fails them all
    if digests and (len(set(digests)) > 1 or cross_run_mismatch(name, seed, digests)):
        failed = attempted
    if trace:
        values["check.failed_frac"] = failed / attempted
    env["batches"] = sum(len(win.seconds) for win in windows)
    env["instances"] = attempted
    env["batch_seconds"] = [s for win in windows for s in win.seconds]
    env["report_sha256"] = sorted(set(digests))
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"env": env, **result}, indent=1) + "\n"
    )
    print("env " + json.dumps(env))
    return result


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced and traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
            done = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                merged["metrics"][f"{name}.{key}"] = metric
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"metric {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "hourahead" / "__init__.py").is_file():
        sys.exit(f"bench: no hourahead sources under {SRC.name}/ next to {BENCH.name}/")
    sys.path.insert(0, str(SRC))
    sys.exit(main())
