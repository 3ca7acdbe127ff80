"""frobkit benchmark: closed-loop command-line workloads with an exact oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The run imports frobkit from ``src/``
and drives it through ``frobkit.cli.main`` in this process, with its output
captured.  One client works in a closed loop: the next instance starts when
the previous one has returned.  Instances come from the seed, without
replacement (see workloads.py), and every output is checked by the oracle.

With ``--trace 0`` the run times rounds of instances until ``--seconds`` have
passed and reports the end-to-end metrics.  Every timing is in seconds at a
fixed reference speed of the machine (see refclock.py), so that a host whose
speed drifts during a run does not move the figures.  With ``--trace 1`` it
runs the workload's first round, fixed by the seed, once with tracing
wrappers and once without, and reports per-layer metrics, so call counts
repeat exactly for a seed.

Before the result, one line ``{"stamp": ...}`` records what was run.  The last
line of standard output is the result object.  See SPEC.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from refclock import ReferenceClock  # noqa: E402
from tracer import OVERHEAD, Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS, check_output  # noqa: E402

# Set-ups per run: the first, then more after the timed phase until there are
# SETUP_MAX or the later ones have taken SETUP_BUDGET_S, but never fewer than
# SETUP_MIN.  A set-up of a few tens of ms varies more, so it is repeated more.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 6.0


def load_frobkit():
    """Import a fresh copy of frobkit, dropping any earlier one, and return its cli module."""
    for name in [n for n in sys.modules if n == "frobkit" or n.startswith("frobkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import frobkit.cli

    return frobkit.cli


def _main(cli, argv):
    """The exit code of one command, or the exception it raised."""
    try:
        return cli.main(list(argv))
    except Exception as exc:  # counted as a failed instance, not a crash of the run
        return exc


def invoke(cli, argv, clock: ReferenceClock | None = None):
    """One instance: (raw seconds, seconds at the reference speed, exit code
    or raised exception, stdout, stderr).  Without a clock, both times are raw."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if clock is None:
            start = perf_counter()
            rc = _main(cli, argv)
            raw = scaled = perf_counter() - start
        else:
            rc, raw, scaled = clock.measure(_main, cli, argv)
    return raw, scaled, rc, out.getvalue(), err.getvalue()


# Step between the corrupted columns of successive instances of a stratum, as
# a share of the columns outside the unit's support: the golden ratio spreads
# any run of them evenly over the columns.
GOLDEN = (5 ** 0.5 - 1) / 2


def _write_verify_input(cli, inst, path: Path, rng: random.Random, position: float) -> None:
    """``nsy build`` output for the instance, corrupted when asked to: one
    delta entry is added in the column at ``position`` (0 <= position < 1)
    among the columns outside the unit's support.

    Where the checkers find the first witness depends on that column, so
    spreading the columns evenly keeps the time of a run from hanging on a
    lucky or unlucky draw.
    """
    n, ell, mults, corrupt = inst.nsy_input
    params = ["nsy", "build", f"n={n}", f"ell={ell}", "m=" + ",".join(map(str, mults))]
    _, _, rc, text, err = invoke(cli, params)
    if rc != 0:
        raise RuntimeError(f"input generation failed for {inst.name}: {rc!r} {err.strip()}")
    if corrupt:
        payload = json.loads(text)
        dim = payload["dim"]
        unit = {k for k, _ in payload["unit"]}
        present = {(col, t) for col, t, _ in payload["delta"]}
        free = [k for k in range(dim) if k not in unit]
        col = free[int(position * len(free))]
        t = rng.randrange(dim * dim)
        while (col, t) in present:
            t = rng.randrange(dim * dim)
        payload["delta"].append([col, t, "1"])
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")


def set_up(workload, seed: int, max_rounds: int | None, workdir: Path):
    """Import frobkit, build the instance list and its input files, warm up.

    Returns (cli module, rounds of (instance, argv)).
    """
    cli = load_frobkit()
    rounds = workload.schedule(seed)[:max_rounds]
    rng = random.Random(f"inputs/{seed}")
    stratum_of = {inst.name: k for k, (_, population) in enumerate(workload.strata)
                  for inst in population}
    written = [0] * len(workload.strata)
    offset = rng.random()
    prepared, count = [], 0
    for batch in [[workload.warmup]] + rounds:
        jobs = []
        for inst in batch:
            argv = inst.argv
            if inst.nsy_input is not None:
                path = workdir / f"{count}.json"
                count += 1
                position = 0.0
                if inst.name in stratum_of:
                    k = stratum_of[inst.name]
                    position = (offset + written[k] * GOLDEN) % 1.0
                    written[k] += 1
                _write_verify_input(cli, inst, path, rng, position)
                argv = (argv[0], str(path))
            jobs.append((inst, argv))
        prepared.append(jobs)
    warmup = prepared.pop(0)
    for inst, argv in warmup:
        _, _, rc, out, _ = invoke(cli, argv)
        if check_output(inst.expect, rc, out) is not None:
            raise RuntimeError(f"warm-up instance failed: {inst.name}")
    return cli, prepared


class Samples:
    """Latencies, oracle verdicts and the stdout digest of the instances run."""

    def __init__(self):
        self.names: list[str] = []
        self.latencies: list[float] = []  # at the reference speed
        self.raw_latencies: list[float] = []  # as measured
        self.outputs: list[str] = []
        self.failures: dict[str, str] = {}  # instance name -> reason
        self.digest = hashlib.sha256()

    def run(self, cli, jobs, clock: ReferenceClock) -> None:
        for inst, argv in jobs:
            gc.collect()  # each instance starts from a clean heap, like a fresh process
            raw, scaled, rc, out, err = invoke(cli, argv, clock)
            reason = check_output(inst.expect, rc, out)
            if reason is not None:
                self.failures[inst.name] = f"{reason} {err.strip()[:200]}".strip()
            self.names.append(inst.name)
            self.latencies.append(scaled)
            self.raw_latencies.append(raw)
            self.outputs.append(out)
            self.digest.update(out.encode())


def percentile(values: list[float], pct: int) -> tuple[float, int]:
    """The pct-th percentile, as the mean of the samples ranked within 5
    points of it, and the number of samples ranked above that window.

    Averaging a few neighbouring ranks keeps one instance that happened to
    run while the machine was busy from setting the figure on its own.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = min(math.floor((pct - 5) / 100 * n), n - 1)
    hi = max(math.ceil((pct + 5) / 100 * n), lo + 1)
    return statistics.fmean(ordered[lo:hi]), n - hi


def timed_run(cli, rounds, seconds: float) -> tuple[Samples, float]:
    """Whole rounds until ``seconds`` of wall time have passed: (samples, wall seconds)."""
    samples, clock = Samples(), ReferenceClock()
    start = perf_counter()
    for jobs in rounds:
        samples.run(cli, jobs, clock)
        if perf_counter() - start >= seconds:
            break
    return samples, perf_counter() - start


def traced_run(cli, rounds):
    """The rounds traced, then untraced on a fresh import of frobkit.

    The speed is sampled only between instances, so that no sampling time
    lands in the per-layer figures.
    """
    jobs = [job for batch in rounds for job in batch]
    clock = ReferenceClock(sample_during=False)
    tracer = Tracer()
    tracer.install()
    traced = Samples()
    traced.run(cli, jobs, clock)
    untraced = Samples()
    untraced.run(load_frobkit(), jobs, clock)
    for name, a, b in zip(traced.names, traced.outputs, untraced.outputs):
        if a != b:
            untraced.failures.setdefault(name, "output differs from the traced pass")
    values = dict(tracer.values)
    values[OVERHEAD] = sum(traced.latencies) - sum(untraced.latencies)
    return traced, untraced, values, tracer.missing


def _commit() -> str | None:
    """The git commit of the source tree, read without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "frobkit").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        max_rounds: int | None = None) -> tuple[dict, dict]:
    """One benchmark run: returns (result, stamp)."""
    workload = WORKLOADS[workload_name]
    if trace:
        max_rounds = workload.trace_rounds
    workdir = ROOT / ".bench_work" / f"{workload_name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    def timed_set_up():
        (cli, rounds), _, scaled = ReferenceClock().measure(
            set_up, workload, seed, max_rounds, workdir)
        return scaled, cli, rounds

    try:
        setup_s, cli, rounds = timed_set_up()
        setup_times = [setup_s]
        stamp = {
            "workload": workload_name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "python": platform.python_version(),
            "commit": _commit(),
            "source_sha256": _source_digest(),
            "nproc": os.cpu_count(),
            "setup_s": setup_times,
        }
        if trace:
            samples, untraced, metrics, missing = traced_run(cli, rounds)
            attempted = len(samples.names) + len(untraced.names)
            failures = [f"{k}: {v}" for k, v in samples.failures.items()]
            failures += [f"{k} (untraced): {v}" for k, v in untraced.failures.items()]
            stamp["untraced_s"] = sum(untraced.latencies)
            stamp["untraced_raw_s"] = sum(untraced.raw_latencies)
            stamp["untraced_targets"] = missing
            result_metrics = {k: {"value": metrics[k], "unit": unit}
                              for k, unit in metric_units().items()}
        else:
            samples, wall = timed_run(cli, rounds, seconds)
            # Further set-ups after the timed phase; see SETUP_MIN.
            start = perf_counter()
            while len(setup_times) < SETUP_MIN or (
                    len(setup_times) < SETUP_MAX and perf_counter() - start < SETUP_BUDGET_S):
                setup_times.append(timed_set_up()[0])
            attempted = len(samples.names)
            failures = [f"{k}: {v}" for k, v in samples.failures.items()]
            p50, _ = percentile(samples.latencies, 50)
            tail, beyond = percentile(samples.latencies, workload.tail_pct)
            stamp["wall_s"] = wall
            stamp["raw_latency_p50_s"] = percentile(samples.raw_latencies, 50)[0]
            stamp["raw_per_reference_s"] = sum(samples.raw_latencies) / sum(samples.latencies)
            stamp["latency_tail"] = {"percentile": workload.tail_pct, "samples": attempted,
                                     "beyond": beyond}
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result_metrics = {
                "instances_per_s": {"value": attempted / sum(samples.latencies), "unit": "1/s"},
                "latency_p50_s": {"value": p50, "unit": "s"},
                "latency_tail_s": {"value": tail, "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    stamp["failed_frac"] = len(failures) / attempted
    stamp["failures"] = failures[:10]
    stamp["stdout_sha256"] = samples.digest.hexdigest()
    stamp["instances"] = samples.names
    stamp["latencies_s"] = samples.latencies
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result_metrics,
    }
    return result, stamp


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "frobkit" / "cli.py").is_file():
        print(f"error: no frobkit source under {SRC}", file=sys.stderr)
        return 2
    result, stamp = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
