#!/usr/bin/env python3
"""Benchmark of certified verdicts, one workload per process.

    python3 perfbench/run.py --workload symbols --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ``src/``.
After set-up the run repeats cycles until ``--seconds`` have passed.  A
cycle is a fixed number of verdict rounds (library calls, timed one by
one) followed by one CLI round (each command run with ``--json`` in a
fresh interpreter, its certificate then re-checked by
``verify_certificate``, which is timed).  Every answer is checked.

Times are reported at a fixed machine speed.  A fixed pure-Python
reference loop, which calls no library code, is timed every 40 ms; each
measured time is divided by the reference time around it and multiplied by
``REFERENCE_S``, the loop's time at full speed (see ``SpeedGauge``).  The
raw wall times are printed as well.  ``setup_s`` is the median of seven set-ups,
this process's and six more in fresh interpreters, each scaled by the
readings taken during it (``SpeedGauge.start_ticks``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the first cycles are traced
(see ``tracing.py``) and the object carries the per-layer metrics.
"""

from __future__ import annotations

import os

# one thread per process: numpy's BLAS pool would otherwise start a thread per core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# the reference loop's time at full speed: the usual 5th percentile of a
# run's readings on the 2-vCPU machine this benchmark was built on
REFERENCE_S = 200e-6
SETUP_PROBES = 6  # extra set-ups, each in a fresh interpreter
CLI_TIMEOUT_S = 60


def percentile(values, pct):
    """Nearest-rank percentile of a nonempty list."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def tail(values):
    """The highest of a few fixed percentiles with at least ten samples beyond it."""
    n = len(values)
    for pct in (99.9, 99.5, 99, 98, 95, 90, 75, 50):
        if n - math.ceil(pct / 100 * n) >= 10:
            return pct, percentile(values, pct), n - math.ceil(pct / 100 * n)
    return 50, percentile(values, 50), n - math.ceil(n / 2)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Fraction polynomial arithmetic of the benchmark's own (checks.py), close
# in kind to the library's work: allocation-heavy, with growing integers
_REF_A = [Fraction(7 * i + 3, i + 2) for i in range(8)]
_REF_B = [Fraction(5 * i - 11, 2 * i + 1) for i in range(8)]


def _reference_loop():
    return checks.pmul(_REF_A, _REF_B)


class SpeedGauge:
    """The machine's current speed, read from a fixed reference loop.

    On a shared machine the speed of one core moves by a third within
    minutes as other tenants' load comes and goes, and every wall time
    moves with it.  The gauge times a reference loop (best of three) at
    least every ``INTERVAL`` seconds.  A measured time is stored as a
    multiple of the mean of the reference times just before and just after
    it; multiplied by ``REFERENCE_S``, such multiples become times at a
    fixed machine speed.  The run's own fastest reference time will not
    do: in one run the machine never reached full speed, that time was
    1.4 times the usual one, and every metric grew with it.
    """

    INTERVAL = 0.04

    def __init__(self):
        self.samples = []
        self.pending = []
        self.last = self._measure()
        self.last_t = time.perf_counter()

    def _measure(self):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_loop()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        return best

    def record(self, dest, raw_s, force=False):
        """Append raw_s, in reference units, to dest once the next reference is read."""
        self.pending.append((dest, raw_s))
        if force or time.perf_counter() - self.last_t >= self.INTERVAL:
            self.flush()

    def flush(self):
        now = self._measure()
        scale = (self.last + now) / 2
        for dest, raw in self.pending:
            dest.append(raw / scale)
        self.pending.clear()
        self.last, self.last_t = now, time.perf_counter()

    def start_ticks(self):
        """Read the gauge every INTERVAL seconds from a timer signal.

        A set-up is one long stretch of work over which the machine's
        speed moves, so readings taken only at its ends do not tell its
        speed; readings taken during it do.
        """
        self.ticks, self.tick_s = [self.last], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        self.tick_t0 = time.perf_counter()

    def _tick(self, *_):
        t0 = time.perf_counter()
        self.ticks.append(self._measure())
        self.tick_s += time.perf_counter() - t0

    def stop_ticks(self):
        """Wall time since start_ticks, less the readings, and the same in reference units."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        raw = time.perf_counter() - self.tick_t0 - self.tick_s
        self.last, self.last_t = self._measure(), time.perf_counter()
        self.ticks.append(self.last)
        return raw, raw / statistics.mean(self.ticks)

    def fastest(self):
        """The run's fastest reference time (its 5th percentile), for the log."""
        return percentile(self.samples, 5)


class Stats:
    """What one mode (traced or untraced) of a run measured, in reference units."""

    def __init__(self):
        self.verdict = []  # successful calls
        self.calls = []  # every call, failed ones too
        self.verify = []
        self.cli = []
        self.raw_verdict_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.by_class = {}

    def verdicts_per_s(self, unit_s):
        """Successful verdicts over the time of all calls, the failed ones included."""
        return len(self.verdict) / (sum(self.calls) * unit_s) if self.verdict else 0.0


class Runner:
    def __init__(self, pf, workload, gauge, tracer=None):
        self.pf = pf
        self.wl = workload
        self.gauge = gauge
        self.tracer = tracer
        self.problems = []
        self.unexpected = []
        self.next_verdict = 0
        self.env = cli_env()

    def paused(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def _start_verdict(self):
        self.next_verdict += 1
        if self.tracer:
            self.tracer.verdict_id = self.next_verdict

    def verdict_round(self, stats):
        with self.paused():
            rnd = self.wl.verdict_round()
        results = []
        clock = time.perf_counter
        for op in rnd.ops:
            fn = getattr(self.pf, op.fn)
            self._start_verdict()
            t0 = clock()
            try:
                res = fn(*op.args, **op.kwargs)
                ok = True
            except self.pf.PadicFormsError as exc:
                res, ok = exc, False
            dt = clock() - t0
            results.append(res)
            stats.attempted += 1
            stats.raw_verdict_s += dt
            self.gauge.record(stats.calls, dt)
            if ok:
                self.gauge.record(stats.verdict, dt)
                self.gauge.record(stats.by_class.setdefault(op.cls, []), dt)
                if op.expect_fail:
                    self.unexpected.append(f"{op.cls}: expected to fail, answered {res!r}")
            else:
                stats.failed += 1
                if not op.expect_fail:
                    self.unexpected.append(f"{op.cls}: {type(res).__name__}: {res}")
        self.gauge.flush()
        with self.paused():
            self.problems += rnd.check(results)

    def cli_round(self, stats, in_process=False):
        with self.paused():
            cmds = self.wl.cli_round()
        for cmd in cmds:
            stats.attempted += 2  # the command and the verification of its output
            self.gauge.flush()
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "padicforms.cli", *cmd.argv],
                    capture_output=True, text=True, cwd=ROOT, env=self.env, timeout=CLI_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                stats.failed += 2
                self.unexpected.append(f"{cmd.cls}: timed out after {CLI_TIMEOUT_S} s")
                continue
            self.gauge.record(stats.cli, time.perf_counter() - t0, force=True)
            try:
                doc = json.loads(proc.stdout)
            except json.JSONDecodeError:
                doc = None
            if proc.returncode not in cmd.exit_codes or doc is None:
                stats.failed += 2
                stats.cli.pop()
                self.unexpected.append(
                    f"{cmd.cls}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
                continue
            self._start_verdict()
            t0 = time.perf_counter()
            ok, problems = self.pf.verify_certificate(doc)
            self.gauge.record(stats.verify, time.perf_counter() - t0, force=True)
            with self.paused():
                if not ok:
                    self.problems.append(f"{cmd.cls}: certificate rejected: {problems[:2]}")
                self.problems += [f"{cmd.cls}: {p}" for p in cmd.check(doc)]
                if cmd.mutate is not None and self.pf.verify_certificate(cmd.mutate(doc))[0]:
                    self.problems.append(f"{cmd.cls}: a certificate with a flipped symbol verifies")
        if in_process:
            self.cli_in_process()

    def cli_in_process(self):
        """Traced cycles also run fresh commands through cli.main in this process.

        They are not counted as operations; they only give the cli layer's
        spans (argument parsing, building the parser, emitting JSON).
        """
        import padicforms.cli as cli_module

        with self.paused():
            cmds = self.wl.cli_round()
        for cmd in cmds:
            self._start_verdict()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_module.main(cmd.argv)
            if rc not in cmd.exit_codes:
                self.unexpected.append(f"{cmd.cls} in process: exit {rc}")

    def cycle(self, stats, in_process=False):
        for _ in range(self.wl.verdict_rounds):
            self.verdict_round(stats)
        self.cli_round(stats, in_process)


def import_ms_from_outside(env, runs=3):
    """Cumulative import time of padicforms.cli, read from -X importtime."""
    values = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import padicforms.cli"],
                              capture_output=True, text=True, cwd=ROOT, env=env, timeout=CLI_TIMEOUT_S)
        for line in proc.stderr.splitlines():
            parts = [x.strip() for x in line.split("|")]
            if len(parts) == 3 and parts[2] == "padicforms.cli":
                values.append(int(parts[1]) / 1e3)
    return statistics.median(values) if values else 0.0


def setup_probe(args):
    """A whole set-up in a fresh interpreter: its wall time and reference units."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["setup_units"]


def main(argv=None) -> int:
    gauge = SpeedGauge()
    gauge.start_ticks()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="symbols, squares, construct, lifting or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "padicforms" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'padicforms'}; run from a checkout", file=sys.stderr)
        return 2
    try:  # the reference loop and the CLI children then share one core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    sys.path.insert(0, str(SRC))
    import padicforms as pf
    import padicforms.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    if not Path(pf.__file__).resolve().is_relative_to(SRC):
        print(f"error: padicforms imported from {pf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        # each workload in its own process, one after another
        gauge.stop_ticks()
        status = 0
        for name in workloads.WORKLOADS:
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], cwd=ROOT)
            status = status or proc.returncode
        return status
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    raw_s, units = gauge.stop_ticks()
    if args.setup_only:
        print(json.dumps({"setup_s": raw_s, "setup_units": units}))
        return 0
    setups = [(raw_s, units)] + [setup_probe(args) for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner(pf, wl, gauge, tracer)
    untraced, traced = Stats(), Stats()
    cycles = 0
    deadline = time.perf_counter() + args.seconds
    first_traced = last_traced = len(gauge.samples)  # the traced cycles come first
    while True:
        if tracer and cycles < wl.trace_cycles:
            tracer.active = True
            runner.cycle(traced, in_process=True)
            tracer.active = False
            last_traced = len(gauge.samples)
        else:
            runner.cycle(untraced)
        cycles += 1
        if time.perf_counter() >= deadline and (not tracer or cycles > wl.trace_cycles):
            break
    if tracer:
        tracer.uninstall()

    unit = REFERENCE_S
    stats = untraced
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    correct = not runner.problems
    lines = [f"workload {args.workload}, seed {args.seed}, {cycles} cycles"
             f" ({wl.verdict_rounds} verdict rounds and one CLI round each)",
             f"attempted {attempted}, failed {failed}, correct {correct}",
             f"reference loop: {unit * 1e6:.1f} us at full speed, {gauge.fastest() * 1e6:.1f} us"
             f" at this run's fastest (5th percentile),"
             f" median {statistics.median(gauge.samples) * 1e6:.1f} us over {len(gauge.samples)} readings"]
    lines += [f"  unexpected: {u}" for u in runner.unexpected[:10]]
    lines += [f"  check failed: {p}" for p in runner.problems[:20]]

    def ms(values):
        return [v * unit * 1e3 for v in values]

    if not args.trace:
        verdict_ms, verify_ms, cli_ms = ms(stats.verdict), ms(stats.verify), ms(stats.cli)
        metrics = {
            "setup_s": (statistics.median(u for _, u in setups) * unit, "s"),
            "verdicts_per_s": (stats.verdicts_per_s(unit), "1/s"),
            "verdict_ms.p50": (statistics.median(verdict_ms), "ms"),
            "verify_ms.p50": (statistics.median(verify_ms), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "cli_cold_ms.p50": (statistics.median(cli_ms), "ms"),
        }
        # tails do not repeat within a tenth from run to run, so they are
        # printed for reference and carry no bound
        reference = {
            "raw verdicts_per_s (wall clock)": (len(verdict_ms) / stats.raw_verdict_s, "1/s"),
        }
        for name, values in (("verdict_ms", verdict_ms), ("verify_ms", verify_ms), ("cli_cold_ms", cli_ms)):
            pct, value, beyond = tail(values)
            reference[f"{name}.tail (p{pct:g} of {len(values)}, {beyond} beyond)"] = (value, "ms")
        lines.append(f"set-up times (s): {', '.join(f'{u * unit:.3f}' for _, u in setups)} at full speed;"
                     f" {', '.join(f'{r:.3f}' for r, _ in setups)} raw")
        for name, (v, u) in {**metrics, **reference}.items():
            lines.append(f"  {name}: {v:.6g} {u}")
        for cls, vals in sorted(stats.by_class.items()):
            vals = ms(vals)
            lines.append(f"  class {cls}: n={len(vals)} p50={statistics.median(vals):.3f} ms"
                         f" max={max(vals):.3f} ms sum={sum(vals):.0f} ms")
    else:
        # span times, like the end-to-end times, at full speed
        scale = unit / statistics.median(gauge.samples[first_traced:last_traced])
        metrics = {name: (v * scale if u == "ms" else v, u)
                   for name, (v, u) in tracer.layer_metrics().items()}
        metrics["cli.import_ms"] = (import_ms_from_outside(runner.env), "ms")
        traced_rate, untraced_rate = traced.verdicts_per_s(unit), untraced.verdicts_per_s(unit)
        metrics["trace.verdicts"] = (len(traced.verdict), "count")
        metrics["trace.overhead_pct"] = (100.0 * (untraced_rate / traced_rate - 1), "%")
        lines.append(f"traced {wl.trace_cycles} cycles: {traced_rate:.2f} verdicts/s;"
                     f" untraced {cycles - wl.trace_cycles} cycles: {untraced_rate:.2f} verdicts/s")
        for name, (v, u) in metrics.items():
            lines.append(f"  {name}: {v:.6g} {u}")
        out = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(out)
        lines.append(f"spans written to {out.relative_to(ROOT)}")

    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
