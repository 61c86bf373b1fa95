"""qcvv benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with a single caller in one process and
one thread: each unit of protocol calls starts only when the previous one has
returned.  Units start until the next one would end past ``--seconds`` (at
least one runs), and every unit is checked against its closed-loop oracle.

``--trace 0`` reports the end-to-end metrics.  Set-up is timed in this process
and in fresh interpreters started one after another; ``setup_s`` is their
median.  Times are calibrated by a reference kernel sampled during each
call (see ``SpeedSampler``); the record keeps the raw wall-clock figures too.
The single thread is the caller's: sampling runs in a signal handler on it.

``--trace 1`` runs a fixed number of units untraced, then the same units with
the tracer installed (set-up is traced too), and reports the per-layer
metrics in wall seconds (sampling included) and counts; spans are written to
``.perfbench-work/``.  The circuit and shot counts the tracer sees must equal
the workload design's, or the run fails.

The second-to-last line of standard output is the full record (environment,
every metric with its unit, check details); the last line is the summary with
the metrics ``BENCHMARK.json`` names for the chosen mode.  The exit code is 0
only when every check passed.  Compare result sets with ``compare.py``.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import signal
import subprocess
import sys
import tempfile
import time
import traceback

T_START = time.perf_counter()  # set-up is timed from here, before numpy and qcvv load

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")
SETUP_SAMPLES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

def _import_program():
    if not os.path.isfile(os.path.join(SRC, "qcvv", "__init__.py")):
        raise SystemExit(f"error: no qcvv sources under {SRC}")
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import qcvv

    if os.path.dirname(os.path.abspath(qcvv.__file__)) != os.path.join(SRC, "qcvv"):
        raise SystemExit(f"error: imported qcvv from {qcvv.__file__}, not from {SRC}")
    from perfbench import tracer, workloads

    return tracer, workloads


def environment(seed):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qcvv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


# Duration of ``reference()`` at the machine's nominal speed.  Timings are
# reported in calibrated seconds: wall seconds times how much faster than
# nominal the reference ran during the same call, raised to
# ``CALIBRATION_EXPONENT``.  On a shared 2-vCPU Xeon virtual machine whose
# speed drifted by up to 1.6x over seconds to minutes, a run's log latency
# moved by 0.72 times the reference's log speed (least squares over 70 runs
# of the four workloads; 0.64-0.81 per workload), so the full ratio
# over-corrects.  Process CPU time is no substitute: it tracked wall time
# within a few percent and spread as widely, so the slowdowns are not time
# spent waiting for a processor.  Raw figures go in the record too.
REF_NOMINAL_S = 0.006
SAMPLE_INTERVAL_S = 0.2
CALIBRATION_EXPONENT = 0.7


class _Pauli:
    __slots__ = ("x", "z", "k")

    def __init__(self, x, z, k):
        self.x, self.z, self.k = x, z, k

    def times(self, other):
        return _Pauli(self.x ^ other.x, self.z ^ other.z, (self.k + other.k + bin(self.x & other.z).count("1")) % 4)


_PAULIS = [_Pauli(i * 7919 & 255, i * 104729 & 255, i % 4) for i in range(256)]


def reference():
    """Time a fixed piece of work shaped like the program's hot paths (small
    objects multiplied with phase tracking, dict lookups, 4x4 tensordots).
    It does not use qcvv, and the garbage collector is off while it runs, so
    that neither the program's code nor the size of its heap moves it."""
    import numpy as np

    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, seen = _PAULIS[0], {}
        for i in range(3000):
            acc = acc.times(_PAULIS[i & 255])
            seen[(acc.x, acc.z)] = acc.k
        state, op = np.full((4, 4, 4), 0.125), np.eye(4) * 0.9
        for i in range(150):
            state = np.moveaxis(np.tensordot(op, state, axes=([1], [i % 3])), 0, i % 3)
        return time.perf_counter() - t0
    finally:
        if gc_enabled:
            gc.enable()


class SpeedSampler:
    """Samples the machine's speed while the program runs: every
    ``SAMPLE_INTERVAL_S`` a SIGALRM handler times ``reference()`` on the main
    thread (between bytecodes, so long native calls delay it).  ``measure``
    returns a call's wall time minus the sampling time spent inside it, and
    that time calibrated by the samples taken during it (or the latest
    sample before it, for a call shorter than the interval)."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        dt = reference()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self.samples.append(reference())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn):
        """(wall seconds, calibrated seconds) of ``fn()``."""
        first, spent, t0 = len(self.samples), self.spent, time.perf_counter()
        fn()
        wall = time.perf_counter() - t0 - (self.spent - spent)
        during = self.samples[first:] or self.samples[-1:]
        return wall, wall * self.speed(during) ** CALIBRATION_EXPONENT

    @staticmethod
    def speed(samples):
        """Machine speed relative to nominal, as the reference saw it."""
        return REF_NOMINAL_S / statistics.median(samples)


class Phase:
    """Units run back to back under a speed sampler."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.raw = []  # unit latencies, wall seconds
        self.latencies = []  # unit latencies, calibrated seconds
        self.failures = []
        self.attempted = 0
        self.circuits = 0
        self.shots = 0
        self.raw_wall = 0.0
        self.wall = 0.0

    def call(self, label, fn):
        """(wall, calibrated) seconds of one call; failures are recorded."""
        self.attempted += 1

        def guarded():
            try:
                fn()
            except Exception:  # a unit boundary: record and keep measuring
                self.failures.append(f"{label}: {traceback.format_exc(limit=3).strip()}")

        return self.sampler.measure(guarded)

    def unit(self, wl, i):
        raw, calibrated = self.call(f"unit {i}", lambda: wl.unit(i))
        self.raw.append(raw)
        self.latencies.append(calibrated)
        self.raw_wall += raw
        self.wall += calibrated
        self.circuits += wl.unit_counts[0]
        self.shots += wl.unit_counts[1]


def run_phase(wl, seconds=None, n_units=None):
    """Run ``run_once`` (outside the unit figures) and then units, either
    until the next would end past ``seconds`` (at least one) or ``n_units``."""
    with SpeedSampler() as sampler:
        phase = Phase(sampler)
        if wl.run_once:
            phase.once_s = phase.call("run_once", wl.run_once)
        t0 = time.perf_counter()
        i = 0
        while n_units is None or i < n_units:
            if n_units is None and phase.raw and time.perf_counter() - t0 + phase.raw[-1] > seconds:
                break
            phase.unit(wl, i)
            i += 1
    phase.speed = sampler.speed(sampler.samples)
    return phase


def finish(wl, phases):
    failures = [f for p in phases for f in p.failures]
    try:
        wl.finish()
    except Exception:
        failures.append(f"aggregate: {traceback.format_exc(limit=3).strip()}")
    return failures


def unit_tail(latencies):
    """(value, percentile) of the highest percentile with 10 units beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_setup(wl, t0):
    """(wall seconds since ``t0``, calibrated seconds) of set-up.  The imports
    before ``wl.setup()`` count as set-up and get its calibration."""
    before = time.perf_counter() - t0
    with SpeedSampler() as sampler:
        wall, calibrated = sampler.measure(wl.setup)
    return before + wall, (before + wall) * calibrated / wall


def setup_sample(name, seed):
    """(wall, calibrated) seconds of set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["calibrated_s"]


@contextlib.contextmanager
def traced(tr):
    """Install ``tr`` (if any) for the block; always restore the program."""
    if tr is None:
        yield
        return
    tr.install()
    try:
        yield
    finally:
        tr.uninstall()


def measure(name, seed, seconds, trace, tiny=False, t_start=None):
    """Run one workload and return the full record.  A ``tiny`` run (the
    self-tests) shrinks every design and sets up once, in this process."""
    tracer_mod, workloads = _import_program()
    os.makedirs(WORKDIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        wl = workloads.WORKLOADS[name](seed, tmp, tiny=tiny)
        tr = tracer_mod.Tracer() if trace else None
        t_setup0 = time.perf_counter() if t_start is None else t_start
        with traced(tr):
            setup_main = timed_setup(wl, t_setup0)
        wl.prepare_checks()
        metrics = {}
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "tiny": tiny}
        if not trace:
            phase = run_phase(wl, seconds=seconds)
            phases = [phase]
            samples = [setup_main] + [setup_sample(name, seed) for _ in range(0 if tiny else SETUP_SAMPLES - 1)]
            lat = phase.latencies
            metrics["setup_s"] = (statistics.median(cal for _, cal in samples), "s")
            metrics["wall_s"] = (phase.wall, "s")
            metrics["unit_p50_s"] = (statistics.median(lat), "s")
            tail = unit_tail(lat)
            if tail:
                metrics["unit_tail_s"] = (tail[0], "s")
                record["unit_tail"] = {"percentile": tail[1], "units": len(lat)}
            metrics["circuits_per_s"] = (phase.circuits / phase.wall, "circuits/s")
            metrics["shots_per_s"] = (phase.shots / phase.wall, "shots/s")
            record["raw"] = {
                "setup_s": statistics.median(raw for raw, _ in samples),
                "wall_s": phase.raw_wall,
                "unit_p50_s": statistics.median(phase.raw),
                "circuits_per_s": phase.circuits / phase.raw_wall,
                "shots_per_s": phase.shots / phase.raw_wall,
            }
            record["calibration"] = {"setup_factors": [cal / raw for raw, cal in samples], "units_speed": phase.speed}
            record["units"] = len(lat)
            record["unit_latencies_s"] = lat
            if wl.run_once:
                record["run_once_s"] = {"raw": phase.once_s[0], "calibrated": phase.once_s[1]}
            record["circuits"] = phase.circuits
            record["shots"] = phase.shots
        else:
            plain = run_phase(wl, n_units=wl.trace_units)
            before = dict(tr.counts)
            with traced(tr):
                traced_phase = run_phase(wl, n_units=wl.trace_units)
            phases = [plain, traced_phase]
            for layer, self_s in tr.self_times().items():
                metrics[f"{layer}_s"] = (self_s, "s")
            for counter in tracer_mod.COUNTERS:
                metrics[counter] = (tr.counts.get(counter, 0), "count")
            metrics["trace_overhead_frac"] = (traced_phase.wall / plain.wall - 1, "fraction")
            seen = {
                k: tr.counts.get(f"device.{k}", 0) - before.get(f"device.{k}", 0)
                for k in ("dense_circuits", "fast_circuits", "dense_shots", "fast_shots")
            }
            seen_counts = [seen["dense_circuits"] + seen["fast_circuits"], seen["dense_shots"] + seen["fast_shots"]]
            once = wl.once_counts() if wl.run_once else (0, 0)
            design = [traced_phase.circuits + once[0], traced_phase.shots + once[1]]
            record["design_counts"] = {"design": design, "traced": seen_counts}
            record["units"] = wl.trace_units
            record["absent"] = tr.absent
            with open(os.path.join(WORKDIR, f"trace-{name}-seed{seed}.json"), "w") as f:
                json.dump({"workload": name, "seed": seed, **tr.dump()}, f)
        failures = finish(wl, phases)
        if trace and seen_counts != design:
            failures.append(f"circuit and shot counts {seen_counts} seen by the tracer differ from the design's {design}")
    attempted = sum(p.attempted for p in phases)
    metrics["failed_frac"] = (len(failures) / attempted, "fraction")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    record.update(
        correct=not failures,
        attempted=attempted,
        failed=len(failures),
        failures=failures,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        env=environment(seed),
    )
    return record


def summary(record, bench):
    """The last-line object: the metrics BENCHMARK.json names for this mode."""
    names = [m["name"] for m in bench["per_layer" if record["trace"] else "end_to_end"]]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: record["metrics"][n] for n in names},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads: the benchmark is a
    # single-caller closed loop, and a multithreaded BLAS adds scheduler noise.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.setup_only:
        _, workloads = _import_program()
        os.makedirs(WORKDIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
            setup_s, calibrated = timed_setup(workloads.WORKLOADS[args.workload](args.seed, tmp), T_START)
            print(json.dumps({"setup_s": setup_s, "calibrated_s": calibrated}))
        return 0
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), t_start=T_START)
    for failure in record["failures"]:
        print(failure, file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(summary(record, bench)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
