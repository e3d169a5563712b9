"""ccdsim benchmark: four workloads, end-to-end metrics, a traced per-layer run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # the four, one after another
    python3 perfbench/run.py --self-test

Each workload process is a fresh interpreter (``child.py``) running ccdsim
from ``src/`` of the checkout; one process runs at a time. For ``--seconds``
seconds (ending at the process boundary nearest to it, and at least
``MIN_RUNS`` times) the harness runs the workload process again and again,
then reports medians over those processes:

* ``wall_s``: spawn to exit of a workload process, dataset written;
* ``setup_s``: spawn to the child's readiness mark (interpreter start,
  ``import ccdsim...``, inputs built);
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process alone, read with
  ``os.wait4``.

Every workload output is checked (``verify.py``) and byte-compared with the
first output of the run; each failure counts into ``failed`` and the printed
``fail_frac``. With ``--trace 1`` the run also spawns one traced process
(spans around ccdsim's public functions, ``tracer.py``) and one probe
process (``probes.py``) and prints the per-layer metrics instead.

Each workload ends its output with a human-readable summary, a ``record``
line with provenance, and the JSON result as its last line.
"""
import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import verify

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: ccdsim's worker threads, pinned so the workload is the same on any machine
THREADS = "2"
#: rb_long's shots are mostly pure-Python Clifford composition: two threads
#: spend their time handing the GIL to each other. On a 2-vCPU machine that
#: swung its 30 s run medians between 4.0 and 7.3 s at one seed. With one
#: thread, two sets of ten seeded runs spread by 6.5 and 7.9 % (quartile
#: distance over median)
RB_THREADS = "1"
WORKLOADS = {
    # batched first-frame evolve_grid over the default 41 x 256 lattice grid,
    # plus the largest dataset emission
    "sweep_lattice": ["chevron", "--scheme", "cm", "--threads", THREADS],
    # ~1,500 unbatched second-frame evolve calls driven by pulses and
    # noise_average; tiny 64-row dataset
    "sequence_noise": [
        "dressed", "--scheme", "cm", "--kind", "ccd_ramsey", "--rabi-hz", "2.2e6",
        "--points", "64", "--noise-detuning-sigma-hz", "2e4", "--noise-samples", "8",
        "--threads", THREADS,
    ],
    # Clifford composition, recovery search and the decay fit; only 384 short
    # propagator calls, so it bypasses propagation changes
    "rb_long": [
        "rb", "--scheme", "cm", "--rabi-hz", "2.2e6",
        "--cliffords", "1,2,4,8,16,32,64,128,256", "--k", "30",
        "--static-detuning-frac", "0.02", "--noise-detuning-sigma-hz", "1e5",
        "--noise-samples", "64", "--threads", RB_THREADS,
    ],
    # one stepped cf4 trace of 2 us against the 15 GHz carrier (~1.2M steps,
    # two 2^20-step chunks); no scipy, no thread pool
    "lab_trace": None,
}
MIN_RUNS = 3
#: a process running longer than this is killed and counted as failed
PROCESS_TIMEOUT_S = 150.0
#: trace.unattributed_s may be at most this share of traced compute time
UNATTRIBUTED_LIMIT = 0.20


def workload_job(workload, seed):
    """The child-process job of one workload at one seed."""
    argv = WORKLOADS[workload]
    return {
        "kind": "lab" if argv is None else "cli",
        "argv": [] if argv is None else argv + ["--seed", str(seed)],
        "out": os.path.join(WORK, f"{workload}.out"),
    }


def declared_metrics():
    """Metric name -> unit for trace 0 and trace 1, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]


def _child_env():
    """The harness environment with the checkout's ``src`` first on the path."""
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(job, name, extra_flags=()):
    """Run one child process; return its timings, rusage and exit code."""
    ready = os.path.join(WORK, f"{name}.ready")
    job = dict(job, ready=ready, src=SRC)
    if os.path.exists(ready):
        os.unlink(ready)
    cmd = [sys.executable, *extra_flags, os.path.join(HERE, "child.py"), json.dumps(job)]
    err_path = os.path.join(WORK, f"{name}.err")
    with open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=err, env=_child_env(), cwd=ROOT
        )
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROCESS_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    setup = None
    if os.path.exists(ready):
        with open(ready, encoding="utf-8") as handle:
            setup = float(handle.read()) - start
    return {
        "code": code,
        "wall_s": end - start,
        "setup_s": setup,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cmd": cmd,
        "stderr": err_path,
    }


def _tail(path, lines=5):
    with open(path, encoding="utf-8", errors="replace") as handle:
        return "".join(handle.readlines()[-lines:]).strip()


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.reference = verify.load_reference(workload)
        self.job = workload_job(workload, seed)
        self.first_output = None
        self.cmd = None  # argv of the last workload process
        self.attempted = 0
        self.failures = []
        self.walls, self.setups, self.rss = [], [], []

    def _fail(self, kind, message):
        self.failures.append(f"{kind}: {message}")
        print(f"FAILED {self.workload} {kind}: {message}", file=sys.stderr)

    def _check_output(self, kind):
        """Verify the output just written; return True when it is correct."""
        try:
            with open(self.job["out"], "rb") as handle:
                payload = handle.read()
            os.unlink(self.job["out"])
        except OSError as exc:
            self._fail(kind, f"no output: {exc}")
            return False
        if self.first_output is None:
            problems = verify.check_output(self.workload, payload, self.seed, self.reference)
            if problems:
                self._fail(kind, "; ".join(problems))
                return False
            self.first_output = payload
        elif payload != self.first_output:
            self._fail(kind, "output bytes differ from the first run of this set")
            return False
        return True

    def attempt(self, kind, setup_only=False, extra_flags=(), trace=None):
        """Spawn one process; return its result, or None when it failed."""
        self.attempted += 1
        job = dict(self.job, setup_only=setup_only, trace=trace)
        result = spawn(job, f"{self.workload}.{kind}", extra_flags)
        if kind == "workload":
            self.cmd = result["cmd"]
        if result["code"] != 0 or result["setup_s"] is None:
            self._fail(kind, f"exit code {result['code']}: {_tail(result['stderr'])}")
            return None
        if not setup_only and not self._check_output(kind):
            return None
        return result

    def measure(self, seconds):
        """Untraced workload processes, one at a time, for ``seconds`` seconds."""
        self.attempt("warmup", setup_only=True)  # fills caches; not measured
        start = time.monotonic()
        while len(self.walls) < MIN_RUNS or self._elapsed_at_next_midpoint(start) < seconds:
            result = self.attempt("workload")
            if result is not None:
                self.walls.append(result["wall_s"])
                self.setups.append(result["setup_s"])
                self.rss.append(result["rss_mb"])
            elif len(self.failures) > MIN_RUNS:
                break  # failing persistently; stop early and report the failures

    def _elapsed_at_next_midpoint(self, start):
        """Elapsed time halfway through one more process: stopping when this
        passes ``seconds`` ends the run at the process boundary nearest to it."""
        return time.monotonic() - start + statistics.median(self.walls) / 2

    def end_to_end(self):
        return {
            "wall_s": statistics.median(self.walls),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(self.rss),
        }


def _self_times(spans):
    """Per-span self time within one thread's span list."""
    self_times = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_times[parent] -= end - start
    return self_times


def summarize_spans(doc):
    """Aggregate spans by name: calls, self time summed over threads, counts."""
    by_name = {}
    for thread in doc["threads"]:
        spans = thread["spans"]
        for span, self_time in zip(spans, _self_times(spans)):
            entry = by_name.setdefault(span[0], {"calls": 0, "self_s": 0.0, "counts": {}})
            entry["calls"] += 1
            entry["self_s"] += self_time
            for key, value in (span[4] or {}).items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
    return by_name


def import_times(stderr_text):
    """Cumulative import seconds from ``python -X importtime`` output."""
    ccdsim_us, scipy_optimize_us = 0, 0
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name_field = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header line
        name = name_field[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        name = name.strip()
        if depth == 0 and (name == "ccdsim" or name.startswith("ccdsim.")):
            ccdsim_us += int(cumulative)
        if name == "scipy.optimize":
            scipy_optimize_us = int(cumulative)
    return {"import.ccdsim_s": ccdsim_us / 1e6, "import.scipy_optimize_s": scipy_optimize_us / 1e6}


def layer_metrics(spans, imports, probes, traced, untraced_wall):
    """Per-layer metrics from the traced process, probes and untraced medians."""

    def pick(*names, prefix=None, exclude=()):
        return [
            entry
            for name, entry in spans.items()
            if (name in names or (prefix and name.startswith(prefix))) and name not in exclude
        ]

    def self_s(*names, **match):
        return sum(entry["self_s"] for entry in pick(*names, **match))

    def calls(*names, **match):
        return sum(entry["calls"] for entry in pick(*names, **match))

    def count(key, *names, **match):
        return sum(entry["counts"].get(key, 0) for entry in pick(*names, **match))

    metrics = dict(imports)
    metrics.update({
        "config.parse_s": self_s("config.parse_config"),
        "drive.coeff_calls": calls(prefix="drive.coefficients."),
        "drive.coeff_samples": count("samples", prefix="drive.coefficients."),
        "drive.coeff_s": self_s(prefix="drive."),
        "propagator.calls": calls(
            "propagator.evolve", "propagator.evolve_grid", "propagator.propagator_unitary"
        ),
        "propagator.su2_exp_count": count("exps", "propagator.su2_exp"),
        "propagator.su2_exp_s": self_s("propagator.su2_exp"),
        "propagator.accumulate_s": self_s(prefix="propagator.", exclude=("propagator.su2_exp",)),
        "experiments.sweep_s": self_s("experiments.chevron_sweep"),
        "experiments.noise_shots": calls("experiments.noise_shot"),
        "experiments.noise_average_s": self_s(
            "experiments.noise_average", "experiments.noise_shot"
        ),
        "experiments.dressed_s": self_s("experiments.dressed_sequence_experiment"),
        "pulses.programs": calls("pulses.simulate_program"),
        "pulses.segments": count("segments", "pulses.simulate_program"),
        "pulses.simulate_s": self_s(prefix="pulses."),
        "clifford.recovery_calls": calls("clifford.recovery_clifford"),
        "clifford.recovery_s": self_s(prefix="clifford."),
        "rb.shots": count("shots", "rb.randomized_benchmarking"),
        "rb.sequences": count("sequences", "rb.randomized_benchmarking"),
        "rb.self_s": self_s("rb.randomized_benchmarking"),
        "rb.fit_s": self_s("rb.curve_fit"),
        "dataset.rows": count("rows", "dataset.emit_dataset"),
        "dataset.bytes": count("bytes", "dataset.emit_dataset"),
        "dataset.emit_s": self_s(prefix="dataset.", exclude=("dataset.write_dataset",)),
        "dataset.write_s": self_s("dataset.write_dataset"),
    })
    metrics.update(probes)
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    metrics["trace.unattributed_s"] = self_s("root")
    return metrics


def traced_run(run):
    """One traced process and one probe process; returns the per-layer metrics."""
    trace_path = os.path.join(WORK, f"{run.workload}.trace.json")
    traced = run.attempt("traced", extra_flags=("-X", "importtime"), trace=trace_path)
    if traced is None:
        raise SystemExit(f"traced run of {run.workload} failed: {run.failures[-1]}")
    with open(trace_path, encoding="utf-8") as handle:
        spans = summarize_spans(json.load(handle))
    with open(traced["stderr"], encoding="utf-8", errors="replace") as handle:
        imports = import_times(handle.read())
    run.attempted += 1
    probe = subprocess.run(
        [sys.executable, os.path.join(HERE, "probes.py"), SRC],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=PROCESS_TIMEOUT_S,
    )
    if probe.returncode != 0:
        raise SystemExit(f"layer probes failed: {probe.stderr.strip()[-500:]}")
    probes = json.loads(probe.stdout.splitlines()[-1])
    untraced_wall = statistics.median(run.walls)
    metrics = layer_metrics(spans, imports, probes["metrics"], traced, untraced_wall)
    compute = traced["wall_s"] - traced["setup_s"]
    if not metrics["trace.unattributed_s"] <= UNATTRIBUTED_LIMIT * compute:
        raise SystemExit(
            f"trace of {run.workload} leaves {metrics['trace.unattributed_s']:.3f} s "
            f"of {compute:.3f} s compute unattributed (limit {UNATTRIBUTED_LIMIT:.0%})"
        )
    details = {
        "spans": {name: {"calls": e["calls"], "self_s": e["self_s"]} for name, e in spans.items()},
        "probe_sizes": probes["sizes"],
        "traced_wall_s": traced["wall_s"],
        "traced_setup_s": traced["setup_s"],
    }
    return metrics, details


def _git(*args):
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def _caches():
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level")).strip()
        kind = _read(os.path.join(base, index, "type")).strip()
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(os.path.join(base, index, "size")).strip()
    return caches


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def provenance(run):
    digest = hashlib.sha256()
    package = os.path.join(SRC, "ccdsim")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    in_git = os.path.exists(os.path.join(ROOT, ".git"))
    status = _git("status", "--porcelain", "--", "src") if in_git else None
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "seed": run.seed,
        "workload": run.workload,
        "argv": run.cmd,
        "ccdsim_argv": ["ccdsim", *run.job["argv"]] if run.job["kind"] == "cli" else None,
        "load": "closed loop, one process at a time, from a single harness process",
    }


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, _on_term)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="only check that the output checker catches a 1e-5 change")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "ccdsim", "__init__.py")):
        print(f"ccdsim sources not found under {SRC}", file=sys.stderr)
        return 2
    defects = verify.self_test(WORKLOADS)
    if defects:
        print("output checker self-test failed: " + "; ".join(defects), file=sys.stderr)
        return 1
    if args.self_test:
        print(f"output checker self-test passed for {', '.join(WORKLOADS)}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    os.makedirs(WORK, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    return max(run_workload(workload, args) for workload in workloads)


def run_workload(workload, args):
    """Measure one workload; print its summary, record and result lines."""
    run = Run(workload, args.seed)
    run.measure(args.seconds)
    if not run.walls:
        print(f"no {workload} run succeeded", file=sys.stderr)
        return 1
    record = {"provenance": provenance(run), "samples": {
        "wall_s": run.walls, "setup_s": run.setups, "peak_rss_mb": run.rss,
    }}
    if args.trace:
        values, record["trace"] = traced_run(run)
    else:
        values = run.end_to_end()
    failed = len(run.failures)
    record["failures"] = run.failures
    units = declared_metrics()[args.trace]
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{workload} fail_frac = {failed / run.attempted:.6g} "
          f"({failed} of {run.attempted} processes)")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
