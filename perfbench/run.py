"""Benchmark for borsuk: run one workload end to end, check it, print metrics.

Run from the repository root:

    python3 perfbench/run.py --workload d0-table --seed 1 --seconds 30 --trace 0

Each iteration runs in a fresh interpreter (perfbench/child.py) with
PYTHONPATH=src, so no install is needed, and with the BLAS thread pools
pinned to nproc through the environment at launch.  A run first launches
interpreters that only import borsuk (set-up samples), then iterations of
the workload, one at a time, until the next one would pass --seconds.
With --trace 1 half of the time goes to untraced iterations and one more
iteration runs with every public borsuk function wrapped (tracing.py);
the per-layer metrics come from that traced iteration.

On a shared machine, such as the 2-core Xeon VM of the baseline in
README.md, speed drifts by up to a third within minutes, the same for
every program on it.  So while the children run, a thread of this
process times a fixed pure-Python loop (SpeedProbe), and the wall_s and
setup_s metrics are the measured times rescaled to the speed at which that
loop takes PROBE_REF_S.  The probe only counts, and only runs, while the
child keeps at most one core busy, so that it never competes with the
child for a core.  The raw times are per-layer metrics and are kept in
the run record.

The metric names and units are read from BENCHMARK.json.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
Spans and a full record of each run go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 9
PROBE_LOOPS = 20000
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 0.0018  # the probe's typical time on a 2-core 2.1 GHz Xeon VM
BUSY_CORES = 1.25  # child CPU rate above which the probe stays out of the way
MIN_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cpu_ns(pid: int) -> int:
    """CPU time used so far by the live threads of process pid, in ns."""
    total = 0
    try:
        tids = os.listdir("/proc/%d/task" % pid)
    except OSError:
        return 0
    for tid in tids:
        try:
            with open("/proc/%d/task/%s/schedstat" % (pid, tid)) as fh:
                total += int(fh.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass  # the thread has ended
    return total


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_PERIOD_S in a thread.

    The median loop time over an interval says how fast the machine was
    meanwhile; speed() turns it into the factor that rescales times taken
    in that interval to a machine on which the loop takes PROBE_REF_S.

    The loop must not compete with the child (set in `pid`) for a core:
    on a 2-core machine a child that runs two BLAS threads would slow the
    loop, and its own time would then be rescaled to read faster than it
    is.  So the loop is skipped when the child used more than BUSY_CORES
    cores over the last period, and its time is kept only if the child
    did not over the period that holds the loop either.  speed() falls
    back to the nearest kept samples when an interval has too few.
    """

    def __init__(self) -> None:
        self.pid = 0
        self.samples: list = []  # (start, loop seconds), kept ones only
        self.periods = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        pid = 0
        t_last = c_last = 0
        pending = None  # the last loop time, kept if the child stayed idle
        while not self._stop.wait(PROBE_PERIOD_S):
            self.periods += 1
            # the child's CPU time lags by up to a scheduler tick, so its
            # rate is read over a whole period, not over the short loop
            t_now, c_now = time.monotonic(), cpu_ns(pid) if pid else 0
            busy = c_now - c_last > BUSY_CORES * (t_now - t_last) * 1e9
            if pid != self.pid:  # a new child: nothing to compare with yet
                pid, pending = self.pid, None
                t_now, c_now, busy = time.monotonic(), cpu_ns(pid) if pid else 0, False
            elif pending is not None and not busy:
                self.samples.append(pending)
            t_last, c_last, pending = t_now, c_now, None
            if busy:
                continue
            t0 = time.monotonic()
            acc = 0
            for i in range(PROBE_LOOPS):
                acc += i * i % 7
            pending = (t0, time.monotonic() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, t0: float, t1: float) -> float:
        window = [d for t, d in self.samples if t0 <= t <= t1]
        if len(window) < MIN_SAMPLES:  # a short or a mostly multi-core child
            nearest = sorted(self.samples, key=lambda s: max(t0 - s[0], s[0] - t1))
            window = [d for _, d in nearest[:MIN_SAMPLES]]
        return PROBE_REF_S / statistics.median(window)


class ChildFailed(Exception):
    """A benchmark interpreter crashed or was killed."""


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env.pop("BORSUK_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def launch(argv: list, env: dict, deadline: float, probe: SpeedProbe) -> dict:
    """Run child.py once; add its set-up time, peak RSS, CPU time, span."""
    cmd = [sys.executable, str(HERE / "child.py")] + argv
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=str(ROOT))
    probe.pid = proc.pid
    timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        # wait4 rather than wait: it returns the child's own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        probe.pid = 0
        timer.cancel()
    if proc.returncode != 0:
        raise ChildFailed("child %s exited with %d" % (argv, proc.returncode))
    report = json.loads(out.decode().splitlines()[-1])
    report["setup_s"] = report["t_ready"] - t0
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    report["span"] = (t0, time.monotonic())
    return report


def iterate(argv: list, env: dict, budget: float, deadline: float,
            probe: SpeedProbe) -> list:
    """Closed loop: one iteration at a time while the next one fits."""
    reports = []
    t0 = time.monotonic()
    while True:
        reports.append(launch(argv, env, deadline, probe))
        elapsed = time.monotonic() - t0
        if elapsed * (len(reports) + 1) / len(reports) > budget:
            return reports


def quartiles(values: list) -> str:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return "median %.4f  q1 %.4f  q3 %.4f  n %d" % (
        statistics.median(values), q1, q3, len(values))


def environment(probe: dict, nproc: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return dict(git_sha=sha, nproc=nproc, cpu=cpu, **probe["versions"])


def layer_value(name: str, layers: dict, extra: dict):
    """Per-layer metric: a counter, or a wrapped function's self s / calls."""
    if name in extra:
        return extra[name]
    if name in layers["counts"]:
        return layers["counts"][name]
    func, _, kind = name.rpartition(".")
    if func in layers["wrapped"] and kind in ("s", "calls"):
        table = layers["self_s"] if kind == "s" else layers["calls"]
        return table.get(func, 0)
    raise KeyError("per-layer metric %r has no source" % name)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expect-wrong", action="store_true",
                    help="negative check: one expectation is deliberately wrong, "
                    "so the run must report failed > 0")
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        sys.stderr.write("error: cannot read BENCHMARK.json: %s\n" % exc)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write("error: unknown workload %r\n" % args.workload)
        return 2
    if not (ROOT / "src" / "borsuk" / "__init__.py").is_file():
        sys.stderr.write("error: no borsuk source under %s\n" % (ROOT / "src"))
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--scratch", str(OUT)]
    if args.expect_wrong:
        argv.append("--expect-wrong")
    try:
        with SpeedProbe() as speed:
            # warm-up: byte-compiles src and fills the page cache, not counted
            warm = launch(["--setup-only"], env, deadline, speed)
            probes = [launch(["--setup-only"], env, deadline, speed)
                      for _ in range(SETUP_PROBES)]
            budget = args.seconds / 2 if args.trace else args.seconds
            runs = iterate(argv, env, budget, deadline, speed)
            traced = None
            if args.trace:
                spans = OUT / ("spans-%s.jsonl" % tag)
                traced = launch(argv + ["--trace", str(spans)], env, deadline, speed)
    except ChildFailed as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1

    children = runs + ([traced] if traced else [])
    for child in children:
        child["speed"] = speed.speed(*child["span"])
    setup_speed = speed.speed(probes[0]["span"][0], probes[-1]["span"][1])
    kept = len(speed.samples) / max(1, speed.periods)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for child in children:
        for failure in child["failures"]:
            sys.stderr.write("FAILED %s\n" % failure)
    walls = [c["wall_s"] for c in runs]
    setups = [c["setup_s"] for c in probes]
    rss = [c["peak_rss_mb"] for c in runs]
    cpu = [c["cpu_s"] for c in runs]
    env_record = environment(warm, nproc)
    e2e = {
        "wall_s": statistics.median([c["wall_s"] * c["speed"] for c in runs]),
        "setup_s": statistics.median(setups) * setup_speed,
        "peak_rss_mb": statistics.median(rss),
    }

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    print("env %s" % json.dumps(env_record))
    print("wall_s       %.4f at reference speed" % e2e["wall_s"])
    print("  raw        %s" % quartiles(walls))
    print("  speed      %s" % quartiles([c["speed"] for c in runs]))
    print("setup_s      %.4f at reference speed" % e2e["setup_s"])
    print("  raw        %s" % quartiles(setups))
    print("  speed      %.4f" % setup_speed)
    print("probe        %d samples kept of %d periods" % (
        len(speed.samples), speed.periods))
    print("peak_rss_mb  %s" % quartiles(rss))
    print("proc.cpu_s   %s" % quartiles(cpu))
    print("error_rate   %d/%d = %.4f" % (failed, attempted, failed / attempted))

    if args.trace:
        extra = {
            "proc.cpu_s": statistics.median(cpu),
            "raw.wall_s": statistics.median(walls),
            "raw.setup_s": statistics.median(setups),
            "probe.speed": statistics.median([c["speed"] for c in runs]),
            "probe.kept": kept,
            "trace.overhead_s": traced["wall_s"] * traced["speed"] - e2e["wall_s"],
        }
        declared = spec["per_layer"]
        values = {m["name"]: layer_value(m["name"], traced["layers"], extra)
                  for m in declared}
        print("traced wall_s %.4f raw, overhead_s %.4f" % (
            traced["wall_s"], extra["trace.overhead_s"]))
    else:
        declared = spec["end_to_end"]
        values = {m["name"]: e2e[m["name"]] for m in declared}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"env": env_record, "args": vars(args), "children": children,
              "setup_probes": probes, "setup_speed": setup_speed,
              "raw": {"wall_s": statistics.median(walls),
                      "setup_s": statistics.median(setups)},
              "probe_samples": speed.samples,
              "result": result}
    (OUT / ("run-%s.json" % tag)).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
