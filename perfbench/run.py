#!/usr/bin/env python3
"""Benchmark of the confweight command-line tool.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

A closed loop with one client: the harness spawns one fresh
``python -m confweight.cli ...`` child at a time, the way users run the tool.
A pass runs the workload's commands in order; passes repeat at least three
times, and then while the next one is expected to end within ``--seconds``.
Every output is hashed and checked against a closed form (see workloads.py).
The last line of stdout is one JSON object:

* ``--trace 0``: the end-to-end metrics ``wall_s``, ``cpu_s`` and
  ``peak_rss_mb`` (medians over the passes) and ``setup_s`` (median wall
  time of a fresh ``import confweight.cli``, two before each pass);
* ``--trace 1``: the per-layer metrics of tracer.py.  The workload's commands
  run together in one child: untraced until ``--seconds`` have passed, then
  once traced for spans and once more for allocation peaks.
  ``trace.overhead_s`` is the traced wall time minus the untraced median.

``attempted`` and ``failed`` count commands.  A command fails when its exit
code is wrong, its oracle rejects its output, or its output's sha256 differs
from an earlier run of the same command on the same code, in this run or in
an earlier one recorded under ``.bench_build/perfbench``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170.0  # a run stops starting work here, so it exits within 180 s
ORACLE_TIMEOUT_S = 60.0
MIN_REPEATS = 3      # enough for a median, and a repeat for the digest probe
# fresh imports before each pass, so setup_s samples the same stretch of time
SETUP_PER_REPEAT = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass(frozen=True)
class Child:
    """One finished child process and what it cost."""

    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str], env: dict, timeout_s: float, log: Path) -> Child:
    """Run argv to completion; time it from spawn to exit and read its rusage."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=out)
    lock = threading.Lock()
    exited = False

    def kill():
        with lock:
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            exited = True
    except BaseException:  # interrupted: end the child before leaving
        kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CW_SEED", None)  # see workloads.py: every command uses the default
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        if not env.get(var, "").isdigit() or int(env[var]) > int(nproc):
            env[var] = nproc
    return env


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def machine_info(env: dict) -> dict:
    """Machine facts from /proc and /sys, read only."""
    model = next((line.split(":", 1)[1].strip()
                  for line in _read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        if level.isdigit():
            caches[int(level)] = _read(index / "size").strip()
    mem = next((line.split(":", 1)[1].strip()
                for line in _read(Path("/proc/meminfo")).splitlines()
                if line.startswith("MemTotal")), None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "last_level_cache": caches[max(caches)] if caches else None,
        "mem_total": mem,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_threads": {var: env.get(var) for var in BLAS_THREAD_VARS},
    }


def source_id() -> str:
    """Hash of the package source: digests are compared only on equal code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "confweight").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def oracle_id() -> str:
    return hashlib.sha256((HERE / "workloads.py").read_bytes()
                          + (HERE / "verify_checks.json").read_bytes()).hexdigest()[:16]


class Judge:
    """Decides whether each command's run failed, and remembers digests.

    Oracle verdicts are kept by output digest, so identical bytes are parsed
    once; digests are kept by code and arguments, so a repeat whose bytes
    differ is caught in this run and in later ones.

    Oracles run in a child process.  Linux starts a child's ``ru_maxrss`` at
    the spawning process's resident size, so the harness must stay smaller
    than every command it measures; parsing a 64 MB CSV here would not.
    """

    def __init__(self, path: Path, workload: str, seed: int):
        self.path = path
        self.workload = workload
        self.seed = seed
        try:
            state = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            state = {}
        self.digests: dict[str, str] = state.get("digests", {})
        self.verdicts: dict[str, str] = state.get("verdicts", {})
        self.src = source_id()
        self.oracles = oracle_id()
        self.failures: list[str] = []
        self.attempted = 0
        self.seen: dict[str, str] = {}

    def judge(self, cmd: workloads.Command, exit_code: int, out: Path, log: Path) -> None:
        self.attempted += 1
        reason = self._reason(cmd, exit_code, out, log)
        if reason:
            self.failures.append(f"{' '.join(cmd.args)}: {reason}")

    def _reason(self, cmd, exit_code, out, log) -> str | None:
        if exit_code != cmd.exit_code:
            return f"exit code {exit_code}, expected {cmd.exit_code}: {_read(log)[-400:]}"
        try:
            data = out.read_bytes()
        except OSError as exc:
            return f"no output: {exc}"
        digest = hashlib.sha256(data).hexdigest()
        self.seen[cmd.key] = digest
        run_key = f"{self.src} {' '.join(cmd.args)}"
        previous = self.digests.setdefault(run_key, digest)
        if previous != digest:
            return f"output sha256 {digest[:12]} differs from {previous[:12]} on the same code"
        verdict_key = f"{self.oracles} {' '.join(cmd.args)} {digest}"
        if verdict_key not in self.verdicts:
            self.verdicts[verdict_key] = self._oracle(cmd, out)
        return self.verdicts[verdict_key] or None

    def _oracle(self, cmd: workloads.Command, out: Path) -> str:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), self.workload, str(self.seed),
             cmd.key, str(out)],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=ORACLE_TIMEOUT_S)
        if proc.returncode != 0:
            return f"unreadable output: {proc.stderr[-400:]}"
        return json.loads(proc.stdout)

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"digests": self.digests, "verdicts": self.verdicts}),
                       encoding="utf-8")
        os.replace(tmp, self.path)


def spread(samples: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest percentile that has at
    least ten samples beyond it (None below eleven samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else ordered * 3
    out = {"n": n, "median": statistics.median(ordered), "q1": q1, "q3": q3,
           "tail_pct": None, "tail": None}
    if n > 10:
        pct = 100 * (n - 10) // n  # nearest rank ceil(pct*n/100) <= n - 10
        out["tail_pct"] = pct
        out["tail"] = ordered[max(1, -(-pct * n // 100)) - 1]
    return out


class Bench:
    """One benchmark run: its clock, children's environment and judge."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.env = child_env()
        self.commands = workloads.commands(workload, seed)
        self.out_dir = STATE / "out" / workload
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.log = STATE / "child.log"
        self.judge = Judge(STATE / "state.json", workload, seed)
        self.python("-c", "import confweight.cli")  # fills the bytecode and page caches

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def timeout(self) -> float:
        return max(1.0, RUN_LIMIT_S - self.elapsed())

    def python(self, *args: str) -> Child:
        return spawn([sys.executable, *args], self.env, self.timeout(), self.log)

    def setup_sample(self) -> float:
        child = self.python("-c", "import confweight.cli")
        if child.exit_code != 0:
            raise SystemExit(f"import confweight.cli failed: {_read(self.log)[-400:]}")
        return child.wall_s

    def repeat(self) -> dict:
        """Fresh imports for setup_s, then one pass over the workload's commands."""
        setup = [self.setup_sample() for _ in range(SETUP_PER_REPEAT)]
        wall = cpu = rss = 0.0
        for cmd in self.commands:
            out = self.out_dir / cmd.key
            out.unlink(missing_ok=True)
            child = self.python("-m", "confweight.cli", *cmd.argv(self.out_dir))
            self.judge.judge(cmd, child.exit_code, out, self.log)
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "setup_s": setup}

    def until_time_is_up(self, minimum: int, work) -> list:
        """Call work() at least minimum times, then while the next call is
        expected to end within --seconds."""
        done, took = [], []
        while len(done) < minimum or self.elapsed() + statistics.mean(took) <= self.seconds:
            if self.elapsed() >= RUN_LIMIT_S:
                break
            start = time.perf_counter()
            done.append(work())
            took.append(time.perf_counter() - start)
        return done

    def in_one_child(self, mode: str) -> tuple[list, float]:
        """All commands in one tracer.py child; its spans and wall time."""
        report = STATE / "tracer.json"
        report.unlink(missing_ok=True)
        argv = [str(HERE / "tracer.py"), mode, str(report)]
        for cmd in self.commands:
            (self.out_dir / cmd.key).unlink(missing_ok=True)
            argv += ["--", *cmd.argv(self.out_dir)]
        child = self.python(*argv)
        if child.exit_code != 0:
            raise SystemExit(f"tracer.py {mode} failed: {_read(self.log)[-400:]}")
        doc = json.loads(report.read_text(encoding="utf-8"))
        for cmd, code in zip(self.commands, doc["exit_codes"]):
            self.judge.judge(cmd, code, self.out_dir / cmd.key, self.log)
        return doc["spans"], child.wall_s

    def traced(self) -> tuple[dict, list[float]]:
        """Untraced one-child runs until the time is up, then the two traced runs."""
        plain = self.until_time_is_up(1, lambda: self.in_one_child("plain")[1])
        spans, wall = self.in_one_child("spans")
        peak_spans, _ = self.in_one_child("peaks")
        metrics = tracer.layer_metrics(spans, peak_spans, wall, statistics.median(plain))
        return metrics, plain


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "confweight" / "cli.py").is_file():
        print(f"error: no confweight sources under {SRC}", file=sys.stderr)
        return 2
    STATE.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds)
    samples: dict[str, list[float]] = {}
    if args.trace:
        metrics, samples["untraced_wall_s"] = bench.traced()
        units = {s["name"]: s["unit"] for s in tracer.metric_specs()}
    else:
        runs = bench.until_time_is_up(MIN_REPEATS, bench.repeat)
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[key] = [r[key] for r in runs]
        samples["setup_s"] = [s for r in runs for s in r["setup_s"]]
        metrics = {key: statistics.median(samples[key]) for key in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    judge = bench.judge
    judge.save()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "source": judge.src, "machine": machine_info(bench.env),
        "samples": samples, "spread": {k: spread(v) for k, v in samples.items()},
        "digests": judge.seen, "failures": judge.failures,
    }
    with open(STATE / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for failure in judge.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("machine", "spread", "digests")}))
    print(json.dumps({
        "correct": not judge.failures,
        "attempted": judge.attempted,
        "failed": len(judge.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
