"""Workload runner: timed CLI passes, output checks, metrics and records.

Each workload is a closed loop with one client: one CLI invocation at a
time, the next one starting when the previous one has exited.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import inputs
import tracing
from heraldsim.dsl import parse
from heraldsim.mc import precompute_outcome_tables

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

CHILD_TIMEOUT_S = 60.0
SETUP_REPEATS = 5
# four rows keep a pass short, so a run holds several passes; every row is
# timed on its own as the child writes it
SWEEP = {"r_min": 0.3, "r_max": 0.9, "steps": 4}
SMOKE_SWEEP_STEPS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# what call_p50_s and items_per_s measure on each workload
PRIMARY = {
    "exact": ("herald", "herald_p50_s", "sweep_points_per_s"),
    "mc_pulse": ("montecarlo", "montecarlo_p50_s", "pulses_per_s"),
    "mc_aggregate": ("montecarlo", "montecarlo_p50_s", "pulses_per_s"),
}
MIN_PASSES = 2             # so outputs are compared across passes

SETUP_PROBE = """\
import sys
import heraldsim.cli
from heraldsim.dsl import parse, validate
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        config = parse(fh.read())
    if any(d.startswith("error") for d in validate(config)):
        sys.exit(f"{path}: invalid config")
"""


@dataclasses.dataclass(frozen=True)
class Call:
    command: str              # herald | sweep | montecarlo
    args: tuple[str, ...]     # after the command; --out is added per pass
    config: int               # index of the workload config it reads

    def argv(self, out_dir: Path) -> list[str]:
        argv = [self.command, *self.args]
        if self.command == "montecarlo":
            argv += ["--out", str(out_dir)]
        return argv


@dataclasses.dataclass
class CallResult:
    call: Call
    returncode: int
    wall_s: float
    maxrss_kb: int
    outputs: dict[str, bytes]
    line_times: list[float] = dataclasses.field(default_factory=list)


def workload_calls(workload: str, paths: list[Path], smoke: bool) -> list[Call]:
    if workload == "exact":
        steps = SMOKE_SWEEP_STEPS if smoke else SWEEP["steps"]
        calls = [Call("herald", (str(p), "--json"), i)
                 for i, p in enumerate(paths)]
        calls.append(Call("sweep", (str(paths[0]), "--r-min", str(SWEEP["r_min"]),
                                    "--r-max", str(SWEEP["r_max"]),
                                    "--steps", str(steps)), 0))
        return calls
    if workload == "mc_pulse":
        # --threads is passed so a threaded sampler shows without a
        # benchmark change
        return [Call("montecarlo", (str(paths[0]), "--threads", "2"), 0)]
    return [Call("montecarlo", (str(p), "--aggregate"), i)
            for i, p in enumerate(paths)]


# --- child processes ----------------------------------------------------------

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    # each line reaches the harness when it is written, so sweep rows can
    # be timed one by one
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: list[str], log_stem: Path
              ) -> tuple[int, float, int, list[float]]:
    """Run `python3 <args>` to completion; returns exit code, wall time, the
    child's own peak RSS in KiB and, for each line of standard output, the
    time since launch at which it arrived.  Output goes to
    <log_stem>.out/.err."""
    line_times = []
    with open(log_stem.with_suffix(".out"), "wb") as out, \
            open(log_stem.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args],
                                stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                env=_child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                line_times.append(time.perf_counter() - start)
                out.write(line)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return proc.returncode, wall, usage.ru_maxrss, line_times


def _collect_outputs(call: Call, stdout: bytes, out_dir: Path) -> dict[str, bytes]:
    if call.command != "montecarlo":
        return {"stdout": stdout}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "manifest.json"}


def run_pass(calls: list[Call], pass_dir: Path) -> list[CallResult]:
    results = []
    for i, call in enumerate(calls):
        out_dir = pass_dir / f"call{i}"
        out_dir.mkdir(parents=True)
        stem = pass_dir / f"call{i}"
        code, wall, rss, lines = run_child(
            ["-m", "heraldsim.cli", *call.argv(out_dir)], stem)
        stdout = stem.with_suffix(".out").read_bytes()
        results.append(CallResult(call, code, wall, rss,
                                  _collect_outputs(call, stdout, out_dir),
                                  lines))
    return results


# --- checks ---------------------------------------------------------------------

class Checker:
    """Checks call outputs against replays; references are built once."""

    def __init__(self, configs, smoke: bool):
        self.configs = configs
        self.smoke = smoke
        self.schemas = {"herald": checks.load_schema("herald.schema.json"),
                        "summary": checks.load_schema("summary.schema.json")}
        self._refs: dict[tuple[str, int], object] = {}
        self._verdicts: dict[tuple[int, str], list[str]] = {}

    def _reference(self, command: str, index: int):
        key = (command, index)
        if key not in self._refs:
            config = self.configs[index]
            if command == "herald":
                self._refs[key] = checks.herald_reference(config)
            elif command == "sweep":
                steps = SMOKE_SWEEP_STEPS if self.smoke else SWEEP["steps"]
                self._refs[key] = checks.sweep_reference(
                    config, SWEEP["r_min"], SWEEP["r_max"], steps)
            else:
                self._refs[key] = precompute_outcome_tables(config)
        return self._refs[key]

    def content(self, position: int, result: CallResult) -> list[str]:
        digest = hashlib.sha256(repr(sorted(result.outputs.items())).encode()
                                ).hexdigest()
        key = (position, digest)
        if key not in self._verdicts:
            call = result.call
            ref = self._reference(call.command, call.config)
            if call.command == "herald":
                errors = checks.check_herald(result.outputs["stdout"].decode(),
                                             ref, self.schemas["herald"])
            elif call.command == "sweep":
                errors = checks.check_sweep(result.outputs["stdout"].decode(), ref)
            else:
                errors = checks.check_montecarlo(
                    result.outputs, self.configs[call.config], ref,
                    self.schemas["summary"])
            self._verdicts[key] = errors
        return self._verdicts[key]

    def passes(self, passes: list[list[CallResult]],
               identical: tuple[str, ...] = ("montecarlo",)) -> list[list[str]]:
        """Failures per call of every pass.  Commands in `identical` must
        also repeat the first pass byte for byte."""
        failures = []
        for p, results in enumerate(passes):
            for i, result in enumerate(results):
                where = f"pass {p} call {i} ({result.call.command})"
                if result.returncode != 0:
                    errors = [f"exit code {result.returncode}"]
                else:
                    errors = self.content(i, result)
                    if p > 0 and result.call.command in identical:
                        errors = errors + checks.check_identical(
                            passes[0][i].outputs, result.outputs,
                            result.call.command)
                failures.append([f"{where}: {e}" for e in errors])
        return failures


# --- environment ------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "heraldsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, configs, smoke: bool) -> dict:
    return {
        "workload": workload,
        "workload_seed": seed,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "mc_seeds": [c.seed for c in configs],
        "pulses_per_basis": [c.pulses for c in configs],
        "bases": [len(c.bases) for c in configs],
    }


# --- runs ---------------------------------------------------------------------------

def _typical_pass_s(passes: list[list[CallResult]]) -> float:
    """Wall time of a typical pass: the sum, over the pass's invocations, of
    each one's median wall time across passes.  A slow stretch of the host
    that hits one invocation moves it less than it moves the median of
    whole-pass times."""
    return sum(statistics.median(r.wall_s for r in column)
               for column in zip(*passes))


def _items_per_s(workload: str, passes: list[list[CallResult]], configs,
                 pass_s: float) -> float:
    """Sweep rows per second: rows over the sum, across rows, of each row's
    median time (a row's time is the gap between it and the line before it
    in `sweep` output, the header coming first).  Or simulated pulses of a
    pass, summed over bases, per second of typical pass time, which is all
    `montecarlo` time."""
    if workload == "exact":
        rows = [[b - a for a, b in zip(r.line_times, r.line_times[1:])]
                for results in passes for r in results
                if r.call.command == "sweep" and r.returncode == 0]
        if not rows:
            return 0.0
        per_row = [statistics.median(column) for column in zip(*rows)]
        return len(per_row) / sum(per_row)
    pulses = sum(configs[r.call.config].pulses * len(configs[r.call.config].bases)
                 for r in passes[0])
    return pulses / pass_s


def timed_run(workload: str, configs, paths: list[Path], seconds: float,
              work: Path, smoke: bool) -> tuple[dict, dict]:
    calls = workload_calls(workload, paths, smoke)
    probe_args = ["-c", SETUP_PROBE, *map(str, paths)]
    probes = []

    def setup_probe():
        probes.append(run_child(probe_args, work / f"setup{len(probes)}"))

    passes, pass_walls = [], []
    start = time.perf_counter()
    while True:
        # one set-up sample before each pass spreads them over the run; the
        # first also byte-compiles the sources before any timed CLI call
        setup_probe()
        t0 = time.perf_counter()
        passes.append(run_pass(calls, work / f"pass{len(passes)}"))
        pass_walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        # no pass starts that would likely end after `seconds`
        if (len(passes) >= MIN_PASSES
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    while len(probes) < SETUP_REPEATS:
        setup_probe()
    setup = [wall for _, wall, *_ in probes]

    failures = Checker(configs, smoke).passes(passes)
    failures += [[f"setup probe {k}: exit code {code}"] if code else []
                 for k, (code, *_) in enumerate(probes)]
    primary = PRIMARY[workload][0]
    pass_s = _typical_pass_s(passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": pass_s,
        "call_p50_s": statistics.median(
            r.wall_s for results in passes for r in results
            if r.call.command == primary),
        "items_per_s": _items_per_s(workload, passes, configs, pass_s),
        "peak_rss_mb": max(r.maxrss_kb for results in passes
                           for r in results) / 1024.0,
    }
    samples = {
        "setup_s": setup,
        "pass_wall_s": pass_walls,
        "calls": [[{"command": r.call.command, "args": list(r.call.args),
                    "wall_s": r.wall_s, "returncode": r.returncode,
                    "maxrss_kb": r.maxrss_kb, "line_times": r.line_times}
                   for r in results]
                  for results in passes],
    }
    return ({"metrics": metrics, "failures": failures, "samples": samples},
            {name: END_TO_END_UNITS[name] for name in metrics})


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def traced_run(workload: str, configs, paths: list[Path], work: Path,
               smoke: bool) -> tuple[dict, dict]:
    calls = workload_calls(workload, paths, smoke)

    def import_probe() -> float:
        code, wall, *_ = run_child(["-c", "import heraldsim.cli"],
                                   work / "import")
        if code:
            raise RuntimeError(f"importing heraldsim.cli failed ({code})")
        return wall

    metrics = tracing.layer_probes(paths, import_probe, smoke)

    def replay_pass(label: str, tracer: tracing.Tracer | None):
        results = []
        start = time.perf_counter()
        for i, call in enumerate(calls):
            out_dir = work / label / f"call{i}"
            out_dir.mkdir(parents=True)
            code, wall, stdout = tracing.replay(call.argv(out_dir), tracer)
            results.append(CallResult(call, code, wall, 0,
                                      _collect_outputs(call, stdout, out_dir)))
        return results, time.perf_counter() - start

    plain, plain_wall = replay_pass("replay", None)
    tracer = tracing.Tracer()
    traced, traced_wall = replay_pass("replay_traced", tracer)
    # tracing must not change a single output byte
    failures = Checker(configs, smoke).passes(
        [plain, traced], identical=("herald", "sweep", "montecarlo"))

    self_times = tracer.self_times()
    residual = {}
    for span, own in zip(tracer.spans, self_times):
        if span.parent is None:
            residual.setdefault(span.name, []).append(own)
    metrics["cli.residual_s"] = sum(sum(v) for v in residual.values())
    metrics["cli.write_bytes"] = sum(len(b) for r in plain
                                     for b in r.outputs.values())
    trace = {
        "untraced_s": plain_wall,
        "traced_s": traced_wall,
        "overhead_s": traced_wall - plain_wall,
        "cli_residual_s": {k: sum(v) for k, v in residual.items()},
        "span_summary": tracer.summary(),
        "spans": tracer.to_json(),
    }
    (work / "trace.json").write_text(json.dumps(trace, indent=1) + "\n")
    return ({"metrics": metrics, "failures": failures, "trace": {
                k: v for k, v in trace.items() if k != "spans"}},
            {name: _layer_unit(name) for name in metrics})


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool) -> int:
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    paths = inputs.write_inputs(workload, seed, work / "inputs", smoke)
    configs = [parse(p.read_text(encoding="utf-8")) for p in paths]
    env = environment(workload, seed, configs, smoke)
    print("env " + json.dumps(env, sort_keys=True))

    if trace:
        record, units = traced_run(workload, configs, paths, work, smoke)
    else:
        record, units = timed_run(workload, configs, paths, seconds, work, smoke)
    failures = record["failures"]
    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    for line in (e for f in failures for e in f):
        print(f"FAILED {line}")

    metrics = record["metrics"]
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not trace:
        _, call_alias, rate_alias = PRIMARY[workload]
        print(f"{call_alias} = {metrics['call_p50_s']:.6g} s  (call_p50_s)")
        print(f"{rate_alias} = {metrics['items_per_s']:.6g} 1/s  (items_per_s)")
    else:
        t = record["trace"]
        print(f"trace: untraced {t['untraced_s']:.4f} s, traced "
              f"{t['traced_s']:.4f} s, overhead {t['overhead_s']:+.4f} s")
        for name, s in sorted(t["span_summary"].items(),
                              key=lambda kv: -kv[1]["self_s"]):
            print(f"span {name}: calls {s['calls']}, total {s['total_s']:.4f} s, "
                  f"self {s['self_s']:.4f} s")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed}/{attempted})")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    (work / "result.json").write_text(json.dumps(
        dict(record, env=env, result=result), indent=1) + "\n")
    print(json.dumps(result))
    return 0
