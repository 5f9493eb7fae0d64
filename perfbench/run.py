"""ilalg benchmark: generated workloads through the real CLI, every output
checked.

    python3 perfbench/run.py --workload law-suite-64 --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; it needs `src/ilalg`. With
`--trace 0` each pass runs every invocation of the workload as its own
`python -m ilalg` subprocess, one at a time (a closed loop with one
client), and passes repeat while the next one still fits in `--seconds`.
Pass p runs round p of the seed's inputs (see `Inputs`).
The end-to-end metrics are sums and maxima of per-invocation medians.
With `--trace 1` the same invocations call `ilalg.cli.main` in-process,
each once untraced and once traced, and the per-layer metrics come from
the traced spans (see tracer.py). Every output is checked by the gate in
either mode. The last line of stdout is the result as one JSON object;
the line before it records the host.

Times are host-normalised. The process pins itself and its children to
one CPU, and times a fixed pure-Python loop (the reference) before the
first and after every measured step. Each step's wall time is multiplied
by REF_NOMINAL_S over the mean of the two reference times around it, so it
reads as wall time on a host where the loop takes REF_NOMINAL_S. On a
shared host the speed of a core drifts by tens of percent over minutes;
the reference drifts with it, and the ratio stays steady. Raw medians are
printed on the info line.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

ROOT = gen.ROOT
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 9  # timed set-ups of round 0 before the first pass, besides one per pass
STARTUP_PROBES = 3  # interpreter + import timings per traced pass
REF_LOOP = 250_000  # iterations of the reference loop
REF_NOMINAL_S = 0.016  # reference loop time that normalised times are scaled to

END_TO_END = ("setup_s", "wall_s", "check_s", "filters_s", "classify_s",
              "quotient_s", "derive_arrow_s", "peak_rss_mb")
UNITS = {"peak_rss_mb": "MB", "filters.yield": "ratio", "trace.overhead_frac": "ratio"}

# Per-layer self-time metrics: metric -> the span names whose self time it sums.
SELF_MS = {
    "core.check_identities.ms": ["core.check_identities"],
    "core.check_lattice.ms": ["core.check_lattice"],
    "core.check_monoid.ms": ["core.check_monoid"],
    "core.check_residuation.ms": ["core.check_residuation"],
    "core.derive_arrow.ms": ["core.derive_arrow"],
    "core.transitive_closure.ms": ["core.transitive_closure"],
    "core.assemble_algebra.ms": ["core.assemble_algebra"],
    "quotient.quotient_algebra.ms": ["quotient.quotient_algebra"],
    "quotient.congruence_classes.ms": ["quotient.congruence_classes"],
    "quotient.theorems.ms": ["quotient.check_quotient_order",
                             "quotient.check_distributive_quotient",
                             "quotient.check_linear_quotient",
                             "quotient.check_affine_quotient"],
    "filters.enumerate_filters.ms": ["filters.enumerate_filters"],
    "filters.is_maximal_filter.ms": ["filters.is_maximal_filter"],
    "filters.predicates.ms": ["filters.is_distributive_filter",
                              "filters.is_prime_filter",
                              "filters.is_implicative_filter",
                              "filters.is_affine_filter"],
    "report.render.ms": ["report.render"],
    "specfile.parse_spec.ms": ["specfile.parse_spec"],
    "specfile.render_spec.ms": ["specfile.render_spec"],
    "cli.main.self_ms": ["cli.main"],
}
CALLS = {
    "core.assemble_algebra.calls": "core.assemble_algebra",
    "quotient.quotient_algebra.calls": "quotient.quotient_algebra",
    "filters.enumerate_filters.calls": "filters.enumerate_filters",
    "filters.is_filter.calls": "filters.is_filter",
}
COUNTS = ("quotient.blocks", "filters.count", "report.lines", "report.bytes",
          "core.violations")
PER_LAYER = (*SELF_MS, *CALLS, *COUNTS, "filters.yield", "cli.startup.ms",
             "trace.overhead_frac")


class Reference:
    """Host speed, as the time of a fixed pure-Python loop on our CPU."""

    def __init__(self) -> None:
        self.samples = [self._loop()]

    @staticmethod
    def _loop() -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(REF_LOOP):
            total += i * i
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor for the step since the previous call: REF_NOMINAL_S over
        the mean reference time before and after it."""
        self.samples.append(self._loop())
        return REF_NOMINAL_S / ((self.samples[-2] + self.samples[-1]) / 2)


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so the reference
    loop sees the same core as the invocations it normalises."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_pins(plan) -> dict:
    """Pinned output digests by invocation key; empty for unpinned rounds."""
    entry = workloads.pins(plan.workload)
    pinned = entry["seeds"].get(f"{plan.seed}:{plan.round}")
    if not pinned:
        return {}
    keys = [inv.key for inv in plan.invocations]
    if entry["keys"] != keys:
        raise SystemExit(f"digests.json was pinned for other {plan.workload} invocations; "
                         "run perfbench/pin.py again")
    return dict(zip(keys, pinned.split()))


def write_inputs(plan, work: Path) -> None:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    for name, text in plan.files.items():
        (work / name).write_text(text, encoding="utf-8")


class Inputs:
    """The seed's rounds of workload inputs; pass p runs round p.

    `next()` generates a round's inputs and expected answers, writes the
    inputs to `work`, times both (normalised) for `setup_s`, and points the
    gate at the round's pinned digests. Every round draws fresh carrier
    orders and corrupted cells, so a run averages over several instances
    of the workload rather than measuring one.
    """

    def __init__(self, workload: str, seed: int, work: Path, ref: Reference, judge: Gate):
        self.workload, self.seed, self.work = workload, seed, work
        self.ref, self.judge = ref, judge
        self.round = 0
        self.setup_s: list[float] = []

    def build(self, round_: int):
        t0 = time.perf_counter()
        plan = workloads.build(self.workload, self.seed, round_)
        write_inputs(plan, self.work)
        self.setup_s.append((time.perf_counter() - t0) * self.ref.scale())
        self.judge.pins = load_pins(plan)
        return plan

    def next(self):
        plan = self.build(self.round)
        self.round += 1
        return plan


class Gate:
    """Counts attempted and failed invocations and keeps the first problems."""

    def __init__(self) -> None:
        self.pins: dict[str, str] = {}
        self.attempted = self.failed = self.pinned = 0
        self.problems: list[str] = []

    def judge(self, inv, code: int, out: str, err: str) -> None:
        self.attempted += 1
        problems = []
        if code != inv.exit:
            problems.append(f"exit {code}, want {inv.exit}")
        if err:
            problems.append(f"stderr: {err.strip()[:200]}")
        problems += inv.check(out)
        if inv.key in self.pins:
            self.pinned += 1
            if gate.digest(out) != self.pins[inv.key]:
                problems.append("output digest differs from the pinned one")
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems += [f"{inv.key}: {p}" for p in problems[:3]]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


# Runs each invocation for the benchmark and reports its exit code, wall
# time and peak RSS. A child's ru_maxrss counts the pages of the process it
# was forked from, so children are forked from this small process rather
# than from the benchmark, whose own size would otherwise be measured.
LAUNCHER = """
import json, os, resource, subprocess, sys, time

def limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (120, 120))

for line in sys.stdin:
    argv, out, err = json.loads(line)
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, preexec_fn=limit_cpu)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, elapsed, usage.ru_maxrss]), flush=True)
"""


class Launcher(contextlib.AbstractContextManager):
    """A long-lived helper process that runs `python -m ilalg` children,
    each limited to 120 s of CPU time."""

    def __init__(self, io_dir: Path):
        self.out, self.err = io_dir / "stdout", io_dir / "stderr"
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER], env=child_env(),
                                     cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str]) -> tuple[int, str, str, float, float]:
        """Exit code, stdout, stderr, wall seconds and peak RSS in MB."""
        argv = [sys.executable, "-m", "ilalg", *args]
        self.proc.stdin.write(json.dumps([argv, str(self.out), str(self.err)]) + "\n")
        self.proc.stdin.flush()
        code, elapsed, rss_kb = json.loads(self.proc.stdout.readline())
        out = self.out.read_text(encoding="utf-8")
        err = self.err.read_text(encoding="utf-8")
        return code, out, err, elapsed, rss_kb / 1024

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=150)
        self.proc.stdout.close()


def file_args(inv, work: Path) -> list[str]:
    args = list(inv.args)
    args[1] = str(work / args[1])
    return args


def measure_cli(inputs: Inputs, seconds: float, judge: Gate, ref: Reference) -> dict:
    """Subprocess passes, each running every invocation `repeat` times,
    while the next one still fits in `seconds`."""
    plan, work = inputs.next(), inputs.work
    with Launcher(work.parent) as launcher:
        launcher.run(file_args(plan.invocations[-1], work))  # warm-up
        ref.scale()
        times, raw, rss, passes = _passes(plan, work, launcher, inputs, seconds, judge, ref)
    med = {k: statistics.median(v) for k, v in times.items()}
    group = {inv.key: inv.group for inv in plan.invocations}
    metrics = {f"{g}_s": sum(t for k, t in med.items() if group[k] == g)
               for g in workloads.GROUPS}
    metrics["wall_s"] = sum(med.values())
    metrics["cmd_max_s"] = max(med.values())
    metrics["peak_rss_mb"] = max(statistics.median(v) for v in rss.values())
    metrics["raw_wall_s"] = sum(statistics.median(v) for v in raw.values())
    metrics["passes"] = passes
    return metrics


def _passes(plan, work, launcher, inputs, seconds, judge, ref):
    """Run the passes; normalised times, raw times and RSS per invocation."""
    times: dict[str, list[float]] = {inv.key: [] for inv in plan.invocations}
    raw: dict[str, list[float]] = {inv.key: [] for inv in plan.invocations}
    rss: dict[str, list[float]] = {inv.key: [] for inv in plan.invocations}
    start = time.perf_counter()
    passes = 0
    while True:
        t_pass = time.perf_counter()
        for inv in plan.invocations:
            for _ in range(inv.repeat):
                code, out, err, elapsed, rss_mb = launcher.run(file_args(inv, work))
                times[inv.key].append(elapsed * ref.scale())
                raw[inv.key].append(elapsed)
                rss[inv.key].append(rss_mb)
                judge.judge(inv, code, out, err)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            break
        plan = inputs.next()
    return times, raw, rss, passes


def run_inprocess(cli, inv, work: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(file_args(inv, work))
    return code, out.getvalue(), err.getvalue()


def startup_ms(env: dict, ref: Reference) -> float:
    probes = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ilalg.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        probes.append((time.perf_counter() - t0) * 1e3 * ref.scale())
    return statistics.median(probes)


def measure_trace(inputs: Inputs, seconds: float, judge: Gate, ref: Reference) -> dict:
    """In-process passes; each invocation runs untraced, then traced, and
    the pair is normalised by one reference factor, which keeps host drift
    out of the tracing overhead."""
    sys.path.insert(0, str(SRC))
    import ilalg.cli as cli

    plan, work = inputs.next(), inputs.work
    env = child_env()
    tracer = Tracer()
    per_pass: list[dict] = []
    ref.scale()
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        untraced = 0.0
        scale = {}
        for i, inv in enumerate(plan.invocations):
            t0 = time.perf_counter()
            code, out, err = run_inprocess(cli, inv, work)
            elapsed = time.perf_counter() - t0
            judge.judge(inv, code, out, err)
            tracer.invocation = i
            tracer.install()
            try:
                code, out, err = run_inprocess(cli, inv, work)
            finally:
                tracer.uninstall()
            judge.judge(inv, code, out, err)
            scale[i] = ref.scale()
            untraced += elapsed * scale[i]
        summary = summarize(tracer.spans, scale)
        tracer.reset()
        summary["untraced_ms"] = untraced * 1e3
        summary["startup_ms"] = startup_ms(env, ref)
        per_pass.append(layer_metrics(summary))
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            break
        plan = inputs.next()
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["passes"] = len(per_pass)
    return metrics


def layer_metrics(s: dict) -> dict:
    ms, calls, counts = s["ms"], s["calls"], s["counts"]
    out = {m: sum(ms.get(n, 0.0) for n in names) for m, names in SELF_MS.items()}
    out.update({m: calls.get(n, 0) for m, n in CALLS.items()})
    out.update({c: counts.get(c, 0) for c in COUNTS})
    out["filters.yield"] = (counts.get("filters.count", 0) / s["enum_is_filter"]
                            if s["enum_is_filter"] else 0.0)
    out["cli.startup.ms"] = s["startup_ms"]
    out["trace.overhead_frac"] = s["root_ms"] / s["untraced_ms"] - 1
    # Not metrics: the self times of every span add up to the traced cli.main
    # time, which exceeds the untraced one by the overhead.
    out["self_ms_total"] = sum(ms.values())
    out["traced_main_ms"] = s["root_ms"]
    out["untraced_main_ms"] = s["untraced_ms"]
    return out


def host_context(ref: Reference) -> dict:
    commit = None  # a checkout without .git is identified by source_sha256
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "ilalg").rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "calibration_s": ref.samples[0],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ilalg" / "cli.py").is_file():
        print(f"no ilalg sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    ref = Reference()
    host = host_context(ref)
    host["cpu"] = cpu
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work = run_dir / "inputs"
    judge = Gate()
    inputs = Inputs(args.workload, args.seed, work, ref, judge)
    try:
        for _ in range(SETUPS):
            inputs.build(0)
        if args.trace:
            measured = measure_trace(inputs, args.seconds, judge, ref)
            names = PER_LAYER
        else:
            measured = measure_cli(inputs, args.seconds, judge, ref)
            measured["setup_s"] = statistics.median(inputs.setup_s)
            names = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    host["loadavg_after"] = os.getloadavg()
    host["reference_median_s"] = statistics.median(ref.samples)

    info = {k: v for k, v in measured.items() if k not in names}
    print(f"rounds={inputs.round} digests_checked={judge.pinned} "
          f"{json.dumps(info)}")
    for problem in judge.problems:
        print("FAIL", problem)
    print("host", json.dumps(host))
    result = {
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": measured[name], "unit": unit_of(name)} for name in names},
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("ms"):
        return "ms"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
