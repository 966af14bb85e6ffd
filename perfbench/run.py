"""Benchmark of gl3schwarz: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
src/, nothing is installed). Workloads: verify-all, verify-numeric,
eval-batch; see perfbench/README.md. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
line before it carries run details (raw times, host reference time, jet
backend, per-command medians). Exit code 1, with no result, when the
program cannot be run at all.

Times are host-corrected: while a child works, this process samples a
fixed reference loop on the same CPU every PROBE_EVERY seconds, and each
time is scaled by REF_PROBE_S over the loop's median time during it.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".perfbench_out")  # relative to ROOT, which is the working directory of every child
WORKER = Path(__file__).resolve().parent / "worker.py"
COLD_STARTS = 6  # half before the timed phase, half after
PROBE_EVERY = 0.25  # seconds between host-speed samples while a child runs
REF_PROBE_S = 5e-4  # reference-loop time that defines the reference host speed
SUITES = list(checks.SUITE_CHECKS)
LAYER_CALLS = (  # span names reported with a call count and self time
    "eta.variant_identities",
    "lft.eismatrix_mul",
    "appell.f1_series_jet",
    "appell.f1_series_scalar",
    "appell.f1_euler",
    "jets.mul",
    "jets.compose",
    "derivs.deriv_quad",
)
LAYER_SELF_ONLY = ("lft.decompose_heisenberg", "appell.quadrature", "pde_verify", "picard", "evolution")


class BenchError(RuntimeError):
    """The program could not be run; the benchmark prints no result."""


def now() -> float:
    """CLOCK_MONOTONIC seconds, the clock this process and its children share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop plus a small numpy loop (about 0.5 ms)."""
    t0 = now()
    acc = 0
    for i in range(3_000):
        acc += i * i % 7
    a = np.linspace(0.0, 1.0, 16)
    for _ in range(40):
        a = np.sin(a) + 0.5 * a[::-1]
    return now() - t0


class HostSpeed:
    """Reference-loop samples taken over the run, on the CPU the children use.

    The host's speed changes by up to 2x within seconds (other tenants share
    its cores), so every time is scaled to a reference host speed by the
    loop's median time while it was measured.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        t = now()
        self.took.append(reference_loop())
        self.at.append(t)

    def factor(self, start: float, end: float) -> float:
        """REF_PROBE_S over the median sample inside [start, end], else the nearest sample."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        window = self.took[lo:hi]
        if not window:
            mid = (start + end) / 2
            near = min((k for k in (lo - 1, lo) if 0 <= k < len(self.at)),
                       key=lambda k: abs(self.at[k] - mid))
            window = [self.took[near]]
        return REF_PROBE_S / statistics.median(window)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GL3SCHWARZ_TOL", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd: list[str], env: dict, run_dir: Path, host: HostSpeed):
    """Run cmd to its end, sampling host speed meanwhile.

    Returns (start, end, exit code, stdout bytes, peak RSS in MB).
    """
    out_path = run_dir / "stdout.bin"
    with open(out_path, "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        start = now()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        exited = os.pidfd_open(proc.pid)
        try:
            while not select.select([exited], [], [], PROBE_EVERY)[0]:
                host.sample()
        finally:
            os.close(exited)
        _, status, usage = os.wait4(proc.pid, 0)
        end = now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, out_path.read_bytes(), usage.ru_maxrss / 1024.0


def stderr_tail(run_dir: Path) -> str:
    return (run_dir / "stderr.txt").read_text(errors="replace").strip()[-500:]


def cold_start(env: dict, run_dir: Path, host: HostSpeed) -> tuple[float, float, str]:
    """Spawn an interpreter that imports gl3schwarz.cli: (raw seconds, corrected seconds, jet backend)."""
    code = (
        "import time\nimport gl3schwarz.cli\n"
        "t = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
        "from gl3schwarz import jets\nprint(t, jets.BACKEND)\n"
    )
    start, _, rc, out, _ = spawn([sys.executable, "-c", code], env, run_dir, host)
    if rc != 0:
        raise BenchError(f"cannot import gl3schwarz.cli from {ROOT / 'src'}: {stderr_tail(run_dir)}")
    imported, backend = out.split()
    seconds = float(imported) - start
    return seconds, seconds * host.factor(start, float(imported)), backend.decode()


def run_verify(workload: str, seed: int, seconds: float, trace: bool, env: dict, run_dir: Path,
               host: HostSpeed):
    """Reports in fresh processes; seeds repeat in pairs so each pair must match byte for byte."""
    suites = workloads.VERIFY_SUITES[workload]
    ops = []  # (report seed, start, end, exit code, stdout, peak RSS MB)
    started = now()
    while len(ops) < 2 or (
        not trace and now() - started + statistics.median(o[2] - o[1] for o in ops) <= seconds
    ):
        s = workloads.verify_seed(seed, len(ops))
        if trace:
            cmd = [sys.executable, str(WORKER), "verify", "--seed", str(s),
                   "--spans", str(OUT / workload / f"spans-{len(ops)}.npz"), *suites]
        else:
            cmd = [sys.executable, "-m", "gl3schwarz", "verify", "--seed", str(s), *suites]
        ops.append((s, *spawn(cmd, env, run_dir, host)))

    problems, failed = [], 0
    first_report = {}
    for s, _, _, code, out, _ in ops:
        if code != 0:
            failed += 1
            continue
        problems += checks.check_report(out, code, s, suites)
        if first_report.setdefault(s, out) != out:
            problems.append(f"verify --seed {s}: two runs gave different reports")
    good = next((o for o in ops if o[3] == 0), None)
    if good is not None:
        problems += checks.negative_controls(report=good[4], seed=good[0], suites=suites)

    return {
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "intervals": [(o[1], o[2]) for o in ops],
        "peak_rss_mb": max(o[5] for o in ops),
        "span_files": [OUT / workload / f"spans-{i}.npz" for i in range(len(ops))] if trace else [],
        "details": {"report_seeds": [o[0] for o in ops]},
    }


def run_eval(seed: int, seconds: float, trace: bool, env: dict, run_dir: Path, host: HostSpeed):
    plan = workloads.eval_batch(seed, OUT / "eval-batch" / "maps")
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    result_path = run_dir / "result.json"
    cmd = [sys.executable, str(WORKER), "eval", "--plan", str(plan_path),
           "--seconds", str(seconds), "--out", str(result_path)]
    span_file = OUT / "eval-batch" / "spans.npz"
    if trace:
        cmd += ["--spans", str(span_file)]
    _, _, code, _, rss = spawn(cmd, env, run_dir, host)
    if code != 0:
        raise BenchError(f"eval worker exited {code}: {stderr_tail(run_dir)}")
    result = json.loads(result_path.read_text())
    first = [tuple(o) for o in result["first"]]

    checker = checks.EvalChecker()
    failed_idx, problems = checker.check_round(plan, first)
    if result["mismatches"]:
        problems.append(f"{result['mismatches']} outputs differed from the first round's")
    problems += checks.negative_controls(checker, plan, first)

    by_cmd = {}
    for op, t in zip(plan * result["rounds"], result["times"]):
        by_cmd.setdefault(op["cmd"], []).append(t)
    return {
        "attempted": len(result["times"]),
        "failed": len(failed_idx) * result["rounds"],
        "problems": problems,
        "intervals": [(s, s + t) for s, t in zip(result["starts"], result["times"])],
        "peak_rss_mb": rss,
        "span_files": [span_file] if trace else [],
        "details": {
            "worker_jet_backend": result["backend"],
            "rounds": result["rounds"],
            "ops_per_round": len(plan),
            "cmd_ms_p50_raw": {c: 1e3 * statistics.median(v) for c, v in sorted(by_cmd.items())},
        },
    }


def layer_metrics(run: dict, op_s: list[float]) -> dict:
    """Per-layer metrics per operation, from the span files of a traced run."""
    summary = spans.summarize(spans.load(run["span_files"]))
    by_name, ops = summary["by_name"], summary["ops"]
    n = len(ops)
    get = lambda name, key: by_name.get(name, {}).get(key, 0) / n  # noqa: E731
    m = {}
    for suite in SUITES:
        m[f"report.suite_s.{suite}"] = (get(f"report.suite.{suite}", "total_s"), "s/op")
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = (get(name, "calls"), "calls/op")
        m[f"{name}.s"] = (get(name, "self_s"), "s/op")
    for name in LAYER_SELF_ONLY:
        m[f"{name}.s"] = (get(name, "self_s"), "s/op")
    m["cli.self_s"] = (sum(o["self_s"] for o in ops) / n, "s/op")
    for cmd in workloads.COMMANDS:
        t = [o["seconds"] for o in ops if o["name"] == f"op.{cmd}"]
        m[f"cli.cmd_ms.p50.{cmd}"] = (1e3 * statistics.median(t) if t else 0.0, "ms")
    m["trace.op_s.p50"] = (statistics.median(op_s), "s")
    return m


def run(opts) -> tuple[dict, dict]:
    if not (ROOT / "src" / "gl3schwarz" / "cli.py").is_file():
        raise BenchError(f"no gl3schwarz sources under {ROOT / 'src'}")
    os.chdir(ROOT)
    # children inherit this CPU, so the reference loop runs where they run
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run_dir = OUT / opts.workload
    run_dir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    trace = bool(opts.trace)
    host = HostSpeed()
    host.sample()

    # the first start compiles bytecode in a fresh checkout; it is not counted
    backend = cold_start(env, run_dir, host)[2]
    cold = [] if trace else [cold_start(env, run_dir, host)[:2] for _ in range(COLD_STARTS // 2)]
    if opts.workload == "eval-batch":
        res = run_eval(opts.seed, opts.seconds, trace, env, run_dir, host)
    else:
        res = run_verify(opts.workload, opts.seed, opts.seconds, trace, env, run_dir, host)
    if not trace:
        cold += [cold_start(env, run_dir, host)[:2] for _ in range(COLD_STARTS - COLD_STARTS // 2)]

    raw = [end - start for start, end in res["intervals"]]
    op_s = [t * host.factor(start, end) for t, (start, end) in zip(raw, res["intervals"])]
    if trace:
        metrics = layer_metrics(res, op_s)
        raw_metrics = {"trace.op_s.p50": statistics.median(raw)}
    else:
        metrics = {
            "setup_s": (statistics.median(c[1] for c in cold), "s"),
            "op_s.p50": (statistics.median(op_s), "s"),
            "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        raw_metrics = {
            "setup_s": statistics.median(c[0] for c in cold),
            "op_s.p50": statistics.median(raw),
            "ops_per_s": len(raw) / sum(raw),
        }
    details = {
        "workload": opts.workload,
        "seed": opts.seed,
        "trace": trace,
        "jet_backend": backend,
        "host_ref_s": statistics.median(host.took),
        "host_samples": len(host.took),
        "raw": raw_metrics,
        "timed_s": sum(raw),
        "problems": res["problems"][:20],
        **res["details"],
    }
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return details, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("eval-batch", *workloads.VERIFY_SUITES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    try:
        details, result = run(opts)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
    print(json.dumps(details))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
