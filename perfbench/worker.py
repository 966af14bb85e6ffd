"""Child process that calls gl3schwarz in-process, for the benchmark's runner.

    worker.py eval --plan PLAN --seconds S --out RESULT [--spans SPANS]
    worker.py verify --seed N --spans SPANS [SUITE ...]

`eval` runs one untimed round of the command list in PLAN (so one-time
set-up such as the first Gauss-Jacobi rule builds is done), then whole
timed rounds until S seconds are used, and writes per-operation start
times and durations and the first round's outputs to RESULT. With --spans the timed rounds are
traced. `verify` runs one traced report and prints it as
`python -m gl3schwarz verify` would.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

import spans


def now() -> float:
    """CLOCK_MONOTONIC seconds, shared with the runner process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def call(main, args: list[str]) -> tuple[int, str, str]:
    """Run one CLI command with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, prog_name="gl3schwarz", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback from the program is a failed operation
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def run_eval(opts) -> None:
    from gl3schwarz import cli, jets

    with open(opts.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    first = [call(cli.main, op["args"]) for op in plan]

    tracer = None
    if opts.spans:
        tracer = spans.Tracer()
        spans.install(tracer)
    starts, times, mismatches, rounds = [], [], 0, 0
    started = now()
    last_round = 0.0
    while rounds == 0 or now() - started + last_round <= opts.seconds:
        round_start = now()
        for i, op in enumerate(plan):
            t0 = now()
            if tracer is None:
                got = call(cli.main, op["args"])
            else:
                got = tracer.run_op(len(times), f"op.{op['cmd']}", lambda: call(cli.main, op["args"]))
            times.append(now() - t0)
            starts.append(t0)
            mismatches += got != first[i]
        last_round = now() - round_start
        rounds += 1
    if tracer is not None:
        tracer.save(opts.spans)
    result = {
        "backend": jets.BACKEND,
        "rounds": rounds,
        "starts": starts,
        "times": times,
        "first": first,
        "mismatches": mismatches,
    }
    with open(opts.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def run_verify(opts) -> None:
    from gl3schwarz import cli

    tracer = spans.Tracer()
    spans.install(tracer)
    args = ["verify", "--seed", str(opts.seed), *opts.suites]
    code, out, err = tracer.run_op(0, "op.verify", lambda: call(cli.main, args))
    tracer.save(opts.spans)
    sys.stdout.write(out)
    sys.stderr.write(err)
    sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    ev = sub.add_parser("eval")
    ev.add_argument("--plan", required=True)
    ev.add_argument("--seconds", type=float, required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--spans")
    ve = sub.add_parser("verify")
    ve.add_argument("--seed", type=int, required=True)
    ve.add_argument("--spans", required=True)
    ve.add_argument("suites", nargs="*")
    opts = parser.parse_args()
    if opts.mode == "eval":
        run_eval(opts)
    else:
        run_verify(opts)


if __name__ == "__main__":
    main()
