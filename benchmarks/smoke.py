"""Short self-test of the benchmark: python3 benchmarks/smoke.py

Runs every workload of run.py for one second, untraced and traced, and
checks that each metric named in BENCHMARK.json appears with its unit and
that every operation passed. Then it perturbs results on purpose, an information sum
off by 1e-6 in process and doctored CLI outputs, and checks that each counts
as a failure rather than passing. Exits 1 on the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def fail(message: str) -> None:
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(config: dict) -> None:
    sys.path.insert(0, HERE)
    from run import WORKLOADS
    # every workload run.py offers, including large-dim, which BENCHMARK.json leaves out
    for workload in WORKLOADS:
        for trace, declared in ((0, config["end_to_end"]), (1, config["per_layer"])):
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                fail(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
            result = last_json(proc.stdout)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                fail(f"{workload} trace {trace}: {result['failed']} of {result['attempted']} failed")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{workload} trace {trace}: metrics {got} != declared {want}")
            print(f"smoke: {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations passed")


def check_perturbed_sum() -> None:
    """An information_sum off by 1e-6 must fail the run, not pass it."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import run
    from quantinfo import mub

    original = mub.information_sum
    mub.information_sum = lambda rho, bases: original(rho, bases) + 1e-6
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "identities", "--seed", "7", "--seconds", "1"])
    finally:
        mub.information_sum = original
    result = last_json(out.getvalue())
    if code == 0 or result["correct"] or result["failed"] == 0:
        fail(f"perturbed information_sum passed: exit {code}, {result}")
    print(f"smoke: perturbed information_sum: {result['failed']} of "
          f"{result['attempted']} operations failed, exit {code}")


def check_perturbed_cli() -> None:
    """Doctored CLI outputs must each count as a failure."""
    import workloads

    workdir = os.path.join(ROOT, ".bench_tmp", f"smoke-{os.getpid()}")
    workload = workloads.setup("cli-cold", 7, workdir)
    try:
        slots = workload.schedule
        accepted = workload.operation(slots.index("mub_sum_bloch"))
        rejected = workload.operation(slots.index("reject_sum"))
    finally:
        workload.close()
    arg = next(a for a in accepted[0] if a.startswith("--bloch="))
    bloch = [float(x) for x in arg.split("=", 1)[1].split(",")]
    value = sum(x * x for x in bloch) / 2.0
    good = json.dumps({"sum": value, "direct": value})
    off = json.dumps({"sum": value + 1e-6, "direct": value})
    cases = {
        "honest payload": (accepted[1], 0, good, "", True),
        "sum off by 1e-6": (accepted[1], 0, off, "", False),
        "empty stdout": (accepted[1], 0, "", "", False),
        "unparseable stdout": (accepted[1], 0, "sum = 0.1", "", False),
        "missing field": (accepted[1], 0, json.dumps({"sum": value}), "", False),
        "accepted a bad input": (rejected[1], 0, good, "", False),
        "wrong rejection code": (rejected[1], 2, "", "error: x", False),
        "honest rejection": (rejected[1], 1, "", "error: bad input", True),
    }
    for label, (check, code, stdout, stderr, should_pass) in cases.items():
        passed = workloads.check_cli(check, code, stdout, stderr) is None
        if passed != should_pass:
            fail(f"cli check on {label}: passed={passed}, expected {should_pass}")
    print(f"smoke: {len(cases)} doctored CLI outputs judged correctly")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    check_metrics(config)
    check_perturbed_sum()
    check_perturbed_cli()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
