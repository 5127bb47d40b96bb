"""Layered benchmark of shufflealg: frontier, parking-sum and acceptance-suite.

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 30 --trace 0

Run from the root of a source tree (the directory holding `src/shufflealg`).
Each round of a workload runs in a fresh interpreter (perfbench/child.py),
so every round starts with the empty caches a `shufflealg` invocation starts
with.  After the first round, rounds repeat while the next one, as long as
the last, would end within --seconds.  Set-up is also timed in set-up-only
interpreters until there are SETUP_SAMPLES of it.

--trace 0 prints the end-to-end metrics:
  verdict_s    first call into the workload through its checked verdict,
               median over the rounds
  setup_s      interpreter start through `import shufflealg` and
               ExactDomain(), median over the samples
  peak_rss_mb  the round's peak resident set, median over the rounds
Both times are in reference seconds, corrected for the machine's speed
(speed.py); the report line holds the raw wall times too.
--trace 1 runs one untraced round, then traced rounds (layertrace.py), and
prints the per-layer metrics of the first traced round, its wall time and
the tracing overhead: that time minus the untraced round's wall time.

Every line but the last is a report (fingerprint, lines of code, raw
times); the last line is the result JSON.  --smoke runs tiny inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
CHILD_TIMEOUT = 170
WORKLOADS = ("frontier", "parking-sum", "acceptance-suite")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SHUFFLEALG_CACHE_DIR", None)  # a warm DP cache would turn work into a file read
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"            # identical iteration orders, so counts repeat
    return env


def run_child(args: list) -> tuple[dict, float]:
    """Start one child; return its result and its set-up time in reference seconds."""
    cmd = [sys.executable, str(HERE / "child.py")] + args
    loop_s = speed.reference_loop()
    t_start = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    setup_wall = res["setup_end"] - t_start
    return res, setup_wall * 2 * speed.REF_LOOP_S / (loop_s + res["setup_loop_s"])


def lines_of_code() -> dict:
    """Non-blank lines per hand-written module (generated _kernel.c excluded)."""
    out = {}
    for path in sorted((SRC / "shufflealg").iterdir()):
        if path.suffix in (".py", ".pyx"):
            out[path.name] = sum(1 for line in path.read_text().splitlines() if line.strip())
    out["total"] = sum(out.values())
    return out


def fingerprint(kernel_compiled) -> dict:
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    revision = None  # a checkout without .git has no revision to report
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True)
            revision = proc.stdout.strip() or None
        except OSError:
            pass
    return {"python": platform.python_version(), "kernel_compiled": kernel_compiled,
            "cpu_count": os.cpu_count(), "sympy": sympy_version, "git_revision": revision,
            "SHUFFLEALG_PURE_KERNEL": os.environ.get("SHUFFLEALG_PURE_KERNEL")}


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    base = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    rounds, traced, setups = [], [], []
    t_begin = time.monotonic()
    last_round = [0.0]  # wall time of the latest round, to decide on another

    def one(traced_round: bool) -> dict:
        t_start = time.monotonic()
        res, setup_s = run_child(base + ["--trace", "1" if traced_round else "0"])
        last_round[0] = time.monotonic() - t_start
        setups.append(setup_s)
        return res

    rounds.append(one(False))
    if trace:
        traced.append(one(True))
    more = traced if trace else rounds
    while time.monotonic() - t_begin + last_round[0] <= seconds:
        more.append(one(trace))
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(base + ["--setup-only"])[1])

    done = rounds + traced
    wrong = [w for r in done for w in r["wrong"]]
    result = {"correct": not wrong,
              "attempted": sum(r["attempted"] for r in done),
              "failed": sum(r["failed"] for r in done)}
    if trace:
        first = traced[0]["layers"]
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in first.items()}
        # both in wall seconds: the traced round runs without the speed probe
        traced_verdict = traced[0]["wall_s"]
        metrics["trace.verdict_s"] = {"value": traced_verdict, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_verdict - rounds[0]["wall_s"],
                                       "unit": "s"}
        counts = [{k: v for k, v in r["layers"].items() if v[1] == "count"} for r in traced]
        repeat = all(c == counts[0] for c in counts[1:])
    else:
        metrics = {
            "verdict_s": {"value": statistics.median(r["verdict_s"] for r in rounds),
                          "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    report = {"workload": workload, "seed": seed, "smoke": smoke, "trace": trace,
              "rounds": len(rounds), "traced_rounds": len(traced),
              "verdict_s": [r["verdict_s"] for r in rounds],
              "verdict_wall_s": [r["wall_s"] for r in rounds],
              "setup_s": setups,
              "fingerprint": fingerprint(done[0]["kernel_compiled"]),
              "lines_of_code": lines_of_code(),
              "wrong": wrong[:5],
              "errors": [e for r in done for e in r["errors"]][:5]}
    if trace:
        report["traced_wall_s"] = [r["wall_s"] for r in traced]
        report["counts_repeat"] = repeat
        report["span_edges"] = traced[0]["edges"]
        report["kernel_micro"] = traced[0]["kernel_micro"]
    result["metrics"] = metrics
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = ap.parse_args(argv)
    if not (SRC / "shufflealg" / "__init__.py").is_file():
        print(f"no shufflealg sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.smoke)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
