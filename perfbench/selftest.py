"""Self-test for the benchmark: every workload at minimal length.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that each workload prints, as its last line, every metric
``BENCHMARK.json`` names for the mode (end-to-end untraced, per-layer
traced) with that metric's unit; that a corrupted logit is counted as a
failure and makes the command exit 1; that a ``REPRO_*`` variable makes it
refuse to run; and that it fails without a result where the program's
source is missing.  Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "0.5"

sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def run_cli(args, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def expect_metrics(result: dict, declared: list[dict], label: str) -> list[str]:
    errors = []
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        errors.append(f"{label}: metrics {sorted(set(got) ^ set(want))} missing or extra")
    for name, unit in want.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            errors.append(f"{label}: {name} unit {entry.get('unit')!r}, want {unit!r}")
        if not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{label}: {name} has no numeric value")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: run not correct: {result['correct']=} {result['failed']=}")
    return errors


class CorruptingChecker(workloads.Checker):
    """Adds one to the first logit it is shown, then checks as usual."""

    def __init__(self) -> None:
        super().__init__()
        self.corrupted = False

    def check(self, logits, expected):
        if not self.corrupted:
            logits = logits.copy()
            logits.flat[0] += 1
            self.corrupted = True
        return super().check(logits, expected)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    for wl in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{wl['name']} trace={trace}"
            code, lines = run_cli(
                ["--workload", wl["name"], "--seed", "0", "--seconds", SECONDS, "--trace", str(trace)]
            )
            if code != 0 or not lines:
                errors.append(f"{label}: exit {code}")
                continue
            errors += expect_metrics(json.loads(lines[-1]), declared, label)
            print(f"ok {label}")

    checker = CorruptingChecker()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", "interactive", "--seed", "0", "--seconds", SECONDS, "--trace", "0"],
            checker=checker,
        )
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    if code != 1 or result["correct"] or result["failed"] != 1:
        errors.append(f"corrupted logit not counted: exit {code}, {result['failed']=}")
    else:
        print("ok corrupted logit counted as failure")

    env = dict(os.environ, REPRO_WORKERS="2")
    code, lines = run_cli(["--workload", "interactive", "--seed", "0", "--seconds", SECONDS], env=env)
    if code == 0 or any(line.startswith("{") for line in lines):
        errors.append(f"REPRO_WORKERS set: exit {code}, printed a result")
    else:
        print("ok refuses to run with REPRO_* set")

    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, lines = run_cli(["--workload", "interactive", "--seed", "0", "--seconds", SECONDS], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        errors.append(f"without the program: exit {code}, printed a result")
    else:
        print("ok fails without the program's source")

    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
