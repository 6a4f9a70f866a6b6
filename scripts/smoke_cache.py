#!/usr/bin/env python
"""Smoke test for the persistent sweep cache (the `make smoke-cache` target).

Runs ``python -m repro.experiments.runner figure16`` twice against a
throwaway cache directory and asserts that the second, cache-hit
invocation (a) re-simulates nothing, (b) is substantially faster, and
(c) renders byte-identical figure output.

Exit status 0 on success; prints a diagnosis and exits 1 otherwise.
"""

import os
import pathlib
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
#: the warm run must take at most this fraction of the cold run.
SPEEDUP_FRACTION = 0.5


def rendered_output(stdout: str) -> str:
    """The figure body only — timing/report lines ([...]) vary by design."""
    return "\n".join(line for line in stdout.splitlines()
                     if not line.startswith("["))


def run_once(cache_dir: str) -> tuple[float, str, str]:
    env = dict(os.environ)
    env["REPRO_T3_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", "figure16"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        sys.exit(f"runner failed with status {proc.returncode}")
    return elapsed, proc.stdout, rendered_output(proc.stdout)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-t3-smoke-") as cache_dir:
        cold_s, cold_raw, cold_body = run_once(cache_dir)
        print(f"cold run: {cold_s:.1f}s")
        warm_s, warm_raw, warm_body = run_once(cache_dir)
        print(f"warm run: {warm_s:.1f}s")

    failures = []
    if "0 misses, 0 simulated" not in warm_raw:
        failures.append("warm run still simulated cases:\n"
                        + warm_raw.splitlines()[-2])
    if warm_body != cold_body:
        failures.append("rendered output differs between runs")
    if warm_s > cold_s * SPEEDUP_FRACTION:
        failures.append(
            f"warm run not faster: {warm_s:.1f}s vs {cold_s:.1f}s cold "
            f"(need <= {SPEEDUP_FRACTION:.0%})")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"OK: warm run {cold_s / max(warm_s, 1e-9):.0f}x faster, "
              "zero new simulations, byte-identical output")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
