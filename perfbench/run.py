#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke        # the benchmark's own tests

The benchmark binary is built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line of
standard output is the result object; the line before it is the run's
provenance. The exit code is nonzero when the build fails, the correctness
gate trips, or the printed metrics do not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
SMOKE_SEED = 1


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def child_env():
    """Compiler temporaries and the worker pool's scratch directory go under
    the build tree, like everything else a run writes."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    bdir = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=child_env(), timeout=850).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            return None
    return os.path.join(bdir, "perfbench")


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(binary, argv):
    """Runs the benchmark in its own process group and reaps everything it
    started. Returns (exit code, stdout lines)."""
    proc = subprocess.Popen([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, env=child_env(),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s; killing it")
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out.strip().splitlines()


def check_result(lines, trace):
    """The result line's shape and its metrics against BENCHMARK.json.
    Returns the parsed result, or None with the reason logged."""
    if not lines:
        log("no output")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not JSON")
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log(f"unexpected result keys {sorted(result)}")
        return None
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        log(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, wrong unit {wrong}")
        return None
    return result


def bench_args(a, binary_out):
    argv = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--expected", os.path.join(HERE, "expected.json"),
            "--out", binary_out, "--revision", revision()]
    return argv


def smoke(binary):
    """Every workload at smoke size, untraced and traced: each named metric
    is emitted with its unit. Then the gate must trip on a perturbed
    expected count."""
    out = os.path.join(os.path.dirname(binary), "smoke-out")
    ok = True
    for workload in ("corpus", "small_batch", "serve_open"):
        for trace in (0, 1):
            argv = ["--workload", workload, "--seed", str(SMOKE_SEED),
                    "--seconds", "1", "--trace", str(trace), "--smoke",
                    "--expected", os.path.join(HERE, "expected.json"),
                    "--out", out]
            rc, lines = run_binary(binary, argv)
            result = check_result(lines, trace)
            good = rc == 0 and result is not None and result["correct"]
            log(f"smoke {workload} trace={trace}: {'ok' if good else 'FAIL'}")
            ok &= good
        rc, lines = run_binary(binary, argv + ["--perturb-expected"])
        result = check_result(lines, trace)
        tripped = rc != 0 and result is not None and not result["correct"]
        log(f"smoke {workload} perturbed expected count trips the gate: "
            f"{'ok' if tripped else 'FAIL'}")
        ok &= bool(tripped)
    log("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["corpus", "small_batch",
                                          "serve_open"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run the benchmark's own smoke tests")
    a = p.parse_args()
    if not a.smoke and not a.workload:
        p.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if a.smoke:
        return smoke(binary)

    rc, lines = run_binary(binary, bench_args(a, os.path.join(
        os.path.dirname(binary), "out")))
    result = check_result(lines, a.trace)
    if result is None:
        return 1
    print("\n".join(lines[-2:]), flush=True)
    if rc != 0 or not result["correct"]:
        log(f"run failed (exit {rc}, correct={result['correct']})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
