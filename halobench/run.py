#!/usr/bin/env python3
"""Build and run the HALO benchmark from the root of a source checkout.

    python3 halobench/run.py --workload paper-suite --seed 2 --seconds 32 --trace 0
    python3 halobench/run.py --selftest

Builds halobench/halobench.exe with dune, runs one workload, and prints
the executable's two stdout lines: the run record (machine fingerprint,
run config, sample counts, output digest) and, last, the result object
{"correct", "attempted", "failed", "metrics"}. The fingerprint gains the
commit (when the checkout is a git repository), a digest of the sources
and the CPU count, so a slower machine can be told from a regression.

Scratch files live under .halobench/ in the working directory; the
Chrome trace of a --trace 1 run is kept in .halobench/out/.

--selftest checks BENCHMARK.json against the metric names the executable
declares and runs the executable's own tests (seed plumbing, ladder
exactness at tiny scale).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "halobench", "halobench.exe")
SCRATCH = ".halobench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("not the root of a HALO source checkout (no dune-project or lib/)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            [dune, "build", "--root", ".", "--display", "quiet", "./halobench/halobench.exe"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace"))
        fail(f"build failed (dune exit {p.returncode})")


def source_digest():
    h = hashlib.sha256()
    for root in ("lib", "halobench"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    path = os.path.join(dirpath, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10
        )
        return out.stdout.decode().strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_exe(args, timeout):
    """Run the executable; return its stdout lines, or exit without a result."""
    try:
        p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE)
    except OSError as e:
        fail(f"cannot start {EXE}: {e}")
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        fail(f"benchmark exceeded {timeout} s", code=3)
    if p.returncode != 0:
        fail(f"benchmark exited with {p.returncode}", code=p.returncode if p.returncode > 0 else 4)
    return out.decode().splitlines()


def check_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        fail("last output line is not JSON", code=4)
    if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result has keys {sorted(r)}", code=4)
    return r


def declared_metrics():
    return json.loads(run_exe(["metrics"], 60)[-1])


def selftest():
    problems = []
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = declared_metrics()
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in bench[section]]
        if len(set(names)) != len(names):
            problems.append(f"{section}: duplicate names")
        for m in bench[section]:
            if not NAME_RE.match(m["name"]):
                problems.append(f"{section}: bad name {m['name']!r}")
            if not UNIT_RE.match(m["unit"]):
                problems.append(f"{section}: bad unit {m['unit']!r} for {m['name']}")
        mine = [(m["name"], m["unit"]) for m in declared[section]]
        theirs = [(m["name"], m["unit"]) for m in bench[section]]
        if mine != theirs:
            problems.append(f"{section}: BENCHMARK.json and halobench.exe declare different metrics")
    workloads = [w["name"] for w in bench["workloads"]]
    if workloads != declared["workloads"]:
        problems.append("BENCHMARK.json and halobench.exe declare different workloads")
    if any(not NAME_RE.match(w) for w in workloads):
        problems.append("bad workload name")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" for m in bench["end_to_end"]):
        problems.append("no setup_s metric")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print(f"metric grammar: {'ok' if not problems else 'FAILED'}", file=sys.stderr)
    code = subprocess.run([EXE, "selftest"]).returncode
    return 0 if (not problems and code == 0) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    build()
    if a.selftest:
        sys.exit(selftest())
    args = [
        "run",
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--meta", f"commit={commit()}",
        "--meta", f"source_digest={source_digest()}",
        "--meta", f"nproc={os.cpu_count()}",
    ]
    try:
        lines = run_exe(args, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(os.path.join(SCRATCH, "tmp"), ignore_errors=True)
    if not lines:
        fail("benchmark printed nothing", code=4)
    check_result(lines[-1])
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
