"""priorsweep benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  One
process repeats the workload's timed body (a real priorsweep entry point)
for about S seconds, checks every output, and prints a summary followed by
one JSON line:

  --trace 0  end-to-end metrics (setup_s, run_s, peak_rss_mb), no tracing;
  --trace 1  per-layer metrics from traced iterations, alternated with
             untraced ones to give trace.overhead_frac and to check that
             tracing leaves the outputs byte-identical.

Each named check counts once in "attempted", and once in "failed" if it
failed in any iteration; "correct" is false when an exact check fails
(statistical gates, such as the validate suites, only count).  Full results, and the
spans of a traced run, go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import os

# compute threads stay within nproc: chain threads come from --threads, so
# BLAS runs single-threaded (set before numpy is imported)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_ITERATIONS = 3        # untraced run
MIN_TRACED_PAIRS = 2      # traced run: untraced and traced iterations alternate
HARD_STOP_S = 120.0       # never start an iteration after this

# fresh interpreter: import the package, then load one workload config
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import priorsweep
from priorsweep.config import load_config
load_config(sys.argv[2])
elapsed = time.perf_counter() - t0
if not priorsweep.__file__.startswith(sys.argv[1]):
    raise SystemExit(f"imported {priorsweep.__file__}, not the checkout")
print(repr(elapsed))
"""


def fail(msg: str) -> None:
    print(f"bench: error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def git_sha() -> str | None:
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


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "priorsweep").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy
    import yaml
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(), "source_sha256": source_digest(), "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "pyyaml": yaml.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "machine": platform.machine(),
    }


def measure_setup(config: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(config)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_iterations(wl, seconds: float, trace: bool, tracer) -> list[dict]:
    from layers import iteration_metrics
    from workloads import output_bytes

    iterations: list[dict] = []
    reference = None
    start = time.perf_counter()
    while True:
        i = len(iterations)
        traced = trace and i % 2 == 1
        out = wl.work / f"out-{i}"
        out.mkdir()
        if traced:
            tracer.reset()
            tracer.install()
        error = None
        t0 = time.perf_counter()
        try:
            wl.run(out)
        except Exception as exc:       # a failed run is a failed check
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            tracer.spans.append((tracer.root, "iteration", t0, t0 + elapsed, None))
        checks = []
        if error is None:
            try:
                checks += wl.check(out)
                digest = wl.digest(out)
            except Exception as exc:
                checks.append(("outputs readable", False, f"{type(exc).__name__}: {exc}"))
                digest = None
            if reference is None:
                reference = digest
            else:
                label = ("traced outputs identical to untraced" if traced
                         else "outputs identical across repeats")
                checks.append((label, digest == reference, (digest or "none")[:16]))
        else:
            checks.append(("iteration completed", False, error))
        row = {"traced": traced, "seconds": elapsed,
               "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]}
        if traced:
            row["layers"] = iteration_metrics(tracer, output_bytes(out))
            row["trace"] = tracer.dump()
        iterations.append(row)
        shutil.rmtree(out)

        done = time.perf_counter() - start
        n = len(iterations)
        if done > HARD_STOP_S:
            break
        if trace and n % 2:
            continue
        step = statistics.median(r["seconds"] for r in iterations) * (2 if trace else 1)
        if n >= (2 * MIN_TRACED_PAIRS if trace else MIN_ITERATIONS) and done + step / 2 >= seconds:
            break
    return iterations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: subprocess.run kills its child, finally removes the work dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "priorsweep" / "__init__.py").is_file():
        fail(f"no priorsweep sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import priorsweep.cli  # noqa: F401  (the package under test)
    if not priorsweep.__file__.startswith(str(SRC)):
        fail(f"imported {priorsweep.__file__}, not the checkout's package")

    from layers import PER_LAYER, make_tracer, not_exercised
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    nproc = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        wl = WORKLOADS[args.workload](ROOT, work, args.seed, nproc)
        t0 = time.perf_counter()
        wl.prepare()
        prepare_s = time.perf_counter() - t0
        setup = [] if args.trace else measure_setup(wl.setup_config())
        tracer = make_tracer() if args.trace else None
        iterations = run_iterations(wl, args.seconds, bool(args.trace), tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a check counts once per run, failed if it failed in any iteration, so
    # attempted and failed do not depend on how many iterations fit
    by_name: dict[str, list[dict]] = {}
    for r in iterations:
        for c in r["checks"]:
            by_name.setdefault(c["name"], []).append(c)
    failed = [name for name, group in by_name.items() if not all(c["ok"] for c in group)]
    exact_failed = [name for name in failed if name not in wl.statistical]
    untraced = [r["seconds"] for r in iterations if not r["traced"]]
    if args.trace:
        traced = [r for r in iterations if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in PER_LAYER if name != "trace.overhead_frac"}
        values["trace.overhead_frac"] = (statistics.median(r["seconds"] for r in traced)
                                         / statistics.median(untraced) - 1.0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    error_rate = len(failed) / len(by_name)
    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": wl.sizes(), "environment": environment(nproc),
        "prepare_s": prepare_s, "setup_s_samples": setup,
        "iteration_seconds": [r["seconds"] for r in iterations],
        "error_rate": error_rate,
        "statistical_gates": sorted(wl.statistical), **wl.info(),
    }
    if args.trace:
        info["not_exercised"] = not_exercised([r["layers"] for r in iterations if r["traced"]])
        info["absent_targets"] = tracer.absent

    for name, group in by_name.items():
        bad = [c for c in group if not c["ok"]]
        tag = "PASS" if not bad else ("FAIL (statistical gate)" if name in wl.statistical
                                      else "FAIL")
        print(f"{tag} {len(group) - len(bad)}/{len(group)}: {name} -- "
              f"{(bad or group)[-1]['detail']}")
    print(f"checks: {len(by_name) - len(failed)}/{len(by_name)} passed in every "
          f"iteration, error_rate {error_rate:.4f}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(info, default=str))
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**info, "metrics": metrics, "iterations": iterations}, default=str))
    print(json.dumps({"correct": not exact_failed, "attempted": len(by_name),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
