"""fsrecon benchmark: run one named workload and print its metrics.

    python3 perfbench/run.py --workload fsr-wide --seed 1 --seconds 35 --trace 0

Run from the repository root.  The workload runs in one fresh process
(worker.py) with BLAS/OpenMP pools capped at one thread.  With --trace 0
four further processes only set up, so that set-up time is a median of
five.  Every metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Run records and spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
THREAD_CAP = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIME_LIMIT_S = 170.0


def environment() -> dict:
    try:
        top, sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        top = sha = None
    if top is None or Path(top).resolve() != ROOT:
        sha = None  # not a git checkout of its own
    digest = hashlib.sha256()
    loc = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        loc += data.count(b"\n")
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_loc": loc,
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {v: THREAD_CAP for v in THREAD_VARS},
    }


def run_worker(args, out: Path, deadline: float, setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: THREAD_CAP for v in THREAD_VARS})
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    # The worker's own output goes to stderr; the result comes back as a file.
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads((out / "result.json").read_text())


def end_to_end(calls: list[dict], setups: list[float], peak_rss_mb: float) -> dict:
    ms_per_block = [c["recon_s"] * 1e3 / c["blocks"] for c in calls if "recon_s" in c]
    psnrs = [c["psnr_db"] for c in calls if "psnr_db" in c]
    return {
        "kpix_per_s": (median(c["pixels"] / 1e3 / c["wall_s"] for c in calls), "kpix/s"),
        "ms_per_block": (median(ms_per_block) if ms_per_block else float("nan"), "ms"),
        "psnr_db_mean": (sum(psnrs) / len(psnrs) if psnrs else float("nan"), "dB"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (median(setups), "s"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "fsrecon" / "__init__.py").is_file():
        print(f"error: no fsrecon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)

    env = environment()
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                setups.append(run_worker(args, run_dir / f"setup{i}", deadline, True)["setup_s"])
        result = run_worker(args, run_dir / "main", deadline)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    calls = result["calls"]
    failed = sum(1 for c in calls if c["failures"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env))
    for c in calls:
        line = f"call {c['method']}@{c['density']}: bench {c['wall_s']:.4f} s"
        if "recon_s" in c:
            line += (f", reconstruction {c['recon_s']:.4f} s = "
                     f"{c['recon_s'] * 1e3 / c['blocks']:.4f} ms/block over {c['blocks']} blocks, "
                     f"psnr {c['psnr_db']:.6f} dB, fallback blocks {c['fallback_blocks']}")
        print(line)
        for f in c["failures"]:
            print(f"  FAILED: {f}")
    print(f"failed_frac = {failed / len(calls):.4f} ({failed} of {len(calls)} calls)")
    if args.trace:
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
        rec = result["reconcile"]
        print(f"traced wall {rec['traced_wall_s']:.4f} s, untraced {rec['untraced_wall_s']:.4f} s, "
              f"sum of self times {rec['self_s_sum']:.4f} s, "
              f"of the reported layers {rec['reported_self_s_sum']:.4f} s")
        for name, v in rec["self_s"].items():
            print(f"  {name:40s} calls {v['calls']:>9d}  self {v['self_s']:10.4f} s  {100 * v['share']:6.2f}%")
        if rec["absent"]:
            print("absent (not traced): " + ", ".join(rec["absent"]))
    else:
        metrics = end_to_end(calls, setups, result["peak_rss_mb"])
        print(f"ms_per_block is the median of {len(calls)} calls; "
              f"setup_s the median of {len(setups)} fresh processes")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    (run_dir / "summary.json").write_text(json.dumps(
        {"env": env, "args": vars(args), "setups_s": setups, "result": result}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
