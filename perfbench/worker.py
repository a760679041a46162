"""One workload in one fresh process: set-up, bench calls, output checks.

Started by run.py, which passes the CLOCK_MONOTONIC time at which it
spawned this process.  Every reconstruction goes through the public CLI
entry, ``fsrecon.cli.main(["bench", ...])``.  The result is written as
JSON to ``<out>/result.json``.

With ``--setup-only`` the process stops after set-up.  With ``--trace 1``
it makes one untraced and one traced sweep over the workload's calls and
reports per-layer metrics; otherwise it repeats untraced sweeps for at
most ``--seconds`` (at least one sweep).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Per-layer span names reported as "<name>.self_s".
SELF_S_LAYERS = (
    "core.update_model",
    "core.select_basis",
    "core.projection_coefficients",
    "core.reconstruct_block",
    "core.init_model_state",
    "core.synthesize_model",
    "core.reconstruct_image",
    "grid.build_block_context",
    "weighting.build_weight_map",
    "weighting.effective_density",
    "priors.build_prior_map",
    "baselines.nearest_neighbor_fill",
    "baselines.linear_triangulation_fill",
    "imgio.read_image",
    "grid.generate_mask",
    "pipeline.psnr",
    "pipeline.run_experiment",
)


def import_program():
    sys.path.insert(0, str(SRC))
    import fsrecon

    if Path(fsrecon.__file__).resolve().parent != (SRC / "fsrecon").resolve():
        raise SystemExit(f"fsrecon imported from {fsrecon.__file__}, not from {SRC}")
    from fsrecon import baselines, cli, core, grid, pipeline, weighting

    return baselines, cli, core, grid, pipeline, weighting


class Session:
    """The workload's inputs and checked bench calls through the CLI entry."""

    def __init__(self, program, spec: wl.Workload, seed: int, out: Path, expected: dict):
        self.baselines, self.cli, self.core, self.grid, self.pipeline, weighting = program
        self.spec, self.seed, self.out = spec, seed, out
        self.expected = expected
        self.block_size = weighting.FsrParams().block_size
        self.captured: list = []

        # The capture hook hands each result to the output check; it adds
        # one Python call per reconstruction.
        real = self.pipeline.run_method

        def run_method(method, image, mask, params):
            t0 = time.perf_counter()
            result = real(method, image, mask, params)
            self.captured.append((mask, result, time.perf_counter() - t0))
            return result

        self.pipeline.run_method = run_method

    def _write_inputs(self, name: str, img: np.ndarray) -> list[Path]:
        d = self.out / name
        d.mkdir(parents=True, exist_ok=True)
        wl.write_pgm(d / "input.pgm", img)
        configs = []
        for i, (method, density) in enumerate(self.spec.calls):
            cfg = d / f"call{i}.json"
            cfg.write_text(json.dumps({
                "images": [str(d / "input.pgm")], "densities": [density],
                "seeds": [self.seed], "methods": [method],
            }))
            configs.append(cfg)
        return configs

    def set_up(self) -> None:
        self.original = wl.make_image(self.spec.width, self.spec.height, self.seed)
        self.configs = self._write_inputs("inputs", self.original)
        warm = self._write_inputs("warmup", self.original[: wl.WARMUP_SIDE, : wl.WARMUP_SIDE])
        for cfg in warm:
            self._bench(cfg)

    def _bench(self, cfg: Path, tracer: Tracer | None = None) -> tuple[list[str], float]:
        """One bench call: its failures (exit code or exception) and wall time."""
        (cfg.parent / "report.csv").unlink(missing_ok=True)
        self.captured.clear()
        argv = ["bench", "--config", str(cfg), "--out", str(cfg.parent)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv) if tracer is None else tracer.root("cli.main", self.cli.main, argv)
                failures = [] if rc == 0 else [f"bench exit code {rc}"]
            except Exception as exc:  # a failed call; the run goes on
                failures = [f"bench raised {type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - t0
        return failures, wall

    def call(self, i: int, tracer: Tracer | None = None) -> tuple[dict, np.ndarray | None]:
        """One timed bench call, then its checks; returns the record and output."""
        method, density = self.spec.calls[i]
        cfg = self.configs[i]
        failures, wall = self._bench(cfg, tracer)
        rec = {"method": method, "density": density, "wall_s": wall,
               "pixels": self.original.size,
               "blocks": wl.block_count(self.spec.width, self.spec.height, self.block_size)}
        if len(self.captured) != 1:
            rec["failures"] = failures + [f"{len(self.captured)} reconstructions, expected 1"]
            return rec, None
        mask, result, recon_s = self.captured[0]
        out = result.image.samples
        want = self.grid.generate_mask(self.spec.width, self.spec.height, density, self.seed).flags
        if not np.array_equal(mask.flags, want):
            failures.append("mask differs from generate_mask(seed)")
        failures += wl.check_output(self.original, want, out)
        psnr = wl.psnr_db(self.original, out)
        fallbacks = len(result.fallback_blocks)
        failures += self._check_csv(cfg.parent / "report.csv", method, density, psnr, fallbacks)
        failures += wl.check_expected(self.expected, self.seed, method, density, psnr, fallbacks)
        rec.update(recon_s=recon_s, psnr_db=psnr, fallback_blocks=fallbacks, failures=failures)
        return rec, out

    def _check_csv(self, path: Path, method: str, density: float, psnr: float, fallbacks: int) -> list[str]:
        try:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            return [f"no CSV: {exc}"]
        if len(rows) != 1:
            return [f"CSV has {len(rows)} rows, expected 1"]
        row = rows[0]
        got = (row["method"], float(row["density"]), int(row["seed"]), int(row["fallback_blocks"]))
        if got != (method, density, self.seed, fallbacks):
            return [f"CSV row {got} != {(method, density, self.seed, fallbacks)}"]
        if not abs(float(row["psnr_db"]) - psnr) <= 1e-9:
            return [f"CSV psnr {row['psnr_db']} != recomputed {psnr!r}"]
        return []

    def patch_layers(self, tracer: Tracer) -> None:
        """Wrap each layer's public functions where their callers look them up."""
        cli, pipeline, core, baselines = self.cli, self.pipeline, self.core, self.baselines

        def nn_pairs(counters, args, result):
            known = int(np.count_nonzero(args[1].flags))
            counters["baselines.nn_pairs"] += known * (args[1].flags.size - known)

        def bytes_read(counters, args, result):
            counters["imgio.bytes_read"] += os.path.getsize(args[0])

        for module, attr, name, fold, count in (
            (cli, "run_experiment", "pipeline.run_experiment", False, None),
            (pipeline, "read_image", "imgio.read_image", False, bytes_read),
            (pipeline, "generate_mask", "grid.generate_mask", False, None),
            (pipeline, "run_method", "pipeline.run_method", False, None),
            (pipeline, "psnr", "pipeline.psnr", False, None),
            (pipeline, "reconstruct_image", "core.reconstruct_image", False, None),
            (pipeline, "nearest_neighbor_fill", "baselines.nearest_neighbor_fill", False, nn_pairs),
            (pipeline, "linear_triangulation_fill", "baselines.linear_triangulation_fill", False, None),
            (baselines, "nearest_neighbor_fill", "baselines.nearest_neighbor_fill", False, nn_pairs),
            (core, "build_block_context", "grid.build_block_context", False, None),
            (core, "reconstruct_block", "core.reconstruct_block", False, None),
            (core, "build_weight_map", "weighting.build_weight_map", False, None),
            (core, "effective_density", "weighting.effective_density", False, None),
            (core, "build_prior_map", "priors.build_prior_map", False, None),
            (core, "init_model_state", "core.init_model_state", False, None),
            (core, "projection_coefficients", "core.projection_coefficients", True, None),
            (core, "select_basis", "core.select_basis", True, None),
            (core, "update_model", "core.update_model", True, None),
            (core, "synthesize_model", "core.synthesize_model", False, None),
        ):
            tracer.patch(module, attr, name, fold, count)


def measure(session: Session, seconds: float) -> list[dict]:
    """Whole sweeps while the next one is expected to end within `seconds`."""
    records = []
    t_begin = time.perf_counter()
    while True:
        t_sweep = time.perf_counter()
        for i in range(len(session.spec.calls)):
            records.append(session.call(i)[0])
        now = time.perf_counter()
        if (now - t_begin) + (now - t_sweep) > seconds:
            return records


def traced_run(session: Session) -> tuple[list[dict], dict, dict]:
    """An untraced sweep, then the same sweep traced; per-layer metrics."""
    n = len(session.spec.calls)
    untraced = [session.call(i) for i in range(n)]
    tracer = Tracer()
    session.patch_layers(tracer)
    try:
        traced = [session.call(i, tracer) for i in range(n)]
    finally:
        tracer.restore()
    for (u_rec, u_out), (t_rec, t_out) in zip(untraced, traced):
        same = (u_out is not None and t_out is not None and np.array_equal(u_out, t_out)
                and u_rec["psnr_db"] == t_rec["psnr_db"]
                and u_rec["fallback_blocks"] == t_rec["fallback_blocks"])
        if not same:
            t_rec["failures"].append("traced output differs from untraced output")
    tracer.write(session.out / "spans.jsonl")

    st = self_times(tracer.spans)
    untraced_wall = sum(r["wall_s"] for r, _ in untraced)
    traced_wall = sum(r["wall_s"] for r, _ in traced)
    self_total = sum(v[1] for v in st.values())
    # Self time outside the reported layers: cli.main, pipeline.run_method
    # and the wrappers around them, including untraced code they run.
    reported = sum(st[name][1] for name in SELF_S_LAYERS if name in st)
    present = tracer.present

    def layer(name: str):
        return st.get(name, (0, 0.0, []))  # traced but never called

    metrics: dict[str, tuple[float, str]] = {}
    for name in SELF_S_LAYERS:
        if name in present:
            metrics[f"{name}.self_s"] = (layer(name)[1], "s")
    for name in ("core.update_model", "core.reconstruct_block"):
        if name in present:
            metrics[f"{name}.calls"] = (layer(name)[0], "count")
    if "core.reconstruct_block" in present:
        block_ms = [d * 1e3 for d in layer("core.reconstruct_block")[2]]
        metrics["core.block_ms_p50"] = (wl.nearest_rank(block_ms, 50) if block_ms else 0.0, "ms")
        if not block_ms or len(block_ms) >= wl.P99_MIN_SAMPLES:
            metrics["core.block_ms_p99"] = (wl.nearest_rank(block_ms, 99) if block_ms else 0.0, "ms")
    metrics["core.fallback_blocks"] = (sum(r.get("fallback_blocks", 0) for r, _ in traced), "count")
    if "baselines.nearest_neighbor_fill" in present:
        metrics["baselines.nn_pairs"] = (tracer.counters["baselines.nn_pairs"], "count")
    if "imgio.read_image" in present:
        metrics["imgio.bytes_read"] = (tracer.counters["imgio.bytes_read"], "B")
    metrics["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    metrics["trace.unaccounted_frac"] = ((traced_wall - reported) / traced_wall, "ratio")

    reconcile = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "self_s_sum": self_total,
        "reported_self_s_sum": reported,
        "self_s": {k: {"calls": v[0], "self_s": v[1], "share": v[1] / traced_wall}
                   for k, v in sorted(st.items(), key=lambda kv: -kv[1][1])},
        "absent": tracer.absent,
    }
    return [r for r, _ in untraced + traced], metrics, reconcile


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    program = import_program()
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    spec = wl.WORKLOADS[args.workload]
    session = Session(program, spec, args.seed, args.out, expected.get(spec.name, {}))
    session.set_up()
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        if args.trace:
            result["calls"], result["layers"], result["reconcile"] = traced_run(session)
        else:
            result["calls"] = measure(session, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
