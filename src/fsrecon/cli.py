"""Command line front end: single-image reconstruction and benchmark sweeps."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import imgio
from .grid import generate_mask
from .pipeline import METHODS, ExperimentConfig, run_experiment, run_method, sweep_tau
from .weighting import FsrParams


def _build_params(args: argparse.Namespace) -> FsrParams:
    overrides = {
        "tau": args.tau,
        "rho_hat": args.rho,
        "delta": args.delta,
        "gamma": args.gamma,
        "block_size": args.block,
        "border": args.border,
        "iterations": args.iters,
    }
    return dataclasses.replace(
        FsrParams(), **{k: v for k, v in overrides.items() if v is not None}
    )


def _add_param_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tau", type=float)
    sub.add_argument("--rho", type=float)
    sub.add_argument("--delta", type=float)
    sub.add_argument("--gamma", type=float)
    sub.add_argument("--block", type=int)
    sub.add_argument("--border", type=int)
    sub.add_argument("--iters", type=int)


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    image = imgio.read_image(args.input)
    if args.mask is not None:
        mask = imgio.read_pbm(args.mask)
    else:
        if args.density is None:
            raise ValueError("either --mask or --density/--seed is required")
        mask = generate_mask(image.width, image.height, args.density, args.seed)
    params = _build_params(args)
    result = run_method(args.method, image, mask, params)
    imgio.write_pgm(args.output, result.image)
    if result.fallback_blocks:
        print(f"{len(result.fallback_blocks)} block(s) used the zero-data fallback")
    return 0


def _load_config(path: str) -> tuple[ExperimentConfig, list[float] | None]:
    """Parse a JSON or flat key=value experiment config.

    Returns the config and, if present, a tau list requesting a sweep.
    """
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        raw = json.loads(text)
    else:
        raw = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()

    def as_list(v, conv):
        if isinstance(v, str):
            v = [x for x in v.split(",") if x]
        return [conv(x) for x in v]

    missing = [key for key in ("images", "densities") if key not in raw]
    if missing:
        raise ValueError(f"config {path} lacks required key(s): {', '.join(missing)}")
    param_fields = {f.name for f in dataclasses.fields(FsrParams)}
    overrides = {
        k: type(getattr(FsrParams(), k))(raw[k]) for k in param_fields if k in raw
    }
    config = ExperimentConfig(
        images=as_list(raw["images"], str),
        densities=as_list(raw["densities"], float),
        seeds=as_list(raw.get("seeds", [0]), int),
        methods=as_list(raw.get("methods", list(METHODS)), str),
        params=dataclasses.replace(FsrParams(), **overrides),
        output_dir=str(raw.get("output_dir", ".")),
    )
    taus = as_list(raw["taus"], float) if "taus" in raw else None
    return config, taus


def _cmd_bench(args: argparse.Namespace) -> int:
    config, taus = _load_config(args.config)
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=args.out)
    if taus is not None:
        report = sweep_tau(config, taus)
    else:
        report = run_experiment(config)
    print(f"{len(report.rows)} runs written to {config.output_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = argparse.ArgumentParser(prog="fsrecon")
    subs = parser.add_subparsers(dest="command", required=True)

    rec = subs.add_parser("reconstruct", help="reconstruct one image")
    rec.add_argument("--input", required=True)
    rec.add_argument("--mask", help="PBM mask of available samples")
    rec.add_argument("--density", type=float, help="generate a random mask instead")
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--method", required=True, choices=METHODS)
    rec.add_argument("--output", required=True)
    _add_param_args(rec)
    rec.set_defaults(func=_cmd_reconstruct)

    bench = subs.add_parser("bench", help="run a benchmark sweep from a config file")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", help="output directory (overrides config)")
    bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
