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
from .pipeline import METHODS, ExperimentConfig, run_experiment, run_method
from .weighting import FsrParams


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    output = imgio.pnm_path(args.output, "write")  # before any work is done
    if not output.parent.is_dir():
        raise ValueError(f"cannot write {output}: {output.parent} is not a directory")
    image = imgio.read_image(args.input)
    if args.mask is not None:
        mask = imgio.read_pbm(args.mask)
    else:
        mask = generate_mask(image.width, image.height, args.density, args.seed or 0)
    params = FsrParams(**{f.name: getattr(args, f.name) for f in dataclasses.fields(FsrParams)})
    result = run_method(args.method, image, mask, params)
    imgio.write_pgm(output, result.image)
    if result.fallback_blocks:
        print(f"{len(result.fallback_blocks)} block(s) used the zero-data fallback")
    return 0


def _load_config(path: str, output_dir: str) -> ExperimentConfig:
    """Read a JSON experiment config, values unconverted, for a sweep into ``output_dir``.

    Tau comes only from ``taus`` and the directory only from the argument
    (``--out``), so a ``tau`` or ``output_dir`` key is unknown.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} is not a JSON object")
    param_keys = {f.name for f in dataclasses.fields(FsrParams)}
    config_keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    allowed = (param_keys | config_keys) - {"tau", "params", "output_dir"}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ValueError(f"config {path} has unknown key(s): {', '.join(unknown)}")
    missing = [key for key in ("images", "densities") if key not in raw]
    if missing:
        raise ValueError(f"config {path} lacks required key(s): {', '.join(missing)}")
    params = FsrParams(**{k: raw.pop(k) for k in param_keys & set(raw)})
    return ExperimentConfig(**raw, params=params, output_dir=output_dir)


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args.out)
    rows = run_experiment(config)
    print(f"{len(rows)} rows written to {config.output_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = argparse.ArgumentParser(prog="fsrecon")
    subs = parser.add_subparsers(dest="command", required=True)

    rec = subs.add_parser("reconstruct", help="reconstruct one image")
    rec.add_argument("--input", required=True)
    source = rec.add_mutually_exclusive_group(required=True)
    source.add_argument("--mask", help="PBM mask of available samples")
    source.add_argument("--density", type=float, help="generate a random mask instead")
    rec.add_argument("--seed", type=int, help="mask seed for --density (default 0)")
    rec.add_argument("--method", required=True, choices=METHODS)
    rec.add_argument("--output", required=True)
    for f in dataclasses.fields(FsrParams):
        rec.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    rec.set_defaults(func=_cmd_reconstruct)

    bench = subs.add_parser("bench", help="run a benchmark sweep from a config file")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", default=".", help="output directory for report.csv")
    bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None and args.density is None:
        rec.error("--seed applies only with --density")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
