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


# reconstruct flag -> FsrParams field; the flag's type is the field's
_PARAM_FLAGS = {
    "tau": "tau",
    "rho": "rho_hat",
    "delta": "delta",
    "gamma": "gamma",
    "block": "block_size",
    "border": "border",
    "iters": "iterations",
}


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    image = imgio.read_image(args.input)
    if args.mask is not None:
        mask = imgio.read_pbm(args.mask)
    else:
        mask = generate_mask(image.width, image.height, args.density, args.seed)
    given = {name: getattr(args, flag) for flag, name in _PARAM_FLAGS.items()}
    params = FsrParams(**{k: v for k, v in given.items() if v is not None})
    result = run_method(args.method, image, mask, params)
    imgio.write_pgm(args.output, result.image)
    if result.fallback_blocks:
        print(f"{len(result.fallback_blocks)} block(s) used the zero-data fallback")
    return 0


# the method sets prior_kind, so a bench config may not
_PARAM_KEYS = {f.name for f in dataclasses.fields(FsrParams)} - {"prior_kind"}
_CONFIG_KEYS = _PARAM_KEYS | {"images", "densities", "seeds", "methods", "taus", "output_dir"}


def _convert(key: str, value, conv):
    """``conv(value)``; rejects None, bools and, for ints, non-integral numbers."""
    try:
        fraction = conv is int and isinstance(value, float) and not value.is_integer()
        if value is None or isinstance(value, bool) or fraction:
            raise ValueError
        return conv(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ValueError(f"config key {key}: {value!r} is not a valid {conv.__name__}") from None


def _load_config(path: str, output_dir: str | None) -> ExperimentConfig:
    """Parse a JSON or flat key=value experiment config; ``output_dir`` overrides its own."""
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

    def as_list(key, conv, default=None):
        v = raw.get(key, default)
        if isinstance(v, str):
            v = [x for x in v.split(",") if x]
        if not isinstance(v, list):
            raise ValueError(f"config key {key} must be a list, got {v!r}")
        return [_convert(key, x, conv) for x in v]

    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"config {path} has unknown key(s): {', '.join(unknown)}")
    missing = [key for key in ("images", "densities") if key not in raw]
    if missing:
        raise ValueError(f"config {path} lacks required key(s): {', '.join(missing)}")
    overrides = {
        k: _convert(k, raw[k], type(getattr(FsrParams(), k))) for k in _PARAM_KEYS & set(raw)
    }
    return ExperimentConfig(
        images=as_list("images", str),
        densities=as_list("densities", float),
        seeds=as_list("seeds", int, [0]),
        methods=as_list("methods", str, list(METHODS)),
        params=FsrParams(**overrides),
        output_dir=output_dir or _convert("output_dir", raw.get("output_dir", "."), str),
        taus=as_list("taus", float) if "taus" in raw else None,
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args.out)
    rows = run_experiment(config)
    print(f"{len(rows)} runs written to {config.output_dir}")
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
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--method", required=True, choices=METHODS)
    rec.add_argument("--output", required=True)
    for flag, name in _PARAM_FLAGS.items():
        rec.add_argument(f"--{flag}", type=type(getattr(FsrParams(), name)))
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
