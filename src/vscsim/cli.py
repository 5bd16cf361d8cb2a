"""Command-line front end.

    vscsim run --config cfg.json [--seed N] [--out DIR] [--plot-data]
    vscsim preset fig4 [--seed N] [--out DIR] [--plot-data]
    vscsim list-presets
    vscsim validate cfg.json
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, build_config, read_config_doc, validate_config
from .presets import get_preset, list_presets
from .runner import run


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--plot-data",
        action="store_true",
        help="also emit a gnuplot data file",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vscsim",
        description="Vehicular secrecy-capacity sweeps and simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    _add_run_options(p_run)

    p_preset = sub.add_parser("preset", help="run a built-in configuration")
    p_preset.add_argument("preset_name", metavar="name")
    _add_run_options(p_preset)

    sub.add_parser("list-presets", help="print available preset names")

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config_path", metavar="config")
    return parser


def _execute(doc: dict, args: argparse.Namespace) -> int:
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.plot_data:
        doc.setdefault("emit", {})["plot_data"] = True
    config = build_config(doc)
    for path in run(config, out_dir=args.out):
        print(path)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _execute(read_config_doc(args.config), args)
        if args.command == "preset":
            try:
                doc = get_preset(args.preset_name)
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 1
            return _execute(doc, args)
        if args.command == "list-presets":
            for name in list_presets():
                print(name)
            return 0
        if args.command == "validate":
            errors = validate_config(read_config_doc(args.config_path))
            if errors:
                for err in errors:
                    print(f"error: {err}", file=sys.stderr)
                return 1
            print("ok")
            return 0
    except ConfigError as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
