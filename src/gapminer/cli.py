"""Command-line entry point.

Subcommands run the whole pipeline (`run`), the stages through one stage
(`ingest`, `network`, `persist`, `classify`, `metrics`, `report`), or the
synthetic corpus generators (`synth`). Configuration comes from an optional
JSON file plus flags; flags win. Exit codes: 0 success, 2 configuration
error, 3 data error, 4 internal error (a bug).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError, DataError, GapminerError
from .pipeline import STAGES, PipelineConfig, run
from .synth import GENERATORS, generator_params, make_synthetic

logger = logging.getLogger(__name__)


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    """The pipeline flags; each one's dest is the PipelineConfig field it sets."""
    parser.add_argument("--config", type=Path, help="declarative JSON config file")
    parser.add_argument(
        "--corpus", dest="corpus_path", type=Path, help="line-delimited corpus file"
    )
    parser.add_argument("--out", dest="output_dir", type=Path, help="output directory")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--min-persistence", type=int, help="minimum gap persistence in years")
    parser.add_argument("--null-replicates", type=int, help="label-randomization replicates")
    parser.add_argument("--n-rand", type=int, help="citation-switch replicates for novelty")
    parser.add_argument("--year-min", type=int, help="earliest accepted publication year")
    parser.add_argument("--year-max", type=int, help="latest accepted publication year")
    parser.add_argument("--cd-window", type=int, help="citer window (years) for the disruption index")
    parser.add_argument("--sb-horizon", type=int, help="trajectory horizon for the Sleeping Beauty index")
    parser.add_argument("--threads", type=int, help="worker processes")


def _cmd_pipeline(args: argparse.Namespace) -> int:
    # The config file, overridden by every PipelineConfig field that a flag set.
    overrides = {f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)}
    result = run(PipelineConfig.from_sources(args.config, overrides), args.through)
    for name in STAGES:
        if name in result.statuses:
            print(f"stage {name}: {result.statuses[name]}")
    print(f"manifest: {result.output_dir / 'manifest.json'}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    # Generator flags default to SUPPRESS, so args holds only those given.
    params = {name: getattr(args, name) for name in args.generator_flags if name in args}
    path = make_synthetic(args.generator, args.out, args.seed, **params)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapminer",
        description="Detect gap-opening papers in concept co-occurrence networks.",
    )
    levels = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
    parser.add_argument("--log-level", default="WARNING", type=str.upper, choices=levels)
    sub = parser.add_subparsers(dest="command", required=True)

    helps = {"run": "run all pipeline stages", **{s: f"run the stages through {s}" for s in STAGES}}
    for name, help_text in helps.items():
        stage_parser = sub.add_parser(name, help=help_text)
        _add_pipeline_flags(stage_parser)
        stage_parser.set_defaults(func=_cmd_pipeline, through=STAGES[-1] if name == "run" else name)

    synth = sub.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("--generator", required=True, choices=GENERATORS)
    synth.add_argument("--out", type=Path, required=True)
    synth.add_argument("--seed", type=int, default=0)
    # One flag per generator keyword parameter, named and typed after it.
    params = {p.name: p for generator in GENERATORS for p in generator_params(generator)}
    for name, param in params.items():
        flag = "--" + name.replace("_", "-")
        synth.add_argument(flag, type=type(param.default), default=argparse.SUPPRESS)
    synth.set_defaults(func=_cmd_synth, generator_flags=tuple(params))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. Every exception ends here as one stderr line and exit
    2, 3 or 4; its traceback is logged at --log-level DEBUG only."""
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level)
    try:
        return args.func(args)
    except Exception as exc:
        # The exception it wraps, such as what a stage raised, else itself.
        logger.debug("the fault behind the error below", exc_info=exc.__cause__ or exc)
        if isinstance(exc, ConfigError):
            label, code = "config error", 2
        elif isinstance(exc, DataError):
            label, code = "data error", 3
        else:
            label, code = "internal error", 4
        message = exc if isinstance(exc, GapminerError) else f"{type(exc).__name__}: {exc}"
        print(f"{label}: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
