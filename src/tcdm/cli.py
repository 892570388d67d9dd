"""Command-line interface: score pairs, run benchmarks, synthesize degradations.

Exit codes: 0 success, 1 usage error, 2 input or validation error,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import (COLOR_SPACES, COLOR_WEIGHT_MODES, DEFAULT_CONFIG, ETA_MODES,
                     SAMPLING_STRATEGIES, WEIGHT_SCHEMES, MetricConfig)
from .evaluation import run_benchmark
from .metric import resolve_threads, score
from .pointcloud import (DEGRADATION_KINDS, DegradationSpec, PlyError, degrade, load_ply,
                         save_ply)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


# (flag, MetricConfig field, help); each flag's default, type and choices
# come from the field
_CONFIG_FLAGS = (
    ("--seeds", "seeds", "number of generating seeds"),
    ("--k", "neighbors", "neighborhood order"),
    ("--t", "stability", "similarity stability constant"),
    ("--alpha", "alpha", "fusion weight of the complexity feature"),
    ("--sampling", "sampling", "seed sampling strategy"),
    ("--sampling-seed", "sampling_seed", "rng seed for --sampling random"),
    ("--weight-scheme", "weight_scheme", "neighbor weight scheme"),
    ("--color-space", "color_space", "color space of the features"),
    ("--eta-mode", "eta_mode", "spread used by the sigmoid weights"),
    ("--color-weight-mode", "color_weight_mode", "color difference channel weights"),
)
_CHOICES = {"sampling": SAMPLING_STRATEGIES, "weight_scheme": WEIGHT_SCHEMES,
            "color_space": COLOR_SPACES, "eta_mode": ETA_MODES,
            "color_weight_mode": COLOR_WEIGHT_MODES}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for flag, field, text in _CONFIG_FLAGS:
        default = getattr(DEFAULT_CONFIG, field)
        parser.add_argument(flag, type=type(default), default=default,
                            choices=_CHOICES.get(field), help=f"{text} (default %(default)s)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads for the patch groups of each prepare and "
                             "score, and in batch for hashing the manifest's changed files "
                             "(default: TCDM_THREADS or machine parallelism)")


def _config_from(args) -> MetricConfig:
    return MetricConfig(**{field: getattr(args, flag[2:].replace("-", "_"))
                           for flag, field, _ in _CONFIG_FLAGS})


def _cmd_score(args) -> int:
    config = _config_from(args)
    threads = resolve_threads(args.threads)
    report = score(load_ply(args.reference), load_ply(args.distorted), config, threads=threads)
    if args.json:
        print(json.dumps(report.to_dict(include_patches=args.verbose), indent=2))
    else:
        print(f"{report.q:.6f}")
    return EXIT_OK


def _cmd_batch(args) -> int:
    config = _config_from(args)
    summary = run_benchmark(args.manifest, config, args.out,
                            threads=resolve_threads(args.threads))
    print(f"n={summary.n} plcc={summary.plcc:.4f} srocc={summary.srocc:.4f} "
          f"rmse={summary.rmse:.4f} cache_hits={summary.cache_hits} "
          f"skipped={summary.skipped_files}"
          + (" [degenerate]" if summary.degenerate else ""))
    for dtype, (value, count) in summary.per_type.items():
        print(f"  {dtype}: srocc={value:.4f} n={count}")
    return EXIT_OK


def _cmd_degrade(args) -> int:
    cloud = load_ply(args.input)
    spec = DegradationSpec(kind=args.kind, level=args.level, rng_seed=args.seed)
    save_ply(degrade(cloud, spec), args.output, encoding=args.encoding)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tcdm",
                     description="Full-reference point cloud quality assessment")
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="score one reference/distorted pair")
    p_score.add_argument("reference")
    p_score.add_argument("distorted")
    p_score.add_argument("--json", action="store_true", help="emit the full report as JSON")
    p_score.add_argument("--verbose", action="store_true",
                         help="include per-patch features in JSON output")
    _add_config_flags(p_score)
    p_score.set_defaults(handler=_cmd_score)

    p_batch = sub.add_parser("batch", help="score a manifest and correlate against MOS")
    p_batch.add_argument("manifest")
    p_batch.add_argument("--out", default=None,
                         help="report CSV path (default: <manifest>.report.csv)")
    _add_config_flags(p_batch)
    p_batch.set_defaults(handler=_cmd_batch)

    p_deg = sub.add_parser("degrade", help="apply a synthetic degradation")
    p_deg.add_argument("input")
    p_deg.add_argument("kind", choices=DEGRADATION_KINDS)
    p_deg.add_argument("level", type=float)
    p_deg.add_argument("seed", type=int)
    p_deg.add_argument("output")
    p_deg.add_argument("--encoding", choices=("ascii", "binary_le"), default="binary_le")
    p_deg.set_defaults(handler=_cmd_degrade)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FileNotFoundError, OSError, PlyError, ValueError) as exc:
        print(f"tcdm: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - internal invariant breach
        print(f"tcdm: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
