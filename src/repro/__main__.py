"""Top-level CLI (``python -m repro`` / ``repro``).

* ``repro experiments <id> [flags]`` — run a figure/table experiment;
  every flag of ``python -m repro.experiments`` passes through
  unchanged (``--scale``, ``--jobs``, ``--cache-dir``, ``--no-cache``,
  ``--csv``, ``--progress``, ``--profile``).
* ``repro cache stats`` — entry count, disk usage, age range, and the
  hit/miss counters sweeps persist into the on-disk
  :class:`~repro.runner.ResultCache`.
* ``repro cache prune [--older-than-days N]`` — delete entries older
  than the cutoff (all entries without one).

The cache commands honor ``$REPRO_CACHE_DIR`` and accept
``--cache-dir`` to target another directory.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .runner.cache import CACHE_DIR_ENV, ResultCache


def _format_bytes(count: int) -> str:
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024.0
    return f"{int(count)} B"  # pragma: no cover - unreachable


def _format_age(now: float, mtime: Optional[float]) -> str:
    if mtime is None:
        return "-"
    days = (now - mtime) / 86400.0
    if days < 1.0:
        return f"{days * 24.0:.1f} h ago"
    return f"{days:.1f} d ago"


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    stats = cache.stats()
    now = time.time()
    print(f"directory : {stats['directory']}")
    print(f"entries   : {stats['entries']}")
    print(f"disk usage: {_format_bytes(stats['total_bytes'])}")
    print(f"oldest    : {_format_age(now, stats['oldest_mtime'])}")
    print(f"newest    : {_format_age(now, stats['newest_mtime'])}")
    lookups = stats["hits"] + stats["misses"]
    if lookups:
        rate = 100.0 * stats["hits"] / lookups
        print(
            f"lookups   : {lookups} ({stats['hits']} hits, "
            f"{stats['misses']} misses, {rate:.1f}% hit rate)"
        )
    else:
        print("lookups   : none recorded")
    return 0


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.older_than_days is not None and args.older_than_days < 0:
        print("--older-than-days must be >= 0", file=sys.stderr)
        return 2
    cutoff = (
        None
        if args.older_than_days is None
        else args.older_than_days * 86400.0
    )
    removed = cache.prune(cutoff)
    what = (
        "entries"
        if args.older_than_days is None
        else f"entries older than {args.older_than_days:g} days"
    )
    print(f"removed {removed} {what} from {cache.directory}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.__main__ import main as experiments_main

    return experiments_main(args.rest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run experiments and maintain the result cache of "
        "the flattened-butterfly reproduction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Thin passthrough: the experiment runner keeps sole ownership of
    # its flag set (--scale/--jobs/--cache-dir/--no-cache/--csv/
    # --progress/--profile), so `repro experiments --help` shows it and
    # new flags never need mirroring here.
    experiments = commands.add_parser(
        "experiments",
        help="run a figure/table experiment "
        "(same flags as python -m repro.experiments)",
        add_help=False,
    )
    experiments.add_argument("rest", nargs=argparse.REMAINDER)
    experiments.set_defaults(func=_cmd_experiments)

    cache = commands.add_parser(
        "cache", help="inspect or prune the on-disk result cache"
    )
    cache.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache directory (default: ${CACHE_DIR_ENV} or "
        f"~/.cache/repro-flatbfly)",
    )
    actions = cache.add_subparsers(dest="action", required=True)

    stats = actions.add_parser("stats", help="show entry count and disk usage")
    stats.set_defaults(func=_cmd_cache_stats)

    prune = actions.add_parser("prune", help="delete cache entries")
    prune.add_argument(
        "--older-than-days",
        type=float,
        default=None,
        metavar="N",
        help="only delete entries whose file mtime is older than N days "
        "(default: delete everything)",
    )
    prune.set_defaults(func=_cmd_cache_prune)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "experiments":
        # Forward before argparse touches the tail, so option-like
        # leading tokens (`repro experiments --help`) reach the
        # experiment runner's own parser instead of tripping ours.
        from .experiments.__main__ import main as experiments_main

        return experiments_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
