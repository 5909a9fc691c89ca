"""Store administration: ``python -m repro.experiments.run cache …``.

Subcommands::

    cache stats [--json]          # size, per-kind counts, stale/corrupt tallies
    cache ls [--all]              # one line per entry
    cache gc [--dry-run] [--max-bytes N]   # prune stale/corrupt, enforce budget
    cache pin KEYPREFIX [...]     # mark golden results (never evicted)
    cache unpin KEYPREFIX [...]

All subcommands take ``--dir`` (default: the CLI cache directory).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.service.store import DEFAULT_CACHE_DIR, ResultStore


def _human(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GiB"


def _age(ts: float) -> str:
    if not ts:
        return "?"
    delta = max(0.0, time.time() - ts)
    for span, unit in ((86400, "d"), (3600, "h"), (60, "m")):
        if delta >= span:
            return f"{delta / span:.1f}{unit}"
    return f"{delta:.0f}s"


def cmd_stats(store: ResultStore, args: argparse.Namespace) -> int:
    infos = list(store.entries(include_invalid=True))
    kinds: dict = {}
    states = {"ok": 0, "stale": 0, "corrupt": 0}
    total = pinned = 0
    for info in infos:
        total += info.size
        states[info.state] = states.get(info.state, 0) + 1
        if info.pinned:
            pinned += 1
        if info.state == "ok":
            kinds[info.kind] = kinds.get(info.kind, 0) + 1
    report = {
        "directory": store.directory,
        "entries": len(infos),
        "bytes": total,
        "pinned": pinned,
        "states": states,
        "kinds": kinds,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"store {store.directory!r}: {len(infos)} entries, {_human(total)}")
    print(f"  ok={states['ok']} stale={states['stale']} corrupt={states['corrupt']}"
          f" pinned={pinned}")
    for kind in sorted(kinds):
        print(f"  {kind}: {kinds[kind]}")
    if states["stale"] or states["corrupt"]:
        print("  (run `cache gc` to prune stale/corrupt entries)")
    return 0


def cmd_ls(store: ResultStore, args: argparse.Namespace) -> int:
    shown = 0
    for info in sorted(
        store.entries(include_invalid=args.all), key=lambda i: -i.last_hit
    ):
        flags = "".join(
            flag for flag, on in (
                ("P", info.pinned),
                ("S", info.state == "stale"), ("C", info.state == "corrupt"),
            ) if on
        ) or "-"
        print(
            f"{info.key[:16]}  {flags:<4} {info.kind:<10} {_human(info.size):>10}  "
            f"last-hit={_age(info.last_hit)}"
        )
        shown += 1
    if not shown:
        print("(empty store)")
    return 0


def cmd_gc(store: ResultStore, args: argparse.Namespace) -> int:
    report = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"gc {store.directory!r}: {verb} {report['stale']} stale + "
        f"{report['corrupt']} corrupt entries ({_human(report['bytes'])}), "
        f"{report['tmp']} temp files"
    )
    if args.max_bytes is not None and not args.dry_run:
        evicted = store.enforce_budget(args.max_bytes)
        print(f"  evicted {evicted} LRU entries to fit {_human(args.max_bytes)}")
    return 0


def _set_pin(store: ResultStore, prefixes: List[str], pinned: bool) -> int:
    status = 0
    for prefix in prefixes:
        keys = store.resolve_key(prefix)
        if not keys:
            print(f"{prefix}: no matching entry", file=sys.stderr)
            status = 1
            continue
        if len(keys) > 1 and prefix not in keys:
            print(f"{prefix}: ambiguous ({len(keys)} matches)", file=sys.stderr)
            status = 1
            continue
        key = prefix if prefix in keys else keys[0]
        if store.pin(key, pinned):
            print(f"{key[:16]}: {'pinned' if pinned else 'unpinned'}")
        else:
            print(f"{prefix}: pin failed", file=sys.stderr)
            status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run cache",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--dir", default=DEFAULT_CACHE_DIR,
        help=f"store/cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_stats = sub.add_parser("stats", help="store size and entry health")
    p_stats.add_argument("--json", action="store_true", help="machine-readable output")
    p_ls = sub.add_parser("ls", help="list entries, most recently hit first")
    p_ls.add_argument("--all", action="store_true", help="include stale/corrupt entries")
    p_gc = sub.add_parser("gc", help="prune stale and corrupt entries")
    p_gc.add_argument("--dry-run", action="store_true", help="report without deleting")
    p_gc.add_argument(
        "--max-bytes", type=int, default=None,
        help="additionally LRU-evict unpinned entries down to this budget",
    )
    p_pin = sub.add_parser("pin", help="pin golden results (never evicted)")
    p_pin.add_argument("keys", nargs="+", help="entry key(s), full or unique prefix")
    p_unpin = sub.add_parser("unpin", help="unpin entries")
    p_unpin.add_argument("keys", nargs="+", help="entry key(s), full or unique prefix")
    args = parser.parse_args(argv)

    store = ResultStore(args.dir)
    if args.command == "stats":
        return cmd_stats(store, args)
    if args.command == "ls":
        return cmd_ls(store, args)
    if args.command == "gc":
        return cmd_gc(store, args)
    if args.command == "pin":
        return _set_pin(store, args.keys, True)
    return _set_pin(store, args.keys, False)


if __name__ == "__main__":
    sys.exit(main())
