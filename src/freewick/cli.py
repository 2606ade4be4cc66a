"""Configuration-driven command line front end.

Subcommands:

* ``partitions`` dumps an enumeration with counts,
* ``moments`` computes one vacuum moment by every applicable route and
  reports the values with their largest pairwise gap and the wall time
  of each route,
* ``verify`` runs the seeded verification suites and emits a
  machine-readable report.

Exit codes: 0 success, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import math
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import cumulant, jacobi, ncpart, suites, xfock
from .errors import CapacityError, ConfigError, FreewickError, require_int
from .grid import FiberMeasure, GridMeasure, ProductGrid, make_grid, semicircle_fibers

log = logging.getLogger("freewick")


def _setup_logging() -> None:
    # FREEWICK_LOG is the only environment knob: it sets the log level
    level = os.environ.get("FREEWICK_LOG")
    if level:
        logging.basicConfig(level=level.upper(), stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s")


@dataclass
class ModelConfig:
    """Validated model description backing the CLI commands."""

    m: int = 6
    interval: tuple[float, float] = (0.0, 1.0)
    lam: object = 1.0
    eta: object = 1.0
    fibers: list | None = None
    fiber_nodes: int = 8
    degree: int = 6

    def __post_init__(self):
        for name in ("m", "fiber_nodes", "degree"):
            require_int(name, getattr(self, name), 1)
        if len(self.interval) != 2:
            raise ConfigError("interval must be a pair [a, b]")

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        known = {"m", "interval", "lambda", "eta", "fibers", "fiber_nodes", "degree"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        clash = raw.keys() & {"lambda", "eta", "fiber_nodes"} if "fibers" in raw else set()
        if clash:
            raise ConfigError(f"{sorted(clash)} cannot come with fibers, which give the node laws")
        kwargs = dict(raw)
        if "lambda" in kwargs:
            kwargs["lam"] = kwargs.pop("lambda")
        try:
            if "interval" in kwargs:
                kwargs["interval"] = tuple(kwargs["interval"])
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def build_model(self) -> ProductGrid:
        """The grid and its node laws, as one joint quadrature."""
        try:
            grid = make_grid(self.m, self.interval, lam=self.lam, eta=self.eta)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad grid/coefficient spec: {exc}") from exc
        if self.fibers is None:
            # semicircle laws from lambda and eta; eta = 0 gives the point mass at lambda
            return ProductGrid(grid, semicircle_fibers(grid, self.fiber_nodes))
        fibers = []
        try:
            for item in self.fibers:
                fibers.append(
                    FiberMeasure(
                        np.asarray(item["atoms"], dtype=float),
                        np.asarray(item["weights"], dtype=float),
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad fiber spec: {exc}") from exc
        if len(fibers) != grid.size:
            raise ConfigError("one fiber per grid node required")
        return ProductGrid(grid, fibers)


def load_config(path: str | None, unread=frozenset()) -> ModelConfig:
    """The config at ``path``; the keys in ``unread`` are refused, by name."""
    if path is None:
        return ModelConfig()
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    refused = unread & raw.keys()
    if refused:
        raise ConfigError(f"config keys this command does not read: {sorted(refused)}")
    return ModelConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

# encoder chunks joined into one write: far fewer writes than one per
# chunk, and far less memory than the whole text of a large payload
_JSON_BATCH = 1 << 12


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            _write(payload, fmt, handle)
    else:
        _write(payload, fmt, sys.stdout)


def _write(payload: dict, fmt: str, handle) -> None:
    """Write the payload in ``fmt``.

    JSON is streamed: the text is ``json.dumps(_strict(payload), indent=2,
    allow_nan=False)`` and a newline, written a batch of encoder chunks at a
    time.
    """
    if fmt == "json":
        chunks = json.JSONEncoder(indent=2, allow_nan=False).iterencode(_strict(payload))
        while batch := list(itertools.islice(chunks, _JSON_BATCH)):
            handle.write("".join(batch))
        handle.write("\n")
    elif fmt == "csv":
        # quoted where a field holds a comma, as the blocks of a partition do
        header, rows = _rows(payload)
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        handle.write(_to_text(payload))


def _strict(payload: dict) -> dict:
    """The payload with each NaN or infinite result as None, which JSON
    writes as null: RFC 8259 has no NaN.  Text and CSV keep ``nan``; the
    partition records hold no float and are not walked."""
    def number(x):
        return x if math.isfinite(x) else None

    if "checks" in payload:
        checks = [dict(c, residual=number(c["residual"])) for c in payload["checks"]]
        return dict(payload, checks=checks)
    if "paths" in payload:
        paths = {k: number(v) for k, v in payload["paths"].items()}
        return dict(payload, paths=paths, max_gap=number(payload["max_gap"]))
    return payload


def _rows(payload: dict) -> tuple[list[str], list[list]]:
    if "records" in payload:
        header = ["blocks", "marks"]
        rows = [
            [";".join(",".join(map(str, b)) for b in r["blocks"]),
             ",".join(map(str, r.get("marks", [])))]
            for r in payload["records"]
        ]
        return header, rows
    if "checks" in payload:
        header = ["suite", "check", "residual", "tol", "passed"]
        rows = [
            [c["suite"], c["name"], f"{c['residual']:.3e}", f"{c['tol']:.1e}", c["passed"]]
            for c in payload["checks"]
        ]
        return header, rows
    header = ["path", "value"]  # the moments payload
    rows = [[k, repr(v)] for k, v in payload["paths"].items()]
    rows.append(["max_gap", repr(payload["max_gap"])])
    return header, rows


def _to_text(payload: dict) -> str:
    header, rows = _rows(payload)
    table = [header] + [[str(x) for x in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in table]
    for k, v in payload.items():
        if isinstance(v, dict) and k != "paths":  # paths are the table's rows
            lines += [f"{k}.{sub}: {x}" for sub, x in v.items()]
        elif not isinstance(v, (list, dict)):
            lines.append(f"{k}: {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# the records are tracked containers that form no cycles: with the collector
# on, full collections would rescan the whole live record list as it grows
@ncpart._collector_paused
def cmd_partitions(args) -> int:
    # each record reuses its partition's tuples, which json writes as lists
    if args.set == "nc":
        records = [{"blocks": p.blocks, "marks": ()} for p in ncpart.enumerate_nc(args.n)]
    else:
        enumerate_ = ncpart.enumerate_gn if args.set == "gn" else ncpart.enumerate_interval
        records = [
            {"blocks": mp.partition.blocks, "marks": mp.marks} for mp in enumerate_(args.n)
        ]
    payload = {"set": args.set, "n": args.n, "count": len(records), "records": records}
    _emit(payload, args.format, args.out)
    return 0


def _parse_word(config: ModelConfig, grid: GridMeasure, args) -> list[np.ndarray]:
    factors = []
    if args.word:
        for piece in args.word.split(","):
            try:
                a, b = (float(x) for x in piece.split(":"))
            except ValueError as exc:
                raise ConfigError(f"bad factor {piece!r}, expected 'a:b'") from exc
            factors.append(grid.indicator(a, b))
    else:
        a, b = config.interval
        factors.append(grid.indicator(a, b))  # midpoint nodes all lie below b
    if args.power < 1:
        raise ConfigError("power must be positive")
    return factors * args.power


def _memory_limit() -> int:
    """Bytes the process may still take: physical memory, or what a lower
    ``RLIMIT_AS`` leaves past the address space the process already maps."""
    page = os.sysconf("SC_PAGE_SIZE")
    memory = page * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY:
        return memory
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            mapped = page * int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        mapped = 0  # unreadable: charge nothing for it
    return min(memory, soft - mapped)


def _require_memory(nbytes: int, what: str) -> None:
    """Refuse, before any work, a route needing more memory than the process may hold."""
    limit = _memory_limit()
    log.debug("%s: %d bytes of %d", what, nbytes, limit)
    if nbytes > limit:
        raise CapacityError(f"{what} would take {nbytes / 2**30:.1f} of {limit / 2**30:.1f} GiB")


def cmd_moments(args) -> int:
    config = load_config(args.config)
    pg = config.build_model()
    grid = pg.grid
    word = _parse_word(config, grid, args)
    if len(word) > 2 * config.degree:
        raise ConfigError(f"word length {len(word)} exceeds twice the degree budget")

    top = (len(word) + 1) // 2  # the Fock level each half of the split word reaches
    routes = {"big_fock": lambda: cumulant.moment(word, pg)}
    # with point masses only, g_l = 0 for l >= 1: the extended space is then
    # the Fock space over T that big_fock already runs on
    if any(fb.size > 1 for fb in pg.fibers):
        # xmoment reads the laws' recurrences through degree top - 1, so its
        # slots are {0..top-1} x T; a half word runs on the vacuum as at most
        # 3**top rank-one terms of top such slots, and the halves pair in
        # blocks of two scratch arrays; its tracemalloc peak measures 0.15 to
        # 0.25 times this past the fixed overhead of small words
        terms = 3**top * top * top * grid.size + 2 * xfock._PAIR_BLOCK
        _require_memory(8 * terms, "the extended Fock term lists")
        sys_ = jacobi.JacobiSystem(pg, top)
        routes["extended_fock"] = lambda: xfock.xmoment(word, sys_)
    # a half word runs on the vacuum as at most 3**top rank-one terms of top
    # slots; the route's tracemalloc peak measures 0.2 to 0.9 times this
    _require_memory(8 * 3**top * top * pg.size, "the rank-one term lists")
    routes["nc_sum"] = lambda: cumulant.nc_moment_sum(word, pg)
    paths: dict[str, float] = {}
    route_seconds: dict[str, float] = {}
    for name, route in routes.items():
        started = time.perf_counter()
        paths[name] = route()
        route_seconds[name] = time.perf_counter() - started
    values = np.array(list(paths.values()))
    # np.max keeps a NaN route, where max over a generator can drop it
    max_gap = float(np.max(np.abs(values[:, None] - values)))
    payload = {
        "word_length": len(word),
        "paths": paths,
        "route_seconds": route_seconds,
        "max_gap": max_gap,
    }
    _emit(payload, args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    # the suites build their own seeded models from m, fiber_nodes and degree
    config = load_config(args.config, unread={"interval", "lambda", "eta", "fibers"})
    names = list(suites.SUITE_NAMES) if args.suite == "all" else [args.suite]
    params = suites.SuiteParams(
        m=config.m,
        fiber_nodes=config.fiber_nodes,
        degree=config.degree,
        n_max=args.n_max,
        seed=args.seed,
    )
    checks, suite_seconds = [], {}
    for name in names:
        ran = suites.run_suite(name, params)
        suite_seconds[name] = sum(c.elapsed for c in ran)
        log.info("suite %s: %d checks, passed=%s, %.2fs",
                 name, len(ran), all(c.passed for c in ran), suite_seconds[name])
        checks += [dict(asdict(c), passed=c.passed, suite=name) for c in ran]
    payload = {
        "suites": names,
        "passed": all(c["passed"] for c in checks),
        "elapsed_seconds": sum(suite_seconds.values()),
        "suite_seconds": suite_seconds,
        "params": asdict(params),
        "checks": checks,
    }
    _emit(payload, args.format, args.out)
    return 0 if payload["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freewick",
        description="Verify free-noise Fock space calculus on finite grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", help="dump a partition enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", choices=("nc", "gn", "interval"), default="nc")
    _common_output(p)
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("moments", help="one vacuum moment by all routes")
    p.add_argument("--config", default=None)
    p.add_argument("--word", default=None,
                   help="comma-separated indicator factors 'a:b' (default: whole interval)")
    p.add_argument("--power", type=int, default=1, help="repeat the word this many times")
    _common_output(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--config", default=None)
    p.add_argument("--suite", choices=suites.SUITE_NAMES + ("all",), default="all")
    p.add_argument("--n-max", type=int, default=4, dest="n_max",
                   help="largest expansion order for the wick suite (1..6)")
    p.add_argument("--seed", type=int, default=0, help="seed of the suites' random draws")
    _common_output(p)
    p.set_defaults(func=cmd_verify)
    return parser


def _common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "text", "csv"), default="json")
    p.add_argument("--out", default=None)


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FreewickError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
