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
import json
import logging
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import cumulant, jacobi, ncpart, suites, xfock
from .errors import CapacityError, ConfigError, EnumerationBoundError, FreewickError
from .grid import FiberMeasure, GridMeasure, ProductGrid, make_grid, semicircle_fibers

MODES = ("gauss_poisson", "general", "meixner")

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
    mode: str = "meixner"
    lam: object = 1.0
    eta: object = 1.0
    fibers: list | None = None
    fiber_nodes: int = 8
    degree: int = 6
    seed: int = 0
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        # a bool is an int to Python, but not a count or a seed
        for name, low in (("m", 1), ("fiber_nodes", 1), ("degree", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ConfigError(f"{name} must be an integer of at least {low}")
        tol = self.tolerance
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < np.inf:
            raise ConfigError("tolerance must be a positive finite number")
        if len(self.interval) != 2:
            raise ConfigError("interval must be a pair [a, b]")
        if (self.mode == "general") != (self.fibers is not None):
            raise ConfigError("per-node fibers are given in general mode and only there")

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        known = {
            "m", "interval", "mode", "lambda", "eta", "fibers",
            "fiber_nodes", "degree", "seed", "tolerance",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
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
            eta = self.eta if self.mode != "gauss_poisson" else 0.0
            grid = make_grid(self.m, self.interval, lam=self.lam, eta=eta)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad grid/coefficient spec: {exc}") from exc
        if self.mode != "general":
            # the gauss_poisson grid has eta = 0: each law is the point mass at lambda
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


def load_config(path: str | None) -> ModelConfig:
    if path is None:
        return ModelConfig()
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return ModelConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        text = _to_csv(payload)
    else:
        text = _to_text(payload)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


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
    if "paths" in payload:
        header = ["path", "value"]
        rows = [[k, repr(v)] for k, v in payload["paths"].items()]
        rows.append(["max_gap", repr(payload["max_gap"])])
        return header, rows
    return list(payload), [[payload[k] for k in payload]]


def _to_csv(payload: dict) -> str:
    header, rows = _rows(payload)
    lines = [",".join(header)]
    lines += [",".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


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

def cmd_partitions(args) -> int:
    try:
        if args.set == "nc":
            records = [
                {"blocks": [list(b) for b in p.blocks], "marks": []}
                for p in ncpart.enumerate_nc(args.n)
            ]
        elif args.set == "gn":
            records = [ncpart.to_json_record(mp) for mp in ncpart.enumerate_gn(args.n)]
        else:
            records = [ncpart.to_json_record(mp) for mp in ncpart.enumerate_interval(args.n)]
    except EnumerationBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    """Bytes the process may hold: physical memory, or a lower ``RLIMIT_AS``."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return memory if soft == resource.RLIM_INFINITY else min(memory, soft)


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
    if config.mode == "gauss_poisson":
        routes = {"fock": lambda: cumulant.moment(word, pg)}
    else:
        sys_ = jacobi.JacobiSystem.from_fibers(grid, pg.fibers, config.fiber_nodes)
        # the extended space's slots {0..L} x T; xmoment holds four dense levels
        # of them at once (its tracemalloc peak measures 3.2 to 3.7 levels)
        slots = (min(sys_.max_degree, top - 1) + 1) * grid.size
        _require_memory(4 * 8 * slots**top, "the extended Fock levels")
        routes = {
            "big_fock": lambda: cumulant.moment(word, pg),
            "extended_fock": lambda: xfock.xmoment(word, sys_),
        }
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
    values = list(paths.values())
    max_gap = max(abs(a - b) for a in values for b in values)
    payload = {
        "mode": config.mode,
        "word_length": len(word),
        "paths": paths,
        "route_seconds": route_seconds,
        "max_gap": max_gap,
    }
    _emit(payload, args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)  # checked as a config seed
    # the suites build their own seeded models; this rejects what moments rejects
    config.build_model()
    if not 1 <= args.n_max <= 6:
        raise ConfigError("--n-max must lie in 1..6 (expansion cost grows fast)")
    names = list(suites.SUITE_NAMES) if args.suite == "all" else [args.suite]
    params = suites.SuiteParams(
        m=config.m,
        fiber_nodes=config.fiber_nodes,
        degree=config.degree,
        n_max=args.n_max,
        seed=config.seed,
        tol=config.tolerance,
    )
    reports = []
    for name in names:
        rep = suites.run_suite(name, params)
        log.info("suite %s: %d checks, passed=%s, %.2fs",
                 name, len(rep.checks), rep.passed, rep.elapsed)
        reports.append(rep)
    checks = []
    for rep in reports:
        for c in rep.checks:
            d = c.to_json_dict()
            d["suite"] = rep.suite
            checks.append(d)
    payload = {
        "suites": [rep.suite for rep in reports],
        "passed": all(rep.passed for rep in reports),
        "elapsed_seconds": sum(rep.elapsed for rep in reports),
        "suite_seconds": {rep.suite: rep.elapsed for rep in reports},
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
    p.add_argument("--seed", type=int, default=None)
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
