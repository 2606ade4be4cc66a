"""Configuration-driven command line front end.

Subcommands:

* ``partitions`` dumps an enumeration with counts,
* ``moments`` computes one vacuum moment by every applicable route and
  reports the values with their largest pairwise gap and the wall time
  of each route,
* ``verify`` runs the seeded verification suites and emits a
  machine-readable report.

Exit codes: 0 success; 1 a failed verification, and nothing else; 2 a
configuration error, a refused size, an output file that cannot be
written, or a run out of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import itertools
import json
import logging
import math
import os
import resource
import stat
import sys
import time
from dataclasses import asdict, dataclass
from operator import attrgetter

import numpy as np

from . import cumulant, jacobi, ncpart, suites, xfock
from .errors import CapacityError, ConfigError, EnumerationBoundError, FreewickError, require_int
from .grid import FiberMeasure, ProductGrid, make_grid, semicircle_fibers

log = logging.getLogger("freewick")


def _setup_logging() -> None:
    # FREEWICK_LOG is the only environment knob: it sets the log level, and
    # an unknown level is refused before the root logger is touched
    level = os.environ.get("FREEWICK_LOG")
    if not level:
        return
    if level.upper() not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        raise ConfigError(f"FREEWICK_LOG={level!r} is not one of debug, info, warning, "
                          "error, critical")
    logging.basicConfig(level=level.upper(), stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


# the keys a config may set; the verify suites read only the first three
_SUITE_KEYS = frozenset({"m", "fiber_nodes", "degree"})
_CONFIG_KEYS = _SUITE_KEYS | {"interval", "lambda", "eta", "fibers"}
_MODEL_KEYS = _CONFIG_KEYS - {"degree"}


@dataclass
class ModelConfig:
    """Validated model description behind ``moments``."""

    m: int = suites.SuiteParams.m
    interval: tuple[float, float] = (0.0, 1.0)
    lam: object = suites._MEIXNER_POINT["lam"]
    eta: object = suites._MEIXNER_POINT["eta"]
    fibers: list | None = None
    fiber_nodes: int = suites.SuiteParams.fiber_nodes

    def __post_init__(self):
        for name in ("m", "fiber_nodes"):
            require_int(name, getattr(self, name), 1)
        if len(self.interval) != 2:
            raise ConfigError("interval must be a pair [a, b]")

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        """The model of a config that :func:`load_config` has read."""
        clash = raw.keys() & {"lambda", "eta", "fiber_nodes"} if "fibers" in raw else set()
        if clash:
            raise ConfigError(f"{sorted(clash)} cannot come with fibers, which give the node laws")
        kwargs = {"lam" if k == "lambda" else k: v for k, v in raw.items()}
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
        try:
            fibers = [FiberMeasure(np.asarray(item["atoms"], dtype=float),
                                   np.asarray(item["weights"], dtype=float))
                      for item in self.fibers]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad fiber spec: {exc}") from exc
        if len(fibers) != grid.size:
            raise ConfigError("one fiber per grid node required")
        return ProductGrid(grid, fibers)


def load_config(path: str | None, reads=_CONFIG_KEYS) -> dict:
    """The config at ``path`` (none: ``{}``); a key outside ``reads`` is
    refused, by name.  The values are checked by whoever reads them."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = raw.keys() - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    refused = raw.keys() - reads
    if refused:
        raise ConfigError(f"config keys this command does not read: {sorted(refused)}")
    return raw


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

# records per write of the partitions JSON: far fewer writes than one per
# record, and far less memory than the whole text at once
_JSON_BATCH = 1 << 12


def _finite(value):
    """``value`` with each NaN or infinite float as None, which JSON writes
    as null: RFC 8259 has no NaN.  Text and CSV keep ``nan``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return value


def _write_json(payload: dict, handle) -> None:
    handle.write(json.dumps(_finite(payload), indent=2, allow_nan=False) + "\n")


def _emit(args, payload: dict, table: tuple, in_table=(), write_json=_write_json) -> None:
    """Write one command's report in ``args.format`` to ``args.handle``.

    JSON is ``payload``, written by ``write_json(payload, handle)``.  CSV is
    ``table``, the command's ``(header, rows)`` of strings; text aligns that
    table in columns, then gives each string or number of the payload as
    ``key: value`` and each entry of a dict as ``key.sub: value``, save the
    keys named in ``in_table``, which the table holds.  A write to
    ``--out`` that fails is a ConfigError.
    """
    def write(handle):
        header, rows = table
        if args.format == "json":
            write_json(payload, handle)
        elif args.format == "csv":
            # quoted where a field holds a comma, as the blocks of a partition do
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        else:
            rows = [header, *rows]
            widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
            for row in rows:
                handle.write("  ".join(map(str.ljust, row, widths)).rstrip() + "\n")
            for k, v in payload.items():
                if k in in_table:
                    continue
                if isinstance(v, dict):
                    handle.writelines(f"{k}.{sub}: {x}\n" for sub, x in v.items())
                elif isinstance(v, (str, int, float)):
                    handle.write(f"{k}: {v}\n")

    try:
        write(args.handle)
    except OSError as exc:
        if not args.out:
            raise
        raise ConfigError(f"cannot write {args.out}: {exc}") from exc


@contextlib.contextmanager
def _output(path: str | None):
    """The handle a command's report goes to: stdout; for a regular or a
    missing file, a temporary file beside ``path`` that replaces it once
    the command returns; for any other file, such as a device, a FIFO or a
    terminal, ``path`` itself, since a replace would swap it for a regular
    file.

    The file is opened before the command runs, so an unwritable ``path``
    is refused before any work.  A command that raises leaves any earlier
    regular file at ``path`` untouched and no temporary behind; the file
    that replaces it has its mode, but is a new file, so the earlier one's
    owner and hard links are not carried over.
    """
    if not path:
        yield sys.stdout
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    handle = tmp = None
    try:
        if mode is not None and not stat.S_ISREG(mode):
            handle = open(path, "w", encoding="utf-8")
        else:
            target = os.path.realpath(path)  # through a symlink, as open(path, "w") writes
            head, tail = os.path.split(target)
            # refused here, since a replace would succeed where open(path, "w") fails
            if mode is not None and not os.access(target, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            # a random name, which neither a live run nor a killed run's
            # leftover holds; O_EXCL never takes over a file there, and only
            # a file this run made is removed.  A new file gets the mode
            # open(path, "w") gives, a replacement the earlier file's
            name = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
            fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            tmp = name
            handle = os.fdopen(fd, "w", encoding="utf-8")
            if mode is not None:
                os.chmod(fd, stat.S_IMODE(mode))
    except OSError as exc:
        if handle is not None:
            handle.close()
        if tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    try:
        yield handle
        try:
            handle.close()
            if tmp is not None:
                os.replace(tmp, target)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        # after a replace there is no temporary left to remove
        with contextlib.suppress(OSError):
            handle.close()
        if tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


class _IntListJSON(dict):
    """Indent-2 JSON text of int tuples nested ``depth`` levels deep, made
    once per distinct tuple and then looked up."""

    def __init__(self, depth: int):
        super().__init__()
        inner = "\n" + "  " * (depth + 1)
        self.open, self.sep, self.close = "[" + inner, "," + inner, "\n" + "  " * depth + "]"

    def __missing__(self, key: tuple) -> str:
        text = self.open + self.sep.join(map(str, key)) + self.close if key else "[]"
        self[key] = text
        return text


def _write_records_json(payload: dict, handle) -> None:
    """The partitions payload as ``json.dumps`` with ``indent=2`` writes it,
    and a newline, byte for byte, without the pure-Python indent encoder.

    ``payload["records"]`` iterates over ``(blocks, marks)`` pairs, a tuple
    of int tuples and an int tuple, which JSON writes as the record
    ``{"blocks": ..., "marks": ...}``; the text of each distinct int tuple is
    made once (:class:`_IntListJSON`) and a record's text is one
    concatenation of those.  The other payload values are scalars.  The
    records are written ``_JSON_BATCH`` at a time, so the whole text is
    never held at once.
    """
    # the blocks and the marks of a record sit at the same depth, 3
    block_text, level3 = _IntListJSON(4), _IntListJSON(3)
    lead = "{\n  "
    for key, value in payload.items():
        handle.write(lead + json.dumps(key) + ": ")
        lead = ",\n  "
        if key != "records":
            handle.write(json.dumps(value))
            continue
        records, sep = iter(value), "[\n    "
        while batch := list(itertools.islice(records, _JSON_BATCH)):
            # a partition of n >= 1 elements has at least one block
            handle.write(sep + ",\n    ".join([
                '{\n      "blocks": ' + level3.open
                + level3.sep.join(map(block_text.__getitem__, blocks))
                + level3.close + ',\n      "marks": ' + level3[marks] + "\n    }"
                for blocks, marks in batch
            ]))
            sep = ",\n    "
        handle.write("[]" if sep == "[\n    " else "\n  ]")  # [] when no record came
    handle.write("\n}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# the records are tracked containers that form no cycles: with the collector
# on, full collections would rescan the whole live record list as it grows
@ncpart._collector_paused
def cmd_partitions(args) -> int:
    # the writers read each record's own tuples, which json writes as lists
    if args.set == "nc":
        parts = ncpart.enumerate_nc(args.n)
        pairs = zip(map(attrgetter("blocks"), parts), itertools.repeat(()))
    else:
        enumerate_ = ncpart.enumerate_gn if args.set == "gn" else ncpart.enumerate_interval
        parts = enumerate_(args.n)
        pairs = map(attrgetter("partition.blocks", "marks"), parts)
    payload = {"set": args.set, "n": args.n, "count": len(parts), "records": pairs}
    # one format is written, so the rows and the JSON records share one pass over pairs
    rows = ((";".join(",".join(map(str, b)) for b in blocks), ",".join(map(str, marks)))
            for blocks, marks in pairs)
    _emit(args, payload, (("blocks", "marks"), rows), write_json=_write_records_json)
    return 0


def _parse_word(config: ModelConfig, args) -> list[tuple[float, float]]:
    """The window ``(a, b)`` of each factor, by default the whole interval
    (its midpoint nodes lie below ``b``), refused past ``NC_LIMIT`` factors."""
    windows = [config.interval]
    if args.word:
        windows = []
        for piece in args.word.split(","):
            try:
                a, b = (float(x) for x in piece.split(":"))
            except ValueError as exc:
                raise ConfigError(f"bad factor {piece!r}, expected 'a:b'") from exc
            windows.append((a, b))
    if args.power < 1:
        raise ConfigError("power must be positive")
    n = len(windows) * args.power
    if n > ncpart.NC_LIMIT:
        raise EnumerationBoundError(f"word length {n} exceeds {ncpart.NC_LIMIT}, the nc_sum bound")
    return windows * args.power


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
    config = ModelConfig.from_dict(load_config(args.config, reads=_MODEL_KEYS))
    windows = _parse_word(config, args)
    pg = config.build_model()
    word = [pg.grid.indicator(a, b) for a, b in windows]
    n = len(word)
    # each route with its charge in bytes, checked before any runs.
    # With point masses only, g_l = 0 for l >= 1: the extended space is then
    # the Fock space over T that big_fock already runs on
    routes = {"big_fock": (cumulant.moment_bytes(n, pg), lambda: cumulant.moment(word, pg))}
    if any(fb.size > 1 for fb in pg.fibers):
        routes["extended_fock"] = (xfock.xmoment_bytes(n, pg), lambda: xfock.xmoment(
            word, jacobi.JacobiSystem(pg, (n + 1) // 2)))
    routes["nc_sum"] = (cumulant.nc_moment_sum_bytes(n), lambda: cumulant.nc_moment_sum(word, pg))
    for name, (nbytes, _) in routes.items():
        _require_memory(nbytes, f"the {name} route")
    paths, route_seconds = {}, {}
    for name, (_, route) in routes.items():
        started = time.perf_counter()
        paths[name] = route()
        route_seconds[name] = time.perf_counter() - started
    # the largest gap of two routes, on the verify checks' relative scale
    # and absolute; np.max keeps a NaN route, where max can drop it
    values = list(paths.values())
    gaps = {"max_gap": list(itertools.starmap(suites._rel, itertools.combinations(values, 2))),
            "max_abs_gap": np.abs(np.subtract.outer(values, values))}
    gaps = {k: float(np.max(v)) for k, v in gaps.items()}
    payload = {"word_length": n, "paths": paths, "route_seconds": route_seconds, **gaps}
    rows = [[k, repr(v)] for k, v in {**paths, **gaps}.items()]
    _emit(args, payload, (["path", "value"], rows), in_table=("paths", *gaps))
    return 0


def cmd_verify(args) -> int:
    # the suites build their own seeded models; SuiteParams checks the settings
    config = load_config(args.config, reads=_SUITE_KEYS)
    params = suites.SuiteParams(**config, n_max=args.n_max, seed=args.seed)
    names = list(suites.SUITE_NAMES) if args.suite == "all" else [args.suite]
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
    rows = [[c["suite"], c["name"], f"{c['residual']:.3e}", f"{c['tol']:.1e}", str(c["passed"])]
            for c in checks]
    _emit(args, payload, (["suite", "check", "residual", "tol", "passed"], rows))
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
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        with _output(args.out) as args.handle:
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except FreewickError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
