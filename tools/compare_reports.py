"""Compare two ``freewick verify`` JSON reports, check by check.

Usage: ``python tools/compare_reports.py BEFORE.json AFTER.json``

Prints one row per check, keyed by suite and name: the residual before and
after, their ratio (after over before; 1 where they are equal), and a note
where the pass flag flips, the check appears or goes, or the residual
drifts (any change, even one whose ratio prints as 1).  The last line
counts the checks, the flipped or lost ones and the identical residuals.
Exits 1 when a flag flips or a check goes, and 0 otherwise: residual
drift is reported, never failed.  A NaN residual reads as NaN whether the
report wrote it as ``null`` or as the bare ``NaN`` token of reports before
strict JSON, and two NaNs are identical.  Standard library only.
"""

import json
import math
import sys


def load(path: str) -> dict:
    """The checks of the report at ``path``, by ``(suite, name)``, in report order."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)  # json reads the bare NaN token too
    return {(c["suite"], c["name"]): c for c in report["checks"]}


def residual(check: dict) -> float:
    value = check["residual"]
    return math.nan if value is None else float(value)


def ratio(before: float, after: float) -> float:
    if before == after:
        return 1.0
    return math.inf if before == 0 else after / before


def same(before: float, after: float) -> bool:
    return before == after or (math.isnan(before) and math.isnan(after))


def compare(before: dict, after: dict) -> tuple[list[list[str]], int, int]:
    """The table rows, the number of flipped flags and lost checks, and the
    number of checks whose residual is identical."""
    rows, faults, identical = [], 0, 0
    for key in list(before) + [k for k in after if k not in before]:
        old, new = before.get(key), after.get(key)
        cells = [*key, "-", "-", "-"]
        if old is not None:
            cells[2] = f"{residual(old):.3e}"
        if new is not None:
            cells[3] = f"{residual(new):.3e}"
        if old is None:
            note = "new"
        elif new is None:
            note, faults = "gone", faults + 1
        else:
            cells[4] = f"{ratio(residual(old), residual(new)):.3g}"
            kept = same(residual(old), residual(new))
            flipped = old["passed"] != new["passed"]
            note = f"passed {old['passed']} -> {new['passed']}" if flipped else ""
            if not (kept or flipped):
                note = "drift"
            faults += flipped
            identical += kept
        rows.append(cells + [note])
    return rows, faults, identical


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows, faults, identical = compare(load(args[0]), load(args[1]))
    table = [["suite", "check", "before", "after", "ratio", "note"]] + rows
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    print(f"{len(rows)} checks, {faults} flipped or gone, {identical} identical")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
