#!/usr/bin/env python3
"""Report, value by value, how two thermoproc output directories differ.

Both directories are walked with their subdirectories, and each file is
compared with the one at the same path relative to its directory, named by
that path.  For every CSV on either side this prints, per column, the number
of changed values, the largest absolute and relative change between the old
and the new value, and the first changed row (1-based, counting data rows).
It names the CSVs that only one side has, a changed row count, columns that
only one side has, and changed ``#`` comment lines.  For each
``validation_report.json`` it prints each check's old and new ``deviation``
and ``passed``.  ``run_manifest.json`` is left out: its wall time differs
between any two runs.

A value counts as changed when its text differs; the absolute and relative
changes are taken over the changed values that parse as numbers on both
sides.  The relative change is |new - old| / |old|, infinite where old is 0.

Exits 0 when every compared file is byte-identical and both directories
hold the same ones, 1 otherwise, and 2 on a wrong argument count.

Usage: python benchmarks/byte_diff.py OLD NEW
"""

import json
import math
import sys
from pathlib import Path

REPORT = "validation_report.json"


def read_csv(path):
    """(comment lines, column names, rows of cell texts) of one output CSV."""
    comments, columns, rows = [], None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(line.split(","))
    return comments, columns or [], rows


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def column_changes(old, new):
    """(changed count, largest absolute change, largest relative change,
    first changed row or None) of two columns of cell texts, row by row."""
    changed, max_abs, max_rel, first = 0, 0.0, 0.0, None
    for row, (a, b) in enumerate(zip(old, new), start=1):
        if a == b:
            continue
        changed += 1
        first = first or row
        x, y = _number(a), _number(b)
        if x is None or y is None:
            continue
        diff = abs(y - x)
        max_abs = max(max_abs, diff)
        max_rel = max(max_rel, diff / abs(x) if x else math.inf)
    return changed, max_abs, max_rel, first


def diff_csv(name, old_path, new_path):
    """Print the per-column changes of the CSV ``name``; whether its bytes differ."""
    old_comments, old_columns, old_rows = read_csv(old_path)
    new_comments, new_columns, new_rows = read_csv(new_path)
    print(f"{name}: {len(old_rows)} -> {len(new_rows)} rows")
    for line in sorted(set(old_comments) ^ set(new_comments)):
        print(f"  comment {'-' if line in old_comments else '+'} {line}")
    for name in old_columns:
        if name not in new_columns:
            print(f"  column {name}: only in OLD")
    for name in new_columns:
        if name not in old_columns:
            print(f"  column {name}: only in NEW")
    print(f"  {'column':<22} {'changed':>7} {'max abs':>9} {'max rel':>9} {'first row':>9}")
    for name in old_columns:
        if name not in new_columns:
            continue
        i, j = old_columns.index(name), new_columns.index(name)
        changed, max_abs, max_rel, first = column_changes(
            [r[i] for r in old_rows], [r[j] for r in new_rows])
        print(f"  {name:<22} {changed:>7} {max_abs:>9.2e} {max_rel:>9.2e} "
              f"{first or '-':>9}")
    return old_path.read_bytes() != new_path.read_bytes()


def diff_report(name, old_path, new_path):
    """Print each check's old and new deviation and verdict in the report
    ``name``; whether the report's bytes differ."""
    old = {c["name"]: c for c in json.loads(old_path.read_text())["checks"]}
    new = {c["name"]: c for c in json.loads(new_path.read_text())["checks"]}
    print(f"{name}:")
    print(f"  {'check':<36} {'old deviation':>23} {'new deviation':>23} "
          f"{'old passed':>10} {'new passed':>10}")
    for name in [*old, *(n for n in new if n not in old)]:
        a, b = old.get(name, {}), new.get(name, {})
        print(f"  {name:<36} {str(a.get('deviation', '-')):>23} "
              f"{str(b.get('deviation', '-')):>23} {str(a.get('passed', '-')):>10} "
              f"{str(b.get('passed', '-')):>10}")
    return old_path.read_bytes() != new_path.read_bytes()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    old_dir, new_dir = map(Path, argv)
    names = sorted({p.relative_to(d).as_posix() for d in (old_dir, new_dir)
                    for pattern in ("*.csv", REPORT) for p in d.rglob(pattern)})
    differs = False
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            print(f"{name}: only in {'OLD' if old.exists() else 'NEW'}")
            differs = True
            continue
        differs |= (diff_report if old.name == REPORT else diff_csv)(name, old, new)
    print("differs" if differs else "byte-identical")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
