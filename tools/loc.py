#!/usr/bin/env python3
"""Lines of code under src/, one count for every change to compare.

    python3 tools/loc.py [--root .]

Prints, per directory directly under src/ and in total, the raw line count
and the code line count of every file there (headers, sources and CMake
files alike).  A code line is a line that is neither blank nor a `//`
comment line; a line that holds code and a trailing comment is code.
"""

import argparse
import os
import sys


def count(path):
    """(raw, code) line counts of one file."""
    raw = code = 0
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            raw += 1
            text = line.strip()
            if text and not text.startswith("//"):
                code += 1
    return raw, code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    src = os.path.join(args.root, "src")
    if not os.path.isdir(src):
        print(f"error: {src} is not a directory", file=sys.stderr)
        return 2
    totals = {}
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        rel = os.path.relpath(dirpath, src)
        group = "." if rel == "." else rel.split(os.sep)[0]
        for name in filenames:
            raw, code = count(os.path.join(dirpath, name))
            old_raw, old_code = totals.get(group, (0, 0))
            totals[group] = (old_raw + raw, old_code + code)
    print(f"{'src/':<16}{'raw':>8}{'code':>8}")
    for group in sorted(totals):
        raw, code = totals[group]
        label = "src/ (files)" if group == "." else f"src/{group}/"
        print(f"{label:<16}{raw:>8,}{code:>8,}")
    raw = sum(r for r, _ in totals.values())
    code = sum(c for _, c in totals.values())
    print(f"{'total':<16}{raw:>8,}{code:>8,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
