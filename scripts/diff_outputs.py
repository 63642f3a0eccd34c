"""Compare two output trees of scripts/compare_outputs.py, file by file.

    python3 scripts/diff_outputs.py PARENT_DIR CHANGE_DIR

For every file in either tree it prints one line: `identical` when the
bytes agree, otherwise the largest relative difference of its numeric
fields, |a - b| / max(|a|, |b|), and the two values it is between.  A
file is split into numbers and the text between them; the text must
agree exactly.  Two numbers within ATOL of each other agree whatever
their ratio: round-off-level numbers such as the defect_* columns of
norms.csv (about 1e-15, at most about 2e-13) carry no relative meaning.
So the RTOL relative rule binds every number above ATOL / RTOL = 0.1 in
magnitude (the norms of norms.csv and the full-order norms, wtilde_cond,
times), and smaller ones agree to ATOL absolute.  Exit status 1 when a
file is missing on one side, its text differs, or a numeric field
differs by more than RTOL relative and ATOL absolute; 0 otherwise.
"""

import argparse
import re
import sys
from pathlib import Path

# the agreement asked of final norms where the arithmetic changes
RTOL = 1e-12
# the absolute floor below which differences are round-off
ATOL = 1e-13

# a decimal number that is not part of a word or a dotted name
NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def fields(text):
    """(text between the numbers, the numbers as floats)."""
    return NUMBER.split(text), [float(m) for m in NUMBER.findall(text)]


def largest_difference(a, b):
    """(relative difference, parent value, change value, agree) of the
    numbers of a and b that differ most, or None when their text
    differs.  agree tells whether every pair is within RTOL relative or
    ATOL absolute; when one is not, the worst such pair is returned."""
    (text_a, nums_a), (text_b, nums_b) = fields(a), fields(b)
    if text_a != text_b:
        return None
    pairs = [(abs(x - y) / max(abs(x), abs(y)), x, y)
             for x, y in zip(nums_a, nums_b) if x != y]
    beyond = [p for p in pairs if p[0] > RTOL and abs(p[1] - p[2]) > ATOL]
    return (*max(beyond or pairs, default=(0.0, 0.0, 0.0)), not beyond)


def compare(parent, change):
    """One (relative path, verdict, ok) per file of either tree."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    for name in names:
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            yield name, f"only in {parent if a.is_file() else change}", False
        elif a.read_bytes() == b.read_bytes():
            yield name, "identical", True
        else:
            worst = largest_difference(a.read_text(), b.read_text())
            if worst is None:
                yield name, "non-numeric text differs", False
            else:
                rel, x, y, agree = worst
                floor = f", within {ATOL:g} absolute" \
                    if agree and rel > RTOL else ""
                yield (name, f"max relative difference {rel:.3g} "
                       f"({x!r} vs {y!r}){floor}", agree)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    args = parser.parse_args(argv)
    ok = True
    for name, verdict, good in compare(args.parent_dir, args.change_dir):
        print(f"{name}: {verdict}" + ("" if good else "  FAIL"))
        ok &= good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
