#!/usr/bin/env python3
"""Summarise the results/ figure CSVs: per-column value ranges and wAVF rows.

Each CSV starts with a `#` line recording what produced it (faults per
cell, seed, benchmarks, margin, revision). The first column, and any
further leading columns holding non-numeric cells, are row labels. Rates
are written as fractions with a decimal point and print here as percents;
counts, cycles, area and OPF print as written.
"""
import csv, glob, os


def is_num(v):
    try:
        float(v)
        return True
    except ValueError:
        return False


def show(col):
    if all("." in v and "e" not in v and 0.0 <= float(v) <= 1.0 for v in col):
        return lambda v: f"{float(v) * 100:.1f}%"
    return lambda v: v


os.chdir(os.path.dirname(os.path.abspath(__file__)))
for f in sorted(glob.glob("fig*.csv") + glob.glob("ext_*.csv")):
    with open(f) as fh:
        lines = fh.read().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    rows = list(csv.reader(l for l in lines if not l.startswith("#")))
    header, body = rows[0], rows[1:]
    wavf = next((r for r in body if r[0] == "wAVF"), None)
    points = [r for r in body if r is not wavf]
    labels = 1
    while labels < len(header) and not all(is_num(r[labels]) for r in body):
        labels += 1
    ranges, means = [], []
    for c in range(labels, len(header)):
        col = [r[c] for r in points]
        fmt = show(col + ([wavf[c]] if wavf else []))
        lo, hi = min(col, key=float), max(col, key=float)
        ranges.append(f"{header[c]} {fmt(lo)}-{fmt(hi)}")
        if wavf:
            means.append(f"{header[c]}={fmt(wavf[c])}")
    faults = next((w for w in (meta[0].split() if meta else []) if w.startswith("faults=")), "faults=?")
    w = f"  wAVF[{', '.join(means)}]" if wavf else ""
    print(f"{f:<26} {faults:<11} {'  '.join(ranges)}{w}")
