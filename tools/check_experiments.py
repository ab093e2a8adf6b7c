#!/usr/bin/env python3
"""Checks that EXPERIMENTS.md quotes its sources faithfully.

A measured number in EXPERIMENTS.md is written in bold and followed by its
source in parentheses:

  **2,348.9 s** (`fig9.redoop_total_s`)          a BENCH_redoop.json row
  **6.5 ns** (kernel_bench `matrix-is-done`)     a kernel_bench report row
  **120 s** (test `ExecutionProfilerTest.Fig3`)  a test in tests/

The check fails when a bold number has no source, a source has no bold
number, a cited BENCH row is missing, or the row's value differs from the
printed number at the printed precision (in the printed unit: ks is
thousands of seconds, % is a fraction times 100). Cited kernel_bench rows
and tests must exist; their host-time numbers are not compared.

Usage: check_experiments.py REPO_ROOT
"""

import glob
import json
import os
import re
import sys

BOLD = re.compile(r"\*\*([^*]+)\*\*")
SOURCE = re.compile(r"\s*\((?:(kernel_bench|test)\s+)?`([^`]+)`\)")
# What reads as a source wherever it appears; a heading's (`bench_harness
# --only=fig6`) does not.
LOOSE_SOURCE = re.compile(
    r"\((?:(?:kernel_bench|test)\s+`[^`]+`|`[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+`)\)")
NUMBER = re.compile(r"^(-?[\d,]*\d(?:\.(\d+))?)\s?(.*)$")
UNIT_SCALE = {"": 1.0, "×": 1.0, "s": 1.0, "ks": 1e3, "GB": 1.0, "%": 0.01}


def check(doc, bench, kernel_src, tests_src):
    errors = []
    cited = set()
    for bold in BOLD.finditer(doc):
        text = bold.group(1)
        if not re.search(r"\d", text):
            continue
        where = f"line {doc.count(chr(10), 0, bold.start()) + 1}: **{text}**"
        source = SOURCE.match(doc, bold.end())
        if source is None:
            errors.append(f"{where} names no source")
            continue
        cited.add(source.end())
        kind, name = source.group(1), source.group(2)
        if kind == "kernel_bench":
            if f'"{name.split()[0]}' not in kernel_src:
                errors.append(f"{where}: no kernel_bench row '{name}'")
            continue
        if kind == "test":
            suite, _, test = name.partition(".")
            if not re.search(rf"TEST(?:_F|_P)?\({suite},\s*{test}\)",
                             tests_src):
                errors.append(f"{where}: no test {name}")
            continue
        number = NUMBER.match(text)
        if number is None or number.group(3) not in UNIT_SCALE:
            errors.append(f"{where} is not a number in one of the units "
                          f"{', '.join(repr(u) for u in UNIT_SCALE)}")
            continue
        if name not in bench:
            errors.append(f"{where}: BENCH_redoop.json has no row {name}")
            continue
        printed = float(number.group(1).replace(",", ""))
        decimals = len(number.group(2) or "")
        value = bench[name] / UNIT_SCALE[number.group(3)]
        if abs(value - printed) > 0.5 * 10 ** -decimals * (1 + 1e-9):
            errors.append(f"{where}: {name} is {bench[name]:g}")
    for source in LOOSE_SOURCE.finditer(doc):
        if source.end() not in cited:
            line = doc.count("\n", 0, source.start()) + 1
            errors.append(f"line {line}: source {source.group(0)} "
                          "follows no bold number")
    return errors


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = argv[1]
    doc_path = os.path.join(root, "EXPERIMENTS.md")
    with open(doc_path, encoding="utf-8") as f:
        doc = f.read()
    with open(os.path.join(root, "BENCH_redoop.json"), encoding="utf-8") as f:
        bench = json.load(f)["metrics"]
    with open(os.path.join(root, "bench", "kernel_bench.cc"),
              encoding="utf-8") as f:
        kernel_src = f.read()
    tests_src = ""
    for path in sorted(glob.glob(os.path.join(root, "tests", "*.cc"))):
        with open(path, encoding="utf-8") as f:
            tests_src += f.read()
    errors = check(doc, bench, kernel_src, tests_src)
    for error in errors:
        print(f"{doc_path}: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
