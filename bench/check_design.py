#!/usr/bin/env python3
"""Design-health numbers for the src/ tree.

A module is one top-level directory under src/.  For every module the
script records its size (non-blank lines over all of its files) and its
include fan-out: the other modules it names in an `#include "<module>/..."`
line, i.e. the coupling-between-modules count of Lindvall et al. (2003).
Include cycles are the strongly connected components of that module
graph with more than one module.

Usage:
  check_design.py                 print the numbers as JSON
  check_design.py --check RECORD  exit 1 if a cycle appears that RECORD
                                  does not hold

--check fails only on coupling that is new: every current cycle must lie
inside one recorded cycle.  A cycle that shrinks or splits passes; one
that grows or merges two recorded cycles fails.  LOC and fan-out are
reported, never gated.
"""

import argparse
import json
import re
import sys
from pathlib import Path

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"/]+)/')
SRC = Path(__file__).resolve().parent.parent / "src"


def scan(src):
    modules = sorted(p.name for p in src.iterdir() if p.is_dir())
    known = set(modules)
    loc, fan_out = {}, {}
    for module in modules:
        lines, deps = 0, set()
        for path in sorted((src / module).rglob("*")):
            if not path.is_file():
                continue
            for line in path.read_text(encoding="utf-8").splitlines():
                if not line.strip():
                    continue
                lines += 1
                m = INCLUDE.match(line)
                if m and m.group(1) in known and m.group(1) != module:
                    deps.add(m.group(1))
        loc[module] = lines
        fan_out[module] = sorted(deps)
    return modules, loc, fan_out


def cycles(modules, fan_out):
    """Tarjan's strongly connected components, keeping those of size > 1."""
    index, low, stack, on_stack, found = {}, {}, [], set(), []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in fan_out[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            component = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                component.append(w)
                if w == v:
                    break
            if len(component) > 1:
                found.append(sorted(component))

    for v in modules:
        if v not in index:
            visit(v)
    return sorted(found)


def report():
    modules, loc, fan_out = scan(SRC)
    return {
        "modules": {m: {"loc": loc[m], "includes": fan_out[m]}
                    for m in modules},
        "cycles": cycles(modules, fan_out),
    }


def new_cycles(current, recorded):
    allowed = [set(c) for c in recorded]
    return [c for c in current
            if not any(set(c) <= known for known in allowed)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", type=Path, metavar="RECORD")
    args = parser.parse_args()

    doc = report()
    if args.check is None:
        json.dump(doc, sys.stdout, indent=2)
        print()
        return 0
    recorded = json.loads(args.check.read_text(encoding="utf-8"))["cycles"]
    fresh = new_cycles(doc["cycles"], recorded)
    modules = doc["modules"].values()
    print(f"{len(modules)} modules, {sum(m['loc'] for m in modules)} LOC, "
          f"{sum(len(m['includes']) for m in modules)} include edges, "
          f"{len(doc['cycles'])} cycles ({len(recorded)} recorded)")
    for cycle in fresh:
        print("new include cycle: " + " <-> ".join(cycle))
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
