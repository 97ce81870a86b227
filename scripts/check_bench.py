#!/usr/bin/env python3
"""Check a CI bench leg's JSON lines against that leg's declared predicates.

    python3 scripts/check_bench.py <leg> <BENCH_*.json>

The file holds one JSON object per line (the CI workflow greps them out of
the bench's stdout with `grep '^{'`). Every line is parsed, then checked
against the leg's declaration below: how many lines it must hold, which
"bench" name each line carries, and a predicate per field that every line
must satisfy. A missing field fails its predicate. Parsing the lines means
a check does not depend on field order or number formatting, as a `grep`
for `'"chunks_dropped":0,'` did.

Exits 0 when every predicate holds; otherwise prints one line per failure
and exits 1.
"""

from __future__ import annotations

import json
import pathlib
import sys


def is_true(value) -> bool:
    return value is True


def positive(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and value > 0


# leg name → {"lines": exact line count, "bench": the "bench" name of every
# line, "every_line": {field: (predicate, description)}}.
LEGS = {
    # bench_serving_throughput --disagg, fault-free: one line per KV
    # bit-width {2,4,8}, every decode bit-identical to solo generate().
    "disagg": {
        "lines": 3,
        "bench": "serving_disagg",
        "every_line": {
            "bit_identical": (is_true, "== true"),
        },
    },
    # bench_serving_throughput --disagg under --drop/--corrupt: as "disagg",
    # and the schedule must actually have dropped chunks on every line.
    "chaos": {
        "lines": 3,
        "bench": "serving_disagg",
        "every_line": {
            "bit_identical": (is_true, "== true"),
            "chunks_dropped": (positive, "> 0"),
        },
    },
}


def check(leg: str, text: str) -> list[str]:
    """Returns one message per failed predicate (empty: the leg passes)."""
    spec = LEGS[leg]
    failures = []
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            line = json.loads(raw)
        except json.JSONDecodeError as err:
            failures.append(f"line {number}: not JSON ({err})")
            continue
        if not isinstance(line, dict):
            failures.append(f"line {number}: not a JSON object")
            continue
        lines.append((number, line))

    if len(lines) != spec["lines"]:
        failures.append(
            f"expected exactly {spec['lines']} lines, found {len(lines)}")
    for number, line in lines:
        if line.get("bench") != spec["bench"]:
            failures.append(f"line {number}: bench is {line.get('bench')!r}, "
                            f"expected {spec['bench']!r}")
        for field, (predicate, description) in spec["every_line"].items():
            if field not in line:
                failures.append(f"line {number}: missing {field}")
            elif not predicate(line[field]):
                failures.append(f"line {number}: {field} = "
                                f"{json.dumps(line[field])}, expected "
                                f"{description}")
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[1] not in LEGS:
        print(f"usage: {argv[0]} <{'|'.join(LEGS)}> <BENCH_*.json>",
              file=sys.stderr)
        return 2
    leg, path = argv[1], pathlib.Path(argv[2])
    if not path.is_file():
        print(f"{leg}: {path} does not exist", file=sys.stderr)
        return 1
    failures = check(leg, path.read_text())
    for failure in failures:
        print(f"{leg}: {path}: {failure}", file=sys.stderr)
    if not failures:
        print(f"{leg}: {path}: all predicates hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
