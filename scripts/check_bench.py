#!/usr/bin/env python3
"""Check a CI bench leg's JSON lines against that leg's declared predicates.

    python3 scripts/check_bench.py <leg> <BENCH_*.json>

The file holds one JSON object per line (the CI workflow greps them out of
the bench's stdout with `grep '^{'`). Every line is parsed, then checked
against the leg's declaration below:

- "lines": how many lines of each "bench" name the file must hold, exactly;
  a line with any other "bench" name fails.
- "checks": (bench, where, field, predicate, description) rows. A check
  applies to every line of that bench name whose fields equal `where`
  (None: every line of the name), must apply to at least one line, and
  fails on any such line where the field is missing or the predicate is
  false.

Parsing the lines means a check does not depend on field order or number
formatting, as a `grep` for `'"chunks_dropped":0,'` did.

Exits 0 when every predicate holds; otherwise prints one line per failure
and exits 1.
"""

from __future__ import annotations

import json
import pathlib
import sys


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_true(value) -> bool:
    return value is True


def positive(value) -> bool:
    return is_number(value) and value > 0


def zero(value) -> bool:
    return is_number(value) and value == 0


def above_one(value) -> bool:
    return is_number(value) and value > 1.0


BIT_IDENTICAL = (is_true, "== true")
POSITIVE = (positive, "> 0")


def fleet_checks(*positive_fields: str) -> list[tuple]:
    """The rollup line of a --fleet run: bit-identical, no re-prefill after
    a decode crash, and each named counter non-vacuous."""
    checks = [("serving_fleet", None, "bit_identical", *BIT_IDENTICAL),
              ("serving_fleet", None, "re_prefills_from_decode", zero,
               "== 0")]
    checks += [("serving_fleet", None, field, *POSITIVE)
               for field in positive_fields]
    return checks


LEGS = {
    # bench_serving_throughput --disagg, fault-free: one line per KV
    # bit-width {2,4,8}, every decode bit-identical to solo generate().
    "disagg": {
        "lines": {"serving_disagg": 3},
        "checks": [("serving_disagg", None, "bit_identical", *BIT_IDENTICAL)],
    },
    # bench_serving_throughput --disagg under --drop/--corrupt: as "disagg",
    # and the schedule must actually have dropped chunks on every line.
    "chaos": {
        "lines": {"serving_disagg": 3},
        "checks": [("serving_disagg", None, "bit_identical", *BIT_IDENTICAL),
                   ("serving_disagg", None, "chunks_dropped", *POSITIVE)],
    },
    # --fleet=2x2, fault-free: one rollup line plus one line per worker.
    "fleet": {
        "lines": {"serving_fleet": 1, "serving_fleet_worker": 4},
        "checks": [("serving_fleet", None, "bit_identical", *BIT_IDENTICAL)],
    },
    # --fleet=2x2 with drop/corrupt noise and --kill=prefill1:1,decode0:2:
    # both kills fired, the decode crash rerouted the blob, the prefill
    # crash failed over to a sibling, and nothing was re-prefilled.
    "fleet_chaos": {
        "lines": {"serving_fleet": 1, "serving_fleet_worker": 4},
        "checks": fleet_checks("prefill_crashes", "decode_crashes",
                               "reroutes", "prefill_failovers"),
    },
    # --fleet=1x2 --checkpoint-every=4 --kill=decode1:1@6: the mid-decode
    # kill fired, deltas were cut, the replica resumed from one (a
    # migration) replaying its suffix, and nothing was re-prefilled.
    "checkpoint": {
        "lines": {"serving_fleet": 1, "serving_fleet_worker": 3},
        "checks": fleet_checks("decode_crashes", "checkpoints", "resumes",
                               "migrations", "tokens_replayed"),
    },
    # --tiered: an fcfs and a tiered line plus the comparison line. The
    # tiered leg really evicted, beat FCFS concurrency, hid at least half of
    # the swap-in work behind prefetch, and changed no token.
    "tiered": {
        "lines": {"serving_tiered": 2, "serving_tiered_compare": 1},
        "checks": [
            ("serving_tiered", {"mode": "tiered"}, "evictions", *POSITIVE),
            ("serving_tiered_compare", None, "bit_identical", *BIT_IDENTICAL),
            ("serving_tiered_compare", None, "concurrency_gain", above_one,
             "> 1.0"),
            ("serving_tiered_compare", None, "prefetch_overlap_ge_half",
             is_true, "== true"),
        ],
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

    for number, line in lines:
        if line.get("bench") not in spec["lines"]:
            failures.append(f"line {number}: unexpected bench "
                            f"{line.get('bench')!r}")
    for bench, count in spec["lines"].items():
        found = sum(1 for _, line in lines if line.get("bench") == bench)
        if found != count:
            failures.append(f"expected exactly {count} {bench!r} lines, "
                            f"found {found}")

    for bench, where, field, predicate, description in spec["checks"]:
        scope = bench + (f" {json.dumps(where)}" if where else "")
        matched = [(number, line) for number, line in lines
                   if line.get("bench") == bench and
                   all(line.get(k) == v for k, v in (where or {}).items())]
        if not matched:
            failures.append(f"no {scope} line to check {field} on")
        for number, line in matched:
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
