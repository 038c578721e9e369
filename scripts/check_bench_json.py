#!/usr/bin/env python3
"""Checks bench JSON files against checked-in goldens.

    python3 scripts/check_bench_json.py GOLDEN.json ACTUAL.json [GOLDEN ACTUAL ...]

Each pair must agree exactly on every top-level field except "git" (the
building commit): bench, schema, units, note, and the "metrics" object
key by key, in order, value for value. The paper tables are bit-identical
at any --jobs value, so any difference is a behaviour change; refresh a
golden only when the change is intended. Stdlib only; exits 1 on the first
mismatching pair after reporting every difference in it.
"""
import json
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not isinstance(doc.get("metrics"), dict):
        raise ValueError(f"{path}: not a bench JSON file (no metrics object)")
    doc.pop("git", None)
    return doc


def differences(golden, actual):
    out = []
    for key in sorted(set(golden) | set(actual)):
        if key != "metrics" and golden.get(key) != actual.get(key):
            out.append(f"{key}: {golden.get(key)!r} != {actual.get(key)!r}")
    want = list(golden["metrics"].items())
    got = list(actual["metrics"].items())
    if [k for k, _ in want] != [k for k, _ in got]:
        missing = sorted(set(golden["metrics"]) - set(actual["metrics"]))
        extra = sorted(set(actual["metrics"]) - set(golden["metrics"]))
        out.append(f"metric keys differ (missing {missing}, extra {extra}, "
                   "or reordered)")
    for key, value in want:
        if key in actual["metrics"] and actual["metrics"][key] != value:
            out.append(f"metrics.{key}: {value!r} != "
                       f"{actual['metrics'][key]!r}")
    return out


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ok = True
    for golden_path, actual_path in zip(argv[::2], argv[1::2]):
        diffs = differences(load(golden_path), load(actual_path))
        if diffs:
            ok = False
            print(f"{actual_path} differs from {golden_path}:")
            for d in diffs:
                print(f"  {d}")
        else:
            print(f"{actual_path}: matches {golden_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
