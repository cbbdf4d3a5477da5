#!/usr/bin/env python3
"""Compare the key structure of two bench JSON files.

CI regenerates five bench files (results/BENCH_backends.json,
BENCH_query.json, BENCH_serve.json, BENCH_steal.json and
BENCH_update.json) and runs this script against each committed copy.
Values are expected to drift run to run — the machine differs — but
the *schema* must not: a missing field, a renamed query, or a dropped
backend record means a downstream consumer of the file silently
broke.

Usage: bench_schema_diff.py COMMITTED REGENERATED
Exit 0 if the key structure matches, 1 with a diff listing otherwise.
"""

import json
import sys


def key_paths(value, prefix=""):
    """Every key path in the JSON tree. Arrays contribute the schema of
    their first element (records in one array share a shape) plus their
    identifying 'backend'/'query'/'bench' values so a dropped record is
    a schema change, not just a value change."""
    paths = set()
    if isinstance(value, dict):
        for key, child in value.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.add(path)
            paths |= key_paths(child, path)
    elif isinstance(value, list):
        if value:
            paths |= key_paths(value[0], f"{prefix}[]")
        for element in value:
            if isinstance(element, dict):
                for tag in ("backend", "query", "bench"):
                    if tag in element:
                        paths.add(f"{prefix}[].{tag}={element[tag]}")
    return paths


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    with open(sys.argv[1]) as fh:
        committed = json.load(fh)
    with open(sys.argv[2]) as fh:
        regenerated = json.load(fh)
    want = key_paths(committed)
    got = key_paths(regenerated)
    missing = sorted(want - got)
    extra = sorted(got - want)
    if missing or extra:
        for path in missing:
            print(f"MISSING from regenerated: {path}")
        for path in extra:
            print(f"EXTRA in regenerated:     {path}")
        sys.exit(1)
    print(f"schema OK: {len(want)} key paths match ({sys.argv[1]})")


if __name__ == "__main__":
    main()
