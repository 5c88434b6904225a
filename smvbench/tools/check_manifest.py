#!/usr/bin/env python3
"""Checks BENCHMARK.json against the builder's contract, then runs every
workload briefly, untraced and traced, and fails unless each run prints
exactly the manifest's metrics with the manifest's units.

    python3 smvbench/tools/check_manifest.py
"""

import re
import sys

from bench_common import load_manifest, run_benchmark

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def static_errors(m):
    errors = []
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(m) != want:
        errors.append(f"keys are {sorted(m)}, want {sorted(want)}")
        return errors
    if not (1 <= len(m["command"]) <= 32 and all(len(c) <= 200 for c in m["command"])):
        errors.append("command: 1 to 32 strings of at most 200 characters")
    for c in m["command"]:
        if c.startswith("/") or ".." in c.split("/"):
            errors.append(f"command names a path outside the checkout: {c}")
    if not 1 <= len(m["paths"]) <= 16:
        errors.append("paths: 1 to 16 directories")
    for p in m["paths"]:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            errors.append(f"bad path {p!r}")
    if not (isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60):
        errors.append("run_seconds: a whole number from 1 to 60")
    for key, low, high in (("workloads", 2, 8), ("end_to_end", 1, 16), ("per_layer", 1, 128)):
        if not low <= len(m[key]) <= high:
            errors.append(f"{key}: {low} to {high} entries, not {len(m[key])}")
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in m[key]]
    for n in names:
        if not NAME.match(n):
            errors.append(f"bad name {n!r}")
    for n in sorted(set(names)):
        if names.count(n) > 1:
            errors.append(f"name {n!r} is used {names.count(n)} times")
    for w in m["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w.get('name')}: exactly a name and a one-line why")
    for e in m["end_to_end"]:
        if set(e) != {"name", "unit", "better", "bound"}:
            errors.append(f"end_to_end {e.get('name')}: keys {sorted(e)}")
        elif not 0 < e["bound"] <= 0.25:
            errors.append(f"end_to_end {e['name']}: bound {e['bound']} outside (0, 0.25]")
    for p in m["per_layer"]:
        if set(p) != {"name", "unit", "better"}:
            errors.append(f"per_layer {p.get('name')}: keys {sorted(p)}")
    for x in m["end_to_end"] + m["per_layer"]:
        if not UNIT.match(x.get("unit", "")):
            errors.append(f"{x.get('name')}: bad unit {x.get('unit')!r}")
        if x.get("better") not in ("lower", "higher"):
            errors.append(f"{x.get('name')}: better is {x.get('better')!r}")
    setup = [e for e in m["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end needs setup_s, unit s, better lower")
    return errors


def run_errors(m):
    errors = []
    for w in m["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {x["name"]: x["unit"] for x in m[key]}
            try:
                result = run_benchmark(m, w["name"], 1, 2, trace)
            except RuntimeError as e:
                errors.append(str(e))
                continue
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            where = f"{w['name']} --trace {trace}"
            for name in sorted(set(want) - set(got)):
                errors.append(f"{where}: {name} is missing")
            for name in sorted(set(got) - set(want)):
                errors.append(f"{where}: {name} is not in the manifest")
            for name in sorted(set(got) & set(want)):
                if got[name] != want[name]:
                    errors.append(f"{where}: {name} in {got[name]}, manifest says {want[name]}")
                value = result["metrics"][name]["value"]
                if not isinstance(value, (int, float)):
                    errors.append(f"{where}: {name} is {value!r}")
                elif key == "end_to_end" and value == 0:
                    errors.append(f"{where}: end-to-end metric {name} is 0")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(
                    f"{where}: correct {result['correct']}, "
                    f"{result['failed']} of {result['attempted']} failed"
                )
            print(f"ran {where}: {len(got)} metrics", flush=True)
    return errors


def main():
    manifest = load_manifest()
    errors = static_errors(manifest) or run_errors(manifest)
    for e in errors:
        print("error:", e)
    print("manifest ok" if not errors else f"{len(errors)} errors")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
