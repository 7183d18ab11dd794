#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

Builds perfbench like run.py does, then for each workload in
BENCHMARK.json checks that
  - a run succeeds with no failed operation and prints every end-to-end
    metric of BENCHMARK.json, with the same unit and nothing else;
  - a traced run does the same for every per-layer metric and writes a
    span file that parses;
  - two runs with one seed give identical simulated metrics;
  - a run that checks a deliberately corrupted copy of one result reports
    it as a failed operation and exits non-zero.
Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build recipe lives there)

SEED = 7
SIMULATED = ["hht_cycles", "baseline_cycles", "p50_cycles", "p99_cycles",
             "knee_rate"]


def invoke(binary, workload, trace, extra=()):
    args = [binary, "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(args + list(extra), capture_output=True, text=True,
                          timeout=120)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    binary = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    def units(result):
        return {k: v["unit"] for k, v in result["metrics"].items()}

    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for _ in range(2):
            code, res = invoke(binary, workload, 0)
            ok = code == 0 and res is not None
            expect(ok, "%s: run exited %d" % (workload, code))
            if not ok:
                break
            expect(res["correct"] and res["failed"] == 0 and
                   res["attempted"] >= 1,
                   "%s: run reports failures: %s" % (workload, res))
            expect(units(res) == end_to_end,
                   "%s: end-to-end metrics or units differ from "
                   "BENCHMARK.json" % workload)
            runs.append(res)
        if len(runs) == 2:
            for name in SIMULATED:
                a = runs[0]["metrics"].get(name, {}).get("value")
                b = runs[1]["metrics"].get(name, {}).get("value")
                expect(a == b, "%s: %s differs between two runs with one "
                       "seed (%s vs %s)" % (workload, name, a, b))

        spans = os.path.join(run.build_dir(), "selftest_spans_%s.json" %
                             workload)
        if os.path.exists(spans):
            os.remove(spans)
        code, res = invoke(binary, workload, 1, ["--spans", spans])
        expect(code == 0 and res is not None,
               "%s: traced run exited %d" % (workload, code))
        if res is not None:
            expect(units(res) == per_layer,
                   "%s: per-layer metrics or units differ from "
                   "BENCHMARK.json" % workload)
        try:
            with open(spans) as f:
                expect(len(json.load(f)["spans"]) > 0,
                       "%s: span file is empty" % workload)
        except (OSError, ValueError, KeyError) as e:
            problems.append("%s: span file unreadable: %s" % (workload, e))

        code, res = invoke(binary, workload, 0, ["--corrupt"])
        expect(code == 1 and res is not None and not res["correct"] and
               res["failed"] >= 1,
               "%s: a corrupted result was not reported as failed (exit "
               "%d, %s)" % (workload, code, res and {
                   k: res[k] for k in ("correct", "attempted", "failed")}))
        print("%-16s %s" % (workload, "checked"), flush=True)

    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
