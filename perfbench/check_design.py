"""Check the traced numbers against the predictions in design.json.

    python3 perfbench/check_design.py [--seed N] [--seconds S]

Runs every workload once with ``--trace 1`` and evaluates each
prediction; exits 1 if any fails.  This is a design check run by hand
when the workloads or the layer map change, not part of a benchmark run.
"""

from __future__ import annotations

import argparse
import json
import operator
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
OPS = {"==": operator.eq, ">": operator.gt, "<": operator.lt}


def traced_metrics(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=str(HERE.parent), stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def evaluate(prediction: dict, m: dict) -> tuple:
    """(passed, description) of one prediction over ``m[workload]``."""
    if "op" in prediction:
        w, name = prediction["workload"], prediction["metric"]
        got = m[w][name]
        ok = OPS[prediction["op"]](got, prediction["value"])
        return ok, "%s %s = %g %s %g" % (w, name, got, prediction["op"],
                                         prediction["value"])
    if "idle" in prediction:
        busy = ["%s %s = %g" % (w, k, v)
                for w in prediction["idle"] for k, v in m[w].items()
                if k.startswith(tuple(prediction["prefixes"])) and v != 0]
        return not busy, "%s are 0 on %s%s" % (
            "/".join(prediction["prefixes"]), ", ".join(prediction["idle"]),
            "" if not busy else " (but " + "; ".join(busy) + ")")
    if "share" in prediction:
        def share(w):
            return (sum(m[w][k] for k in prediction["share"])
                    / m[w]["trace.wall_s"])
        a, b = prediction["larger_on"], prediction["than_on"]
        return share(a) > share(b), "share of %s: %s %.3f > %s %.3f" % (
            "+".join(prediction["share"]), a, share(a), b, share(b))
    name = prediction["metric"]
    a, b = prediction["lower_on"], prediction["than_on"]
    return m[a][name] < m[b][name], "%s: %s %g < %s %g" % (
        name, a, m[a][name], b, m[b][name])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    args = parser.parse_args(argv)
    design = json.loads((HERE / "design.json").read_text())
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {w["name"]: traced_metrics(w["name"], args.seed, args.seconds)
               for w in spec["workloads"]}
    failures = 0
    for prediction in design["predictions"]:
        ok, text = evaluate(prediction, metrics)
        failures += not ok
        print("%s  %s" % ("ok  " if ok else "FAIL", text))
    for name, values in metrics.items():
        wall = values["trace.wall_s"]
        shares = sorted(((v / wall, k) for k, v in values.items()
                         if k.endswith(".self_s")), reverse=True)
        print("%s wall %.2fs: %s" % (name, wall, ", ".join(
            "%s %.1f%%" % (k[:-len(".self_s")], 100 * s)
            for s, k in shares if s >= 0.005)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
