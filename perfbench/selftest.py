#!/usr/bin/env python3
"""Self-test of the benchmark on seconds-long variants of its workloads.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks that run.py prints every
metric of BENCHMARK.json with its unit in both modes and passes its gate,
that the computed counts repeat exactly between two traced runs, that a
copied field with one corrupted voxel is caught by the oracle gate and
counted as a failed operation, and that span targets missing from the
package are skipped and reported.  Exits nonzero at the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import run
from workloads import TINY


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def bench_run(workload: str, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


def check_outputs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    counts = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in TINY:
            res, text = bench_run(name, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{name} --trace {trace}: the {key} metrics with their units")
            lines = text.splitlines()
            check(all(any(line.startswith(f"{k} ") and line.split()[2] == u for line in lines)
                      for k, u in want.items()),
                  f"{name} --trace {trace}: each metric printed by name with its unit")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{name} --trace {trace}: every operation passed the gate")
            if trace:
                counts[name] = {k: res["metrics"][k]["value"] for k in run.COMPUTED}
    for name in TINY:
        res, _ = bench_run(name, 1)
        check({k: res["metrics"][k]["value"] for k in run.COMPUTED} == counts[name],
              f"{name}: computed counts repeat exactly between runs")


def corrupt_copy(field: Path, dst: Path, voxel: int, factor: float) -> None:
    import gate
    blob = field.read_bytes()
    _, values = gate.read_field_file(field)
    values = values.copy()
    values[voxel] *= factor
    pos = blob.find(gate.FIELD_MARKER) + len(gate.FIELD_MARKER)
    dst.write_bytes(blob[:pos] + values.astype("<f8").tobytes())


def check_gate_and_tracer() -> None:
    import gate
    from tracing import Tracer, op_metrics
    workload = TINY["image_dense.tiny"]
    work = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = run.Bench(workload, 3, work)
        setup = bench.setup()
        op = bench.run_op()
        bench.check(op, None)
        check(not op["reasons"], "an operation on the unchanged program passes the gate")

        field = bench.image_dir / "out.field"
        _, values = gate.read_field_file(field)
        voxel = next(int(v) for v in gate.oracle_sample(bench.seed, values.size)
                     if values[v] < 0.99)
        copy = work / "corrupt.field"
        corrupt_copy(field, copy, voxel, 1 + 1e-9)
        reasons, _ = gate.check_operation(bench.mf, op["rc"], op["verify_out"], bench.dataset,
                                          copy, [copy], bench.seed, None)
        check(any("oracle" in r for r in reasons),
              "one voxel changed by 1e-9 relative is caught by the oracle")
        bad = dict(op, reasons=reasons)
        metrics, _ = run.end_to_end({"bench": bench, "ops": [op, bad], "setup": setup,
                                     "loc_err": 1.0})
        check(metrics["ok_frac"] == 0.5, "the corrupted operation counts as failed")
        corrupt_copy(field, copy, voxel, float("nan"))
        reasons, _ = gate.check_operation(bench.mf, op["rc"], op["verify_out"], bench.dataset,
                                          copy, [copy], bench.seed, None)
        check(any("non-finite" in r for r in reasons), "a NaN voxel is caught")

        # A package in which a refactor removed a traced name.
        drop = ("indicator_far", "write_mask")
        package = types.SimpleNamespace(**{k: v for k, v in vars(bench.mf).items()
                                           if k not in drop})
        modules = dict(bench.modules)
        modules["imaging"] = types.SimpleNamespace(
            **{k: v for k, v in vars(bench.modules["imaging"]).items() if k not in drop})
        tracer = Tracer()
        tracer.install(package, modules)
        check({"imaging.indicator_far", "imaging.write_mask"} <= set(tracer.missing),
              "removed span targets are reported missing")
        tracer.op = 0
        op = bench.run_op()
        tracer.op = None
        m = op_metrics(tracer.spans, 0)
        check(m["forward.generate_s"] > 0 and m["calls:forward.generate_dataset"] == 4,
              "the remaining spans nest and count (verify -> generate_dataset)")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    check_gate_and_tracer()
    check_outputs()
    print("selftest passed")
