#!/usr/bin/env python3
"""mfsampling benchmark: a closed loop of simulate -> image -> verify operations.

    python3 perfbench/run.py --workload image_dense --seed 1 --seconds 38 --trace 0

Run it from the root of a source checkout: it imports mfsampling from
./src and writes only under ./.bench_work (removed on exit) and
./.bench_out (the span file of a traced run).  One client runs one
operation at a time, in this process, through `mfsampling.cli.main`:
`simulate`, `image` and `verify --noise 0` on a config generated from the
workload and --seed (the noise seed).  Every operation is checked (see
gate.py).  The loop starts a new operation while the run's --seconds still
leaves room for one more at the median pace.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced operations and prints the per-layer metrics, the medians over traced
operations; trace.overhead_s is the traced minus the untraced median op time.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import config_text, lookup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_CHILDREN = 2
MODULES = ("cli", "scenario", "geometry", "forward", "operators", "imaging", "verify")

END_TO_END = {
    "setup_s": "s", "op_s": "s", "simulate_s": "s", "image_s": "s", "verify_s": "s",
    "peak_rss_mb": "MiB", "loc_err": "length", "ok_frac": "ratio",
}
PER_LAYER = {
    "imaging.indicator_s": "s", "imaging.voxel_sensors": "count",
    "imaging.voxel_sensors_per_s": "1/s", "imaging.indicator_peak_mb": "MiB",
    "imaging.post_s": "s", "imaging.write_s": "s", "imaging.artifact_bytes": "bytes",
    "forward.generate_s": "s", "forward.generate_calls": "count", "forward.kernel_evals": "count",
    "forward.kernel_evals_per_s": "1/s", "forward.generate_peak_mb": "MiB",
    "forward.noise_s": "s", "forward.noise_draws": "count",
    "forward.io_s": "s", "forward.dataset_bytes": "bytes",
    "operators.self_s": "s", "operators.calls": "count",
    "verify.factorization_s": "s", "verify.coercivity_s": "s", "verify.psf_s": "s",
    "verify.symmetries_s": "s", "verify.self_s": "s",
    "scenario.load_s": "s", "scenario.self_s": "s", "geometry.quadrature_s": "s",
    "geometry.self_s": "s", "geometry.Q": "count", "forward.self_s": "s",
    "imaging.self_s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
}
# Derived from sizes and file lengths, not timed; each must repeat exactly.
COMPUTED = ("geometry.Q", "forward.generate_calls", "forward.kernel_evals",
            "forward.noise_draws", "imaging.voxel_sensors", "forward.dataset_bytes",
            "imaging.artifact_bytes")

# The shared machines this runs on change speed by tens of percent within a
# minute, for all code alike: a run's raw medians spread 0.1-0.4 (IQR/median)
# between runs.  So every command's time is rescaled by a machine-speed
# reference, reference_s(), timed before and after the command:
# reported = raw * REF_NOMINAL_S / reference.  A fixed interpreter loop
# tracked the commands' speed better than numpy kernels did.  REF_NOMINAL_S
# is the loop's typical time on a 2-vCPU Xeon at 2.0 GHz, so reported times
# read as seconds on that machine.  Raw times are printed too.  Set-up time
# is reported raw: it is dominated by file and import work, not by speed.
REF_NOMINAL_S = 0.0032


def reference_s() -> float:
    """Best of 5 timings of a fixed pure-Python loop."""
    best = math.inf
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i
        best = min(best, time.perf_counter() - t)
    return best


# Fresh-interpreter set-up: import the package with its command line and load the scenario.
_SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import mfsampling.cli\n"
    "mfsampling.load_scenario(sys.argv[2])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def child_setup_s(cfg: Path) -> float:
    out = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), str(cfg)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def call_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing command is a failed operation, not a dead run
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


class Bench:
    def __init__(self, workload, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.cfg = work / "scenario.cfg"
        self.dataset = work / "data.mfd"
        self.image_dir = work / "image"
        self.ref: float | None = None  # latest reference_s(), taken after the last command
        self.cfg.write_text(config_text(workload, seed), encoding="ascii")

    def setup(self) -> list[float]:
        """Import the package and load the scenario here, then in fresh interpreters."""
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import mfsampling.cli
        mfsampling.load_scenario(str(self.cfg))
        samples = [time.perf_counter() - t0]
        samples += [child_setup_s(self.cfg) for _ in range(SETUP_CHILDREN)]
        self.mf = mfsampling
        self.modules = {m: sys.modules[f"mfsampling.{m}"] for m in MODULES
                        if f"mfsampling.{m}" in sys.modules}
        s = mfsampling.load_scenario(str(self.cfg))
        nodes = mfsampling.quadrature(s.support, s.h).nodes
        self.support_centroid = tuple(float(c) for c in nodes.mean(axis=0))
        self.iso = s.iso_values[0]
        self.sizes = {"Q": len(nodes), "L": len(s.measurement), "J": s.frequencies.count,
                      "V": s.sampling.size}
        return samples

    def run_op(self) -> dict:
        """One timed simulate -> image -> verify operation; outputs are checked afterwards.

        The speed reference is timed after each command; a command's time is
        rescaled by the mean of the references on either side of it.
        """
        self.dataset.unlink(missing_ok=True)
        shutil.rmtree(self.image_dir, ignore_errors=True)
        self.image_dir.mkdir()
        cfg, data = str(self.cfg), str(self.dataset)
        commands = {
            "simulate": ["simulate", "--config", cfg, "--out", data],
            "image": ["image", "--config", cfg, "--data", data,
                      "--out", str(self.image_dir / "out")],
            "verify": ["verify", "--config", cfg, "--noise", "0"],
        }
        main = self.modules["cli"].main
        op = {"rc": {}, "s": {}, "scaled": {}}
        if self.ref is None:
            self.ref = reference_s()
        for name, argv in commands.items():
            t = time.perf_counter()
            op["rc"][name], out, err = call_cli(main, argv)
            op["s"][name] = time.perf_counter() - t
            op[f"{name}_out"] = out + err
            ref = reference_s()
            op["scaled"][name] = op["s"][name] * REF_NOMINAL_S / ((self.ref + ref) / 2)
            self.ref = ref
        for times in (op["s"], op["scaled"]):
            times["op"] = sum(times[name] for name in commands)
        return op

    def check(self, op: dict, first_digest: str | None) -> None:
        """Gate the operation (op["reasons"]) and record its output sizes."""
        import gate
        artifacts = sorted(self.image_dir.iterdir())
        op["reasons"], op["digest"] = gate.check_operation(
            self.mf, op["rc"], op["verify_out"], self.dataset, self.image_dir / "out.field",
            artifacts, self.seed, first_digest)
        if not op["reasons"]:
            op["dataset_bytes"] = self.dataset.stat().st_size
            op["artifact_bytes"] = sum(p.stat().st_size for p in artifacts)

    def loc_err(self) -> float | None:
        """Mask-centroid error of a noiseless image made with the same commands, untimed.

        Noise moves the image_dense mask centroid by as much as the error
        itself, so loc_err measures the reconstruction's systematic error: the
        far-field reflection is a bias, not noise.
        """
        import gate
        clean = self.work / "noiseless"
        clean.mkdir()
        cfg, data = str(self.cfg), str(clean / "data.mfd")
        main = self.modules["cli"].main
        for argv in (["simulate", "--config", cfg, "--noise", "0", "--out", data],
                     ["image", "--config", cfg, "--noise", "0", "--data", data,
                      "--out", str(clean / "out")]):
            rc, _, err = call_cli(main, argv)
            if rc != 0:
                print(f"noiseless {argv[0]} exited {rc}: {err.strip()}")
                return None
        return math.dist(gate.mask_centroid(clean / "out.field", self.iso),
                         self.support_centroid)


def run(workload, seed: int, seconds: float, trace: bool, work: Path, out_dir: Path):
    bench = Bench(workload, seed, work)
    setup = bench.setup()
    loc_err = None if trace else bench.loc_err()
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(bench.mf, bench.modules)

    ops: list[dict] = []
    laps: list[float] = []
    first_digest = None
    t_start = time.perf_counter()
    while True:
        t_lap = time.perf_counter()
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.op = len(ops)
        try:
            op = bench.run_op()
        finally:
            if tracer is not None:
                tracer.op = None
        op["traced"] = traced
        bench.check(op, first_digest)
        first_digest = first_digest or op["digest"]
        ops.append(op)
        laps.append(time.perf_counter() - t_lap)
        if (time.perf_counter() - t_start + statistics.median(laps) > seconds
                and (not trace or len(ops) >= 2)):
            break

    report = {"bench": bench, "ops": ops, "setup": setup, "loc_err": loc_err}
    if tracer is not None:
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{workload.name}.json")
        report["tracer"] = tracer
    return report


def percentile_line(name: str, samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    s = sorted(samples)
    line = f"  {name}: median {statistics.median(s):.6g} over n={n}"
    if n < 20:
        return line + ", too few samples for a tail percentile (needs n >= 20)"
    p = math.floor(100 * (1 - 10 / n))
    return line + f", p{p} {s[math.ceil(p / 100 * n) - 1]:.6g}"


def end_to_end(report) -> tuple[dict[str, float], list[str]]:
    ops, bench = report["ops"], report["bench"]
    passed = [o for o in ops if not o["reasons"]]
    raw = {k: [o["s"][k] for o in ops] for k in ("op", "simulate", "image", "verify")}
    times = {k: [o["scaled"][k] for o in ops] for k in raw}
    metrics = {
        "setup_s": statistics.median(report["setup"]),
        **{f"{k}_s": statistics.median(v) for k, v in times.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "loc_err": report["loc_err"] or 0.0,
        "ok_frac": len(passed) / len(ops),
    }
    print("setup_s raw (this process, then fresh interpreters): "
          + " ".join(f"{v:.4f}" for v in report["setup"]))
    print("speed factor per op (rescaled / raw): "
          + " ".join(f"{o['scaled']['op'] / o['s']['op']:.3f}" for o in ops))
    for k in times:
        print(percentile_line(f"{k}_s rescaled", times[k]))
        print(percentile_line(f"{k}_s raw", raw[k]))
    print(f"fail_frac: {len(ops) - len(passed)} failed / {len(ops)} attempted "
          f"= {(len(ops) - len(passed)) / len(ops)!r}")
    print(f"noiseless mask at iso {bench.iso!r} vs support centroid {bench.support_centroid}: "
          f"loc_err {metrics['loc_err']!r}")
    return metrics, [] if report["loc_err"] else ["loc_err: the noiseless image failed"]


def per_layer(report) -> tuple[dict[str, float], list[str]]:
    from tracing import op_metrics
    ops, bench, tracer = report["ops"], report["bench"], report["tracer"]
    z = bench.sizes
    rows = []
    for i, o in enumerate(ops):
        if not o["traced"]:
            continue
        speed = o["scaled"]["op"] / o["s"]["op"]
        m = {k: v * speed if k.endswith("_s") else v
             for k, v in op_metrics(tracer.spans, i).items()}
        gen_calls = m.pop("calls:forward.generate_dataset")
        m["geometry.Q"] = z["Q"]
        m["forward.generate_calls"] = gen_calls
        m["forward.kernel_evals"] = gen_calls * z["L"] * (z["J"] + 1) * z["Q"]
        m["forward.noise_draws"] = m.pop("calls:forward.add_noise") * z["L"] * (2 * z["J"] + 1)
        m["imaging.voxel_sensors"] = m.pop("calls:imaging.compute_indicator") * z["V"] * z["L"]
        m["forward.dataset_bytes"] = o.get("dataset_bytes", 0)
        m["imaging.artifact_bytes"] = o.get("artifact_bytes", 0)
        m["forward.kernel_evals_per_s"] = (m["forward.kernel_evals"] / m["forward.generate_s"]
                                           if m["forward.generate_s"] > 0 else 0.0)
        m["imaging.voxel_sensors_per_s"] = (m["imaging.voxel_sensors"] / m["imaging.indicator_s"]
                                            if m["imaging.indicator_s"] > 0 else 0.0)
        rows.append(m)
    problems = [f"computed count {k} differs between traced operations"
                for k in COMPUTED if len({r[k] for r in rows}) > 1]
    metrics = {k: statistics.median(r[k] for r in rows) for k in PER_LAYER
               if k != "trace.overhead_s"}
    traced = [o["scaled"]["op"] for o in ops if o["traced"]]
    plain = [o["scaled"]["op"] for o in ops if not o["traced"]]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(f"traced ops: {len(traced)}, untraced ops: {len(plain)}, spans: {len(tracer.spans)}")
    if tracer.missing:
        print("missing span targets (skipped): " + ", ".join(tracer.missing))
    return metrics, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        workload = lookup(args.workload)
    except KeyError:
        p.error(f"unknown workload {args.workload!r}")
    if not (SRC / "mfsampling" / "__init__.py").is_file():
        print(f"error: no mfsampling sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report = run(workload, args.seed, args.seconds, bool(args.trace), work,
                     ROOT / ".bench_out")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import numpy
    z = report["bench"].sizes
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"Q={z['Q']} L={z['L']} J={z['J']} V={z['V']}")
    print(f"python {platform.python_version()} numpy {numpy.__version__} "
          f"blas {blas.get('name')} {blas.get('version')} nproc {os.cpu_count()} env "
          + " ".join(f"{v}={os.environ.get(v, '-')}" for v in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "MFSAMPLING_THREADS")))
    ops = report["ops"]
    for i, o in enumerate(ops):
        if o["reasons"]:
            print(f"op {i} FAILED: " + "; ".join(o["reasons"]))
    if args.trace:
        metrics, problems = per_layer(report)
        units = PER_LAYER
    else:
        metrics, problems = end_to_end(report)
        units = END_TO_END
    for p_ in problems:
        print(f"error: {p_}")
    for name, unit in units.items():
        tag = " [computed]" if name in COMPUTED else ""
        print(f"{name} {metrics[name]!r} {unit}{tag}")
    failed = sum(1 for o in ops if o["reasons"])
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
