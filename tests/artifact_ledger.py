"""Artifact digest ledger: one sha256 per artifact the command line writes.

A case is a preset or a benchmark workload config (`perfbench/workloads.py`)
run at one noise seed.  For each case the ledger hashes every file that
`simulate` and `image` write (the dataset, the field, the three slices and
each mask), the stdout of both commands, and the `verify --noise 0` report
with its `runtime_s` lines removed.  `test_artifact_ledger.py` regenerates
the digests and names every one that moved.

No sample comes from libm (`forward._expi` builds its table from IEEE sums and
products), but `np.abs` and numpy's complex products may differ by platform: a
build may fuse a complex product's multiply and add (FMA) on one CPU and not on
another of the same machine name.  So the file records the numpy version, the
machine, and `arith`, a digest of one fixed batch of complex products and moduli
computed here; the test skips where any of the three differs.

Rewrite the committed file (after a change that moves bits on purpose) from
the root of a checkout with

    python tests/artifact_ledger.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).resolve().parent / "artifact_digests.json"
SEEDS = (1, 3)


def platform_key() -> dict[str, str]:
    a = np.linspace(0.1 + 0.7j, 2.9 - 1.3j, 4096)
    b = np.linspace(-1.7 + 0.3j, 0.6 + 2.2j, 4096)
    arith = hashlib.sha256((a * b).tobytes() + np.abs(a).tobytes()).hexdigest()[:16]
    return {"numpy": np.__version__, "machine": platform.machine(), "arith": arith}


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("_ledger_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    spec.loader.exec_module(module)
    return {name: (module, w) for name, w in module.WORKLOADS.items()}


def _run(argv: list[str]) -> tuple[int, str]:
    from mfsampling.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _case(name: str, config: str, seed: int) -> dict[str, str]:
    """Digests of one case, run in the current directory with relative paths
    (the commands print the paths they write)."""
    common = ["--config", config, "--seed", str(seed)]
    data, prefix = f"{name}.mfd", name
    code, sim_out = _run(["simulate", *common, "--out", data])
    if code:
        raise RuntimeError(f"{name}: simulate exited {code}")
    before = set(os.listdir())
    code, img_out = _run(["image", *common, "--data", data, "--out", prefix])
    if code:
        raise RuntimeError(f"{name}: image exited {code}")
    code, ver_out = _run(["verify", *common, "--noise", "0"])
    report = "".join(line for line in ver_out.splitlines(keepends=True)
                     if not line.startswith("runtime_s: ")) + f"exit {code}\n"
    digests = {"dataset": _sha(Path(data).read_bytes()),
               "simulate.stdout": _sha(sim_out.encode()),
               "image.stdout": _sha(img_out.encode()),
               "verify.report": _sha(report.encode())}
    for path in sorted(set(os.listdir()) - before):
        digests[path[len(prefix):].lstrip("_.")] = _sha(Path(path).read_bytes())
    return {f"{name}/{artifact}": d for artifact, d in sorted(digests.items())}


def collect(workdir) -> dict[str, str]:
    """Every case's digests, with the artifacts written under `workdir`."""
    from mfsampling.scenario import PRESETS

    digests: dict[str, str] = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for seed in SEEDS:
            for preset in PRESETS:
                digests.update(_case(f"{preset}-s{seed}", preset, seed))
            for name, (module, w) in _workloads().items():
                config = f"{name}-s{seed}.cfg"
                Path(config).write_text(module.config_text(w, seed), encoding="ascii")
                digests.update(_case(f"{name}-s{seed}", config, seed))
    finally:
        os.chdir(cwd)
    return dict(sorted(digests.items()))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = collect(tmp)
    LEDGER.write_text(json.dumps({**platform_key(), "digests": digests}, indent=1) + "\n",
                      encoding="ascii")
    print(f"wrote {len(digests)} digests to {LEDGER}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
