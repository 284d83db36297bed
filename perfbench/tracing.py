"""Spans around mfsampling's public functions, installed from outside the package.

Every function exported by `mfsampling/__init__.py`, plus the command glue and
artifact writers listed in EXTRA, is replaced by a wrapper in every package
module that binds it, so a call made through any module's globals (for
example verify -> generate_dataset) records a span nested under its caller.
A span is [name, layer, start, end, parent, op, peak_bytes]; spans stay in
memory and are written out once, when the run ends.  The wrapper records
nothing while no operation is open.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("scenario", "geometry", "forward", "operators", "imaging", "verify", "cli")

# Public functions that are not re-exported by the package but that the
# per-layer metrics need: the command glue and the artifact writers.
EXTRA = ("cli.main", "cli.run_simulate", "cli.run_image", "cli.run_verify",
         "imaging.write_field", "imaging.write_cross_section", "imaging.write_mask")

# Spans whose allocation peak is taken with tracemalloc.
MEMORY_SPANS = ("forward.generate_dataset", "imaging.compute_indicator")

# Span groups behind the named per-layer metrics; a name a later refactor
# removes is reported missing and the group is summed over the rest.
GROUPS = {
    "imaging.indicator_s": ("imaging.compute_indicator", "imaging.indicator_near",
                            "imaging.indicator_far"),
    "imaging.post_s": ("imaging.normalize", "imaging.threshold_mask", "imaging.cross_section"),
    "imaging.write_s": ("imaging.write_field", "imaging.write_cross_section",
                        "imaging.write_mask"),
    "forward.generate_s": ("forward.generate_dataset", "forward.near_field",
                           "forward.far_field"),
    "forward.noise_s": ("forward.add_noise",),
    "forward.io_s": ("forward.read_dataset", "forward.write_dataset"),
    "scenario.load_s": ("scenario.load_scenario", "scenario.parse_config",
                        "scenario.parse_config_text"),
    "geometry.quadrature_s": ("geometry.quadrature",),
}
# Whole-check times, children included, so that work a check delegates to
# other layers (such as regenerating the dataset) stays visible per check.
CHECKS = {
    "verify.factorization_s": "verify.check_factorization",
    "verify.coercivity_s": "verify.check_coercivity",
    "verify.psf_s": "verify.check_psf",
    "verify.symmetries_s": "verify.check_symmetries",
}
COUNTED = ("forward.generate_dataset", "forward.add_noise", "imaging.compute_indicator")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None  # spans are recorded only while an op is open
        self.missing: list[str] = []

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            record = [name, layer, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                      tracer.op, 0]
            tracer.spans.append(record)
            tracer._stack.append(idx)
            own_tracemalloc = memory and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            record[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                if own_tracemalloc:
                    record[6] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._stack.pop()

        return span

    def install(self, package, modules: dict) -> None:
        """Wrap the targets in `package` and every module in `modules` (short name -> module)."""
        targets = {}
        for attr, obj in vars(package).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__.startswith(package.__name__ + ".")):
                layer = obj.__module__.rsplit(".", 1)[1]
                targets[obj] = f"{layer}.{obj.__name__}"
        for qualified in EXTRA:
            layer, attr = qualified.split(".")
            fn = getattr(modules.get(layer), attr, None)
            if inspect.isfunction(fn):
                targets[fn] = qualified
        wanted = set(EXTRA) | set(MEMORY_SPANS) | set(COUNTED) | set(CHECKS.values())
        wanted.update(n for group in GROUPS.values() for n in group)
        self.missing = sorted(wanted - set(targets.values()))
        wrappers = {fn: self._wrap(fn, q, q.split(".")[0]) for fn, q in targets.items()}
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "op",
                                  "peak_bytes"], "spans": self.spans}, fh)


def op_metrics(spans: list[list], op: int) -> dict[str, float]:
    """Per-layer self times, named span groups, call counts and allocation peaks of one op."""
    ours = [(i, s) for i, s in enumerate(spans) if s[5] == op]
    child = defaultdict(float)
    for _, s in ours:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    self_by_name = defaultdict(float)
    total_by_name = defaultdict(float)
    calls = defaultdict(int)
    peak = defaultdict(int)
    for i, s in ours:
        self_by_name[s[0]] += (s[3] - s[2]) - child[i]
        total_by_name[s[0]] += s[3] - s[2]
        calls[s[0]] += 1
        peak[s[0]] = max(peak[s[0]], s[6])
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for n, v in self_by_name.items()
                                     if n.startswith(layer + "."))
    for metric, names in GROUPS.items():
        out[metric] = sum(self_by_name[n] for n in names)
    for metric, name in CHECKS.items():
        out[metric] = total_by_name[name]
    out["operators.calls"] = sum(c for n, c in calls.items() if n.startswith("operators."))
    for name in COUNTED:
        out[f"calls:{name}"] = calls[name]
    out["imaging.indicator_peak_mb"] = peak["imaging.compute_indicator"] / 2**20
    out["forward.generate_peak_mb"] = peak["forward.generate_dataset"] / 2**20
    return out
