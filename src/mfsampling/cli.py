"""Command-line front end: simulate datasets, image indicator fields, run checks.

Subcommands
-----------
simulate     generate a (possibly noisy) dataset file for a scenario
image        compute the normalized indicator for a dataset and write
             field / slice / mask artifacts
verify       run the numerical certificates and print a report stream
presets      list the built-in experiment presets
write-config write a scenario's canonical config text to a file

Exit codes: 0 success, 1 check failure, 2 usage or config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from . import forward, imaging, verify
from .forward import DatasetFormatError, add_noise, generate_dataset
from .imaging import SamplingGrid, compute_indicator, cross_section, normalize, threshold_mask
from .scenario import (
    ConfigError,
    PRESETS,
    Scenario,
    load_scenario,
    scenario_hash,
    write_config,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _overrides(args, fields: dict) -> dict:
    """The scenario fields that --seed, --noise, --grid and --iso set, given its own
    `fields`; `load_scenario` applies them before the one validation."""
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "noise", None) is not None:
        updates["noise_level"] = args.noise
    if getattr(args, "grid", None) is not None:
        b = fields["sampling"].bounds
        updates["sampling"] = SamplingGrid(bounds=b, resolution=(args.grid,) * 3)
    if getattr(args, "iso", None) is not None:
        try:
            updates["iso_values"] = tuple(float(v) for v in args.iso.split(","))
        except ValueError as exc:
            raise ConfigError(f"--iso: expected comma-separated numbers ({exc})") from exc
    return updates


def run_simulate(scenario: Scenario, out_path) -> forward.MultiFreqDataset:
    """Generate the scenario's dataset (noise applied per scenario) and write it."""
    data = generate_dataset(scenario)
    if scenario.noise_level > 0:
        data = add_noise(data, scenario.noise_level, scenario.seed)
    forward.write_dataset(data, out_path, scenario_hash(scenario))
    rms = data.row_rms()
    print(f"wrote {out_path}: kind={data.kind} L={len(data.sensors)} "
          f"J={data.grid.count} columns={data.values.shape[1]} "
          f"noise={data.noise_level!r} seed={data.seed}")
    print(f"row rms range: [{rms.min():.6e}, {rms.max():.6e}]")
    return data


def run_image(dataset_path, scenario: Scenario, out_prefix, force: bool = False) -> dict:
    """Compute the normalized indicator and write field, masks and slices through the grid's
    mid-plane on each axis."""
    data, meta = forward.read_dataset(dataset_path)
    shash = scenario_hash(scenario)
    if meta.get("scenario_hash", "-") not in ("-", shash) and not force:
        raise ConfigError(
            f"dataset {dataset_path} was generated for scenario hash "
            f"{meta.get('scenario_hash')}, not {shash}; pass --force to image anyway")
    if data.kind != scenario.kind:
        raise ConfigError(f"dataset kind {data.kind!r} does not match scenario kind "
                          f"{scenario.kind!r}")
    field = normalize(compute_indicator(data, scenario.sampling))
    outputs: dict[str, str] = {}
    field_path = f"{out_prefix}.field"
    imaging.write_field(field, field_path, shash)
    outputs["field"] = field_path
    for axis, tag in ((3, "x1x2"), (2, "x1x3"), (1, "x2x3")):
        lo, hi = field.grid.bounds[axis - 1]
        cs = cross_section(field, axis, (lo + hi) / 2)
        path = f"{out_prefix}_slice_{tag}.csv"
        imaging.write_cross_section(cs, path, shash)
        outputs[f"slice_{tag}"] = path
    for iso in scenario.iso_values:
        mask = threshold_mask(field, iso)
        path = f"{out_prefix}_mask_{iso!r}.txt"
        imaging.write_mask(mask, path, shash)
        outputs[f"mask_{iso!r}"] = path
        if mask.count:
            print(f"iso={iso!r}: {mask.count} voxels, centroid="
                  f"({mask.centroid[0]:.4f}, {mask.centroid[1]:.4f}, {mask.centroid[2]:.4f})")
        else:
            print(f"iso={iso!r}: empty mask")
    print(f"wrote {len(outputs)} artifacts with prefix {out_prefix}")
    return outputs


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True,
                        help="scenario config file path or preset name")
    parser.add_argument("--seed", type=int, default=None, help="override scenario seed")
    parser.add_argument("--noise", type=float, default=None, help="override noise level")
    parser.add_argument("--grid", type=int, default=None,
                        help="override sampling resolution (cubic)")
    parser.add_argument("--iso", type=str, default=None,
                        help="override iso values, comma separated")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfsampling",
        description="Multi-frequency sampling reconstruction of acoustic source supports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a dataset file")
    _add_common(p)
    p.add_argument("--out", required=True, help="output dataset path")

    p = sub.add_parser("image", help="compute the indicator field for a dataset")
    _add_common(p)
    p.add_argument("--data", required=True, help="input dataset path")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--force", action="store_true",
                   help="image even if the dataset hash does not match the scenario")

    p = sub.add_parser("verify", help="run the numerical certificates")
    _add_common(p)
    p.add_argument("--only", choices=verify.CHECKS, default=None, help="run a single check")

    sub.add_parser("presets", help="list built-in presets")

    p = sub.add_parser("write-config", help="write a scenario's config text")
    p.add_argument("name", help="preset name or config path")
    p.add_argument("--out", required=True, help="output config path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name, s in PRESETS.items():
                print(f"{name}: {s.summary()} iso={','.join(repr(v) for v in s.iso_values)}")
            return EXIT_OK

        if args.command == "write-config":
            write_config(load_scenario(args.name), args.out)
            print(f"wrote {args.out}")
            return EXIT_OK

        scenario = load_scenario(args.config, partial(_overrides, args))

        if args.command == "simulate":
            run_simulate(scenario, args.out)
            return EXIT_OK

        if args.command == "image":
            run_image(args.data, scenario, args.out, force=args.force)
            return EXIT_OK

        # verify
        reports, ok = verify.run(scenario, only=args.only)
        print("\n".join(r.to_text() for r in reports))
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.check}: measured={r.measured!r} tolerance={r.tolerance!r}")
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
