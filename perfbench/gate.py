"""Per-operation correctness gate.

An operation passes only if every command exited 0, no certificate reported
[FAIL], the written field is finite with maximum exactly 1.0, a seeded sample
of voxels plus the argmax agree with an independent recomputation of the
indicator, and the artifact bytes equal those of the run's first operation.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

ORACLE_SAMPLES = 32
ORACLE_RTOL = 1e-12
_ORACLE_SALT = 0x0BE7C

FIELD_MARKER = b"end_header\n"


def read_field_file(path) -> tuple[dict[str, str], np.ndarray]:
    """Header fields and voxel values of a field file, parsed here rather than by the program."""
    blob = Path(path).read_bytes()
    pos = blob.find(FIELD_MARKER)
    if pos < 0:
        raise ValueError(f"{path}: no end_header line")
    header = {}
    for line in blob[:pos].decode("ascii").splitlines()[1:]:
        key, _, val = line.partition(":")
        header[key.strip()] = val.strip()
    return header, np.frombuffer(blob[pos + len(FIELD_MARKER):], dtype="<f8")


def voxel_centers(header: dict[str, str], index: np.ndarray) -> np.ndarray:
    """Centres of the voxels with the given row-major indices."""
    b = [float(v) for v in header["bounds"].split()]
    n = [int(v) for v in header["resolution"].split()]
    ijk = np.stack(np.unravel_index(index, n), axis=1)
    lo = np.array([b[0], b[2], b[4]])
    step = (np.array([b[1], b[3], b[5]]) - lo) / np.array(n)
    return lo + (ijk + 0.5) * step


def oracle_sample(seed: int, size: int) -> np.ndarray:
    """Seeded voxel indices the oracle recomputes (the argmax is added per field)."""
    rng = np.random.default_rng([seed, _ORACLE_SALT])
    return rng.choice(size, size=min(ORACLE_SAMPLES, size), replace=False)


def oracle_error(mf, dataset_path, field_path, seed: int) -> float:
    """Worst disagreement between the field and the recomputed indicator.

    I(z) = sum_x |(N_x g_xz, g_xz)| is recomputed with the package's scalar
    quadratic forms and test functions on the dataset the operation wrote;
    field ratios to the argmax are compared with I(z) / I(argmax), relative to
    the recomputed ratio.
    """
    data, _ = mf.read_dataset(dataset_path)
    header, values = read_field_file(field_path)
    top = int(np.argmax(values))
    index = np.append(oracle_sample(seed, values.size), top)
    if data.kind == "near":
        form, probe = mf.near_quadratic_form, mf.near_test_function
    else:
        form, probe = mf.far_quadratic_form, mf.far_test_function
    sensors = data.sensors.array
    recomputed = np.array([
        sum(abs(form(data, ell, probe(sensors[ell], z, data.grid))) for ell in range(len(sensors)))
        for z in voxel_centers(header, index)
    ])
    ratio = recomputed / recomputed[-1]
    return float(np.max(np.abs(values[index] - ratio) / ratio))


def artifact_digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def mask_centroid(field_path, iso: float) -> tuple[float, float, float]:
    """Centroid of the voxels at or above `iso`: the threshold mask the program writes."""
    header, values = read_field_file(field_path)
    return tuple(voxel_centers(header, np.flatnonzero(values >= iso)).mean(axis=0))


def check_operation(mf, rcs, verify_stdout: str, dataset_path, field_path, artifacts,
                    seed: int, first_digest: str | None) -> tuple[list[str], str | None]:
    """Reasons the operation fails (empty when it passes) and its artifact digest."""
    reasons = [f"{cmd} exited {rc}" for cmd, rc in rcs.items() if rc != 0]
    if reasons:
        return reasons, None
    status = [line.split("]", 1)[0] + "]" for line in verify_stdout.splitlines()
              if line.startswith("[")]
    if "[FAIL]" in status or "[PASS]" not in status:
        reasons.append("verify: a certificate did not pass")
    try:
        _, values = read_field_file(field_path)
        if not np.all(np.isfinite(values)):
            reasons.append("field: non-finite values")
        elif values.max() != 1.0:
            reasons.append(f"field: maximum {values.max()!r} is not 1.0")
        else:
            err = oracle_error(mf, dataset_path, field_path, seed)
            if not err <= ORACLE_RTOL:
                reasons.append(f"field: oracle disagreement {err:.3e} > {ORACLE_RTOL:.0e}")
        digest = artifact_digest([dataset_path, *artifacts])
    except (OSError, ValueError, KeyError) as exc:  # missing or malformed output files
        return reasons + [f"outputs unreadable: {exc!r}"], None
    if first_digest is not None and digest != first_digest:
        reasons.append("artifacts: bytes differ from the run's first operation")
    return reasons, digest
