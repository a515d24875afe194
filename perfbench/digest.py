"""Digests of step outputs and their comparison with the stored reference.

A digest maps a leaf name to a number, a flag or a string.  Counts and
flags are compared exactly.  Floats are compared to REL_TOL relative (with
ABS_TOL for values near zero): a reordered sum may change the last bits,
and the documented accuracy of Z'(t) is 1e-6 absolute, so a change of
summation order or evaluator that keeps its stated accuracy stays within
the tolerance while a wrong result does not.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REL_TOL = 1e-6
ABS_TOL = 1e-9
LIST_SUMMARY_LEN = 16     # longer numeric lists are digested by summary

# Output files digested after each subcommand, relative to --out-dir.
OUTPUTS = {
    "moments": ("moments_summary.csv", "theta_sweep.json"),
    "mv-check": ("mv_stats.json",),
    "landau": ("landau_x*.json",),
    "report": ("report.json",),
}


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}/{k}", obj[k], out)
    elif isinstance(obj, list):
        if len(obj) > LIST_SUMMARY_LEN and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            out[f"{prefix}/len"] = len(obj)
            out[f"{prefix}/fsum"] = math.fsum(obj)
            out[f"{prefix}/fsum_sq"] = math.fsum(v * v for v in obj)
            out[f"{prefix}/min"] = min(obj)
            out[f"{prefix}/max"] = max(obj)
        else:
            for i, v in enumerate(obj):
                _flatten(f"{prefix}/{i}", v, out)
    else:
        out[prefix] = obj


def _csv_number(text: str):
    # numpy 2 scalars print as np.float64(...) through repr()
    if text.startswith("np.") and text.endswith(")"):
        text = text[text.index("(") + 1: -1]
    if text in ("True", "False"):
        return text == "True"
    return float(text)


def _read(path: Path, out: dict) -> None:
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            for i, row in enumerate(csv.DictReader(fh)):
                for k, v in row.items():
                    out[f"{path.name}/{i}/{k}"] = _csv_number(v)
    else:
        _flatten(path.name, json.loads(path.read_text()), out)


def zero_cache(cache: Path, t_max: float) -> dict:
    """Count, certified flag and sums of the single zero-list file in cache."""
    (path,) = cache.glob("zeros_*.txt")
    certified = None
    ords, zps = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("# certified"):
                certified = line.split()[-1] == "true"
            elif not line.startswith("#") and line.strip():
                fields = line.split()
                ords.append(float(fields[0]))
                zps.append(abs(float(fields[1])))
    return {
        "count": sum(1 for g in ords if g <= t_max), "records": len(ords),
        "certified": certified, "ordinate_fsum": math.fsum(ords),
        "abs_zprime_fsum": math.fsum(zps),
    }


def cli_outputs(argv: list, cache: Path, out: Path) -> dict:
    """Digest of what the subcommand argv[0] wrote."""
    if argv[0] == "zeros":
        return zero_cache(cache, float(argv[argv.index("--t-max") + 1]))
    d = {}
    for pattern in OUTPUTS[argv[0]]:
        for path in sorted(out.glob(pattern)):
            _read(path, d)
    return d


def window(zlist) -> dict:
    return {
        "count": len(zlist), "certified": bool(zlist.certified),
        "ordinate_fsum": math.fsum(float(g) for g in zlist.ordinates),
    }


def tree_size(root: Path) -> tuple:
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def m1_ratio(out: Path) -> float:
    """Criterion 5's Re(M1)/pred from report.json, recorded as a value."""
    path = out / "report.json"
    if not path.exists():
        return 0.0
    return float(json.loads(path.read_text())["m1"]["ratio_re"])


def blas_info(np) -> dict:
    """BLAS name and version as numpy was built with them, and the thread
    count the loaded OpenBLAS reports (None where it cannot be asked)."""
    import ctypes
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, name):
                threads = int(getattr(dll, name)())
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def mismatches(got: dict, want: dict | None) -> list:
    """Leaves where a digest misses its reference (empty when it matches)."""
    if want is None:
        return ["no reference for this step"]
    bad = [f"{k}: missing" for k in sorted(set(want) - set(got))]
    bad += [f"{k}: not in reference" for k in sorted(set(got) - set(want))]
    for k in sorted(set(got) & set(want)):
        a, b = got[k], want[k]
        if isinstance(b, float) and isinstance(a, (int, float)) and not isinstance(a, bool):
            same = math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL) or (
                math.isnan(a) and math.isnan(b))
        else:
            same = type(a) is type(b) and a == b
        if not same:
            bad.append(f"{k}: got {a!r}, reference {b!r}")
    return bad
