"""The benchmark's tracer finds zml functions by name.  A name it cannot
resolve is skipped at run time and its per-layer metric reads 0, so every
name must resolve here, but for the listed few whose code is gone.  The
benchmark's digest reads the zero cache on its own, so it is checked
against the zero-list file the code writes.  The
README's flag list is checked against the parser the same way, its file
formats against the magics the code writes, in both directions, and every
zml name it puts in backticks against the modules.  The reproduction
script refuses a --stats path it could not write before it runs a step.
The Riemann-Siegel coefficient file is its generator's output, byte for
byte.  The package imports no SciPy, and numpy is its one run-time
dependency.
Every top-level function and class of the package is referenced by the
program or the scripts, or is listed with the reason it is kept and used
by a test."""
import argparse
import ast
import importlib
import importlib.util
import math
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zml
from zml import cli, dirichlet, moments, sieve, store, zeros, zeta

from test_cli import run_reproduce_all

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
README = ROOT / "README.md"
MODULES = {"cli": cli, "dirichlet": dirichlet, "moments": moments,
           "sieve": sieve, "store": store, "zeros": zeros, "zeta": zeta}
# backticked snake_case names in the README that are JSON keys, not attributes
README_JSON_KEYS = {"z_threads"}
# names in src/zml docstrings that are no attributes: the Riemann-Siegel
# series symbols, and the suffix of the batch functions' `*_many` pattern
DOCSTRING_SYMBOLS = {"C_0", "C_4", "C_RS_ORDER", "_many"}
# The tracer's entries, as (module, span), whose functions the package no
# longer has: no step called them, so their spans read 0 before they went,
# and the tracer reports them as unwrapped until its name list drops them
TRACED_BUT_GONE = [("sieve", "sieve.load"), ("sieve", "sieve.sums"), ("moments", "dirichlet.eval")]
# Top-level names that no other code of the package or the scripts
# references, each kept for its reason
KEPT = {
    "dirichlet.eval_poly": "exactly rounded scalar oracle of the batch mollifier evaluation",
    "dirichlet.eval_truncations_at_zeros": "truncation_blocks' runs as one array, "
    "the form the mollifier tests compare",
    "dirichlet.pair_integral_exact": "closed-form pair integral, the mean-value tests' oracle",
    "zeta.hardy_z": "scalar wrapper of hardy_z_many, the Z value tests' one-point form",
    "moments.j_moment": "one-point wrapper of j_moments",
    "sieve.mertens": "M(x) by the sieve, the oracle of M(x) from the zeros by the explicit "
    "formula",
    "moments.predict_m1_finite": "finite-xi diagonal of M1 that acceptance criterion 5 "
    "compares at 1e5",
    "zeta.reset_counters": "zeroes the evaluation counters before a test counts Z evaluations",
}


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = _perfbench_module("tracer")
    assert tracer.WRAPPED
    missing = [(mod, attr, span) for mod, attr, span, _ in tracer.WRAPPED
               if not callable(getattr(MODULES[mod], attr, None))]
    assert [(mod, span) for mod, _, span in missing] == TRACED_BUT_GONE
    # gone from every module, not moved or renamed
    assert [attr for _, attr, _ in missing if any(hasattr(m, attr) for m in MODULES.values())] == []


def test_digest_reads_the_zero_cache(tmp_path, zeros_110):
    digest = _perfbench_module("digest")
    zeros.export_zeros(zeros_110, tmp_path / "zeros_t100_0123456789.txt")
    assert digest.zero_cache(tmp_path, 100.0) == {
        "count": zeros_110.count_below(100.0), "records": len(zeros_110),
        "certified": zeros_110.certified,
        "ordinate_fsum": math.fsum(zeros_110.ordinates.tolist()),
        "abs_zprime_fsum": math.fsum(np.abs(zeros_110.z_primes).tolist()),
    }


def test_library_surface_is_reached():
    # a top-level function or class counts as referenced when src/zml or
    # scripts/ names it (as a name, an attribute or an import) outside its
    # own definition; the tracer's name list does not count
    files = sorted((ROOT / "src" / "zml").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    defined, used = [], set()
    for path in files:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = (path, top.name)
                if path.parent.name == "zml":
                    defined.append(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    used.add((owner, node.id))
                elif isinstance(node, ast.Attribute):
                    used.add((owner, node.attr))
                elif isinstance(node, ast.alias):
                    used.add((owner, node.name.rpartition(".")[2]))
    unreferenced = [f"{path.stem}.{name}" for path, name in defined
                    if not any(n == name and o != (path, name) for o, n in used)]
    assert sorted(unreferenced) == sorted(KEPT)
    # a kept name goes with its last use in another test file
    texts = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "tests").glob("*.py"))
             if path.name != Path(__file__).name]
    unused = [name for name in KEPT if not any(
        re.search(rf"\b{name.rpartition('.')[2]}\b", text) for text in texts)]
    assert unused == []


def test_readme_shared_flags_match_parser():
    # the README's "Shared flags" sentence lists every option of every
    # subcommand, so a flag removed from the parser leaves no stale entry
    readme = README.read_text(encoding="utf-8")
    sentence = re.search(r"Shared flags: `(.*?)`", readme, re.S).group(1)
    documented = set(re.findall(r"--[a-z][a-z-]*", sentence))
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, command in sub.choices.items():
        options = {s for a in command._actions for s in a.option_strings if s.startswith("--")}
        assert options - {"--help"} == documented, name


def test_readme_file_formats_name_the_magics():
    # both ways: every file magic of a zml module is documented, and the
    # section documents no other kind, so a removed kind leaves no entry
    magics = {value for info in pkgutil.iter_modules(zml.__path__)
              for name, value in vars(importlib.import_module(f"zml.{info.name}")).items()
              if name.endswith("_MAGIC") and isinstance(value, str)}
    assert len(magics) >= 1
    readme = README.read_text(encoding="utf-8")
    section = readme.split("## File formats", 1)[1].split("\n## ", 1)[0]
    for magic in magics:
        assert f"`{magic}`" in section
    kind = re.compile(r"`# zml-([a-z-]+) v\d+`")
    assert set(kind.findall(section)) == {kind.fullmatch(f"`{m}`").group(1) for m in magics}


def test_readme_names_resolve():
    # inline code spans outside the fenced blocks, file names left out
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    spans = [re.sub(r"[\w/]+\.py\b", "", span) for span in re.findall(r"`([^`]+)`", text)]
    qualified = {(mod, name) for span in spans for mod, name in re.findall(
        r"\b(cli|dirichlet|moments|sieve|store|zeros|zeta)\.(\w+)", span)}
    assert ("cli", "MV_BOUND") in qualified
    assert [f"{mod}.{name}" for mod, name in sorted(qualified)
            if not hasattr(MODULES[mod], name)] == []
    bare = {span for span in spans if re.fullmatch(r"[a-z][a-z0-9]*(_[a-z0-9]+)+", span)}
    assert "hardy_z" in bare and README_JSON_KEYS <= bare
    assert sorted(name for name in bare - README_JSON_KEYS
                  if not any(hasattr(m, name) for m in MODULES.values())) == []


def test_docstring_names_resolve():
    # module.NAME, _snake_case and UPPER_CASE names in every docstring of
    # src/zml, file names left out, so a removed name leaves no stale mention
    package = {info.name: importlib.import_module(f"zml.{info.name}")
               for info in pkgutil.iter_modules(zml.__path__)}
    names = set()
    for path in sorted((ROOT / "src" / "zml").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = re.sub(r"[\w/]+\.py\b", "", ast.get_docstring(node, clean=False) or "")
                names |= set(re.findall(rf"\b(?:{'|'.join(package)})\.\w+", doc))
                names |= set(re.findall(r"(?<!\w)_[a-z][a-z0-9]*(?:_[a-z0-9]+)*\b", doc))
                names |= set(re.findall(r"\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b", doc))
    assert {"zeta.Z_BLOCK", "_sign_bounds", "SIGN_MARGIN"} <= names

    def resolves(name):
        mod, _, attr = name.rpartition(".")
        return hasattr(package[mod], attr) if mod else any(
            hasattr(m, attr) for m in package.values())

    assert sorted(name for name in names - DOCSTRING_SYMBOLS if not resolves(name)) == []


def test_readme_layout_names_every_module():
    # the file names listed under src/zml/ in the Layout block, up to the
    # next top-level entry, are exactly the package's modules
    readme = README.read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```", 2)[1]
    listed = re.search(r"^src/zml/\n(.*?)^\S", block, re.S | re.M).group(1)
    modules = {p.name for p in (ROOT / "src" / "zml").glob("*.py")} - {"__init__.py"}
    assert sorted(re.findall(r"^  (\S+\.py) ", listed, re.M)) == sorted(modules)


@pytest.mark.parametrize("stats, message", [
    ("F/s.json", "--stats {p}/F/s.json: {p}/F is not a directory"),
    ("F/d/s.json", "--stats {p}/F/d/s.json: {p}/F is not a directory"),
    ("D", "--stats {p}/D is a directory")])
def test_reproduce_all_bad_stats_path_rejected_before_any_work(tmp_path, stats, message):
    (tmp_path / "F").write_text("")
    (tmp_path / "D").mkdir()
    proc = run_reproduce_all(tmp_path, "--stats", str(tmp_path / stats))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message.format(p=tmp_path)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["D", "F"]


def test_numpy_is_the_only_runtime_dependency():
    imports = set()
    for path in sorted((ROOT / "src" / "zml").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.add(node.module.split(".")[0])
    assert "numpy" in imports and "scipy" not in imports
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    deps = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group(0)
            for d in re.findall(r'"([^"]+)"', deps)] == ["numpy"]


def test_rs_coeffs_file_is_the_generator_output():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "gen_rs_coeffs.py")],
                          capture_output=True, check=True)
    assert proc.stdout == (ROOT / "src" / "zml" / "_rs_coeffs.py").read_bytes()
