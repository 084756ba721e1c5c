import ast
import cmath
import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surface_reference
from solitonlab import family, weierstrass
from solitonlab.cli import build_parser, main
from solitonlab.family import WhithamPair
from solitonlab.pde import GridSpec
from solitonlab.reportio import _OBJ_BLOCK, csv_text, obj_mesh_text


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, err = run(["catalog", "list"], capsys)
    assert code == 0
    assert "wick_scherk" in out and "scherk_first_kind" in out
    assert "ram_arctan_sum" in out


def test_residual_pass_and_fail_exit_codes(capsys):
    code, out, err = run(["residual", "--solution", "wick_scherk",
                          "--grid", "-1:1:-1:1:21:21"], capsys)
    assert code == 0
    assert '"max_abs"' in out
    # an impossible tolerance turns the same sweep into a failure
    code, out, err = run(["residual", "--solution", "wick_scherk",
                          "--grid", "-1:1:-1:1:21:21",
                          "--tolerance", "1e-30"], capsys)
    assert code == 1
    assert err.startswith("FAIL") and "\n" == err[-1] and err.count("\n") == 1


def test_singular_grid_point_fails_without_traceback(capsys):
    # a negative margin keeps the helicoid's singular line a = 0 on the grid
    code, out, err = run(["residual", "--solution", "helicoid_minimal", "--margin", "-1",
                          "--grid", "-1:1:-1:1:5:5"], capsys)
    assert code == 1
    assert '"max_abs": inf' in out and '"worst_point": [\n    0,\n    1\n  ]' in out
    assert err.startswith("FAIL max_abs=inf > tolerance=") and err.count("\n") == 1


def test_residual_fails_when_every_point_is_excluded(capsys):
    # the grid lies inside the helicoid's excluded strip around a = 0: a
    # sweep that evaluated nothing must not pass with max_abs 0
    code, out, err = run(["residual", "--solution", "helicoid_first_kind",
                          "--grid", "-0.001:0.001:-1:1:5:5"], capsys)
    assert code == 1
    assert '"max_abs": 0,' in out and '"worst_point": null' in out
    assert '"excluded_count": 25,' in out
    assert err == "FAIL no point evaluated: all 25 grid points are excluded\n"


def _recorded_cli_digests() -> dict:
    """The CLI_DIGESTS literal that the benchmark gates its CLI outputs on."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "CLI_DIGESTS":
            return ast.literal_eval(node.value)
    raise LookupError(f"no CLI_DIGESTS in {path}")


@pytest.mark.parametrize("name,argv", [
    ("residual", ["residual", "--solution", "wick_scherk", "--grid", "-1:1:-1:1:21:21"]),
    ("geometry", ["geometry", "classify", "--solution", "example1"]),
    ("catalog", ["catalog", "list"]),
    ("surface", ["surface", "sample", "--name", "scherk_first_kind",
                 "--grid", "-2:2:-2:2:201:201", "--format", "obj"]),
])
def test_stdout_matches_recorded_digest(name, argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _recorded_cli_digests()[name]


@pytest.mark.parametrize("grid,digest", [
    ("-2:2:-2:2:101:101", "7a52354d9c0fd75327364528f17ffc2836841c0fa7acd1742b65b99c98453940"),
    ("-2:2:-2:2:201:201", "cc97c7ac90d7d9756808e0910eb26c3bb661e98b652260d3c4f16394c4c8af33"),
])
def test_geometry_classify_csv_digest_on_fine_grids(grid, digest, capsys):
    # sha256 of the CSV as the point-by-point sweep wrote it
    code, out, err = run(["geometry", "classify", "--solution", "example1", "--grid", grid], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_usage_errors_exit_2(capsys):
    code, out, err = run(["residual", "--solution", "not_a_solution"], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    code, out, err = run(["residual"], capsys)
    assert code == 2
    code, out, err = run(["identity", "--name", "ram_arctan_sum"], capsys)
    assert code == 2  # missing --X/--A


def test_identity_convergence_table(capsys):
    code, out, err = run(["identity", "--name", "ram_arctan_sum",
                          "--X", "1", "--A", "0.7", "--K", "100,1000,10000"], capsys)
    assert code == 0
    assert '"K": 10000' in out and '"est_order"' in out


def test_identity_tail_correction_table(capsys):
    argv = ["identity", "--name", "ram_arctan_sum", "--X", "1", "--A", "0.7",
            "--K", "100,1000,10000", "--tail-correction"]
    code, out, err = run(argv, capsys)
    assert code == 0
    # sha256 of the table as first recorded, when the uncorrected table was
    # also computed and then discarded
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4bddddd9e4fcdb49018c17b9670401d5af87bd389abc862905f623a2fb543ac8")
    code, out, err = run(argv[:-2] + ["1000,100", "--tail-correction"], capsys)
    assert code == 2 and out == ""
    assert err == "error: argument --K: K_list must be increasing\n"


@pytest.mark.parametrize("extra", [[], ["--tail-correction"]])
@pytest.mark.parametrize("K", ["10,10", "100,1000,1000"])
def test_identity_K_list_must_strictly_increase(K, extra, capsys):
    code, out, err = run(["identity", "--name", "ram_arctan_sum", "--X", "1", "--A", "0.7",
                          "--K", K, *extra], capsys)
    assert code == 2 and out == ""
    assert err == "error: argument --K: K_list must be increasing\n"


def test_identity_zeta_argument(capsys):
    code, out, err = run(["identity", "--name", "scherk_identity",
                          "--zeta", "2+0j", "--K", "100,1000"], capsys)
    assert code == 0
    assert '"abs_err"' in out


def test_identity_excluded_point_is_failure(capsys):
    code, out, err = run(["identity", "--name", "scherk_identity",
                          "--zeta", "1j", "--K", "10"], capsys)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_surface_obj_export(tmp_path, capsys):
    out_path = tmp_path / "scherk.obj"
    code, out, err = run(["surface", "sample", "--name", "scherk_first_kind",
                          "--out", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text().splitlines()
    n_vertices = sum(1 for line in text if line.startswith("v "))
    n_faces = sum(1 for line in text if line.startswith("f "))
    # default 21x21 grid hits the four punctures exactly
    assert n_vertices == 21 * 21 - 4
    assert n_faces > 0


def test_surface_csv_export(tmp_path, capsys):
    out_path = tmp_path / "cat.csv"
    code, out, err = run(["surface", "sample", "--name", "lorentzian_catenoid",
                          "--grid", "0.5:2:0.1:1:5:5", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "u,v,x,y,z"
    assert len(lines) == 26


def _sampled_obj(name: str, grid: str) -> str:
    """``obj_mesh_text`` of ``SurfaceMap.sample`` on the grid ``grid``."""
    g = GridSpec.parse(grid)
    values, excluded = weierstrass.catalog_surface(name).sample(*g.axes())
    return obj_mesh_text(values, excluded, g.na, g.nb)


# Grids off every puncture whose kept vertices number _OBJ_BLOCK - 1 (3 x
# 1365), _OBJ_BLOCK (2 x 2048) and _OBJ_BLOCK + 1 (17 x 241), and one whose
# every point lies within the margin of the catenoid's puncture.
@pytest.mark.parametrize("name,grid,vertices", [
    ("scherk_first_kind", "0.2:0.6:0.2:0.8:3:1365", _OBJ_BLOCK - 1),
    ("lorentzian_helicoid", "0.5:1.5:-1:1:2:2048", _OBJ_BLOCK),
    ("helicoid_second_kind", "0.5:1.5:-1:1:17:241", _OBJ_BLOCK + 1),
    ("lorentzian_catenoid", "-0.001:0.001:-0.001:0.001:2:2", 0),
])
def test_streamed_obj_equals_the_joined_text(name, grid, vertices, tmp_path, capsys):
    want = _sampled_obj(name, grid)
    assert want.count("v ") == vertices and (want == "\n") == (vertices == 0)
    argv = ["surface", "sample", "--name", name, "--grid", grid, "--format", "obj"]
    assert run(argv, capsys) == (0, want, "")
    out_path = tmp_path / "mesh.obj"
    assert run(argv + ["--out", str(out_path)], capsys) == (0, "", "")
    assert out_path.read_bytes() == want.encode()


def test_obj_larger_than_one_block_is_written_in_blocks(monkeypatch):
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    grid = "0.5:1.5:-1:1:17:241"
    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["surface", "sample", "--name", "helicoid_second_kind", "--grid", grid,
                 "--format", "obj"]) == 0
    assert len(writes) > 1 and max(w.count("\n") for w in writes) <= 2 * _OBJ_BLOCK
    assert "".join(writes) == _sampled_obj("helicoid_second_kind", grid)


@pytest.mark.parametrize("fmt", ["obj", "csv"])
def test_non_real_surface_fails_before_the_first_byte(fmt, monkeypatch, tmp_path, capsys):
    # every point is evaluated, and the last one has a non-real height
    monkeypatch.setattr(weierstrass, "catalog_surface", lambda name: weierstrass.SurfaceMap(
        lambda u, v: (u, v, 1j if u == 1.0 and v == 1.0 else 0.0)))
    argv = ["surface", "sample", "--name", "scherk_first_kind", "--grid", "0:1:0:1:5:5",
            "--format", fmt]
    message = "error: surface component not real at (1+1j): 1j\n"
    assert run(argv, capsys) == (1, "", message)
    out_path = tmp_path / f"mesh.{fmt}"
    assert run(argv + ["--out", str(out_path)], capsys) == (1, "", message)
    assert not out_path.exists()


def test_surface_csv_rows_are_the_reference_sample_of_the_grid(capsys):
    # the default 21 x 21 Scherk grid, whose four punctures are excluded
    surf = weierstrass.catalog_surface("scherk_first_kind")
    a, b = GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21).axes()
    pts = list(itertools.product(a.tolist(), b.tolist()))
    values, excluded = surface_reference.sample(surf, pts)
    assert excluded.sum() == 4
    rows = [(u, v, *val) for (u, v), val, ex in zip(pts, values.tolist(), excluded) if not ex]
    want = csv_text(("u", "v", "x", "y", "z"), rows)
    assert run(["surface", "sample", "--name", "scherk_first_kind"], capsys) == (0, want, "")


def test_geometry_classify_csv(capsys):
    code, out, err = run(["geometry", "classify", "--grid", "-2:2:-2:2:9:9"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "y,z,class,H"
    assert any(",lightlike," in line for line in lines)
    assert any(",timelike," in line for line in lines)


@pytest.mark.parametrize("argv", [
    ["geometry", "classify", "--solution", "nope"],
    ["residual", "--solution", "nope"],
    ["family", "--num-points", "0"],
    ["family", "--num-points", "-2"],
    ["family", "--num-points", "two"],
    ["family", "--pair", "nope"],
    ["identity", "--name", "nope"],
    ["residual", "--solution", "scherk_minimal", "--backend", "central", "--h", "0"],
    ["residual", "--solution", "scherk_minimal", "--backend", "central", "--h", "-1e-4"],
    # an option that the chosen identity does not read
    ["identity", "--name", "scherk_identity", "--zeta", "2+0j", "--K", "10,100",
     "--tail-correction"],
    ["identity", "--name", "ram_cos_product", "--X", "0.3", "--A", "0.2", "--tail-correction"],
    ["identity", "--name", "ram_cos_product", "--X", "0.3", "--A", "0.2", "--zeta", "2+0j"],
    ["identity", "--name", "ram_arctan_sum", "--X", "1", "--A", "0.7", "--zeta", "2+0j"],
    ["identity", "--name", "scherk_identity", "--zeta", "2+0j", "--X", "1"],
    ["identity", "--name", "helicoid2_identity", "--zeta", "1+1j", "--A", "0.7"],
    ["identity", "--name", "lorentz_helicoid_identity", "--zeta", "1+1j", "--X", "1"],
])
def test_usage_errors_exit_2_with_one_line(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: argument --") and err.count("\n") == 1
    # the message names an option of the command line
    assert err.split(":")[1].split()[-1] in argv


def test_geometry_classify_catalog_solution(capsys):
    code, out, err = run(["geometry", "classify", "--solution", "scherk_first_kind",
                          "--grid", "-1:1:-1:1:3:3"], capsys)
    assert code == 0 and out.count("\n") == 10


def test_family_command(capsys):
    code, out, err = run(["family", "--pair", "helicoid-catenoid",
                          "--theta-list", "0,0.785", "--num-points", "5"], capsys)
    assert code == 0
    assert '"whitham_defects"' in out


@pytest.mark.parametrize("argv", [
    ["residual", "--solution", "wick_scherk", "--grid", "-1:1:-1:1:11:11"],
    ["identity", "--name", "ram_cos_product", "--X", "0.3", "--A", "0.2",
     "--K", "100,1000"],
    ["family", "--theta-list", "0,1.0472", "--num-points", "8", "--seed", "42"],
    ["surface", "sample", "--name", "helicoid_second_kind"],
    ["geometry", "classify", "--grid", "-2:2:-2:2:9:9"],
])
def test_repeated_runs_are_byte_identical(argv, tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_nan_cauchy_riemann_defect_fails_the_family_check(monkeypatch, capsys):
    monkeypatch.setattr(family, "conjugacy_check", lambda pair, z: math.nan)
    code, out, err = run(["family", "--theta-list", "0,0.7", "--num-points", "3"], capsys)
    assert code == 1
    assert out.count('"cauchy_riemann": inf') == 2
    assert err.startswith("FAIL max defect=inf > tolerance=") and err.count("\n") == 1


def test_scaled_g_fails_the_family_check_through_its_integral(monkeypatch, capsys):
    # d2 reads G only through its integral, the mirrored one, since the
    # calibration absorbs the constants
    catalog_whitham = family.catalog_whitham

    def scaled(theta):
        wp = catalog_whitham(theta)
        return dataclasses.replace(wp, Gfun=lambda xb: 1.01 * wp.Gfun(xb))

    monkeypatch.setattr(family, "catalog_whitham", scaled)
    code, out, err = run(["family"], capsys)
    assert code == 1 and err.startswith("FAIL max defect=")
    assert all(rec["whitham_defects"]["d2"] > 1e-6 for rec in json.loads(out)["results"])


def _script(name: str):
    """The module of ``scripts/<name>.py``."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [["--tol-exact", "nan", "--tol-central", "nan"],
                                  ["--tol-central", "-1"], ["--h", "inf"],
                                  ["--h", "0"], ["--h=-1e-4"], ["--h", "-1e-4"],
                                  ["--tol-central", "-1e-6"]])
def test_residual_sweeps_script_rejects_non_finite_tolerances(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        _script("residual_sweeps").main(argv)
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_residual_sweeps_script_fails_a_wrong_soliton_family(monkeypatch, capsys):
    # phi_zeta's third component times e^{-0.1 i} rotates phi alone by
    # theta + 0.1: the family row must fail, and the script exit 1
    module = _script("residual_sweeps")
    pair = module.helicoid_catenoid_pair()

    def phi_zeta(zeta):
        x, t, f = pair.phi_zeta(zeta)
        return x, t, f * cmath.exp(-0.1j)

    monkeypatch.setattr(module, "helicoid_catenoid_pair",
                        lambda: dataclasses.replace(pair, phi_zeta=phi_zeta))
    assert module.main([]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "<-- FAIL" in line]
    assert len(failed) == 1 and failed[0].startswith("helicoid_catenoid soliton family")


@pytest.mark.parametrize("K,message", [
    ("100,50", "argument --K: K_list must be increasing"),
    ("0", "argument --K: K must be >= 1, got 0"),
    ("10,0,100", "argument --K: K must be >= 1, got 0"),
])
def test_identity_tables_script_rejects_bad_K_lists(K, message, capsys):
    # the script parses --K with the type of ``identity --K``
    with pytest.raises(SystemExit) as exc:
        _script("identity_tables").main(["--K", K])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.rstrip().endswith(message)


def test_identity_tables_script_exits_1_when_a_table_stops_converging(monkeypatch, capsys):
    script = _script("identity_tables")
    assert script.main([]) == 0
    assert "FAIL" not in capsys.readouterr().out
    # a shifted lhs leaves an error that no K removes: the order falls to 0
    spec = script.REGISTRY["scherk_identity"]
    monkeypatch.setitem(script.REGISTRY, "scherk_identity",
                        dataclasses.replace(spec, lhs=lambda args: spec.lhs(args) + 1e-2))
    assert script.main([]) == 1
    out = capsys.readouterr().out
    table = out.split("== scherk_identity")[1].split("==")[0]
    assert table.count("  <-- FAIL\n") == 2 and out.count("<-- FAIL") == 2


def _nan_whitham(theta):
    return WhithamPair(lambda xb: math.nan * xb, lambda z: math.nan * z, theta)


def _nan_we_surface(name):
    # a surface sampled by Weierstrass quadrature of data that is NaN everywhere
    datum = weierstrass.WEData(lambda w: math.nan * w, weierstrass.Variant.STANDARD, 1 + 0j)
    return weierstrass.SurfaceMap(
        lambda u, v: dataclasses.astuple(weierstrass.we_integrate(datum, complex(u, v))))


@pytest.mark.parametrize("argv,module,name,replacement", [
    (["family", "--num-points", "2"], family, "catalog_whitham", _nan_whitham),
    (["surface", "sample", "--name", "scherk_first_kind", "--grid", "1:2:1:2:2:2"],
     weierstrass, "catalog_surface", _nan_we_surface),
])
def test_quadrature_error_exits_1_without_traceback(argv, module, name, replacement,
                                                    monkeypatch, capsys):
    monkeypatch.setattr(module, name, replacement)
    code, out, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error: non-finite integrand value") and err.count("\n") == 1
    assert "Traceback" not in err


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_cli_import_does_not_load_scipy():
    env = _src_env()
    code = ("import sys, solitonlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _loaded_modules(code: str, listed=False) -> set:
    """The ``solitonlab`` modules that have run after running ``code`` in a
    fresh interpreter, or with ``listed`` all those in ``sys.modules``.  A
    lazy module that has not run is of a subclass of ``ModuleType``, and
    ``type()`` does not run it."""
    code += ("\nprint(' '.join(n for n, m in sys.modules.items() if n.split('.')[0] == "
             f"'solitonlab' and ({listed} or type(m) is types.ModuleType)))")
    out = subprocess.run([sys.executable, "-c", "import sys, types\n" + code],
                         env=_src_env(), capture_output=True, text=True, check=True).stdout
    return set(out.split())


_SUBMODULES = {p.stem for p in (Path(__file__).resolve().parents[1] / "src" / "solitonlab")
               .glob("*.py") if not p.stem.startswith("__")}


def test_bare_package_import_runs_no_submodule_and_lists_all_but_cli():
    assert _loaded_modules("import solitonlab") == {"solitonlab"}
    # code that patches functions in every listed module (a tracer) finds them all
    assert _loaded_modules("import solitonlab", listed=True) == {"solitonlab"} | {
        f"solitonlab.{m}" for m in _SUBMODULES - {"cli"}}


def test_a_lazy_module_runs_on_its_first_attribute_access():
    code = ("import solitonlab\nfrom solitonlab import pde\n"
            "assert pde is sys.modules['solitonlab.pde'] and type(pde) is not types.ModuleType\n"
            "assert pde.residual_sweep is solitonlab.residual_sweep")
    assert _loaded_modules(code) == {"solitonlab"} | {
        f"solitonlab.{m}" for m in ("core", "errors", "jetmath", "pde")}


_RUNS = {"cli", "errors", "reportio"}  # what every command loads


# The benchmark's six CLI commands (bench/workloads.py), on small inputs, and
# the solitonlab modules each loads besides the package itself.
_COMMAND_MODULES = {
    "catalog": (["catalog", "list"],
                _RUNS | {"core", "identities", "jetmath", "pde", "quadrature", "weierstrass"}),
    "residual": (["residual", "--solution", "wick_scherk", "--grid", "-1:1:-1:1:5:5"],
                 _RUNS | {"core", "jetmath", "pde"}),
    "geometry": (["geometry", "classify", "--solution", "example1", "--grid", "-2:2:-2:2:5:5"],
                 _RUNS | {"core", "geometry", "jetmath", "pde"}),
    "identity": (["identity", "--name", "helicoid2_identity", "--zeta", "1.5+0.7j",
                  "--K", "10,100"], _RUNS | {"identities"}),
    "family": (["family", "--num-points", "2", "--theta-list", "0,0.7"],
               _RUNS | {"core", "family", "geometry", "jetmath", "pde", "quadrature",
                        "weierstrass"}),
    "surface": (["surface", "sample", "--name", "scherk_first_kind", "--grid",
                 "-2:2:-2:2:5:5", "--format", "obj"],
                _RUNS | {"core", "jetmath", "pde", "quadrature", "weierstrass"}),
}


@pytest.mark.parametrize("argv,modules", _COMMAND_MODULES.values(), ids=list(_COMMAND_MODULES))
def test_a_command_loads_only_the_modules_it_runs(argv, modules, tmp_path):
    code = (f"from solitonlab.cli import main\n"
            f"assert main({argv + ['--out', str(tmp_path / 'out')]!r}) == 0")
    assert _loaded_modules(code) == {"solitonlab"} | {f"solitonlab.{m}" for m in modules}


def test_every_export_resolves_and_star_import_yields_all():
    import solitonlab

    assert solitonlab.__all__ == list(solitonlab._EXPORTS)
    for name in solitonlab.__all__:
        module = importlib.import_module(f"solitonlab.{solitonlab._EXPORTS[name]}")
        assert getattr(solitonlab, name) is getattr(module, name)
    namespace = {}
    exec("from solitonlab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(solitonlab.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'not_an_export'"):
        solitonlab.not_an_export


def _recorded_texts() -> dict:
    """stdout, stderr and exit code of usage errors and ``--help`` texts, as
    the parser that added every subcommand's arguments up front printed them
    (80 columns)."""
    return json.loads((Path(__file__).with_name("cli_texts.json")).read_text())


@pytest.mark.parametrize("case", _recorded_texts()["cases"], ids=lambda c: " ".join(c["argv"]))
def test_usage_texts_match_the_recorded_texts(case, monkeypatch, capsys):
    recorded = _recorded_texts()["python"]
    if f"{sys.version_info[0]}.{sys.version_info[1]}" != recorded:
        pytest.skip(f"recorded under Python {recorded}; argparse's wording varies by version")
    monkeypatch.setenv("COLUMNS", "80")
    assert run(case["argv"], capsys) == (case["code"], case["out"], case["err"])


def test_family_defaults_parse_without_running_the_command():
    # scripts/residual_sweeps.py reads the default theta list this way
    args = build_parser().parse_args(["family"])
    assert args.theta_list == [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2]
    assert args.fn.__name__ == "_cmd_family"


def _readme_commands() -> list:
    """The argv of each ``solitonlab ...`` line of the README's CLI examples."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [line.split()[1:] for line in readme.read_text().splitlines()
            if line.startswith("solitonlab ")]


def test_readme_commands_run_without_scipy(tmp_path):
    # The README says numpy is the only runtime dependency: every documented
    # command exits 0 in an interpreter where importing scipy fails.
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"catalog", "residual", "surface", "geometry",
                                              "family", "identity"}
    env = _src_env()
    code = ("import sys; sys.modules['scipy'] = None; "
            "from solitonlab.cli import main; raise SystemExit(main(sys.argv[1:]))")
    for argv in commands:
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=tmp_path,
                             capture_output=True, text=True)
        assert out.returncode == 0, (argv, out.stderr)


# A NaN tolerance would let every check pass, and NaN or infinite inputs
# print NaN tables or fail deep inside a command.
@pytest.mark.parametrize("argv,message", [
    (["residual", "--solution", "scherk_minimal", "--backend", "central", "--h", "0.5",
      "--tolerance", "nan"], "error: argument --tolerance: must be finite, got nan\n"),
    (["residual", "--solution", "scherk_minimal", "--tolerance", "-1e-6"],
     "error: argument --tolerance: must be at least 0, got -1e-6\n"),
    (["residual", "--solution", "scherk_minimal", "--backend", "central", "--h", "inf"],
     "error: argument --h: must be finite, got inf\n"),
    (["residual", "--solution", "helicoid_first_kind", "--k", "nan"],
     "error: argument --k: must be finite, got nan\n"),
    (["residual", "--solution", "scherk_minimal", "--margin=-inf"],
     "error: argument --margin: must be finite, got -inf\n"),
    (["geometry", "classify", "--margin", "nan"],
     "error: argument --margin: must be finite, got nan\n"),
    (["family", "--tolerance", "nan"], "error: argument --tolerance: must be finite, got nan\n"),
    (["family", "--theta-list", "inf"], "error: argument --theta-list: must be finite, got inf\n"),
    (["family", "--theta-list", "0,nan"],
     "error: argument --theta-list: must be finite, got nan\n"),
    (["identity", "--name", "helicoid2_identity", "--zeta", "inf+1j"],
     "error: argument --zeta: must be finite, got inf+1j\n"),
    (["identity", "--name", "ram_cos_product", "--X", "nan", "--A", "0.2"],
     "error: argument --X: must be finite, got nan\n"),
    (["identity", "--name", "ram_arctan_sum", "--X", "1", "--A", "1+nanj"],
     "error: argument --A: must be finite, got 1+nanj\n"),
    (["identity", "--name", "ram_arctan_sum", "--X", "1+2j", "--A", "0.7"],
     "error: ram_arctan_sum needs real --X and --A\n"),
    (["surface", "sample", "--name", "scherk_first_kind", "--grid", "0:nan:0:1:3:3"],
     "error: grid bounds must be finite\n"),
    (["residual", "--solution", "scherk_minimal", "--grid=-inf:1:0:1:3:3"],
     "error: grid bounds must be finite\n"),
    (["residual", "--solution", "helicoid_first_kind", "--k", "0"],
     "error: helicoid_first_kind needs k != 0\n"),
    (["residual", "--solution", "wick_helicoid_first_kind", "--k", "0"],
     "error: wick_helicoid_first_kind needs k != 0\n"),
    (["geometry", "classify", "--solution", "helicoid_first_kind", "--k", "0"],
     "error: helicoid_first_kind needs k != 0\n"),
    (["geometry", "classify", "--solution", "wick_helicoid_first_kind", "--k", "-0.0"],
     "error: wick_helicoid_first_kind needs k != 0\n"),
    (["family", "--seed", "-1"], "error: argument --seed: must be at least 0, got -1\n"),
    (["identity", "--name", "ram_arctan_sum"],
     "error: argument --X: required by ram_arctan_sum\n"),
    (["identity", "--name", "ram_cos_product", "--X", "0.3"],
     "error: argument --A: required by ram_cos_product\n"),
    (["identity", "--name", "scherk_identity"],
     "error: argument --zeta: required by scherk_identity\n"),
])
def test_numeric_arguments_must_be_finite(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", message)
