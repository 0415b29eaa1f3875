"""Configuration parsing, report emission, and command-line behaviour.

The contract under test: a single schema-validated JSON document configures
a run (complex numbers as [re, im] pairs); malformed documents produce
line/field diagnostics and exit code 2; quadrature failures produce exit
code 1 with partial reports flagged; identical resolved configuration plus
seed reproduces every output byte; and the published CSV headers are fixed.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import leafcurrent
from leafcurrent.cli import run_command
from leafcurrent.config import (
    ConfigError,
    default_document,
    load_config,
    parse_config,
    parse_complex_token,
    schema_document,
)
from leafcurrent.currents import algebraic_profile, cauchy_profile, triangle_profile, zero_profile
from leafcurrent.reports import (
    ReportBundle,
    Table,
    bundle_to_json,
    config_hash,
    dumps_canonical,
    emit_reports,
    format_number,
    table_to_csv,
)

# ---------------------------------------------------------------------------
# Configuration documents
# ---------------------------------------------------------------------------


def test_default_document_resolves() -> None:
    cfg = parse_config(None)
    assert len(cfg.singularity_pairs) == 3
    assert cfg.singularity_pairs[0] == (1.0 + 0.0j, 1.0j)
    assert len(cfg.r_grid) == 12 and cfg.r_grid[0] == 0.5
    assert cfg.s_grid == tuple(float(2**k) for k in range(8))
    assert cfg.seed is not None  # Monte Carlo is on by default
    assert cfg.out_format == "csv"
    assert cfg.recurrence.targets[0] == 0
    gammas = sorted(s.gamma for s in cfg.singularities())
    assert gammas == pytest.approx([4.0 / 3.0, 2.0, 4.0])


def test_partial_document_merges_into_defaults() -> None:
    cfg = parse_config({"grids": {"rGrid": [0.5, 0.25]}, "seed": 7})
    assert cfg.r_grid == (0.5, 0.25)
    assert cfg.seed == 7
    # untouched sections keep their defaults
    assert cfg.s_grid == parse_config(None).s_grid


def test_unknown_field_is_diagnosed_by_name() -> None:
    with pytest.raises(ConfigError, match="currrent"):
        parse_config({"currrent": "zero"})


def test_grid_range_violation_names_the_field() -> None:
    with pytest.raises(ConfigError, match=r"grids\.rGrid"):
        parse_config({"grids": {"rGrid": [1.5]}})
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config({"grids": {"rGrid": [0.25, 0.5]}})
    with pytest.raises(ConfigError, match=r"grids\.rGrid: r = 1e-150 is below the smallest supported radius"):
        parse_config({"grids": {"rGrid": [0.5, 1e-150]}})


def test_monte_carlo_without_seed_is_rejected() -> None:
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"seed": None, "recurrence": {"monteCarlo": True}})
    # switching Monte Carlo off makes the null seed legal
    cfg = parse_config({"seed": None, "recurrence": {"monteCarlo": False}})
    assert cfg.seed is None


def test_profile_parameter_family_mismatch() -> None:
    with pytest.raises(ConfigError, match=r"current\.scale"):
        parse_config({"current": {"family": "triangle", "scale": 2.0}})


def test_real_eigenvalue_ratio_is_rejected() -> None:
    with pytest.raises(ConfigError, match=r"singularity\.0"):
        parse_config({"singularity": [[[1.0, 0.0], [2.0, 0.0]]]})


def test_json_syntax_error_reports_line_and_column(tmp_path: pathlib.Path) -> None:
    path = tmp_path / "broken.json"
    path.write_text('{\n  "grids": \n}')
    with pytest.raises(ConfigError, match=r"line 3 column 1"):
        load_config(str(path))


def test_complex_token_parsing() -> None:
    assert parse_complex_token("i") == 1j
    assert parse_complex_token("1+i") == 1 + 1j
    assert parse_complex_token("-1+i") == -1 + 1j
    assert parse_complex_token("2-3i") == 2 - 3j
    with pytest.raises(ConfigError):
        parse_complex_token("one")


def test_custom_current_object() -> None:
    cfg = parse_config(
        {"current": {"family": "cauchy", "scale": 2.0, "weight": 3.0, "atom": [0.1, 0.0]}}
    )
    sing = cfg.singularities()[0]
    (label, spec), = cfg.currents(sing).items()
    assert label == "cauchy"
    assert spec.weights == (3.0,)
    assert spec.atoms == (0.1 + 0.0j,)


def test_every_profile_parameter_reaches_its_factory() -> None:
    from leafcurrent.config import _PROFILE_FAMILIES

    # non-default values, so a parameter that is dropped or routed to the
    # wrong factory argument changes the profile
    docs = {
        "triangle": {"center": 0.2, "halfWidth": 0.5, "height": 3.0},
        "cauchy": {"center": 0.2, "scale": 2.0, "height": 3.0},
        "algebraic": {"center": 0.2, "exponent": 2.5, "height": 3.0},
        "zero": {},
    }
    direct = {
        "triangle": triangle_profile(center=0.2, half_width=0.5, height=3.0),
        "cauchy": cauchy_profile(center=0.2, scale=2.0, height=3.0),
        "algebraic": algebraic_profile(exponent=2.5, center=0.2, height=3.0),
        "zero": zero_profile(),
    }
    assert list(_PROFILE_FAMILIES) == list(docs)
    ys = np.linspace(-4.0, 4.0, 33)
    U, V = np.array([-1.0, 0.2, 3.0]), np.array([0.1, 1.0, 5.0])
    for family, params in docs.items():
        cfg = parse_config({"current": {"family": family, **params}})
        ((label, spec),) = cfg.currents(cfg.singularities()[0]).items()
        assert label == family
        (profile,) = spec.profiles
        np.testing.assert_array_equal(profile.evaluate(ys), direct[family].evaluate(ys))
        np.testing.assert_array_equal(
            profile.extension(U, V), direct[family].extension(U, V)
        )
    # the schema is a data file, so it restates the family names
    schema = schema_document()
    assert schema["$defs"]["currentObject"]["properties"]["family"]["enum"] == list(docs)
    assert schema["properties"]["current"]["oneOf"][0]["enum"] == list(docs)


def test_builtin_current_name_selects_single_current() -> None:
    cfg = parse_config({"current": "zero"})
    sing = cfg.singularities()[0]
    assert list(cfg.currents(sing)) == ["zero"]
    # null current -> the three nonzero built-ins, in fixed order
    cfg = parse_config(None)
    assert list(cfg.currents(sing)) == ["triangle", "cauchy", "algebraic"]


def test_lambda_override_replaces_the_sweep() -> None:
    cfg = parse_config(None, {"kernel": {"lambdaOverride": [0.0, 1.0]}})
    assert cfg.singularity_pairs == ((1.0 + 0.0j, 1.0j),)


def test_schema_document_loads_titled_package_schema() -> None:
    assert schema_document()["title"]


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def test_format_number_round_trips_doubles() -> None:
    assert format_number(0.75) == "0.75"
    assert format_number(7) == "7"
    for x in (1.0 / 3.0, 2.0**-40, 1e-300, 6.02e23, -math.pi):
        assert float(format_number(x)) == x


def test_table_row_width_is_enforced() -> None:
    with pytest.raises(ValueError, match="row width"):
        Table("bad", ("a", "b"), ((1.0,),))


def test_csv_bytes_are_exact() -> None:
    table = Table("demo", ("r", "F"), ((0.5, 0.75), (0.25, 1.0 / 3.0)))
    assert table_to_csv(table) == "r,F\n0.5,0.75\n0.25,0.33333333333333331\n"


def test_csv_rejects_cells_needing_quoting() -> None:
    table = Table("demo", ("name",), (("a,b",),))
    with pytest.raises(ValueError, match="quoting"):
        table_to_csv(table)


def test_canonical_json_sorts_keys_and_formats_floats() -> None:
    text = dumps_canonical({"b": 0.75, "a": [1, None, True]})
    assert text == '{"a":[1,null,true],"b":0.75}'


def test_canonical_json_indented_bytes_are_exact() -> None:
    doc = {
        "b": {"empty_map": {}, "empty_list": [], "nested": [{}, [], [None, True, False]]},
        "a": [0.1, 'x"y', 3, None],
        "c": None,
        "d": True,
    }
    assert dumps_canonical(doc, indent=2) == (
        '{\n'
        '  "a": [\n'
        '    0.10000000000000001,\n'
        '    "x\\"y",\n'
        '    3,\n'
        '    null\n'
        '  ],\n'
        '  "b": {\n'
        '    "empty_list": [],\n'
        '    "empty_map": {},\n'
        '    "nested": [\n'
        '      {},\n'
        '      [],\n'
        '      [\n'
        '        null,\n'
        '        true,\n'
        '        false\n'
        '      ]\n'
        '    ]\n'
        '  },\n'
        '  "c": null,\n'
        '  "d": true\n'
        '}'
    )
    assert dumps_canonical(doc) == (
        '{"a":[0.10000000000000001,"x\\"y",3,null],'
        '"b":{"empty_list":[],"empty_map":{},"nested":[{},[],[null,true,false]]},'
        '"c":null,"d":true}'
    )


def test_bundle_json_mirrors_tables() -> None:
    table = Table("demo", ("x",), ((2.0**-12,),))
    bundle = ReportBundle({"seed": 1}, (table,), ("note",))
    doc = json.loads(bundle_to_json(bundle))
    assert doc["tables"][0]["name"] == "demo"
    assert doc["tables"][0]["rows"] == [[2.0**-12]]
    assert doc["warnings"] == ["note"]


def test_emit_reports_file_layout(tmp_path: pathlib.Path) -> None:
    table = Table("demo", ("x",), ((1.0,),))
    bundle = ReportBundle({"seed": 1}, (table,), ())
    csv_paths = emit_reports(bundle, tmp_path / "csv", "csv")
    assert [p.name for p in csv_paths] == ["demo.csv", "metadata.json"]
    json_paths = emit_reports(bundle, tmp_path / "json", "json")
    assert [p.name for p in json_paths] == ["report.json"]
    with pytest.raises(ValueError):
        emit_reports(bundle, tmp_path, "xml")


def test_config_hash_masks_output_directory_only() -> None:
    base = parse_config(None).resolved
    moved = parse_config({"outputs": {"directory": "/elsewhere"}}).resolved
    reseeded = parse_config({"seed": 99}).resolved
    refined = parse_config({"kernel": {"refine": True}}).resolved
    assert config_hash(base) == config_hash(moved)
    assert config_hash(base) != config_hash(reseeded)
    assert config_hash(base) != config_hash(refined)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _write(path: pathlib.Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def test_oracle_prints_documented_example(tmp_path, capsys) -> None:
    rc = run_command(["oracle", "--s0", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "computed 0.75, expected 0.75" in out
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert lines[0] == "s0,computed,expected,abs_error"
    row = lines[1].split(",")
    assert float(row[0]) == 1.0
    assert abs(float(row[1]) - 0.75) < 1e-8


def test_profile_zero_current_writes_all_zero_csv(tmp_path) -> None:
    config = _write(
        tmp_path / "c.json",
        {"current": "zero", "grids": {"rGrid": [0.5, 0.25, 0.125]}},
    )
    rc = run_command(["profile", "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "profile_zero.csv").read_text().splitlines()
    assert lines[0] == "r,F,G,F_err,G_err,monotone_violation"
    assert len(lines) == 4
    for line in lines[1:]:
        r, *rest = line.split(",")
        assert all(float(cell) == 0.0 for cell in rest)


def test_kernel_bound_refine_adds_drift_column(tmp_path) -> None:
    config = _write(
        tmp_path / "c.json", {"grids": {"sGrid": [8.0, 16.0], "yGrid": [0.0]}}
    )
    rc = run_command(
        [
            "kernel-bound", "--config", config,
            "--gamma-from-lambda", "i", "--refine",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "out" / "kernel_l0_1.csv").read_text().splitlines()
    assert lines[0] == "s,y,K,K_err,bound_ratio,refinementDrift"
    # bound ratios are finite and positive; drift is a constant column
    drifts = {line.split(",")[5] for line in lines[1:]}
    assert len(drifts) == 1
    for line in lines[1:]:
        assert 0.0 < float(line.split(",")[4]) < 10.0


@pytest.mark.parametrize(
    "document, flags",
    [
        ({}, []),
        ({"tolerances": {"relTol": 1e-7, "absTol": 1e-12}}, []),
        ({}, ["--tol", "1e-7"]),
    ],
    ids=["default", "config", "flag"],
)
def test_stages_share_one_tolerance_rule(tmp_path, monkeypatch, document, flags) -> None:
    # kernel-bound and profile receive the config tolerance only when it
    # differs from the default document; otherwise None, each stage's own
    # relative default
    import leafcurrent.cli as cli

    seen = {}

    def recording(name, real):
        def call(*args, tol=None, **kwargs):
            seen[name] = tol
            return real(*args, tol=tol, **kwargs)
        return call

    monkeypatch.setattr(cli, "kernel_report", recording("kernel", cli.kernel_report))
    monkeypatch.setattr(cli, "mass_profile", recording("profile", cli.mass_profile))
    config = _write(
        tmp_path / "c.json",
        {**document, "current": "zero", "grids": {"sGrid": [8.0], "yGrid": [0.0], "rGrid": [0.5]}},
    )
    for command in (["kernel-bound", "--gamma-from-lambda", "i"], ["profile"]):
        argv = [*command, "--config", config, *flags, "--out", str(tmp_path / "out")]
        assert run_command(argv) == 0
    if not document and not flags:
        assert seen == {"kernel": None, "profile": None}
    else:
        cfg = load_config(config, {"tolerances": {"relTol": 1e-7}} if flags else None)
        assert cfg.tolerance.rel_tol == 1e-7
        assert seen == {"kernel": cfg.tolerance, "profile": cfg.tolerance}


def test_default_kernel_cells_are_relatively_accurate(tmp_path) -> None:
    # at s = 128, y = 1e4 the kernel is 1.1e-8: an absolute 1e-10 target
    # would leave K_err/K near 1.8e-4, kernel_K's relative default 1e-6
    config = _write(
        tmp_path / "c.json", {"grids": {"sGrid": [128.0], "yGrid": [0.0, 10000.0, -10000.0]}}
    )
    rc = run_command(
        ["kernel-bound", "--config", config, "--gamma-from-lambda=-1+i", "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    lines = (tmp_path / "out" / "kernel_lm1_1.csv").read_text().splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        s, y, K, K_err = (float(cell) for cell in line.split(",")[:4])
        assert 0.0 < K_err <= 1e-5 * K


def test_identical_config_and_seed_reproduce_bytes(tmp_path) -> None:
    config = _write(
        tmp_path / "c.json",
        {
            "grids": {"rGrid": [2.0**-7, 2.0**-8], "RGrid": [5.0]},
            "recurrence": {"nT": 16, "nTheta": 256, "horizon": 8.0},
        },
    )
    rc1 = run_command(["recurrence", "--config", config, "--out", str(tmp_path / "a")])
    rc2 = run_command(["recurrence", "--config", config, "--out", str(tmp_path / "b")])
    rc3 = run_command(
        ["recurrence", "--config", config, "--seed", "7", "--out", str(tmp_path / "c")]
    )
    assert rc1 == rc2 == rc3 == 0
    a = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    b = {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
    c = {p.name: p.read_bytes() for p in (tmp_path / "c").iterdir()}
    assert a == b
    name = "recurrence_visibility_origin.csv"
    assert a[name] != c[name]  # the seed steers the Monte Carlo angles
    meta_a = json.loads(a["metadata.json"])
    meta_c = json.loads(c["metadata.json"])
    assert meta_a["metadata"]["configHash"] != meta_c["metadata"]["configHash"]


def test_recurrence_stage_computes_horizon_rows_once(tmp_path, monkeypatch) -> None:
    # the horizon rows do not depend on the visibility target, so a stage
    # with two targets evaluates M_R once per horizon, shared with the
    # pushforward normalization
    import leafcurrent.recurrence as recurrence

    calls = []
    real_M_of_R = recurrence.M_of_R

    def counted(R):
        calls.append(R)
        return real_M_of_R(R)

    monkeypatch.setattr(recurrence, "M_of_R", counted)
    R_grid = [5.0, 10.0]
    config = _write(
        tmp_path / "c.json",
        {
            "grids": {"rGrid": [2.0**-7, 2.0**-8], "RGrid": R_grid},
            "recurrence": {"nT": 16, "nTheta": 256, "horizon": 8.0, "targets": [0, [[0.5, 0.0], [0.0, 0.0]]]},
        },
    )
    assert run_command(["recurrence", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert sorted(calls) == R_grid
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert "recurrence_visibility_origin.csv" in names
    assert "recurrence_visibility_x0p5_0_0_0.csv" in names
    rows = (tmp_path / "out" / "recurrence_horizon.csv").read_text().splitlines()
    assert len(rows) == 1 + len(R_grid)


def test_metadata_hash_matches_resolved_config(tmp_path, capsys) -> None:
    rc = run_command(["oracle", "--s0", "2", "--out", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "metadata.json").read_text())["metadata"]
    cfg = parse_config(None, {"oracle": {"s0": [2.0]}})
    assert meta["configHash"] == config_hash(cfg.resolved)
    assert meta["seed"] == cfg.seed
    assert meta["command"] == "oracle"
    assert meta["toolVersion"] == leafcurrent.__version__


def test_pyproject_version_is_the_package_version() -> None:
    # a plain text read: tomllib is missing on Python 3.10, which the package supports
    pyproject = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = pyproject.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version\s*=\s*"([^"]*)"\s*$', project, re.MULTILINE) == [leafcurrent.__version__]


def test_config_errors_exit_2(tmp_path, capsys) -> None:
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text('{"grids": {"rGrid": [2.0]}}')
    assert run_command(["profile", "--config", str(bad_schema)]) == 2
    assert "grids.rGrid" in capsys.readouterr().err

    bad_json = tmp_path / "broken.json"
    bad_json.write_text('{"grids": ')
    assert run_command(["profile", "--config", str(bad_json)]) == 2
    assert "line 1" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert run_command(["profile", "--config", str(missing)]) == 2
    capsys.readouterr()

    assert run_command(["oracle", "--s0", "1", "--out", "/proc/nope/sub"]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys) -> None:
    assert run_command(["bogus-command"]) == 2
    assert run_command(["oracle", "--format", "xml"]) == 2
    capsys.readouterr()


def test_quadrature_failure_exits_1_with_flagged_partial_reports(tmp_path, capsys) -> None:
    config = _write(
        tmp_path / "c.json",
        {
            "tolerances": {"relTol": 1e-13, "absTol": 1e-15, "maxEvals": 150},
            "grids": {"sGrid": [8.0], "yGrid": [0.0]},
        },
    )
    rc = run_command(
        ["kernel-bound", "--config", config, "--gamma-from-lambda", "i",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    capsys.readouterr()
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["warnings"]  # the failure is flagged, exactly once per message
    assert len(meta["warnings"]) == len(set(meta["warnings"]))


def test_package_exports_the_union_of_module_exports() -> None:
    import importlib
    import pkgutil

    import leafcurrent

    union = set()
    for info in pkgutil.iter_modules(leafcurrent.__path__):
        # the CLI's entry points are not re-exported, and importing __main__ runs them
        if info.name not in ("cli", "__main__"):
            union |= set(importlib.import_module(f"leafcurrent.{info.name}").__all__)
    assert len(set(leafcurrent.__all__)) == len(leafcurrent.__all__)
    assert set(leafcurrent.__all__) == {"__version__"} | union


def _checkout_env() -> dict:
    """The environment of a child interpreter that imports this checkout's package."""
    src = str(pathlib.Path(leafcurrent.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point_runs_the_cli(tmp_path) -> None:
    # `python -m leafcurrent` must run the CLI, not import it and exit silently
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "leafcurrent", "oracle", "--format", "json", "--out", str(out)],
        capture_output=True, text=True, env=_checkout_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "report.json").read_text())
    assert [t["name"] for t in doc["tables"]] == ["oracle"]


_OPTIONAL_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.special")


def _loaded_after(snippet: str, timeout: float = 120) -> tuple[str, set[str]]:
    """Run ``snippet`` in a fresh interpreter; return the last line it printed
    and which of ``_OPTIONAL_SCIPY`` it left in ``sys.modules``."""
    probe = f"{snippet}\nimport json, sys\nprint(json.dumps([m for m in {_OPTIONAL_SCIPY!r} if m in sys.modules]))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_checkout_env(), timeout=timeout
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return (lines[-2] if len(lines) > 1 else ""), set(json.loads(lines[-1]))


def test_cli_import_leaves_scipy_integrate_and_optimize_unloaded() -> None:
    # nothing in the library imports scipy.integrate or scipy.optimize, and
    # scipy.special waits for the first hypergeometric value: on a 2-core
    # host `import numpy, scipy, leafcurrent.cli` takes 0.2-0.3 s and 40 MB,
    # and importing the three modules too adds about 0.45 s and 43 MB
    # (scipy.special alone 0.15-0.2 s and 17 MB)
    assert _loaded_after("import leafcurrent.cli") == ("", set())


def test_full_run_and_1d_quadratures_leave_scipy_integrate_unloaded(tmp_path) -> None:
    # integrate_1d runs on the library's own panel loop, not QUADPACK: a whole
    # default `leafcurrent all` run, the boundary integrability functional and
    # the Poisson integral never load scipy.integrate; the kernel and the
    # algebraic current load scipy.special
    printed, loaded = _loaded_after(
        "import numpy as np; from leafcurrent.cli import run_command; "
        "from leafcurrent.currents import builtin_currents, integrability_mass, poisson_eval; "
        "from leafcurrent.geometry import normalize_singularity; "
        f"code = run_command(['all', '--out', {str(tmp_path / 'all')!r}]); "
        "sing = normalize_singularity(1, 1j); "
        "mass = integrability_mass(builtin_currents(sing)['cauchy'], sing).chi_mass; "
        "one = poisson_eval(np.ones_like, 0.5, 1.0).value; "
        "print(code, mass > 0.0, abs(one - 1.0) < 1e-9)",
        timeout=300,
    )
    assert printed == "0 True True"
    assert loaded == {"scipy.special"}
    assert (tmp_path / "all" / "oracle.csv").exists()


def test_kernel_cross_check_leaves_scipy_integrate_and_optimize_unloaded() -> None:
    # kernel_uv_form is one integrate_2d call: no QUADPACK, no root finder,
    # and no hypergeometric function
    printed, loaded = _loaded_after(
        "from leafcurrent.geometry import normalize_singularity; "
        "from leafcurrent.kernels import kernel_uv_form; "
        "print(kernel_uv_form(normalize_singularity(1, 1j), 2.0, 10.0) > 0.0)"
    )
    assert (printed, loaded) == ("True", set())


def _stage_runs(stages: dict[str, tuple[str, dict]], tmp_path) -> str:
    """A probe snippet that runs each CLI stage on its config and prints the exit codes."""
    runs = []
    for name, (command, doc) in stages.items():
        config = _write(tmp_path / f"{name}.json", doc)
        runs.append(f"run_command([{command!r}, '--config', {config!r}, '--out', {str(tmp_path / name)!r}])")
    return f"from leafcurrent.cli import run_command; print([{', '.join(runs)}])"


def test_leaf_statistics_stages_leave_scipy_integrate_and_optimize_unloaded(tmp_path) -> None:
    # M_R is a closed form and rho_solver is the library's own: running
    # regimes and recurrence imports none of the three modules
    doc = {
        "regimes": {"sampleCount": 200},
        "grids": {"rGrid": [2.0**-7], "RGrid": [5.0, 20.0]},
        "recurrence": {"nT": 16, "nTheta": 256, "horizon": 8.0},
    }
    snippet = _stage_runs({"regimes": ("regimes", doc), "recurrence": ("recurrence", doc)}, tmp_path)
    assert _loaded_after(snippet) == ("[0, 0]", set())
    assert (tmp_path / "recurrence" / "recurrence_horizon.csv").exists()


def test_closed_form_profiles_leave_scipy_special_unloaded(tmp_path) -> None:
    # the Cauchy and triangle extensions and the oracle need no
    # hypergeometric function
    small = {"singularity": [[[1, 0], [0, 1]]], "grids": {"rGrid": [2.0**-2]}}
    snippet = _stage_runs(
        {
            "cauchy": ("profile", {**small, "current": "cauchy"}),
            "triangle": ("profile", {**small, "current": "triangle"}),
            "oracle": ("oracle", small),
        },
        tmp_path,
    )
    assert _loaded_after(snippet) == ("[0, 0, 0]", set())
    assert (tmp_path / "triangle" / "profile_triangle.csv").exists()


def test_kernel_and_algebraic_extension_load_scipy_special(tmp_path) -> None:
    # each route to hyp2f1, in its own interpreter, imports scipy.special
    doc = {"singularity": [[[1, 0], [0, 1]]], "grids": {"sGrid": [1.0], "yGrid": [0.0, 10.0]}}
    snippet = _stage_runs({"kernel": ("kernel-bound", doc)}, tmp_path)
    assert _loaded_after(snippet) == ("[0]", {"scipy.special"})
    printed, loaded = _loaded_after(
        "from leafcurrent.currents import algebraic_profile, profile_extension; "
        "print(profile_extension(algebraic_profile(), 0.5, 1.0) > 0.0)"
    )
    assert (printed, loaded) == ("True", {"scipy.special"})


def test_regimes_stage_warns_when_the_boundary_strip_has_no_crossing(tmp_path, capsys) -> None:
    # at lambda = 5+0.2i (gamma = 1.013) the default thresholds put the
    # boundary strip's crossing outside the comparability band
    config = _write(tmp_path / "c.json", {"singularity": [[[1, 0], [5, 0.2]]], "regimes": {"sampleCount": 500}})
    assert run_command(["regimes", "--config", config, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rows = (tmp_path / "out" / "regimes.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == [
        "part1-radius", "part1-height", "far", "near-origin", "diagonal",
    ]
    assert (tmp_path / "out" / "rho_residuals.csv").exists()
    warned = json.loads((tmp_path / "out" / "metadata.json").read_text())["warnings"]
    strip = [w for w in warned if w.startswith("regime boundary-strip:")]
    assert len(strip) == 1
    assert "violates the comparability band" in strip[0]


def test_env_var_sets_default_output_dir(tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.setenv("LEAFCURRENT_OUT", str(tmp_path / "from-env"))
    assert run_command(["oracle", "--s0", "1"]) == 0
    assert (tmp_path / "from-env" / "oracle.csv").exists()
    # an explicit flag wins over the environment
    assert run_command(["oracle", "--s0", "1", "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "oracle.csv").exists()
    capsys.readouterr()


def test_json_format_writes_single_mirror(tmp_path, capsys) -> None:
    config = _write(tmp_path / "c.json", {"regimes": {"sampleCount": 200}})
    rc = run_command(
        ["regimes", "--config", config, "--format", "json", "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    names = [t["name"] for t in doc["tables"]]
    assert names == ["regimes", "rho_residuals"]
    regimes_rows = doc["tables"][0]["rows"]
    assert len(regimes_rows) == 6
    # level-crossing residuals sit at the extended-precision floor
    for row in doc["tables"][1]["rows"]:
        assert row[3] < 1e-10
