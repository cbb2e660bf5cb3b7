import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hiermor.cli import _execute_sweep, build_hierarchy, main, validate_run
from hiermor.config import (
    ConfigError,
    RunConfig,
    SweepConfig,
    load_config,
    parse_config,
    sample_parameters,
)
from hiermor.fem import MeshSpec, ParameterBox, ParameterPoint, TimeGrid
from hiermor.hierarchy import HierarchyConfig, QueryRecord
from hiermor.kernel import KernelConfig
from hiermor.report import BRANCH_COLORS, summary_text, timing_scatter_svg

# the shipped configs, found from this file so that any working directory will do
ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIG = ROOT / "configs" / "desk.ini"

SMALL_CONFIG = """
[mesh]
n_cells = 32
[time]
n_steps = 32
[parameters]
pe_max = 10.0
[hierarchy]
trust_threshold = 6
retrain_every = 3
[sweep]
n_queries = 12
seed = 7
"""


def write_small_config(tmp_path, extra="", body=SMALL_CONFIG):
    path = tmp_path / "run.ini"
    path.write_text(body + extra)
    return path


# -- parsing ----------------------------------------------------------------------


def test_defaults_round_trip():
    config = parse_config("[sweep]\nseed = 1\n")
    assert config.mesh.n_cells == 256
    assert config.grid.n_steps == 256
    assert config.box == ParameterBox()
    assert config.hierarchy.rom_tol == 1e-2
    assert config.hierarchy.trust_threshold == 50
    assert config.kernel.shape == 0.5
    assert config.sweep.n_queries == 200


def test_annotated_example_config_parses():
    config = load_config(DESK_CONFIG)
    assert config.sweep.seed == 42
    assert config.hierarchy.retrain_every == 10


def test_annotated_example_config_shows_the_defaults():
    assert load_config(DESK_CONFIG) == parse_config("[sweep]\nseed = 42\n")


def test_unknown_key_reports_line():
    text = "[mesh]\nn_cells = 16\nn_cell = 8\n[sweep]\nseed = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "n_cell" in str(err.value)
    assert err.value.lineno == 3


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_line_numbers_count_newlines_only(sep):
    # str.splitlines would break here too and cite line 4; grep -n says 3
    with pytest.raises(ConfigError, match="duplicate key mesh.n_cells") as err:
        parse_config(f"[mesh]\nn_cells = 4{sep}\nn_cells = -4\n")
    assert err.value.lineno == 3


def test_crlf_line_numbers():
    with pytest.raises(ConfigError, match="duplicate key mesh.n_cells") as err:
        parse_config("[mesh]\r\nn_cells = 4\r\nn_cells = -4\r\n")
    assert err.value.lineno == 3


def test_bad_value_reports_line():
    text = "[mesh]\nn_cells = soon\n[sweep]\nseed = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.lineno == 2


@pytest.mark.parametrize(
    "section, lineno",
    [
        ("[mesh]\nn_cells = 1\n", 2),
        ("[hierarchy]\nrom_tol = 1e-2\nretrain_every = 0\n", 3),
        ("[hierarchy]\nretrain_every = 0\n", 2),
        ("[parameters]\nda_min = 0.1\npe_min = -1\n", 3),
        ("[time]\nn_steps = 16\nt_end = -1\n", 3),
        ("[kernel]\nshape = 0.5\nmax_centers = 0\n", 3),
        # 2 shape^2, the kernel's divisor, underflows to 0 or overflows to inf
        ("[kernel]\nmax_centers = 5\nshape = 1e-170\n", 3),
        ("[kernel]\nshape = 1e154\n", 2),
        # da_min keeps its default 0.1 and is not in the file: the section's
        # first key is cited.
        ("[parameters]\nda_max = 0.05\n", 2),
    ],
    ids=["n_cells", "retrain_every", "retrain_every_first", "pe_min", "t_end", "max_centers",
         "shape_tiny", "shape_huge", "da_min_default"],
)
def test_invalid_semantic_value_reports_line(section, lineno):
    with pytest.raises(ConfigError) as err:
        parse_config(section + "[sweep]\nseed = 1\n")
    assert err.value.lineno == lineno


@pytest.mark.parametrize(
    "line, message",
    [
        ("enrich_max_modes = -1", "enrich_max_modes must be >= 1"),
        ("enrich_max_modes = 0", "enrich_max_modes must be >= 1"),
        ("enrich_energy_tol = 2.0", r"enrich_energy_tol must lie in \[0, 1\)"),
        ("enrich_energy_tol = 1.0", r"enrich_energy_tol must lie in \[0, 1\)"),
        ("enrich_energy_tol = -1e-6", r"enrich_energy_tol must lie in \[0, 1\)"),
    ],
    ids=["max_modes_negative", "max_modes_zero", "energy_tol_above_one", "energy_tol_one",
         "energy_tol_negative"],
)
def test_enrichment_settings_out_of_range_report_line(line, message):
    text = f"[hierarchy]\nrom_tol = 1e-2\n{line}\n[sweep]\nseed = 1\n"
    with pytest.raises(ConfigError, match="hierarchy." + message) as err:
        parse_config(text)
    assert err.value.lineno == 3


def test_missing_seed_for_random_sampler():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("[mesh]\nn_cells = 16\n")


def test_negative_seed_reports_line():
    with pytest.raises(ConfigError, match="seed") as err:
        parse_config("[mesh]\nn_cells = 16\n[sweep]\nseed = -1\n")
    assert err.value.lineno == 4


def test_unknown_sampler_cites_line_and_names_samplers():
    with pytest.raises(ConfigError) as err:
        parse_config("[sweep]\nsampler = sobol\n")
    assert err.value.lineno == 2
    assert "uniform_random, halton, grid" in str(err.value)
    assert "'sobol'" in str(err.value)


@pytest.mark.parametrize(
    "kwargs",
    [{"sampler": "sobol"}, {"n_queries": -1, "seed": 1}, {"seed": -1}],
    ids=["sampler", "n_queries", "seed"],
)
def test_sweep_config_rejects_invalid_fields(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SweepConfig(**kwargs)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "make, name",
    [(HierarchyConfig, "rom_tol"), (HierarchyConfig, "validation_slack"),
     (KernelConfig, "shape"), (KernelConfig, "nugget"), (KernelConfig, "greedy_tol")],
    ids=["rom_tol", "validation_slack", "shape", "nugget", "greedy_tol"],
)
def test_python_api_rejects_non_finite_fields(make, name, value):
    # the message starts with the field name, as parse_config's line lookup needs
    with pytest.raises(ValueError, match=f"^{name} "):
        make(**{name: value})


def _shipped(n_cells=256, n_steps=256, **hierarchy):
    """The RunConfig that the shipped desk config and its variants spell out."""
    box = ParameterBox(da_min=0.1, da_max=10.0, pe_min=1.0, pe_max=100.0)
    return RunConfig(
        mesh=MeshSpec(n_cells),
        grid=TimeGrid(1.0, n_steps),
        box=box,
        hierarchy=HierarchyConfig(**{
            "rom_tol": 1e-2, "retrain_every": 10, "trust_threshold": 50,
            "trust_mode": "size_threshold", "validation_slack": 1.0, "enrich_energy_tol": 1e-6,
            "enrich_max_modes": 25, "warm_start_corners": False, **hierarchy}),
        kernel=KernelConfig(shape=0.5, max_centers=200, greedy_tol=None, nugget=0.0,
                            criterion="f"),
        sweep=SweepConfig(n_queries=200, sampler="uniform_random", seed=42),
        out_dir=Path("hiermor-out"),
        save_model=False,
    )


@pytest.mark.parametrize(
    "path, expected",
    [
        ("configs/desk.ini", _shipped()),
        ("perfbench/workloads/desk.ini", _shipped()),
        ("perfbench/workloads/certified.ini", _shipped(trust_mode="always_validate")),
        ("perfbench/workloads/tight.ini", _shipped(rom_tol=1e-9, trust_mode="never")),
        ("perfbench/workloads/large.ini", _shipped(n_cells=2048, n_steps=1024)),
    ],
    ids=["configs-desk", "desk", "certified", "tight", "large"],
)
def test_shipped_config_parses_to_expected(path, expected):
    assert load_config(ROOT / path) == expected


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("n_cells = 16\n")
    assert err.value.lineno == 1


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[mesh]\nn_cells = 16\nn_cells = 32\n")


# -- samplers ----------------------------------------------------------------------


def test_uniform_sampler_deterministic():
    box = ParameterBox()
    sweep = SweepConfig(n_queries=10, sampler="uniform_random", seed=5)
    a = sample_parameters(sweep, box)
    b = sample_parameters(sweep, box)
    assert a == b
    assert all(box.contains(mu) for mu in a)
    # the leading draws at the desk seed, on which the sweep's answers depend
    pts = sample_parameters(SweepConfig(n_queries=9, sampler="uniform_random", seed=42), box)
    assert [(mu.da.hex(), mu.pe.hex()) for mu in pts[:3]] == [
        ("0x1.f0c74f3532263p+2", "0x1.63977b3e1e6b9p+5"),
        ("0x1.13342d9d692dep+3", "0x1.1828619dca08dp+6"),
        ("0x1.0848774eb1cdep+0", "0x1.8658b1076c7c5p+6"),
    ]


def test_uniform_sampler_without_seed_raises():
    config = RunConfig()  # constructible: the seed is checked where the sweep draws
    assert config.sweep.sampler == "uniform_random" and config.sweep.seed is None
    with pytest.raises(ValueError, match="seed"):
        sample_parameters(SweepConfig(n_queries=2), ParameterBox())
    with pytest.raises(ValueError, match="seed"):
        _execute_sweep(RunConfig(mesh=MeshSpec(16), grid=TimeGrid(1.0, 16)))


def test_halton_and_grid_samplers():
    box = ParameterBox()
    leading = {
        "halton": [("0x1.999999999999ap-4", "0x1.0000000000000p+0"),
                   ("0x1.4333333333333p+2", "0x1.1000000000000p+5"),
                   ("0x1.499999999999ap+1", "0x1.0c00000000000p+6")],
        "grid": [("0x1.999999999999ap-4", "0x1.0000000000000p+0"),
                 ("0x1.999999999999ap-4", "0x1.9400000000000p+5"),
                 ("0x1.999999999999ap-4", "0x1.9000000000000p+6")],
    }
    for sampler in ("halton", "grid"):
        sweep = SweepConfig(n_queries=9, sampler=sampler, seed=42)
        pts = sample_parameters(sweep, box)
        assert len(pts) == 9
        assert all(box.contains(mu) for mu in pts)
        assert len(set(pts)) == 9
        assert [(mu.da.hex(), mu.pe.hex()) for mu in pts[:3]] == leading[sampler]


def test_zero_queries():
    assert sample_parameters(SweepConfig(n_queries=0, seed=1), ParameterBox()) == []


def test_default_run_config_runs_a_sweep():
    config = RunConfig(mesh=MeshSpec(16), grid=TimeGrid(1.0, 16),
                       sweep=SweepConfig(n_queries=30, seed=1))
    assert config.kernel == KernelConfig()
    state, records = _execute_sweep(config)
    assert len(records) == 30
    assert state.model is not None  # refit with the default kernel settings


# -- cli run ------------------------------------------------------------------------


def test_run_single_query_is_fom(tmp_path):
    path = write_small_config(
        tmp_path,
        body="[mesh]\nn_cells = 24\n[time]\nn_steps = 24\n[sweep]\nn_queries = 1\nseed = 3\n",
    )
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    with open(out / "queries.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["model_used"] == "FOM"


def test_run_outputs_and_determinism(tmp_path):
    path = write_small_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(path), "--out-dir", str(out1)]) == 0
    assert main(["run", str(path), "--out-dir", str(out2)]) == 0
    for name in ("queries.csv", "summary.txt", "timings.svg"):
        assert (out1 / name).exists()

    def strip_times(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_time")
        return [[c for i, c in enumerate(row) if i != drop] for row in rows]

    assert strip_times(out1 / "queries.csv") == strip_times(out2 / "queries.csv")


def test_summary_recomputable_from_csv(tmp_path):
    # trust_threshold = 6 answers the later queries by size, uncertified; under
    # always_validate every row has a certificate, rejected ones on RB and FOM rows;
    # never at rom_tol 1e-3 answers two queries by FOM, with different bounds
    for mode, tol in (("size_threshold", 1e-2), ("always_validate", 1e-2), ("never", 1e-3)):
        path = write_small_config(tmp_path, f"[hierarchy]\ntrust_mode = {mode}\nrom_tol = {tol}\n")
        out = tmp_path / mode
        assert main(["run", str(path), "--out-dir", str(out)]) == 0
        with open(out / "queries.csv") as fh:
            rows = list(csv.DictReader(fh))
        summary = (out / "summary.txt").read_text()
        parsed = dict(
            line.split(": ", 1) for line in summary.strip().splitlines()
        )
        assert int(parsed["queries"]) == len(rows)
        for branch in ("FOM", "RB", "ML"):
            times = [float(r["wall_time"]) for r in rows if r["model_used"] == branch]
            assert int(parsed[f"{branch} count"]) == len(times)
            if times:
                assert parsed[f"{branch} median_time"] == format(
                    float(np.median(times)), ".17g"
                )
                assert parsed[f"{branch} mean_time"] == format(
                    float(np.mean(times)), ".17g"
                )
        assert int(parsed["final rb_dim"]) == int(rows[-1]["rb_dim_after"])
        assert int(parsed["final train_size"]) == int(rows[-1]["train_size_after"])
        uncertified = sum(r["model_used"] == "ML" and r["ml_certificate"] == "" for r in rows)
        assert (uncertified > 0) == (mode == "size_threshold")
        assert int(parsed["ML uncertified count"]) == uncertified
        certs = [float(r["ml_certificate"]) for r in rows if r["ml_certificate"] != ""]
        ml_certs = [float(r["ml_certificate"]) for r in rows
                    if r["model_used"] == "ML" and r["ml_certificate"] != ""]
        assert parsed["max_certificate"] == (format(max(ml_certs), ".17g") if ml_certs else "n/a")
        # every FOM row carries the bound of the pair that rejected RB
        fom_deltas = [r["delta_rb"] for r in rows if r["model_used"] == "FOM"]
        assert fom_deltas and "" not in fom_deltas
        assert mode != "never" or len(set(fom_deltas)) > 1  # so min is not max
        assert parsed["FOM min_delta_rb"] == format(min(map(float, fom_deltas)), ".17g")
        if mode == "always_validate":
            assert ml_certs and max(certs) > max(ml_certs)
    # no FOM row, no floor
    assert "FOM min_delta_rb: n/a" in summary_text([]).splitlines()


def test_svg_is_self_contained_with_marker_per_query(tmp_path):
    path = write_small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    svg = (out / "timings.svg").read_text()
    with open(out / "queries.csv") as fh:
        n_rows = len(list(csv.DictReader(fh)))
    # one data marker per query plus the three legend markers
    assert svg.count("<circle") == n_rows + 3
    for color in BRANCH_COLORS.values():
        assert color in svg
    assert "href" not in svg and "url(" not in svg and "@import" not in svg


@pytest.mark.parametrize("times, digest", [
    ((2.5e-2, 3.1e-4, 1.2e-5, 8.0e-6, 4.4e-4, 0.0, 1.7e-5),
     "ae4dd9c2ec96b1280ecdfb7f6edb91ca93145d59ddd80b503a422e44715746dc"),
    ((), "e8d211f7cc2b025df864eb81290a303d3532517b9c75c24d1cba49544dcff1b7"),
], ids=["seven_queries", "no_queries"])
def test_svg_bytes_are_pinned(times, digest):
    # queries answered by FOM, RB and ML in turn; a zero time is drawn at 1e-9 s,
    # and with no queries the axis spans one decade
    records = [QueryRecord(index=i + 1, mu=ParameterPoint(1.0, 10.0),
                           model_used=("FOM", "RB", "ML")[i % 3], wall_time=t, delta_rb=None,
                           ml_certificate=None, rb_dim_after=0, train_size_after=0)
               for i, t in enumerate(times)]
    assert hashlib.sha256(timing_scatter_svg(records).encode()).hexdigest() == digest


@pytest.mark.parametrize("trust_mode", ["size_threshold", "never"])
def test_model_file_written_when_requested(tmp_path, trust_mode):
    body = SMALL_CONFIG.replace("[hierarchy]\n", f"[hierarchy]\ntrust_mode = {trust_mode}\n")
    path = write_small_config(tmp_path, extra="[output]\nsave_model = true\n", body=body)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    from hiermor.kernel import fit, load_model, save_model

    model = load_model(out / "model.bin")
    assert model.n_centers >= 1
    # The file holds the fit of the training set at the last size a refit fell
    # due at, whether a query read it (size_threshold) or only `run` did (never).
    config = load_config(path)
    state = build_hierarchy(config)
    due = None
    for mu in sample_parameters(config.sweep, config.box):
        state.query(mu)
        size = len(state.train)
        if size % config.hierarchy.retrain_every == 0 and (due is None or size > len(due)):
            due = state.train.copy()
    save_model(fit(due, config.kernel, config.box), tmp_path / "reference.bin")
    assert (out / "model.bin").read_bytes() == (tmp_path / "reference.bin").read_bytes()


def test_seed_override_changes_sweep(tmp_path):
    path = write_small_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(path), "--out-dir", str(out1), "--seed", "7"]) == 0
    assert main(["run", str(path), "--out-dir", str(out2), "--seed", "8"]) == 0
    das = []
    for out in (out1, out2):
        with open(out / "queries.csv") as fh:
            das.append(next(csv.DictReader(fh))["da"])
    assert das[0] != das[1]


# -- cli exit codes -------------------------------------------------------------------


def test_config_error_exit_code(tmp_path, capsys):
    # each body is wrong on line 2: an invalid value, a byte that is not UTF-8,
    # a line the parser cannot read or a value its section rejects
    path = tmp_path / "bad.ini"
    for body, message in (
        (b"[mesh]\nn_cells = -4\n[sweep]\nseed = 1\n", "mesh.n_cells must be >= 3"),
        (b"[mesh]\nn_cells = 2\n[sweep]\nseed = 1\n", "mesh.n_cells must be >= 3"),
        (b"[mesh]\nn_cells = 2\xff\n", "not UTF-8: byte 0xff"),
        (b"[mesh]\n[ ]\n", "empty section name"),
        (b"[mesh]\nn_cells\n", "expected 'key = value', got 'n_cells'"),
        (b"[mesh]\n= 3\n", "missing key before '='"),
        (b"[hierarchy]\nrom_tol = abc\n", "hierarchy.rom_tol: not a number: 'abc'"),
        (b"[hierarchy]\nrom_tol = inf\n", "hierarchy.rom_tol: not finite: 'inf'"),
        (b"[output]\nsave_model = maybe\n", "output.save_model: not a boolean: 'maybe'"),
        (b"[parameters]\npe_min = 100\n", "parameters.pe_min must be < pe_max"),
        # dt = 1e-313 is subnormal, so dt * n_steps misses t_end
        (b"[time]\nt_end = 1e-310\nn_steps = 1000\n",
         "time.dt * n_steps must equal t_end to machine precision"),
        (b"[hierarchy]\ntrust_threshold = 0\n", "hierarchy.trust_threshold must be >= 1"),
        (b"[hierarchy]\ntrust_mode = sometimes\n", "hierarchy.trust_mode must be one of "),
        (b"[kernel]\ncriterion = q\n", "kernel.criterion must be one of f, p; got 'q'"),
    ):
        path.write_bytes(body)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}:2: {message}"), err
    # a leading byte-order mark is accepted and moves no line number
    path.write_bytes(b"\xef\xbb\xbf[mesh]\nn_cells = 16\nn_steps\xff = 4\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:3: not UTF-8: byte 0xff"), err
    path.write_bytes(b"\xef\xbb\xbf" + DESK_CONFIG.read_bytes())
    assert load_config(path) == load_config(DESK_CONFIG)


def test_negative_seed_override_exit_code(tmp_path, capsys):
    path = write_small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exit_code(tmp_path):
    assert main(["run", str(tmp_path / "nope.ini")]) == 4


@pytest.mark.parametrize("body, code, first_line", [
    (b"[mesh]\nn_cells = 2\n", 2, "{path}:2: mesh.n_cells must be >= 3"),
    (None, 4, "error: cannot read {path}: "),
], ids=["bad_config", "missing_file"])
def test_sweep_script_exits_as_the_cli_does(tmp_path, body, code, first_line):
    # the script ended in a traceback with exit code 1 on both
    path = tmp_path / "bad.ini"
    if body is not None:
        path.write_bytes(body)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_sweep.py"), str(path),
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == code, done.stderr
    assert done.stderr.splitlines()[0].startswith(first_line.format(path=path)), done.stderr
    assert done.stdout == "" and not (tmp_path / "out").exists()


def test_unwritable_output_exit_code(tmp_path):
    path = write_small_config(
        tmp_path,
        body="[mesh]\nn_cells = 16\n[time]\nn_steps = 8\n[sweep]\nn_queries = 1\nseed = 1\n",
    )
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    assert main(["run", str(path), "--out-dir", str(blocker)]) == 4


def test_validate_success_and_report(tmp_path, capsys):
    path = write_small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["validate", str(path), "--n", "4", "--out-dir", str(out)]) == 0
    report = (out / "validation.txt").read_text()
    assert "violations: 0" in report
    assert report.count("\n") >= 5


def test_validate_zero_points_succeeds(tmp_path):
    path = write_small_config(tmp_path)
    assert main(["validate", str(path), "--n", "0",
                 "--out-dir", str(tmp_path / "out")]) == 0


def test_validate_negative_count_is_usage_error(tmp_path, capsys):
    path = write_small_config(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(path), "--n", "-1", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err
    assert not out.exists()


def test_validate_report_structure(tmp_path):
    config = load_config(write_small_config(tmp_path))
    report = validate_run(config, 3)
    assert len(report.rows) == 3
    # drawn from default_rng([7, 1]), 7 being the config's sweep seed
    assert [(r.mu.da.hex(), r.mu.pe.hex()) for r in report.rows] == [
        ("0x1.ee5c7e9620ff2p+2", "0x1.00f0affe70fc7p+1"),
        ("0x1.f8d96b6a29bd1p+0", "0x1.3844b9e17c926p+1"),
        ("0x1.18186f20275e6p+2", "0x1.60fedf9d4c3e4p+2"),
    ]
    assert report.n_violations == 0
    for row in report.rows:
        assert row.rb_error <= row.delta_rb + 1e-10
        assert row.ml_error <= row.certificate + 1e-10
    lines = report.text().splitlines()
    assert lines[-1] == "violations: 0"
    assert lines[-5].startswith("worst rb_error/bound: ")
    assert lines[-4].startswith("worst ml_error/bound: ")
    for line, (bound, error) in zip(
        lines[-3:-1], (("delta_rb", "rb_error"), ("certificate", "ml_error"))
    ):
        assert line.startswith(f"effectivity {bound}/{error}: min ")
        ratios = sorted(
            getattr(r, bound) / getattr(r, error) for r in report.rows if getattr(r, error) > 0
        )
        words = line.split()
        values = [float(words[words.index(key) + 1]) for key in ("min", "median", "max")]
        assert values[0] <= values[1] <= values[2]
        assert values[0] == pytest.approx(ratios[0], rel=1e-3)
        assert values[2] == pytest.approx(ratios[-1], rel=1e-3)
        assert words[-1] == f"(n={len(ratios)})"


def test_validate_run_solves_rb_once_per_point(tmp_path, monkeypatch):
    import hiermor.cli as cli_mod
    import hiermor.hierarchy as hierarchy_mod

    calls = []
    sweep = cli_mod._execute_sweep

    def sweep_then_count(config):
        result = sweep(config)
        solve_rb = hierarchy_mod.solve_rb

        def counting_solve_rb(*args, **kwargs):
            calls.append(args[1])
            return solve_rb(*args, **kwargs)

        monkeypatch.setattr(hierarchy_mod, "solve_rb", counting_solve_rb)
        return result

    monkeypatch.setattr(cli_mod, "_execute_sweep", sweep_then_count)
    validate_run(load_config(write_small_config(tmp_path)), 3)
    assert len(calls) == 3


def test_nan_error_or_bound_is_a_violation():
    import math

    from hiermor.cli import ValidationReport, ValidationRow
    from hiermor.fem import ParameterPoint

    mu = ParameterPoint(1.0, 10.0)
    rows = [
        ValidationRow(mu, rb_error=1e-3, delta_rb=1e-2, ml_error=1e-3, certificate=1e-2),
        ValidationRow(mu, rb_error=1e-3, delta_rb=math.nan, ml_error=1e-3, certificate=1e-2),
        ValidationRow(mu, rb_error=1e-3, delta_rb=1e-2, ml_error=1e-3, certificate=math.nan),
        ValidationRow(mu, rb_error=math.nan, delta_rb=1e-2, ml_error=math.nan, certificate=1e-2),
    ]
    assert [r.rb_violated for r in rows] == [False, True, False, True]
    assert [r.ml_violated for r in rows] == [False, False, True, True]
    report = ValidationReport(rows)
    assert report.n_violations == 3
    assert report.text().count("VIOLATED") == 3
    assert report.text().endswith("violations: 3\n")


def test_effectivity_lines_independent_of_row_order():
    import itertools
    import math

    from hiermor.cli import ValidationReport, ValidationRow
    from hiermor.fem import ParameterPoint

    mu = ParameterPoint(1.0, 10.0)
    rows = [
        ValidationRow(mu, rb_error=1e-3, delta_rb=bound, ml_error=error, certificate=1e-2)
        for bound, error in ((1e-2, 1e-3), (math.nan, 1e-3), (5e-2, math.nan))
    ]

    def effectivity(rows):
        return [line for line in ValidationReport(list(rows)).text().splitlines()
                if line.startswith("effectivity")]

    lines = {tuple(effectivity(order)) for order in itertools.permutations(rows)}
    assert lines == {(
        "effectivity delta_rb/rb_error: min nan median nan max nan (n=3)",
        "effectivity certificate/ml_error: min nan median nan max nan (n=3)",
    )}


def test_effectivity_without_nonzero_errors():
    from hiermor.cli import ValidationReport, ValidationRow
    from hiermor.fem import ParameterPoint

    row = ValidationRow(ParameterPoint(1.0, 10.0), rb_error=0.0, delta_rb=1e-2, ml_error=0.0,
                        certificate=1e-2)
    lines = ValidationReport([row, row]).text().splitlines()
    assert [line for line in lines if line.startswith("effectivity")] == [
        "effectivity delta_rb/rb_error: no nonzero errors",
        "effectivity certificate/ml_error: no nonzero errors",
    ]


def test_worst_ratio_lines_agree_with_flags():
    import math

    from hiermor.cli import ValidationReport, ValidationRow
    from hiermor.fem import ParameterPoint

    mu = ParameterPoint(1.0, 10.0)
    fine = ValidationRow(mu, rb_error=1e-3, delta_rb=1e-2, ml_error=1e-3, certificate=1e-2)
    zero_bound = ValidationRow(mu, rb_error=1e-3, delta_rb=0.0, ml_error=0.0, certificate=0.0)
    nan_row = ValidationRow(mu, rb_error=1e-3, delta_rb=1e-2, ml_error=math.nan, certificate=1e-2)

    def worst(rows):
        lines = ValidationReport(rows).text().splitlines()
        return [next(line.split(": ")[1] for line in lines if line.startswith(f"worst {tier}"))
                for tier in ("rb", "ml")]

    assert zero_bound.rb_violated and not zero_bound.ml_violated
    assert worst([fine, zero_bound]) == worst([zero_bound, fine]) == ["inf", "1.000e-01"]
    assert nan_row.ml_violated
    for rows in ([fine, nan_row, zero_bound], [nan_row, zero_bound, fine], [zero_bound, fine, nan_row]):
        assert worst(rows) == ["inf", "nan"]
    assert worst([fine]) == ["1.000e-01", "1.000e-01"]


def test_validation_with_full_space_basis_override(tmp_path):
    import numpy as np

    from hiermor.cli import BOUND_SLACK, ValidationReport, ValidationRow, build_hierarchy
    from hiermor.fem import ParameterPoint, QoiVector, qoi_norm, solve_fom
    from hiermor.pod import h_orthonormalize
    from hiermor.rb import project

    config = load_config(write_small_config(tmp_path))
    state = build_hierarchy(config)
    q, _ = h_orthonormalize(np.eye(state.ops.n_dofs), state.ops.ip)
    state.rm = project(state.ops, q, state.c0)

    rng = np.random.default_rng(0)
    rows = []
    for _ in range(5):
        mu = ParameterPoint(rng.uniform(0.1, 10.0), rng.uniform(1.0, 10.0))
        _, f_h = solve_fom(state.ops, mu, state.grid, state.c0)
        cert = state.certify(mu)
        rows.append(
            ValidationRow(
                mu=mu,
                rb_error=qoi_norm(QoiVector(f_h.values - cert.f_rb.values, f_h.dt)),
                delta_rb=cert.delta_rb,
                ml_error=qoi_norm(QoiVector(f_h.values - cert.f_ml.values, f_h.dt)),
                certificate=cert.value,
            )
        )
    report = ValidationReport(rows)
    assert report.n_violations == 0
    assert all(row.delta_rb < 1e-8 for row in rows)
    assert all(row.rb_error <= row.delta_rb + BOUND_SLACK for row in rows)
