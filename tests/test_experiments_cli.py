import ast
import importlib.util
import json
import os
import shlex
import subprocess
import sys
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import hardylab
from hardylab import experiments, pool
from hardylab.atoms import AtomSpec, make_atom
from hardylab.cli import main
from hardylab.config import (
    SCENARIO_KEYS,
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_alpha_list,
    parse_number,
    parse_number_list,
)
from hardylab.errors import NumericalError
from hardylab.experiments import RUNNERS, SCHEMAS, run_E5_duality, run_experiment
from hardylab.grid import Ball, GridSpec
from hardylab.maximal import MollifierSpec, ScaleGrid
from hardylab.moments import HardyIndex
from oracles import container_bytes, serial_grand_maximal


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


E4_CFG = """
[experiment]
scenario = E4-cancellation
seed = 7

[grid]
dim = 1
m = 2048
L = 4.0

[scenario]
operator = gaussian
p = 1
alphas = 0
r_ladder = 2^-2, 2^-3, 2^-4
tag = demo
"""


def test_parse_number_conveniences():
    assert parse_number("2^-3") == 0.125
    assert parse_number("2/3") == pytest.approx(2 / 3)
    assert parse_number("inf") == np.inf
    assert parse_number_list("1, 2^-1; 3") == [1.0, 0.5, 3.0]
    assert parse_alpha_list("0, 1") == [(0,), (1,)]
    assert parse_alpha_list("(1,0); (0,1)") == [(1, 0), (0, 1)]
    with pytest.raises(ConfigError):
        parse_number("abc")
    for bad in ("0.5", "-1", "(1, -1)", "(1, x)"):
        with pytest.raises(ConfigError, match="multi-index entr"):
            parse_alpha_list(bad)


def test_config_parser_line_numbers(tmp_path):
    path = write(tmp_path, "bad.cfg", "[experiment]\nscenario E4\n")
    with pytest.raises(ConfigError, match="bad.cfg:2"):
        load_config(path)
    path2 = write(tmp_path, "orphan.cfg", "key = 1\n")
    with pytest.raises(ConfigError, match="orphan.cfg:1"):
        load_config(path2)


def test_config_missing_scenario(tmp_path):
    path = write(tmp_path, "nos.cfg", "[experiment]\nseed = 1\n")
    with pytest.raises(ConfigError, match=r"missing required key 'scenario'"):
        ExperimentConfig.from_file(path)


def test_config_unknown_scenario(tmp_path, capsys):
    path = write(tmp_path, "unk.cfg", "[experiment]\nscenario = E9-nope\n")
    with pytest.raises(ConfigError, match="unknown scenario") as exc:
        ExperimentConfig.from_file(path, out_dir=str(tmp_path))
    assert f"{path}:2:" in str(exc.value)
    assert all(name in str(exc.value) for name in RUNNERS)
    assert main(["run", path, "--out-dir", str(tmp_path)]) == 2
    assert f"{path}:2: unknown scenario" in capsys.readouterr().err


def test_runner_registry_matches_schemas():
    assert set(RUNNERS) == set(SCHEMAS) == set(SCENARIO_KEYS)


def test_ladder_validation(tmp_path):
    # a bad r_ladder is an error of from_file, at the key's line (15)
    path = write(tmp_path, "l.cfg", E4_CFG.replace("2^-2, 2^-3, 2^-4", "2^-3, 2^-2"))
    with pytest.raises(ConfigError, match="l.cfg:15: r_ladder must be strictly decreasing"):
        ExperimentConfig.from_file(path, out_dir=str(tmp_path))
    path2 = write(tmp_path, "l2.cfg", E4_CFG.replace("2^-2, 2^-3, 2^-4", "2, 0.5"))
    with pytest.raises(ConfigError, match="l2.cfg:15: r_ladder requires every r < 1"):
        ExperimentConfig.from_file(path2, out_dir=str(tmp_path))


def test_run_produces_schema_and_svg(tmp_path):
    path = write(tmp_path, "e4.cfg", E4_CFG)
    cfg = ExperimentConfig.from_file(path, out_dir=str(tmp_path / "out"))
    result = run_experiment(cfg)
    header = result.csv_path.read_text().splitlines()[0]
    assert header == ",".join(SCHEMAS["E4-cancellation"])
    assert result.csv_path.name == "demo.csv"
    svg = result.svg_paths[0].read_text()
    assert svg.startswith("<svg xmlns=")
    assert "href" not in svg  # self-contained
    meta = (tmp_path / "out" / "demo.meta.txt").read_text()
    assert "runtime_seconds=" in meta


def test_run_determinism(tmp_path):
    path = write(tmp_path, "e4.cfg", E4_CFG)
    outs = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig.from_file(path, out_dir=str(tmp_path / sub), quiet=True)
        run_experiment(cfg)
        outs.append((tmp_path / sub / "demo.csv").read_bytes())
    assert outs[0] == outs[1]


def test_e5_rows(tmp_path):
    path = write(tmp_path, "e5.cfg", """
[experiment]
scenario = E5-duality
seed = 5
[grid]
m = 1024
[scenario]
n_instances = 3
trials = 120
mode = both
""")
    cfg = ExperimentConfig.from_file(path, out_dir=str(tmp_path / "out"), quiet=True)
    result = run_experiment(cfg)
    det = [r for r in result.rows if r[0] == "deterministic"]
    rnd = [r for r in result.rows if r[0] == "random"]
    assert len(det) == len(rnd) == 3
    assert all(r[6] <= 1e-9 for r in det)      # gap column
    assert all(r[7] >= 0.5 for r in rnd)       # Monte-Carlo lower bound


E5_CFG = """
[experiment]
scenario = E5-duality
seed = 3
[grid]
dim = {dim}
m = {m}
[scenario]
n_instances = 4
trials = 40
degree = 1
mode = both
"""


@pytest.mark.parametrize("dim,m", [(1, 512), (2, 128)])
def test_e5_rows_do_not_depend_on_the_pool(tmp_path, monkeypatch, dim, m):
    # every instance draws from generators of its own, so a 1-worker pool,
    # a serial loop, and a 2-worker one give equal rows
    cfg = ExperimentConfig.from_file(write(tmp_path, "e5.cfg", E5_CFG.format(dim=dim, m=m)), quiet=True)
    runs = []
    for workers in (1, 2):
        executor = ThreadPoolExecutor(workers)
        monkeypatch.setattr(pool, "WORKERS", workers)
        monkeypatch.setattr(pool, "POOL", executor)
        try:
            runs.append(run_E5_duality(cfg))
        finally:
            executor.shutdown()
    assert len(runs[0]) == 8
    assert runs[0] == runs[1]


def test_cli_numerical_failure_in_one_pooled_instance_exit_code(tmp_path, monkeypatch, capsys):
    # a NumericalError raised in one instance on a worker reaches the CLI
    check = experiments.dual_norm_check

    def failing(f, ball, degree, trials, seed=0, include_deterministic=True):
        if seed == 3 + 2:
            raise NumericalError("instance 2 failed")
        return check(f, ball, degree, trials, seed, include_deterministic)

    monkeypatch.setattr(experiments, "dual_norm_check", failing)
    cfg = write(tmp_path, "e5.cfg", E5_CFG.format(dim=1, m=512))
    assert main(["run", cfg, "--quiet", "--out-dir", str(tmp_path / "o")]) == 3
    assert "instance 2 failed" in capsys.readouterr().err


def test_e1_atom_profile_ratios_vanish(tmp_path):
    path = write(tmp_path, "e1a.cfg", """
[experiment]
scenario = E1-moment-decay
seed = 3
[grid]
m = 2048
[scenario]
p_values = 1
profiles = atom
r_ladder = 2^-2, 2^-3
""")
    cfg = ExperimentConfig.from_file(path, out_dir=str(tmp_path / "out"), quiet=True)
    rows = run_experiment(cfg).rows
    data = [r for r in rows if r[0] == "data"]
    assert data and all(r[8] <= 1e-6 for r in data)  # cancelling profiles


def test_e1_one_small_maximal_per_distinct_field(tmp_path, monkeypatch):
    # indicator and bump fields do not depend on p: one maximal function each
    # per r; the random field is drawn per (p, r). One table call for every
    # (field, p) pair, building the kernel ladder once
    import hardylab.experiments as experiments
    import hardylab.maximal as maximal

    path = write(tmp_path, "e1.cfg", """
[experiment]
scenario = E1-moment-decay
seed = 3
[grid]
m = 1024
[scenario]
p_values = 1, 2/3
profiles = indicator, bump, random
r_ladder = 2^-2, 2^-3
""")
    calls = []
    small_maximal_table = experiments.small_maximal_table
    built = Counter()
    dilate = maximal.dilate

    def counting(fs, mollifier, scales):
        calls.append([f.samples.tobytes() for f in fs])
        return small_maximal_table(fs, mollifier, scales)

    def counting_dilate(phi, t, spec):
        built[phi, t] += 1
        return dilate(phi, t, spec)

    monkeypatch.setattr(experiments, "small_maximal_table", counting)
    monkeypatch.setattr(maximal, "dilate", counting_dilate)
    cfg = ExperimentConfig.from_file(path, out_dir=str(tmp_path / "out"), quiet=True)
    rows = run_experiment(cfg).rows
    # 2 r x (indicator, bump, random) at p = 1, and 2 r x random at p = 2/3
    assert [len(fields) for fields in calls] == [8]
    assert len({f for fields in calls for f in fields}) == 8
    scales = ScaleGrid.default(cfg.grid, 1.0)
    assert built == Counter(dict.fromkeys(((MollifierSpec("gaussian", 1), t) for t in scales.scales), 1))
    assert len([r for r in rows if r[0] == "data"]) == 2 * 3 * 2


def test_e2_one_grand_maximal_table_per_p(tmp_path, monkeypatch):
    # one table call per p, holding that p's atoms (r_large, and r_small at
    # p = 1) against that p's T dictionaries: order 1 at p = 1, order 2 at
    # p = 1/2 in 1D. The p = 1/2 cells equal those of one call for every atom
    # and every (p, T) bit for bit, and the serial full-grid fold
    import hardylab.experiments as experiments
    from hardylab.maximal import build_test_dictionary, grand_maximal_table

    path = write(tmp_path, "e2.cfg", """
[experiment]
scenario = E2-grand-maximal-constant
seed = 4
[grid]
m = 512
L = 8
[scenario]
p_values = 1, 1/2
T_ladder = 1, 2
r_large = 1.0
r_small = 0.25
n_seeds = 2
""")
    calls = []

    def recording(fs, dictionaries):
        out = grand_maximal_table(fs, dictionaries)
        calls.append((fs, dictionaries, out))
        return out

    monkeypatch.setattr(experiments, "grand_maximal_table", recording)
    cfg = ExperimentConfig.from_file(path, out_dir=str(tmp_path / "out"), quiet=True)
    run_experiment(cfg)
    grid = cfg.grid

    def atoms(p, r):
        return [make_atom(AtomSpec(HardyIndex(p, 1), np.inf, Ball((0.0,), r), "local"), 4 + s, grid)
                for s in range(2)]

    want = {1.0: atoms(1.0, 1.0) + atoms(1.0, 0.25), 0.5: atoms(0.5, 1.0)}
    assert len(calls) == 2
    for (fs, dicts, _), (p, expected) in zip(calls, want.items()):
        assert [f.samples.tobytes() for f in fs] == [f.samples.tobytes() for f in expected]
        assert dicts == [build_test_dictionary(grid, HardyIndex(p, 1), T) for T in (1.0, 2.0)]
        assert {d.order for d in dicts} == {1 if p == 1.0 else 2}
    (ones, one_dicts, _), (halves, half_dicts, half_table) = calls
    single = grand_maximal_table(ones + halves, one_dicts + half_dicts)[len(ones):]
    for f, row, want_row in zip(halves, half_table, single):
        for d, cell, want_cell in zip(half_dicts, row, want_row[len(one_dicts):]):
            assert np.array_equal(cell.samples, want_cell.samples)
            assert np.array_equal(cell.samples, serial_grand_maximal(f, d))


def test_e3_image_moment_ratios_bounded(tmp_path):
    # images of cancelling atoms under bounded convolution-type operators keep
    # normalized moments below a fixed constant across the ladder
    for op, params in (("gaussian", "width=0.01"), ("riesz", "")):
        path = write(tmp_path, f"e3-{op}.cfg", f"""
[experiment]
scenario = E3-atom-image
seed = 2
[grid]
m = 2048
[scenario]
operator = {op}
operator_params = {params}
r_ladder = 2^-2, 2^-4, 2^-6
n_seeds = 2
""")
        cfg = ExperimentConfig.from_file(path, out_dir=str(tmp_path / "out"), quiet=True)
        rows = run_experiment(cfg).rows
        assert all(np.isfinite(r[9]) and r[12] <= 10.0 for r in rows), op


def test_cli_psi_and_version(capsys):
    assert main(["psi", "1", "0", "0.5"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == f"{1/np.log(3):.9g}"
    assert main(["version"]) == 0
    assert main(["psi", "1", "3", "0.5"]) == 2  # out of range -> config error


def test_cli_list_operators(capsys):
    assert main(["list-operators"]) == 0
    out = capsys.readouterr().out
    assert "riesz" in out and "pathological" in out


def test_cli_validate_atom(capsys):
    code = main(["validate-atom", "--p", "1", "--s", "2", "--r", "0.25", "--seed", "3",
                 "--grid-m", "1024"])
    assert code == 0
    assert "passed=True" in capsys.readouterr().out


def test_cli_validate_atom_file(tmp_path, capsys):
    atom = make_atom(AtomSpec(HardyIndex(1.0, 1), 2.0, Ball((0.0,), 0.25)), 3,
                     GridSpec(1, 4.0, 1024))
    good = tmp_path / "atom.gfn"
    good.write_bytes(container_bytes(atom))
    args = ["validate-atom", "--p", "1", "--file"]
    assert main(args + [str(good)]) == 0
    assert "passed=True" in capsys.readouterr().out
    short = tmp_path / "short.bin"
    short.write_bytes(container_bytes(atom)[:10])
    assert main(args + [str(short)]) == 2  # truncated header
    assert main(args + [str(tmp_path)]) == 2  # a directory
    assert capsys.readouterr().err.count("config error") == 2
    # the stored grid is used; grid options meant for generated atoms are not read
    assert main(args + [str(good), "--grid-m", "100", "--L", "0.1"]) == 0
    assert "passed=True" in capsys.readouterr().out


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg = write(tmp_path, "e4.cfg", E4_CFG)
    assert main(["run", cfg, "--out-dir", str(tmp_path / "o"), "--quiet"]) == 0
    assert (tmp_path / "o" / "demo.csv").exists()
    bad = write(tmp_path, "bad.cfg", "[experiment]\nseed = 1\n")
    assert main(["run", bad]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    assert main(["no-such-command"]) == 2
    # the config is positional and required
    assert main(["run"]) == 2
    assert main(["run", "--config", cfg]) == 2


CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


@pytest.mark.parametrize("config,key,value", [
    ("e5_duality", "n_instances", "inf"),
    ("e5_duality", "n_instances", "2.5"),
    ("e5_duality", "n_instances", "-3"),
    ("e5_duality", "n_instances", "0"),
    ("e5_duality", "trials", "-1"),
    ("e5_duality", "trials", "nan"),
    ("e2_grand_maximal", "n_seeds", "0"),
    ("e3_atom_image_gaussian", "n_seeds", "1/2"),
    ("e4_gaussian", "alphas", "0.5"),
    ("e4_gaussian", "alphas", "-1"),
    ("e1_moment_decay", "p_values", "1, x"),
    ("e2_grand_maximal", "T_ladder", "1, x"),
    ("e5_duality", "r_values", "0.3, x"),
    ("e3_atom_image_gaussian", "r_ladder", "2^-2, y"),
])
def test_cli_rejects_bad_integer_keys(tmp_path, capsys, config, key, value):
    # an integer key that is not a finite integer, or is below its floor
    # (n_instances and n_seeds 1, trials 0), and a list key with an entry
    # that does not parse (a number; for alphas a nonnegative integer), is a
    # config error that cites its line: exit 2 and no output, never a
    # truncated count or a traceback
    lines = (CONFIGS / f"{config}.cfg").read_text().splitlines()
    line = next(i for i, text in enumerate(lines, start=1) if text.startswith(f"{key} ="))
    lines[line - 1] = f"{key} = {value}"
    cfg = write(tmp_path, "bad.cfg", "\n".join(lines) + "\n")
    assert main(["run", cfg, "--quiet", "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert not list(tmp_path.glob("o/*.csv"))
    if key in ("alphas", "p_values", "T_ladder", "r_values", "r_ladder"):
        assert f"bad.cfg:{line}: bad list for {key!r}: {value!r}" in err
        return
    assert f"bad.cfg:{line}: {key!r} must be an integer" in err and value in err
    lines[line - 1] = f"{key} = 2^3"
    ok = ExperimentConfig.from_file(write(tmp_path, "ok.cfg", "\n".join(lines) + "\n"))
    assert type(ok.params[key]) is int and ok.params[key] == 8


@pytest.mark.parametrize("config,key,value,message", [
    ("e3_atom_image_gaussian", "operator_params", "width=x",
     "bad operator_params token 'width=x' (cannot parse number 'x')"),
    ("e3_atom_image_gaussian", "operator_params", "widht=0.5",
     "operator 'gaussian' has no parameter 'widht'; it takes width"),
    ("e4_gaussian", "operator", "nosuch", "unknown operator 'nosuch'; see hardylab list-operators"),
    ("e4_gaussian", "p", "2", "p must lie in (0, 1], got 2.0"),
    ("e1_moment_decay", "p_values", "1, 2", "p must lie in (0, 1], got 2.0"),
    ("e1_moment_decay", "mollifier", "gausian", "unknown mollifier shape 'gausian'"),
    ("e1_moment_decay", "profiles", "indicator, bmp",
     "bad profiles 'bmp'; choose from indicator, bump, random, atom"),
    ("e4_gaussian", "alphas", "5", "|alpha| = 5 outside the admissible range"),
    ("e4_gaussian", "r_ladder", "2^-2, -1", "r_ladder requires every r > 0"),
    ("e3_atom_image_gaussian", "s", "0.5", "s must satisfy s >= 1 (or inf)"),
    ("e3_atom_image_gaussian", "lambda", "0.5", "lambda = 0.5 must exceed n(s/p - 1) = 1.0"),
    ("e3_atom_image_gaussian", "C", "0", "C must be positive"),
    ("e5_duality", "degree", "-1", "'degree' must be an integer >= 0, got '-1'"),
    ("e5_duality", "r_values", "0.3, -1", "radius must be positive"),
    ("e5_duality", "mode", "sideways", "bad mode 'sideways'"),
    ("e5_duality", "mdoe", "random", "unknown key 'mdoe' in [scenario]"),
    ("e2_grand_maximal", "T_ladder", "1, 2, 4, 16", "T ladder exceeds L/2"),
    ("e2_grand_maximal", "r_small", "0", "radius must be positive"),
    ("e2_grand_maximal", "r_large", "17", "the ball of radius 17 does not fit the grid"),
    ("e2_grand_maximal", "T_ladder", "", "T_ladder is empty"),
    ("e2_grand_maximal", "T_ladder", "0, 1", "T ladder requires every T > 0"),
    ("e5_duality", "r_values", "6", "the ball of radius 6 does not fit the grid"),
    ("e5_duality", "r_values", "", "r_values is empty"),
    ("e4_gaussian", "alphas", "", "alphas is empty"),
    ("e1_moment_decay", ("L", "r_ladder"), "0.25", "the ball of radius 0.5 does not fit the grid"),
    ("e3_atom_image_gaussian", ("L", "r_ladder"), "0.2", "the ball of radius 0.25 does not fit the grid"),
])
def test_cli_rejects_bad_scenario_values(tmp_path, capsys, config, key, value, message):
    # a value that the scenario's key table or its runner rejects, and a key
    # that the table does not list, is a config error that cites its line:
    # exit 2 and no output. The key's line is rewritten, or appended to the
    # [scenario] section (the last one) when the config does not set the key.
    # A (key, cited) pair rewrites key, and the error cites the line of the
    # [scenario] key that the new value makes invalid (a ladder that no
    # longer fits a smaller grid)
    key, cited = key if isinstance(key, tuple) else (key, key)
    lines = (CONFIGS / f"{config}.cfg").read_text().splitlines()

    def line_of(k):
        return next((i for i, text in enumerate(lines, start=1) if text.startswith(f"{k} =")), None)

    line = line_of(key)
    if line is None:
        lines.append("")
        line = len(lines)
    lines[line - 1] = f"{key} = {value}"
    cfg = write(tmp_path, "bad.cfg", "\n".join(lines) + "\n")
    assert main(["run", cfg, "--quiet", "--out-dir", str(tmp_path / "o")]) == 2
    assert f"bad.cfg:{line_of(cited) if cited != key else line}: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("o/*.csv"))


@pytest.mark.parametrize("old,new,message", [
    ("[scenario]", "[scenairo]", "unknown section [scenairo]; E2-grand-maximal-constant takes "
                                 "[experiment], [grid], [scenario]"),
    ("m = ", "M = 512", "unknown key 'M' in [grid]; it takes dim, m, L"),
    ("seed = ", "sede = 1", "unknown key 'sede' in [experiment]; it takes scenario, seed, out_dir"),
    ("seed = ", "seed = -1", "'seed' must be an integer >= 0, got '-1'"),
])
def test_cli_rejects_bad_section_lines(tmp_path, capsys, old, new, message):
    # a misspelt section or key in any section is a config error that cites
    # its line, never a run on the defaults; so is a negative seed, which
    # NumPy's generators refuse
    lines = (CONFIGS / "e2_grand_maximal.cfg").read_text().splitlines()
    line = next(i for i, text in enumerate(lines, start=1) if text.startswith(old))
    lines[line - 1] = new
    cfg = write(tmp_path, "bad.cfg", "\n".join(lines) + "\n")
    assert main(["run", cfg, "--quiet", "--out-dir", str(tmp_path / "o")]) == 2
    assert f"bad.cfg:{line}: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("o/*.csv"))


def test_config_rejects_repeated_key(tmp_path, capsys):
    # a key given twice in one section is a config error that cites both
    # lines, never a silent last-wins; no shipped config repeats a key
    lines = (CONFIGS / "e4_gaussian.cfg").read_text().splitlines()
    line = lines.index("operator = gaussian") + 1
    lines.insert(line - 1, "operator = nosuch")
    cfg = write(tmp_path, "bad.cfg", "\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=rf"bad.cfg:{line + 1}: key 'operator' repeats line {line} of \[scenario\]"):
        load_config(cfg)
    assert main(["run", cfg, "--quiet", "--out-dir", str(tmp_path / "o")]) == 2
    assert f"bad.cfg:{line + 1}: key 'operator' repeats line {line}" in capsys.readouterr().err
    for shipped in sorted(CONFIGS.glob("*.cfg")):
        load_config(shipped)


def test_cli_rejects_unbounded_grid(tmp_path, capsys):
    # an infinite grid half-width is a config error: exit 2 with no output,
    # never NumPy warnings and a numerical failure on the degenerate grid
    lines = (CONFIGS / "e5_duality.cfg").read_text().splitlines()
    line = next(i for i, text in enumerate(lines, start=1) if text.startswith("L ="))
    lines[line - 1] = "L = inf"
    cfg = write(tmp_path, "bad.cfg", "\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--quiet", "--out-dir", str(tmp_path / "o")]) == 2
    assert "bad [grid] section: half_width must be positive and finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("o/*.csv"))
    with pytest.raises(ValueError, match="positive and finite"):
        GridSpec(1, np.inf, 64)


def test_every_shipped_and_workload_config_loads(tmp_path, monkeypatch):
    # every section and key of the shipped configs and of the benchmark's
    # workload configs is in the key table: each one loads, and none runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # where its dataclasses look
    spec.loader.exec_module(workloads)
    texts = {cfg.name: cfg.read_text() for cfg in sorted(CONFIGS.glob("*.cfg"))}
    texts.update({f"{w.name}-{c.name}": c.text(0) for w in workloads.WORKLOADS.values() for c in w.configs})
    assert len(texts) == 8 + 13
    for name, text in texts.items():
        cfg = ExperimentConfig.from_file(write(tmp_path, f"{name}.cfg", text), out_dir=str(tmp_path / "o"))
        assert set(cfg.params) == set(SCENARIO_KEYS[cfg.scenario]["scenario"]), name
    assert not (tmp_path / "o").exists()


def test_cli_numerical_failure_exit_code(tmp_path):
    # an atom ball below grid resolution trips the numerical gates
    cfg = write(tmp_path, "tiny.cfg", """
[experiment]
scenario = E3-atom-image
[grid]
m = 256
[scenario]
operator = identity
r_ladder = 2^-9
""")
    code = main(["run", cfg, "--quiet"])
    assert code == 3


def test_cli_ill_conditioned_gram_exit_code(tmp_path, capsys):
    # degree 14 on the 15 samples of a 1D ball of radius 1/4: the Gram matrix
    # is far too ill-conditioned to project
    cfg = write(tmp_path, "e5.cfg", """
[experiment]
scenario = E5-duality
seed = 1
[grid]
m = 256
[scenario]
n_instances = 1
trials = 5
degree = 14
r_values = 0.25
""")
    assert main(["run", cfg, "--quiet", "--out-dir", str(tmp_path / "o")]) == 3
    assert "ill-conditioned" in capsys.readouterr().err


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hardylab.cli", "psi", "1", "0", "0.5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.910239227"


def test_readme_command_line_block_runs(tmp_path, capsys):
    # each `hardylab ...` line of the README's "Command line" block runs
    # through cli.main and exits 0, with a repo path resolved from the repo
    # root and --out-dir under tmp_path; psi prints the value its comment
    # gives. A flag or command that the docs keep after it is gone fails here
    root = Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) == 5 and all(line.startswith("hardylab ") for line in lines)
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        for i, arg in enumerate(argv):
            if i and argv[i - 1] == "--out-dir":
                argv[i] = str(tmp_path / arg)
            elif (root / arg).is_file():
                argv[i] = str(root / arg)
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        if argv[0] == "psi":
            assert out.strip() == comment.split("->")[1].strip()
    assert (tmp_path / "results" / "e4-sign-p1.csv").is_file()


def test_no_private_names_imported_across_modules():
    # from .x import _name (or hardylab.x) couples a module to another's
    # internals; the test oracles count as a module too
    bad = []
    oracles = Path(__file__).parent / "oracles.py"
    for path in [*sorted(Path(hardylab.__file__).parent.glob("*.py")), oracles]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "hardylab":
                continue
            bad += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                    if a.name.startswith("_")
                    and not (a.name.startswith("__") and a.name.endswith("__"))]
    assert not bad


def src_env() -> dict:
    """The environment with src/ first on PYTHONPATH, for a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(hardylab.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# the defs of src/hardylab that no shipped run enters: _reset_pool runs only
# in a forked child, and OperatorSpec's apply and adjoint are abstract
NEVER_RUN = {"pool._reset_pool", "operators.OperatorSpec.apply", "operators.OperatorSpec.adjoint"}


def test_src_holds_only_what_runs(tmp_path):
    # every def of src/hardylab, methods and nested defs included, is entered
    # by one of the shipped entry points or benchmark workload configs that
    # tests/trace_runs.py runs under a profile hook, save the listed ones;
    # every run exits 0, or 3 on a numerical failure
    atom = make_atom(AtomSpec(HardyIndex(1.0, 1), 2.0, Ball((0.0,), 0.25)), 3,
                     GridSpec(1, 4.0, 512))
    (tmp_path / "atom.gfn").write_bytes(container_bytes(atom))
    helper = Path(__file__).parent / "trace_runs.py"
    proc = subprocess.run([sys.executable, str(helper), str(tmp_path), str(tmp_path / "atom.gfn")],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert all(code == 0 or (code == 3 and numerical) for _, code, numerical in out["runs"]), out["runs"]
    assert sum("/" in name for name, _, _ in out["runs"]) == 13  # the benchmark's workload configs
    assert {name for name, _ in out["unrun"]} == NEVER_RUN, out["unrun"]


def test_import_leaves_scipy_unloaded():
    proc = subprocess.run([sys.executable, "-c", "import sys, hardylab.cli; "
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_diff_outputs_lists_cells_and_faults(tmp_path):
    # every differing cell with both values and the relative change, and
    # every SVG whose bytes differ; exit 1 on a file missing from one tree or
    # a different row count, else 0
    script = Path(__file__).resolve().parents[1] / "scripts" / "diff_outputs.py"
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b, a / "sub", b / "sub"):
        d.mkdir()
    (a / "E2.csv").write_text("kind,value\ndata,2.5\nfit,x\n")
    (b / "E2.csv").write_text("kind,value\ndata,2.5000001\nfit,y\n")
    (a / "sub" / "E1.csv").write_text("p,hp_norm\n1,3\n")
    (b / "sub" / "E1.csv").write_text("p,hp_norm\n1,3\n")
    for d in (a, b):
        (d / "sub" / "same.svg").write_text("<svg>1</svg>\n")
    (a / "E4.svg").write_text("<svg>1</svg>\n")
    (b / "E4.svg").write_text("<svg>1 </svg>\n")

    def run():
        return subprocess.run([sys.executable, str(script), str(a), str(b)],
                              capture_output=True, text=True)

    done = run()
    assert done.returncode == 0
    assert done.stdout.splitlines() == ["E2.csv:1:value  2.5 -> 2.5000001  (4.000e-08)",
                                        "E2.csv:2:value  x -> y  ()",
                                        "E4.svg: differs",
                                        "2 differing cells; largest relative change at |a| >= 1e-12: 4.000e-08"]
    # the summary's largest change skips cells whose parent magnitude is
    # below 1e-12, and a cell that moves from 0
    (a / "sub" / "E1.csv").write_text("p,hp_norm,osc\n1,3,1e-16\n0,3,2\n")
    (b / "sub" / "E1.csv").write_text("p,hp_norm,osc\n1,3.03,3e-16\n1,3,2\n")
    done = run()
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "5 differing cells; largest relative change at |a| >= 1e-12: 1.000e-02"
    (a / "sub" / "E1.csv").write_text("p,hp_norm\n1,3\n")
    (b / "sub" / "E1.csv").write_text("p,hp_norm\n1,3\n2,4\n")
    (a / "E3.csv").write_text("r\n1\n")
    done = run()
    assert done.returncode == 1
    assert "E3.csv: missing in" in done.stdout and "sub/E1.csv: 2 rows against 3" in done.stdout
    assert done.stdout.splitlines()[-1].startswith("2 differing cells;")
    # a chart in one tree only is a fault too
    (a / "E3.csv").unlink()
    (b / "sub" / "E1.csv").write_text("p,hp_norm\n1,3\n")
    (b / "sub" / "same.svg").unlink()
    done = run()
    assert done.returncode == 1
    assert done.stdout.splitlines()[-3:] == [f"sub/same.svg: missing in {b}", "E4.svg: differs",
                                             "2 differing cells; largest relative change at |a| >= 1e-12: 4.000e-08"]
