"""Command-line interface: subcommands, output formats, exit codes."""

import csv
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:   # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

import marisim
from marisim import cli, harness, sea_surface, tables
from marisim.cli import MAX_LOS_SAMPLES, MAX_PATHLOSS_POINTS, main
from marisim.config import MAX_LENGTH_M, load_config
from marisim.harness import RESULT_COLUMNS

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TINY_INI = """\
[scenario]
sea_state = 5
seed = 1

[geometry]
mean_iot_count = 2

[radio]
m_antennas = 2
n_elements = 8

[estimation]
noiseless = yes

[optimizer]
sdp_tol = 1e-4
sdp_max_iter = 150
randomization_draws = 15
"""


def read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def tiny_ini(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(TINY_INI)
    return str(path)


def test_validate_runs_builtin_checks(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok - ") == 8
    assert "all 8 checks passed" in out
    assert "ok - LoS table determinism" in out


def test_validate_reports_every_check_when_one_raises(monkeypatch, capsys):
    def raises():
        raise RuntimeError("helper process 1 ended")

    def fails():
        raise AssertionError("off by one")

    monkeypatch.setattr(cli, "_CHECKS", (
        ("first", lambda: None), ("second", raises), ("third", fails),
        ("fourth", lambda: None)))
    assert main(["validate"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "ok - first", "FAIL - second: RuntimeError: helper process 1 ended",
        "FAIL - third: AssertionError: off by one", "ok - fourth",
        "2 of 4 checks failed"]


def test_sweep_writes_result_csv(tiny_ini, tmp_path):
    out = tmp_path / "rates.csv"
    code = main(["sweep", "--config", tiny_ini, "--var", "hr0",
                 "--values", "5", "--trials", "2", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(RESULT_COLUMNS)
    [row] = read_csv(out)
    assert row["sweep_var"] == "hr0" and float(row["value"]) == 5
    assert row["trials"] == "2" and row["seed"] == "3"
    assert float(row["mean_rate_ris"]) > 0


def test_sweep_defaults_to_stdout(tiny_ini, capsys):
    assert main(["sweep", "--config", tiny_ini, "--var", "n",
                 "--values", "8", "--trials", "1", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(",".join(RESULT_COLUMNS))
    assert len(out.strip().splitlines()) == 2


def test_sweep_output_identical_across_jobs_and_formats(tiny_ini, tmp_path):
    texts = {}
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.csv"
        assert main(["sweep", "--config", tiny_ini, "--var", "hr0",
                     "--values", "5,7", "--trials", "2", "--seed", "4",
                     "--jobs", jobs, "--out", str(path)]) == 0
        texts[jobs] = path.read_bytes()
    assert texts["1"] == texts["2"]

    spath = tmp_path / "same.json"
    assert main(["sweep", "--config", tiny_ini, "--var", "hr0",
                 "--values", "5,7", "--trials", "2", "--seed", "4",
                 "--format", "structured", "--out", str(spath)]) == 0
    structured = json.loads(spath.read_text())
    csv_rows = read_csv(tmp_path / "jobs1.csv")
    assert [r["mean_rate_ris"] for r in structured] == [
        float(r["mean_rate_ris"]) for r in csv_rows]


def test_n_sweep_that_revisits_a_size_is_identical_across_jobs(tiny_ini,
                                                                tmp_path):
    # 8, 16, 8 changes the reflection schedule's size twice, in this
    # process and in the workers
    texts = {}
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.csv"
        assert main(["sweep", "--config", tiny_ini, "--var", "n",
                     "--values", "8,16,8", "--trials", "2", "--seed", "5",
                     "--jobs", jobs, "--out", str(path)]) == 0
        texts[jobs] = path.read_bytes()
    assert texts["1"] == texts["2"]
    rows = read_csv(tmp_path / "jobs1.csv")
    assert [float(r["value"]) for r in rows] == [8, 16, 8]


def test_sweep_states_cross_the_values(tiny_ini, tmp_path):
    texts = {}
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.csv"
        assert main(["sweep", "--config", tiny_ini, "--var", "pmax",
                     "--values", "10,20", "--states", "2,5", "--trials", "1",
                     "--seed", "6", "--jobs", jobs, "--out", str(path)]) == 0
        texts[jobs] = path.read_bytes()
    assert texts["1"] == texts["2"]
    cfg = dataclasses.replace(load_config(tiny_ini), seed=6)
    table = harness.run_sweep(cfg, "pmax", [10.0, 20.0], 1, sea_states=[2, 5])
    assert texts["1"] == "".join(tables.format_table(table)).encode()
    assert [(float(r["value"]), int(r["sea_state"]))
            for r in read_csv(tmp_path / "jobs1.csv")] == [
        (10, 2), (10, 5), (20, 2), (20, 5)]


def test_sweep_values_are_written_as_their_variable_parses_them(tiny_ini,
                                                                capsys):
    for var, value, cell in (("n", "8", "8"), ("sea", "4", "4"),
                             ("hr0", "5", "5.0"), ("pmax", "20", "20.0")):
        assert main(["sweep", "--config", tiny_ini, "--var", var,
                     "--values", value, "--trials", "1", "--seed", "2"]) == 0
        [row] = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["value"] == cell, var


def test_los_prob_table(tmp_path, capsys):
    out = tmp_path / "los.csv"
    assert main(["los-prob", "--states", "3,7", "--heights", "2,30",
                 "--samples", "300", "--seed", "1", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [(int(r["sea_state"]), float(r["h_r0_m"])) for r in rows] == [
        (3, 2), (3, 30), (7, 2), (7, 30)]
    assert all(0.0 <= float(r["los_prob"]) <= 1.0 for r in rows)


def test_los_prob_table_does_not_depend_on_the_seed(tmp_path):
    texts = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}.csv"
        assert main(["los-prob", "--states", "5,8", "--heights", "2,30",
                     "--samples", "3000", "--seed", seed,
                     "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_los_prob_writes_each_sea_state_as_its_integer(capsys):
    # a level past the int64 range stays the integer given, in both formats
    argv = ["los-prob", "--states", "3,9999999999999999999", "--heights", "2",
            "--samples", "10"]
    assert main(argv) == 0
    assert [line.split(",")[0] for line in
            capsys.readouterr().out.splitlines()] == [
        "sea_state", "3", "9999999999999999999"]
    assert main(argv + ["--format", "structured"]) == 0
    assert [row["sea_state"] for row in
            json.loads(capsys.readouterr().out)] == [3, 9999999999999999999]


def test_pathloss_table_stdout(capsys):
    assert main(["pathloss", "--d-min", "100", "--d-max", "200",
                 "--points", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "d_m,los_db,nlos_db,free_space_db"
    assert len(lines) == 4


# numpy's AVX-512 (X86_V4) and AVX2 loops for log10, log and exp differ in
# the last bit, so the path-loss table has one pair of hashes per dispatch
# level (numpy 2.4); the other tables come out the same on both.
X86_V4 = __cpu_features__.get("X86_V4", False)
PATHLOSS_SHA = {
    True: ("03950b2bdfafc3c0bf9e57c05075b27ea216b58b6662c9bc91cf916eb7c1aa76",
           "28be8c4bc7ffeba5e5a86d95197d458ca356cf4690b06997767089cbc90592fa"),
    False: ("9febae62ec037af9519f63e4db43aef9a66d2750fc11215b3f540a377548e051",
            "7dc9210fdf9e36fe35191e9bb4495306b235fbbabac18d8cd0d21bfe023e4f61"),
}[X86_V4]

# sha256 of each subcommand's output, in csv and structured form
GOLDEN = [
    (["pathloss", "--d-min", "37.5", "--d-max", "2400", "--points", "3001"],
     *PATHLOSS_SHA),
    (["los-prob", "--states", "3,8", "--heights", "2,30", "--samples", "4000",
      "--seed", "5"],
     "a68d3daa3d66f636dd6fa1d73854d8ab6d0790f22d6ec3cc5045fb9c6bcc4677",
     "4ae2d2fa11a21b810fa3e922a8e3e47e6e6ba08b9ff1bbd4bb2ea0775c12a56c"),
    (["sweep", "--var", "hr0", "--values", "5,7", "--trials", "2",
      "--seed", "4"],
     "042157030e87a8833d6a3b0335faba8912f5a087a650a072df38ce99e18e33f8",
     "daed51c83d9d7fa543c5d5653b8d26eaa185fc32e684b95efe3a386a3b050622"),
]


@pytest.mark.parametrize("argv, csv_sha, structured_sha", GOLDEN,
                         ids=["pathloss", "los-prob", "sweep"])
def test_output_bytes_match_golden_hashes(argv, csv_sha, structured_sha,
                                          tiny_ini, tmp_path):
    if argv[0] == "sweep":
        argv = argv + ["--config", tiny_ini]
    for fmt, sha in (("csv", csv_sha), ("structured", structured_sha)):
        out = tmp_path / f"out.{fmt}"
        assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("argv", [
    [],                                               # missing subcommand
    ["sweep", "--values", "5"],                       # missing --var
    ["sweep", "--var", "hr0", "--values", "abc"],     # unparsable value
    ["sweep", "--var", "hr0", "--values", "5", "--trials", "0"],
    ["sweep", "--var", "hr0", "--values", "5", "--seed", "-1"],
    ["pathloss", "--d-min", "300", "--d-max", "100"],
    ["los-prob", "--samples", "0"],
    ["los-prob", "--states", "-1"],                   # negative sea state
    ["los-prob", "--states", "3.5"],                  # non-integer sea state
    ["los-prob", "--states", "nan"],
    ["los-prob", "--states", "1"],                    # calm: no wave period
    ["los-prob", "--states", "0"],
    ["sweep", "--var", "n", "--values", "inf"],
    ["sweep", "--var", "pmax", "--values", "inf"],
    ["sweep", "--var", "pmax", "--values", "-1"],
    ["sweep", "--var", "sea", "--values", "nan"],
    ["sweep", "--var", "n", "--values", "99999999999"],  # past the caps
    ["sweep", "--var", "hr0", "--values", "1e300"],
    ["los-prob", "--heights", "0"],                   # mast must be positive
    ["los-prob", "--heights", "inf"],
    ["los-prob", "--heights", "1e300"],               # past the mast cap
    ["los-prob", "--heights", f"2,{MAX_LENGTH_M * 1.001!r}"],
    ["los-prob", "--samples", str(MAX_LOS_SAMPLES + 1)],
    ["pathloss", "--d-max", "inf"],
    ["pathloss", "--points", "100000000000"],         # a 745 GiB linspace
    ["pathloss", "--points", str(MAX_PATHLOSS_POINTS + 1)],
    ["sweep", "--var", "hr0", "--values", "5", "--states", "1"],
    ["sweep", "--var", "hr0", "--values", "5", "--states", "3.5"],
    ["sweep", "--var", "sea", "--values", "4", "--states", "5"],  # sets its own
    ["sweep", "--var", "n", "--values", "40.5"],      # not an element count
    ["sweep", "--var", "hr0", "--values", "5", "--jobs", "0"],
    ["sweep", "--var", "hr0", "--values", "5", "--jobs", "-3"],
    ["los-prob", "--seed", "-1"],                     # the scenario's rule
    ["sweep", "--var", "hr0", "--values", "5", "--trials", "100001"],  # cap
    ["sweep", "--config", "B16_INI", "--var", "n", "--values", "8,32"],  # B < N
    ["sweep", "--var", "hr0", "--values", ",".join(map(str, range(1, 102))),
     "--states", ",".join(map(str, range(2, 102)))],  # 10 100 cells, over cap
    ["los-prob", "--states", ",".join(map(str, range(2, 103))),
     "--heights", ",".join(map(str, range(1, 101)))],  # 10 100 cells, over cap
])
def test_usage_and_config_errors_exit_1(argv, capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_coherence_interval",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(tables.sea_surface, "los_probability",
                        lambda *args, **kwargs: calls.append(args))
    ini = tmp_path / "b16.ini"   # 8 elements sounded in 16 sub-frames
    ini.write_text(TINY_INI.replace("[estimation]\n",
                                    "[estimation]\nb_subframes = 16\n"))
    assert main([str(ini) if arg == "B16_INI" else arg for arg in argv]) == 1
    assert "config error" in capsys.readouterr().err
    assert calls == []


# Run in a child interpreter, so that the start method is set before any
# map runs, as Python 3.14 sets forkserver by default on Linux and macOS
# sets spawn.  The child reports two CPUs, so only the start method decides.
START_METHOD_SWEEP_SCRIPT = """
import multiprocessing, os, sys
from marisim import cli

method, ini, out = sys.argv[1:]
multiprocessing.set_start_method(method)
os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(cli.main(["sweep", "--config", ini, "--var", "hr0", "--values",
                   "5,7", "--trials", "2", "--jobs", "2", "--out", out]))
"""


def sweep_under_start_method(method, tiny_ini, tmp_path, capsys):
    """stderr lines of the --jobs 2 sweep in a child under method, after
    checking that it writes the --jobs 1 bytes."""
    serial = tmp_path / "serial.csv"
    assert main(["sweep", "--config", tiny_ini, "--var", "hr0", "--values",
                 "5,7", "--trials", "2", "--out", str(serial)]) == 0
    assert capsys.readouterr().err == ""
    out = tmp_path / f"{method}.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(marisim.__file__).resolve().parents[1]),
         *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", START_METHOD_SWEEP_SCRIPT,
                           method, tiny_ini, str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == serial.read_bytes()
    return proc.stderr.splitlines()


def test_jobs_kept_in_one_process_say_so(tiny_ini, tmp_path, capsys):
    """Under the spawn start method --jobs 2 runs in one process: it says
    so on one stderr line and writes the --jobs 1 bytes."""
    assert sweep_under_start_method("spawn", tiny_ini, tmp_path, capsys) == [
        "note: --jobs 2 runs in one process: helpers are forked only where "
        "the start method is fork or forkserver, no other thread is alive "
        "and there is more than one CPU"]


@pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(),
                    reason="needs the forkserver start method")
def test_jobs_fork_helpers_under_forkserver(tiny_ini, tmp_path, capsys):
    """Under forkserver, Linux's default from Python 3.14, --jobs 2 still
    forks its helper: no notice, and the --jobs 1 bytes."""
    assert sweep_under_start_method("forkserver", tiny_ini, tmp_path,
                                    capsys) == []


def test_bad_config_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[radio]\nbogus_key = 3\n")
    assert main(["pathloss", "--config", str(path)]) == 1
    assert "bogus_key" in capsys.readouterr().err
    assert main(["pathloss", "--config", str(tmp_path / "missing.ini")]) == 1


def test_exclusions_covering_the_deploy_disk_exit_1(tmp_path, capsys):
    # the receiver's exclusion zone (the NLoS reference distance) swallows
    # the whole deploy disk, so no IoT position can ever be accepted
    path = tmp_path / "covered.ini"
    path.write_text(TINY_INI.replace("n_elements = 8",
                                     "n_elements = 8\nd_0_m = 1000"))
    assert main(["sweep", "--config", str(path), "--var", "hr0",
                 "--values", "5", "--trials", "3", "--seed", "1"]) == 1
    assert "exclusion zones cover the deploy disk" in capsys.readouterr().err


@pytest.mark.parametrize("section, line", [
    ("radio", "beta_hz = inf"),
    ("radio", "sigma_los_db = nan"),
    ("energy", "p_0_w = nan"),
    ("energy", "p_max_dbw = nan"),
    ("energy", "p_max_dbw = 4000"),      # 1e400 W overflows a float
    ("energy", "p_max_w = inf"),
    ("radio", "g_t_db = 4000"),          # channel powers overflow a float
    ("radio", "g_r_db = 4000"),
    ("scenario", "interval_duration_s = inf"),
    # magnitudes past the config caps: memory or phase overflow, not a site
    ("radio", "n_elements = 99999999999"),        # a 745 GiB request
    ("geometry", "mean_iot_count = 1e9"),         # a 14.9 GiB request
    ("geometry", "buoy_distance_m = 1e300"),      # channel phases overflow
    ("geometry", "deploy_radius_m = 1e300"),
    ("geometry", "buoy_distance_m = 1e-300"),     # inside the turbine hull
    # radio magnitudes past their bounds: conversions and amplitudes overflow
    ("radio", "sigma2_dbw = 1e300"),
    ("radio", "sigma2_dbw = -1e300"),
    ("radio", "sigma2_w = 1e300"),
    ("radio", "f_c_hz = 1e-300"),
    ("radio", "h_e_m = 1e300"),
    ("radio", "sigma_los_db = 1e300"),
])
def test_non_finite_config_values_exit_1(section, line, tmp_path, capsys):
    # the line replaces any line of TINY_INI that sets the same key
    key = line.split(" = ")[0]
    text = "".join(kept for kept in TINY_INI.splitlines(keepends=True)
                   if not kept.startswith(key + " = "))
    head = f"[{section}]\n"
    text = (text.replace(head, head + line + "\n") if head in text
            else text + "\n" + head + line + "\n")
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    assert main(["sweep", "--config", str(path), "--var", "hr0",
                 "--values", "5", "--trials", "1", "--seed", "1"]) == 1
    assert "config error" in capsys.readouterr().err


def test_interval_past_the_memory_cap_exits_1(tmp_path):
    # about 10 000 IoTs on the tiny scenario need a 1.7 GB pilot book; the
    # child's address space is capped at 1 GiB, so a missing check fails
    # on the allocation instead of making it
    resource = pytest.importorskip("resource")
    path = tmp_path / "crowded.ini"
    path.write_text(TINY_INI.replace("mean_iot_count = 2",
                                     "mean_iot_count = 10000"))
    cmd, env = console_script_argv()
    env = dict(env or os.environ, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    limit = 1 << 30
    proc = subprocess.run(
        [*cmd, "sweep", "--config", str(path), "--var", "hr0",
         "--values", "5", "--trials", "1"],
        capture_output=True, text=True, timeout=120, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert proc.returncode == 1, proc.stderr
    assert "pilot book, over the" in proc.stderr


def test_invalid_sweep_value_exits_1_before_any_interval(tiny_ini, tmp_path,
                                                        monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(harness, "run_coherence_interval",
                        lambda *args: calls.append(args))
    out = tmp_path / "f.csv"
    for values, trials, message in (("5,-3", "2", "rx_mast_m must be positive"),
                                    ("5", "0", "trials must be >= 1")):
        assert main(["sweep", "--config", tiny_ini, "--var", "hr0",
                     "--values", values, "--trials", trials, "--seed", "3",
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    parsers = []
    parse_args = cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recording)
    for _ in range(2):
        assert main(["pathloss", "--d-min", "100", "--d-max", "200",
                     "--points", "2"]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    assert parsers[0] is cli._build_parser()


def test_reused_parser_keeps_no_state_between_calls(tiny_ini, tmp_path,
                                                    monkeypatch, capsys):
    seen = []
    for name, command in list(cli._COMMANDS.items()):
        def recording(cfg, args, command=command):
            seen.append(dict(vars(args)))
            return command(cfg, args)
        monkeypatch.setitem(cli._COMMANDS, name, recording)

    def sweep(out):
        return ["sweep", "--config", tiny_ini, "--var", "hr0",
                "--values", "5,7", "--trials", "2", "--seed", "4",
                "--out", str(tmp_path / out)]

    assert main(sweep("a.csv")) == 0
    # parsed up to the bad --format, so --jobs and --values were taken
    assert main(["sweep", "--config", tiny_ini, "--var", "n",
                 "--values", "9", "--jobs", "2", "--seed", "8",
                 "--format", "xml"]) == 1
    assert main(["los-prob", "--states", "3", "--heights", "2",
                 "--samples", "50", "--seed", "2"]) == 0
    assert main(sweep("b.csv")) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    first, los, second = seen
    assert first.pop("out").endswith("a.csv")
    assert second.pop("out").endswith("b.csv")
    assert first == second
    assert first["jobs"] == 1 and first["format"] == "csv"
    assert los == {"command": "los-prob", "config": None, "states": "3",
                   "heights": "2", "samples": 50, "seed": 2, "out": None,
                   "format": "csv"}


def test_numerical_failure_exits_2(monkeypatch, capsys):
    # a numerical error inside a stage, not a bad input, is exit code 2
    def overflow(*args, **kwargs):
        raise FloatingPointError("overflow in the LoS sampler")
    monkeypatch.setattr(sea_surface, "los_probability", overflow)
    assert main(["los-prob", "--states", "3", "--heights", "2",
                 "--samples", "10"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def console_script_argv():
    """Command and environment that start the `marisim` console script.

    An installed wrapper on the PATH is run as it is. Without one, the
    `[project.scripts]` target in the repository's pyproject.toml is run in a
    child interpreter the way setuptools' wrapper runs it, with the directory
    holding the imported marisim package first on the child's PYTHONPATH.
    """
    exe = shutil.which("marisim")
    if exe:
        return [exe], None
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["marisim"]
    module, func = target.split(":")
    code = (f"import sys\nfrom {module} import {func}\n"
            f"sys.argv[0] = 'marisim'\nsys.exit({func}())\n")
    root = str(Path(marisim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return [sys.executable, "-c", code], env


def test_console_script_entry_point(tiny_ini, tmp_path):
    cmd, env = console_script_argv()
    out = tmp_path / "script.csv"
    proc = subprocess.run(
        [*cmd, "sweep", "--config", tiny_ini, "--var", "n", "--values", "8",
         "--trials", "1", "--seed", "5", "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith(",".join(RESULT_COLUMNS))
