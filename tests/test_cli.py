"""End-to-end command-line behavior: outputs, metadata, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import confres
from confres import __version__, cli, kernels
from confres.cli import main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    rng = np.random.default_rng(0)
    root = tmp_path_factory.mktemp("cli")
    pts = np.concatenate([rng.normal(0, 1, (40, 2)),
                          rng.normal(9, 1, (40, 2))])
    np.savetxt(root / "points.csv", pts, delimiter=",")
    np.savetxt(root / "truth.csv", np.repeat([0, 1], 40), fmt="%d")
    return root


def _assert_input_error(argv, capsys, *fragments):
    """`main(argv)` exits 2 with a one-line error naming each fragment."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("confres: error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


def test_cluster_writes_partition(data_dir, tmp_path):
    out = tmp_path / "part.json"
    code = main(["cluster", "--input", str(data_dir / "points.csv"),
                 "--k", "8", "--gamma", "1.0", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["labels"]) == 80
    meta = data["metadata"]
    assert meta["version"] == __version__
    assert meta["backend"] == kernels.BACKEND
    assert meta["seed"] == 0
    assert len(meta["input_hashes"]["input"]) == 64
    assert data["energy"]["total"] == pytest.approx(
        data["energy"]["h_a"] + data["energy"]["gamma"] * data["energy"]["h_r"])


def test_cluster_deterministic_bytes(data_dir, tmp_path):
    args = ["cluster", "--input", str(data_dir / "points.csv"),
            "--k", "8", "--gamma", "1.0", "--seed", "7"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cluster_missing_input(tmp_path):
    code = main(["cluster", "--input", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o.json")])
    assert code == 2


def test_cluster_ragged_csv(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("x,y\n1,2\n3\n")
    code = main(["cluster", "--input", str(path),
                 "--out", str(tmp_path / "o.json")])
    assert code == 2


def test_cluster_duplicate_points_small_k(tmp_path):
    # two duplicate pairs: at k = 1 a duplicate's own sigma would be 0
    path = tmp_path / "dups.csv"
    path.write_text("0,0\n1,0\n0,1\n-1,0\n0,-1\n0,0\n3,4\n5,5\n3,4\n2,2\n")
    out = tmp_path / "o.json"
    code = main(["cluster", "--input", str(path), "--k", "1", "--out", str(out)])
    assert code == 0
    assert len(json.loads(out.read_text())["labels"]) == 10


def test_cluster_non_finite_gamma(data_dir, tmp_path, capsys):
    out = tmp_path / "o.json"
    for gamma in ("nan", "inf"):
        _assert_input_error(["cluster", "--input", str(data_dir / "points.csv"),
                             "--gamma", gamma, "--out", str(out)],
                            capsys, "gamma")
    assert not out.exists()


def test_cluster_identical_points(tmp_path, capsys):
    path = tmp_path / "same.csv"
    path.write_text("1,1\n" * 20)
    _assert_input_error(["cluster", "--input", str(path), "--k", "5",
                         "--out", str(tmp_path / "o.json")],
                        capsys, "all sigmas are zero")


def test_negative_seed(data_dir, tmp_path, capsys):
    points = str(data_dir / "points.csv")
    out = tmp_path / "o.json"
    for argv in (["cluster", "--input", points], ["sweep", "--input", points],
                 ["experiment", "hierarchy"], ["experiment", "novelty"],
                 ["experiment", "evolve"]):
        _assert_input_error(argv + ["--seed", "-1", "--out", str(out)],
                            capsys, "seed must be >= 0")
    assert not out.exists()


def test_seed_above_64_bits(data_dir, tmp_path):
    # PCG64 seeds any int >= 0 through SeedSequence; each run writes the
    # same bytes
    points = str(data_dir / "points.csv")
    for argv in (["cluster", "--input", points, "--k", "8"],
                 ["sweep", "--input", points, "--k", "8",
                  "--gamma-max", "1.5"]):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(argv + ["--seed", "99999999999999999999",
                                "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


def test_missing_output_directory(data_dir, tmp_path, capsys):
    # each is found before the clustering, sweep or scoring runs
    missing = tmp_path / "missing"
    points = str(data_dir / "points.csv")
    part = tmp_path / "pred.json"
    part.write_text(json.dumps({"labels": [0] * 40 + [1] * 40}))
    out = tmp_path / "o.json"
    for argv in (["cluster", "--input", points,
                  "--out", str(missing / "o.json")],
                 ["sweep", "--input", points, "--out", str(out),
                  "--landscape", str(missing / "l.csv")],
                 ["eval", "--pred", str(part),
                  "--truth", str(data_dir / "truth.csv"), "--out", str(out),
                  "--mosaic", str(missing / "m.svg")]):
        _assert_input_error(argv, capsys, "directory not found", str(missing))
    assert not out.exists()


def _not_text_argv(case, data_dir, tmp_path):
    """(argv, fragment of the error) for a path that is not a text file:
    one with a byte that is not UTF-8, or a directory."""
    points, truth = str(data_dir / "points.csv"), str(data_dir / "truth.csv")
    out = str(tmp_path / "o.json")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0,0\n1,\xff1\n")  # 0xff never occurs in UTF-8
    folder = str(tmp_path)
    part = tmp_path / "pred.json"
    part.write_text(json.dumps({"labels": [0] * 40 + [1] * 40}))
    return {
        "cluster input": (["cluster", "--input", str(bad), "--out", out],
                          "not UTF-8"),
        "sweep input": (["sweep", "--input", str(bad), "--out", out],
                        "not UTF-8"),
        "truth": (["eval", "--pred", str(part), "--truth", str(bad),
                   "--out", out], "not UTF-8"),
        "config": (["cluster", "--input", points, "--config", str(bad),
                    "--out", out], "not UTF-8"),
        "input directory": (["cluster", "--input", folder, "--out", out],
                            "input is a directory"),
        "config directory": (["eval", "--pred", str(part), "--truth", truth,
                              "--config", folder, "--out", out],
                             "config is a directory"),
        "out directory": (["cluster", "--input", points, "--out", folder],
                          "out is a directory"),
    }[case]


@pytest.mark.parametrize("case", [
    "cluster input", "sweep input", "truth", "config", "input directory",
    "config directory", "out directory"])
def test_path_that_is_not_a_text_file(case, data_dir, tmp_path, capsys,
                                      monkeypatch):
    # exit 2, and the output directory is found before any work runs
    argv, fragment = _not_text_argv(case, data_dir, tmp_path)

    def no_work(*args):
        raise AssertionError("the input was read")

    if case == "out directory":
        monkeypatch.setattr(cli, "load_points_csv", no_work)
    _assert_input_error(argv, capsys, fragment)
    assert not (tmp_path / "o.json").exists()


def test_sweep_plateaus_tile(data_dir, tmp_path):
    out = tmp_path / "cfg.json"
    land = tmp_path / "landscape.csv"
    code = main(["sweep", "--input", str(data_dir / "points.csv"),
                 "--k", "8", "--gamma-max", "3.0",
                 "--out", str(out), "--landscape", str(land)])
    assert code == 0
    data = json.loads(out.read_text())
    plateaus = data["plateaus"]
    assert len(plateaus) >= 2
    assert plateaus[0]["lo"] == 0.0
    assert plateaus[-1]["hi"] == 3.0
    for prev, cur in zip(plateaus, plateaus[1:]):
        assert prev["hi"] == cur["lo"]
    assert any(p["k"] == 2 for p in plateaus)
    assert data["budget_exhausted"] is False
    assert land.read_text().startswith("id,h_a,h_r,lo,hi")


def test_sweep_bad_gamma_max(data_dir, tmp_path, capsys):
    out = tmp_path / "o.json"
    for gamma_max in ("-1", "nan", "inf"):
        _assert_input_error(["sweep", "--input", str(data_dir / "points.csv"),
                             "--gamma-max", gamma_max, "--out", str(out)],
                            capsys, "gamma_max")
    assert not out.exists()


def test_eval_perfect_prediction(data_dir, tmp_path):
    part = tmp_path / "pred.json"
    part.write_text(json.dumps({"labels": [0] * 40 + [1] * 40}))
    out = tmp_path / "metrics.json"
    svg = tmp_path / "mosaic.svg"
    code = main(["eval", "--pred", str(part),
                 "--truth", str(data_dir / "truth.csv"),
                 "--mosaic", str(svg), "--out", str(out)])
    assert code == 0
    metrics = json.loads(out.read_text())
    assert metrics["ari"] == 1.0
    assert metrics["accuracy"] == 1.0
    assert set(metrics) >= {"ari", "nmi", "v", "accuracy", "auc"}
    assert svg.read_text().startswith("<?xml")


def test_eval_align_none_same_ari(data_dir, tmp_path):
    part = tmp_path / "pred.json"
    rng = np.random.default_rng(1)
    part.write_text(json.dumps({"labels": rng.integers(0, 3, 80).tolist()}))
    outs = {}
    for align in ("rms", "none"):
        out = tmp_path / f"m_{align}.json"
        assert main(["eval", "--pred", str(part),
                     "--truth", str(data_dir / "truth.csv"),
                     "--align", align, "--out", str(out)]) == 0
        outs[align] = json.loads(out.read_text())
    assert outs["rms"]["ari"] == outs["none"]["ari"]
    assert outs["rms"]["nmi"] == outs["none"]["nmi"]
    assert outs["none"]["accuracy"] is None


def test_eval_malformed_truth(data_dir, tmp_path):
    part = tmp_path / "pred.json"
    part.write_text(json.dumps({"labels": [0, 1]}))
    bad = tmp_path / "bad.csv"
    bad.write_text("x\ny\n")
    code = main(["eval", "--pred", str(part), "--truth", str(bad),
                 "--out", str(tmp_path / "o.json")])
    assert code == 2


def test_eval_truth_rows_must_be_integers(data_dir, tmp_path, capsys):
    part = tmp_path / "pred.json"
    part.write_text(json.dumps({"labels": [0, 1, 1]}))
    truth = tmp_path / "truth.csv"
    for bad in ("inf", "0.7", "nan"):
        truth.write_text(f"label\n0\n{bad}\n1\n")
        _assert_input_error(["eval", "--pred", str(part), "--truth", str(truth),
                             "--out", str(tmp_path / "o.json")],
                            capsys, repr(bad))
    # a header and integral values written as floats are still read
    truth.write_text("label\n0.0\n1.0\n1\n")
    out = tmp_path / "m.json"
    assert main(["eval", "--pred", str(part), "--truth", str(truth),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ari"] == 1.0


def test_eval_empty_labelings(tmp_path, capsys):
    part = tmp_path / "pred.json"
    part.write_text(json.dumps({"labels": []}))
    truth = tmp_path / "truth.csv"
    truth.write_text("label\n")
    _assert_input_error(["eval", "--pred", str(part), "--truth", str(truth),
                         "--out", str(tmp_path / "o.json")],
                        capsys, "labelings are empty")


def test_eval_lengths_differ(data_dir, tmp_path, capsys):
    part = tmp_path / "pred.json"
    part.write_text(json.dumps({"labels": [0, 1, 1]}))
    _assert_input_error(["eval", "--pred", str(part),
                         "--truth", str(data_dir / "truth.csv"),
                         "--out", str(tmp_path / "o.json")],
                        capsys, "prediction and truth lengths differ")


def test_eval_bad_partition_json(data_dir, tmp_path, capsys):
    part = tmp_path / "pred.json"
    truth = str(data_dir / "truth.csv")
    for text in ("{labels: [0, 1]", '{"labels": ["a", 1]}',
                 '{"labels": [1.5, 2.7]}', '{"labels": [[0, 1], [1, 0]]}',
                 '{"labels": [true, false]}', '{"labels": 3}', "[0, 1]"):
        part.write_text(text)
        _assert_input_error(["eval", "--pred", str(part), "--truth", truth,
                             "--out", str(tmp_path / "o.json")],
                            capsys, str(part))


def test_config_file_bad_value(data_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = abc\n")
    _assert_input_error(["cluster", "--input", str(data_dir / "points.csv"),
                         "--config", str(cfg), "--out", str(tmp_path / "o.json")],
                        capsys, str(cfg), "k = 'abc'")


def test_config_file_line_without_equals(data_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\nk 8\n")
    _assert_input_error(["cluster", "--input", str(data_dir / "points.csv"),
                         "--config", str(cfg), "--out", str(tmp_path / "o.json")],
                        capsys, f"{cfg}:3: expected key = value")


def test_config_file_value_outside_choices(data_dir, tmp_path, capsys):
    part = tmp_path / "pred.json"
    part.write_text(json.dumps({"labels": [0] * 40 + [1] * 40}))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("align = bogus\n")
    _assert_input_error(["eval", "--pred", str(part),
                         "--truth", str(data_dir / "truth.csv"),
                         "--config", str(cfg), "--out", str(tmp_path / "o.json")],
                        capsys, str(cfg), "align = 'bogus'", "rms, none")
    # a value among the choices is taken as the flag would be
    cfg.write_text("align = none\n")
    out = tmp_path / "m.json"
    assert main(["eval", "--pred", str(part), "--truth", str(data_dir / "truth.csv"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["metadata"]["params"]["align"] == "none"


def test_config_file_missing(data_dir, tmp_path, capsys):
    # checked before the file is read
    missing = tmp_path / "nofile.cfg"
    _assert_input_error(["cluster", "--input", str(data_dir / "points.csv"),
                         "--config", str(missing),
                         "--out", str(tmp_path / "o.json")],
                        capsys, "config file not found", str(missing))


def test_config_file_defaults_and_flag_override(data_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 8\ngamma = 0.5\n# comment\n")
    out = tmp_path / "part.json"
    code = main(["cluster", "--input", str(data_dir / "points.csv"),
                 "--config", str(cfg), "--gamma", "1.5",
                 "--out", str(out)])
    assert code == 0
    params = json.loads(out.read_text())["metadata"]["params"]
    assert params["k"] == 8        # from the file
    assert params["gamma"] == 1.5  # flag wins


@pytest.mark.parametrize("flags", [["--k", "10", "--gamma", "1.0"],
                                   ["--k=10", "--gamma=1.0"],
                                   ["--k", "10", "--gam", "1.0"]])
def test_config_file_loses_to_a_flag_equal_to_its_default(data_dir, tmp_path,
                                                          flags):
    # a flag given on the command line wins even where its value is the
    # parser default, in every spelling; the file fills the flag not given
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 12\ngamma = 0.5\nseed = 3\n")
    out = tmp_path / "part.json"
    assert main(["cluster", "--input", str(data_dir / "points.csv"),
                 "--config", str(cfg), *flags, "--out", str(out)]) == 0
    params = json.loads(out.read_text())["metadata"]["params"]
    assert (params["k"], params["gamma"], params["seed"]) == (10, 1.0, 3)


def test_config_file_cannot_supply_the_paths(data_dir, tmp_path, capsys):
    # --input, --pred, --truth and --out are required on the command line:
    # argparse exits 2 before the config file is read
    cfg = tmp_path / "in.cfg"
    cfg.write_text(f"input = {data_dir / 'points.csv'}\n")
    out = tmp_path / "o.json"
    assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == 2
    assert "the following arguments are required: --input" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_config_file_with_byte_order_mark(data_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfk = 2\n")
    out = tmp_path / "part.json"
    assert main(["cluster", "--input", str(data_dir / "points.csv"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["metadata"]["params"]["k"] == 2


def test_partition_json_with_byte_order_mark(data_dir, tmp_path):
    part = tmp_path / "pred.json"
    part.write_bytes(b"\xef\xbb\xbf"
                     + json.dumps({"labels": [0] * 40 + [1] * 40}).encode())
    out = tmp_path / "metrics.json"
    assert main(["eval", "--pred", str(part),
                 "--truth", str(data_dir / "truth.csv"),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ari"] == 1.0


def test_internal_error_exits_1(data_dir, tmp_path, capsys, monkeypatch):
    # any exception that is no InputError is a fault of confres itself
    def broken(path):
        raise RuntimeError("loader broke")

    monkeypatch.setattr(cli, "load_points_csv", broken)
    capsys.readouterr()
    assert main(["cluster", "--input", str(data_dir / "points.csv"),
                 "--out", str(tmp_path / "o.json")]) == 1
    assert capsys.readouterr().err == "confres: internal error: loader broke\n"
    assert not (tmp_path / "o.json").exists()


def test_experiment_novelty_fraction_zero(tmp_path):
    code = main(["experiment", "novelty", "--fraction", "0",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_experiment_novelty_non_finite_fraction(tmp_path, capsys):
    for fraction in ("nan", "inf"):
        _assert_input_error(["experiment", "novelty", "--fraction", fraction,
                             "--out", str(tmp_path / "r.json")],
                            capsys, "fraction", fraction)


def test_experiment_novelty_fraction_above_one(tmp_path, capsys):
    # 1e300 would otherwise ask for about 1e302 outlier rows
    for fraction in ("1.5", "1e300"):
        _assert_input_error(["experiment", "novelty", "--fraction", fraction,
                             "--out", str(tmp_path / "r.json")],
                            capsys, "fraction", "(0, 1]")


def test_experiment_evolve_beats_kmeans(tmp_path):
    out = tmp_path / "r.json"
    assert main(["experiment", "evolve", "--out", str(out)]) == 0
    series = json.loads(out.read_text())["report"]["inverse_ari"]
    assert (np.mean(series["configurations"]) < np.mean(series["kmeans"]))


def _python(*args, **kwargs):
    """Run a fresh interpreter with `args`, this confres on its path."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(confres.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, **kwargs)


def _modules_loaded_after(code, modules):
    """Run `code` in a fresh interpreter; return which of `modules` it loaded."""
    probe = code + (
        "\nimport sys\n"
        f"print(' '.join(m for m in {list(modules)!r} if m in sys.modules))\n")
    return _python("-c", probe, check=True).stdout.split()


def test_overflowing_distances_exit_2_with_one_error_line(tmp_path):
    # finite coordinates whose kNN distances overflow to inf: the error
    # line alone, with no numpy warning printed before it
    points = tmp_path / "big.csv"
    points.write_text("0,0\n1e160,1e160\n-1e160,5\n3,3\n4,4\n")
    ran = _python("-m", "confres.cli", "cluster", "--input", str(points),
                  "--k", "2", "--out", str(tmp_path / "o.json"))
    assert ran.returncode == 2, ran.stderr
    assert ran.stderr.startswith("confres: error: ")
    assert ran.stderr.count("\n") == 1 and "overflows" in ran.stderr, \
        ran.stderr


def test_cluster_does_not_import_scipy_stats_or_optimize(data_dir, tmp_path):
    # scipy.stats and scipy.optimize were over half of the start-up time
    code = (
        "from confres.cli import main\n"
        f"assert main(['cluster', '--input', {str(data_dir / 'points.csv')!r},"
        f" '--k', '8', '--out', {str(tmp_path / 'part.json')!r}]) == 0")
    assert _modules_loaded_after(code, ["scipy.stats", "scipy.optimize"]) == []


def test_rms_align_imports_scipy_optimize():
    code = ("import numpy as np\n"
            "from confres.evaluation import ContingencyTable, rms_align\n"
            "rms_align(ContingencyTable(np.array([[3, 1], [0, 4]])))")
    assert _modules_loaded_after(code, ["scipy.optimize"]) == ["scipy.optimize"]


def test_eval_align_none_does_not_import_scipy_optimize(data_dir, tmp_path):
    part = tmp_path / "pred.json"
    part.write_text(json.dumps({"labels": [0] * 40 + [1] * 40}))
    code = (
        "from confres.cli import main\n"
        f"assert main(['eval', '--pred', {str(part)!r},"
        f" '--truth', {str(data_dir / 'truth.csv')!r}, '--align', 'none',"
        f" '--out', {str(tmp_path / 'm.json')!r}]) == 0")
    assert _modules_loaded_after(code, ["scipy.optimize"]) == []


def test_cluster_sweep_and_experiments_import_no_scipy(data_dir, tmp_path):
    # scipy.spatial's kd-tree alone was two thirds of `import confres.cli`;
    # only `eval --align rms` needs scipy now
    points = str(data_dir / "points.csv")
    runs = (["cluster", "--input", points, "--k", "8"],
            ["sweep", "--input", points, "--k", "8", "--gamma-max", "1.5"],
            ["experiment", "novelty"])
    for argv in runs:
        argv = argv + ["--out", str(tmp_path / "out.json")]
        probe = (f"from confres.cli import main\n"
                 f"assert main({argv!r}) == 0\n"
                 f"import sys\n"
                 f"print(' '.join(m for m in sys.modules\n"
                 f"               if m == 'scipy' or m.startswith('scipy.')))")
        assert _modules_loaded_after(probe, []) == [], argv


def test_every_written_json_matches_json_dumps(data_dir, tmp_path,
                                               monkeypatch):
    write, payloads = cli._write_json, []

    def checked(path, payload):
        write(path, payload)
        with open(path, encoding="utf-8") as fh:
            same = fh.read() == json.dumps(payload, indent=2,
                                           sort_keys=True) + "\n"
        assert same, f"{path} differs"  # no slow diff of long texts
        payloads.append(payload)

    monkeypatch.setattr(cli, "_write_json", checked)
    here = tmp_path / "pöints ☃"  # non-ASCII paths are echoed in params
    here.mkdir()
    points = here / "pts.csv"
    points.write_bytes((data_dir / "points.csv").read_bytes())
    part = str(here / "part.json")
    runs = [["cluster", "--input", str(points), "--k", "8", "--out", part],
            ["sweep", "--input", str(points), "--k", "8", "--gamma-max", "2",
             "--out", str(here / "sweep.json")],
            ["eval", "--pred", part, "--truth", str(data_dir / "truth.csv"),
             "--out", str(here / "rms.json")],
            ["eval", "--pred", part, "--truth", str(data_dir / "truth.csv"),
             "--align", "none", "--out", str(here / "none.json")]]
    runs += [["experiment", kind, "--out", str(here / f"{kind}.json")]
             for kind in ("hierarchy", "novelty", "evolve")]
    for argv in runs:
        assert main(argv) == 0, argv
    assert len(payloads) == len(runs)


@pytest.mark.parametrize("payload", [
    {}, {"empty": [], "nested": [[], [[]], {}], "dict": {"": {}}},
    {"ints": [3, -1, 0, 2 ** 70], "with_bool": [1, True, 0, False]},
    {"floats": [0.1, -0.0, 1e300, float("nan"), float("inf"), -float("inf")],
     "mixed": [1, 2.5, "x", None, [1, 2], {"b": 1, "a": [True]}]},
    {"pöth": "naïve ☃ \"quoted\"\n", "tuple": (1, 2)},
    {"ints": {10: "a", 2: [1]}, "floats": {2.5: 0, -1.0: 1},
     "bools": {True: 0, False: 1}, "none": {None: []}},
])
def test_write_json_matches_json_dumps(tmp_path, payload):
    path = tmp_path / "out.json"
    cli._write_json(path, payload)
    assert path.read_text(encoding="utf-8") == json.dumps(
        payload, indent=2, sort_keys=True) + "\n"


def test_write_json_rejects_what_json_dumps_rejects(tmp_path):
    for payload in ({(1, 2): 0}, {"a": {1, 2}}, {"a": np.int64(1)}):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._write_json(tmp_path / "out.json", payload)
