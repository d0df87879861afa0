import copy
import dataclasses
import json
import time

import pytest

from sandwichlab.cli import (
    ExperimentConfig,
    build_parser,
    emit_plot_data,
    main,
    run_experiment,
)
from sandwichlab.coupling import ModelParams
from sandwichlab.graphs import complete_graph, format_graph_literal

K5 = format_graph_literal(complete_graph(5))


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_count_prints_exact_decimal(capsys):
    code, out = _run(["count", "--host", K5, "--d", "2"], capsys)
    assert code == 0
    assert out.strip() == "12"


def test_paths_prints_count(capsys):
    code, out = _run(["paths", "--f", "n=4;edges=1-2", "--k", "n=4;edges=2-3",
                      "--x", "1", "--y", "3", "--ell", "1"], capsys)
    assert code == 0
    assert out.strip() == "1"


def test_verify_marginals_report(capsys):
    code, out = _run(["verify-marginals", "--n", "5", "--d", "2",
                      "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["marginal_check"] == "exact"
    assert report["hard_pass"] is True
    assert report["schema"] == "sandwichlab-report:1"


def test_couple_upper_report_shape():
    config = ExperimentConfig("couple-upper", {"n": 6, "d": 3}, seed=3, trials=25)
    report = run_experiment(config)
    results = report["results"]
    assert set(results) >= {"params", "trials", "containment_rate",
                            "chi_square", "marginal_check"}
    assert results["containment_rate"]["successes"] <= 25
    assert report["config"]["seed"] == 3


def test_parallel_trials_match_serial():
    base = ExperimentConfig("couple-upper", {"n": 6, "d": 3}, seed=5, trials=12)
    serial = run_experiment(base)
    parallel = run_experiment(ExperimentConfig("couple-upper", {"n": 6, "d": 3},
                                               seed=5, trials=12, jobs=2))
    a, b = copy.deepcopy(serial), copy.deepcopy(parallel)
    a.pop("timing"), b.pop("timing")
    a["config"].pop("jobs"), b["config"].pop("jobs")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_pool_never_outnumbers_the_trials(monkeypatch):
    import concurrent.futures
    started = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, runs in process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = run_experiment(ExperimentConfig("couple-upper", {"n": 6, "d": 3},
                                             seed=2, trials=3))
    assert started == []
    for jobs, trials, workers in ((64, 3, [3]), (2, 5, [2]), (8, 1, [])):
        started.clear()
        report = run_experiment(ExperimentConfig("couple-upper", {"n": 6, "d": 3},
                                                 seed=2, trials=trials, jobs=jobs))
        assert started == workers
        if trials == 3:
            assert report["results"] == serial["results"]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_usage_error(capsys, jobs):
    assert main(["couple-upper", "--n", "6", "--d", "3", "--jobs", jobs]) == 2
    assert "error: jobs must be at least 1" in capsys.readouterr().err


def test_couple_lower_runs():
    config = ExperimentConfig("couple-lower", {"n": 6, "d": 3}, seed=7, trials=10)
    report = run_experiment(config)
    assert report["hard_pass"] is True
    assert report["results"]["trials"] == 10
    # p_upper clamps to 1 here, so the edge-count law is a point mass
    for command in ("couple-upper", "couple-lower"):
        report = run_experiment(ExperimentConfig(command, {"n": 4, "d": 3}, trials=1))
        assert report["hard_pass"] is True
        assert "p_value" in report["results"]["chi_square"]


def test_switchings_subcommand(capsys):
    host = "n=6;edges=1-2,1-3,1-4,2-3,2-5,3-6,4-5,4-6,5-6"
    code, out = _run(["switchings", "--host", host, "--d", "2", "--kind", "le",
                      "--e", "1-2", "--ell", "2"], capsys)
    report = json.loads(out)
    assert report["results"]["double_count"]["passed"] is True
    assert code == 0


def test_audit_subcommand(capsys):
    code, out = _run(["audit", "--property", "degree-band", "--n", "8",
                      "--d", "3", "--m", "6", "--seed", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["report"]["property"] == "degree-band"


def test_audit_vacuous_note_names_the_real_reason(capsys):
    # 1,471 sets of size >= 10 at n=14: too many pairs to enumerate, no samples
    code, out = _run(["audit", "--property", "uv-distribution", "--n", "14",
                      "--d", "4", "--m", "8", "--size-floor", "10"], capsys)
    assert code == 0
    report = json.loads(out)["results"]["report"]
    assert report["instances"] == 0
    assert report["notes"] == ("vacuous: 1471 sets of size >= 10 give more "
                               "than 4096 pairs and samples 0")


def _audit_report(capsys, *argv):
    code, out = _run(["audit", "--d", "3", *argv], capsys)
    assert code == 0
    return json.loads(out)["results"]["report"]


def test_audit_passes_size_cap_and_samples_to_every_checker(capsys):
    capped = _audit_report(capsys, "--property", "local-density", "--n", "8",
                           "--m", "6", "--size-cap", "1", "--samples", "5")
    assert capped["params"]["size_cap"] == 1
    assert capped["instances"] == 8  # the singletons
    sampled = _audit_report(capsys, "--property", "local-density", "--n", "8",
                            "--m", "6", "--size-cap", "4", "--samples", "5")
    assert sampled["instances"] == 8 + 28 + 5  # sets up to enum_cap 2, then samples
    # n=10 is above exhaustive_n, so every instance is a sampled pair
    connection = _audit_report(capsys, "--property", "connection", "--n", "10",
                               "--m", "10", "--samples", "7")
    assert connection["instances"] == 7
    # F\K with 100 edges at n=20: pools of two-vertex U' pass pool_cap and are
    # sampled, --samples times each
    expansion = [_audit_report(capsys, "--property", "expansion-k", "--n", "20",
                               "--m", "100", "--size-cap", "5", "--samples", s)
                 ["instances"] for s in ("0", "1", "3")]
    assert expansion[2] - expansion[0] == 3 * (expansion[1] - expansion[0]) > 0


def test_audit_connection_floor_above_half_n_is_vacuous(capsys):
    report = _audit_report(capsys, "--property", "connection", "--n", "10",
                           "--m", "10", "--size-floor", "6")
    assert report["instances"] == 0
    assert report["notes"] == "vacuous: no disjoint pair meets the floor"


@pytest.mark.parametrize("prop, extra", [("connection", []),
                                         ("uv-distribution", ["--samples", "50"])])
@pytest.mark.parametrize("floor", ["0", "-1"])
def test_audit_size_floor_below_one_is_an_error(capsys, prop, extra, floor):
    code = main(["audit", "--property", prop, "--n", "10", "--d", "3",
                 "--m", "10", "--size-floor", floor, *extra])
    assert code == 2
    assert "error: size floor must be at least 1" in capsys.readouterr().err


def test_tiny_tau_floor_is_refused_at_the_tape_bound(capsys):
    start = time.perf_counter()
    assert main(["couple-upper", "--n", "8", "--d", "3", "--tau-floor", "1e-9",
                 "--trials", "1"]) == 2
    assert "error: tape index" in capsys.readouterr().err
    assert time.perf_counter() - start < 60
    assert main(["couple-upper", "--n", "8", "--d", "3", "--tau-floor", "1e-5",
                 "--trials", "1"]) == 0


def test_kimvu_subcommand(capsys):
    code, out = _run(["kimvu", "--n", "8", "--d", "3", "--m", "6",
                      "--x", "1", "--y", "2", "--k", "2", "--seed", "4"], capsys)
    assert code == 0
    report = json.loads(out)
    assert "e_y" in report["results"]


def test_fit_subcommand(capsys):
    code, out = _run(["fit", "--model", "f", "--n", "5", "--d", "2", "--m", "2",
                      "--trials", "2000", "--seed", "5"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["chi_square"]["p_value"] > 1e-4


def test_fit_cells_are_isomorphism_classes(capsys):
    # over labeled graphs every cell falls below the pooling threshold
    code, out = _run(["fit", "--n", "6", "--d", "3", "--m", "2", "--model",
                      "fminus", "--trials", "3000"], capsys)
    assert code == 0
    fit = json.loads(out)["results"]["chi_square"]
    assert fit["dof"] > 0 and fit["p_value"] > 1e-4


def test_schedule_mass_subcommand(capsys):
    code, out = _run(["schedule-mass", "--n", "12", "--d", "4"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["c0_scaling_exact"] is True


def test_sweep_emits_rows(capsys):
    code, out = _run(["sweep", "--command", "couple-upper", "--param", "eps",
                      "--values", "0.5,0.9", "--n", "6", "--d", "3",
                      "--trials", "8", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3  # header + one row per eps value
    assert "eps" in lines[0] and "rate" in lines[0]


def test_sweep_over_vertex_count(capsys):
    code, out = _run(["sweep", "--command", "couple-upper", "--param", "n",
                      "--values", "4,6", "--d", "3", "--trials", "2",
                      "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    n_col = lines[0].split(",").index("n")
    assert [line.split(",")[n_col] for line in lines[1:]] == ["4", "6"]


def test_sweep_param_must_be_a_model_option(capsys):
    # an unknown name would run the same experiment once per value
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--command", "couple-upper", "--param", "foo",
              "--values", "1,2", "--n", "6", "--d", "3", "--trials", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'foo'" in capsys.readouterr().err


def test_negative_eps_is_a_usage_error(capsys):
    # not a ZeroDivisionError traceback, nor trials run with a negative R
    for command in (["schedule-mass"], ["couple-upper", "--trials", "2"]):
        assert main([*command, "--n", "6", "--d", "3", "--eps", "-1"]) == 2
        assert "error: eps must be nonnegative" in capsys.readouterr().err


def test_nonfinite_or_negative_constants_are_usage_errors(capsys):
    # not an OverflowError traceback, the exit code of a failed hard check,
    # NaN thresholds, nor a negative schedule mass within budget
    for argv in (["couple-upper", "--trials", "1", "--eps", "inf"],
                 ["schedule-mass", "--eps", "inf"],
                 ["couple-lower", "--trials", "1", "--eta", "inf"],
                 ["schedule-mass", "--c0", "nan"],
                 ["schedule-mass", "--mu", "nan"],
                 ["couple-upper", "--trials", "1", "--c0", "nan"],
                 ["schedule-mass", "--c0", "-1"]):
        assert main([*argv, "--n", "6", "--d", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be nonnegative and finite" in err


def test_fit_without_samples_is_a_usage_error(capsys):
    # no samples would give a vacuous fit (dof 0, p_value 1.0)
    for trials in ("0", "-5"):
        assert main(["fit", "--n", "6", "--d", "3", "--m", "2",
                     "--trials", trials]) == 2
        assert "error: no samples" in capsys.readouterr().err


def test_model_flags_track_model_params(capsys):
    fields = dataclasses.fields(ModelParams)
    argv = ["couple-upper"]
    for f in fields:
        argv += ["--" + f.name.replace("_", "-"), "1"]
    args = build_parser().parse_args(argv)
    for f in fields:
        value = getattr(args, f.name)
        assert (type(value).__name__, value) == (f.type, 1), f.name
    code, out = _run(["sweep", "--command", "verify-marginals", "--param",
                      "exact_ceiling", "--values", "5,6", "--n", "5", "--d", "2",
                      "--format", "json"], capsys)
    assert code == 0
    swept = [entry["exact_ceiling"] for entry in json.loads(out)["results"]["sweep"]]
    assert swept == [5, 6] and all(type(v) is int for v in swept)


def test_emit_plot_data_empty_report():
    report = {"results": {"rows": [], "columns": ["a", "b"]}}
    assert emit_plot_data(report) == "a,b\n"


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"host": K5, "d": 2}))
    code, out = _run(["--config", str(cfg), "count"], capsys)
    assert code == 0
    assert out.strip() == "12"
    cfg.write_text(json.dumps({"host": K5, "d": 2, "format": "json"}))
    code, out = _run(["--config", str(cfg), "count"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["count"] == "12"
    code, out = _run([f"--config={cfg}", "count"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["count"] == "12"
    # an abbreviation would parse and then be ignored, so it is refused
    with pytest.raises(SystemExit) as exc:
        main(["--conf", str(cfg), "count"])
    assert exc.value.code == 2


def test_explicit_flags_beat_config_file(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"host": K5, "d": 2, "seed": 5, "trials": 7}))
    code, out = _run(["--config", str(cfg), "count", "--seed", "0",
                      "--trials", "100", "--format", "json"], capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["seed"], config["trials"]) == (0, 100)
    code, out = _run(["--config", str(cfg), "count", "--format", "json"], capsys)
    report = json.loads(out)
    assert (report["config"]["seed"], report["config"]["trials"]) == (5, 7)
    assert report["results"]["count"] == "12"
    code, out = _run(["--config", str(cfg), "count", "--d", "4"], capsys)
    assert out.strip() == "1"
    cfg.write_text(json.dumps({"command": "couple-lower", "param": "eps",
                               "values": "0.5", "n": 4, "d": 3, "trials": 1}))
    code, out = _run(["--config", str(cfg), "sweep", "--format", "json"], capsys)
    report = json.loads(out)
    assert report["config"]["command"] == "sweep"
    assert report["config"]["options"]["command"] == "couple-lower"
    assert report["results"]["sweep"][0]["results"]["trials"] == 1


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code = main(["verify-marginals", "--n", "5", "--d", "2", "--out",
                 str(target)])
    assert code == 0
    report = json.loads(target.read_text())
    assert report["results"]["marginal_check"] == "exact"


C6 = "n=6;edges=1-2,2-3,3-4,4-5,5-6,1-6"


def test_usage_error_exit_code(capsys):
    assert main(["count", "--host", "garbage", "--d", "2"]) == 2
    # vertices outside 1..n are usage errors, not crashes or empty checks
    for extra in (["--kind", "le", "--e", "7-8"],
                  ["--kind", "le", "--e", "1-9"],
                  ["--kind", "lef", "--e", "1-2", "--f-edge", "7-9"],
                  ["--kind", "ten", "--e", "1-2", "--f-edge", "4-9"],
                  ["--kind", "six-two", "--wprime", "1,9"],
                  ["--kind", "six-one", "--wprime", "0,1"],
                  # a host that is not d-regular
                  ["--kind", "six-two", "--wprime", "1,2", "--d", "3"],
                  # invalid edges are refused even when no left member exists
                  ["--kind", "le", "--e", "1-3"],
                  ["--kind", "lef", "--e", "1-2", "--f-edge", "2-3"],
                  ["--kind", "lef", "--e", "1-2", "--f-edge", "1-2"],
                  ["--kind", "ten", "--e", "1-2", "--f-edge", "4-5"]):
        assert main(["switchings", "--host", C6, "--d", "2", *extra]) == 2
        assert "error:" in capsys.readouterr().err
    assert main(["kimvu", "--n", "8", "--d", "3", "--m", "6",
                 "--x", "1", "--y", "99"]) == 2
    assert "error:" in capsys.readouterr().err
    for avoid in ("99", "-1"):
        assert main(["paths", "--f", "n=4;edges=1-2", "--k", "n=4;edges=2-3",
                     "--x", "1", "--y", "3", "--ell", "1", "--avoid", avoid]) == 2
        assert f"error: vertex {avoid} outside 1..4" in capsys.readouterr().err
    # a flag the chosen mode does not read is refused, not dropped
    for mode, extra, name in (("from-vertex", ["--y", "3"], "y"),
                              ("from-vertex", ["--avoid", "2"], "avoid"),
                              ("weighted-endpoint-sum", ["--y", "3"], "y"),
                              ("weighted-endpoint-sum", ["--avoid", "2"], "avoid"),
                              ("weighted-endpoint-sum", ["--start-in-k"],
                               "start_in_k")):
        assert main(["paths", "--f", "n=4;edges=1-2", "--k", "n=4;edges=2-3",
                     "--x", "1", "--ell", "1", "--mode", mode, *extra]) == 2
        assert f"error: {name} is not read in mode '{mode}'" in capsys.readouterr().err
    assert main(["paths", "--f", "n=4;edges=1-2", "--k", "n=4;edges=2-3",
                 "--x", "1", "--ell", "1", "--mode", "from-vertex",
                 "--start-in-k"]) == 0
    capsys.readouterr()
    # odd dn is refused when the parameters are built
    assert main(["schedule-mass", "--n", "5", "--d", "3"]) == 2
    assert "error: dn must be even" in capsys.readouterr().err


def test_capacity_error_exit_code(capsys):
    assert main(["verify-marginals", "--n", "8", "--d", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_flag_without_path_exit_code(capsys):
    assert main(["count", "--config"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_file_not_an_object_exit_code(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("[1, 2]")
    assert main(["--config", str(cfg), "count"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_file_value_rejected_like_its_flag(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"host": K5, "d": 2, "format": "xml"}))
    assert main(["--config", str(cfg), "count"]) == 2
    assert "error:" in capsys.readouterr().err
    # an explicit flag replaces the file value, so nothing invalid is left
    code, out = _run(["--config", str(cfg), "count", "--format", "plain"], capsys)
    assert (code, out.strip()) == (0, "12")
    for bad in ({"n": [6]}, {"n": 6.5}, {"eps": [0.5]}):
        cfg.write_text(json.dumps({"n": 6, "d": 3, "trials": 1, **bad}))
        assert main(["--config", str(cfg), "couple-lower"]) == 2
        assert "error:" in capsys.readouterr().err
    cfg.write_text(json.dumps({"n": 4, "d": 3, "eps": 1, "trials": 1}))
    assert main(["--config", str(cfg), "couple-lower"]) == 0
    # the subcommand comes from the command line only
    cfg.write_text(json.dumps({"host": K5, "d": 2, "subcommand": "fit"}))
    assert main(["--config", str(cfg), "count"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_file_key_must_be_an_option_of_the_subcommand(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"host": K5, "d": 2, "sed": 5, "n": 9}))
    assert main(["--config", str(cfg), "count"]) == 2
    assert "error: config key 'n' is not an option of count" in capsys.readouterr().err
    for key in ("config", "help"):
        cfg.write_text(json.dumps({"host": K5, "d": 2, key: "x"}))
        assert main(["--config", str(cfg), "count"]) == 2
        assert f"error: config key '{key}'" in capsys.readouterr().err


def test_negative_eta_exit_code(capsys):
    started = time.monotonic()
    assert main(["couple-lower", "--n", "6", "--d", "3", "--eta", "-2",
                 "--trials", "1"]) == 2
    assert time.monotonic() - started < 10
    assert "error:" in capsys.readouterr().err


def test_report_counts_oracle_cache_lookups():
    report = run_experiment(ExperimentConfig("couple-upper", {"n": 6, "d": 3},
                                             seed=1, trials=3))
    cache = report["timing"]["oracle_cache"]
    assert set(cache) == {"hits", "misses", "entries"}
    assert cache["hits"] + cache["misses"] > 0


def _subparsers():
    parser = build_parser()
    return next(a.choices for a in parser._actions if isinstance(a.choices, dict))


# a config file each subcommand runs from, with exit 0
_VALID_CONFIGS = {
    "count": {"host": K5, "d": 2},
    "paths": {"f": "n=4;edges=1-2", "k": "n=4;edges=2-3", "x": 1, "y": 3, "ell": 1},
    "switchings": {"host": C6, "d": 2, "kind": "le", "e": "1-2"},
    "audit": {"property": "degree-band", "n": 8, "d": 3, "m": 6},
    "kimvu": {"n": 8, "d": 3, "m": 6, "x": 1, "y": 2},
    "schedule-mass": {"n": 6, "d": 3},
    "fit": {"n": 5, "d": 2, "m": 2, "trials": 50},
    "couple-upper": {"n": 4, "d": 3, "trials": 1},
    "couple-lower": {"n": 4, "d": 3, "trials": 1},
    "verify-marginals": {"n": 5, "d": 2},
    "sweep": {"command": "verify-marginals", "param": "n", "values": "5", "d": 2},
}


def test_every_subcommand_has_a_valid_config():
    assert set(_VALID_CONFIGS) == set(_subparsers())


@pytest.mark.parametrize("command", list(_VALID_CONFIGS))
def test_config_values_are_refused_like_their_flags(tmp_path, capsys, command):
    # generated from the parser, so a flag added later is covered too
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_VALID_CONFIGS[command]))
    assert main(["--config", str(cfg), command, "--out", str(tmp_path / "r")]) == 0
    for action in _subparsers()[command]._actions:
        cases = []
        if action.type in (int, float):
            cases += [True, [1]] + ([1.5] if action.type is int else [])
        if action.nargs == 0 and action.dest != "help":
            cases.append("no")
        if action.choices:
            cases.append("not-a-choice")
        for value in cases:
            cfg.write_text(json.dumps({**_VALID_CONFIGS[command], action.dest: value}))
            assert main(["--config", str(cfg), command]) == 2, (action.dest, value)
            err = capsys.readouterr().err
            assert f"error: argument {action.option_strings[0]}" in err
            assert "Traceback" not in err


@pytest.mark.parametrize("command, values", [
    ("couple-upper", {"n": 6.0}),
    ("couple-upper", {"trials": True}),
    ("couple-upper", {"eps": True}),
    ("couple-upper", {"jobs": 1.0}),
    ("audit", {"property": "expansion-k", "log_divisor": "no"}),
    ("paths", {"avoid": [2]}),
    ("count", {"host": 5}),
])
def test_config_values_its_flag_would_refuse(tmp_path, capsys, command, values):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**_VALID_CONFIGS[command], **values}))
    assert main(["--config", str(cfg), command]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_config_values_are_typed_as_their_flags(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "config.json"
    # a number for a string option is its text, as on the command line
    cfg.write_text(json.dumps({"host": K5, "d": 2, "out": 7}))
    assert main(["--config", str(cfg), "count"]) == 0
    assert (tmp_path / "7").read_text() == "12\n"
    cfg.write_text(json.dumps({"n": "4", "d": 3, "eps": 1, "trials": 1,
                               "format": "json"}))
    code, out = _run(["--config", str(cfg), "couple-lower"], capsys)
    assert code == 0
    options = json.loads(out)["config"]["options"]
    assert (options["n"], options["eps"]) == (4, 1.0)
    assert type(options["n"]) is int and type(options["eps"]) is float
    for switch, expected in ((True, True), (False, False), (None, False)):
        cfg.write_text(json.dumps({"property": "expansion-k", "n": 8, "d": 3,
                                   "m": 6, "log_divisor": switch}))
        report = _audit_report(capsys, "--config", str(cfg))
        assert report["params"]["log_divisor"] is expected


_SWEEP_N = ["--param", "n", "--values", "4", "--d", "3"]


@pytest.mark.parametrize("argv, name", [
    (["sweep", "--command", "nonsense", *_SWEEP_N], "nonsense"),
    (["sweep", "--command", "sweep", *_SWEEP_N], "sweep"),
    (["couple-upper", "--format", "plain", "--n", "4", "--d", "3"], "plain"),
])
def test_choice_flags_are_checked_by_the_parser(capsys, argv, name):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"invalid choice: '{name}'" in capsys.readouterr().err


@pytest.mark.parametrize("prop", ["degree-band", "fk-degrees", "neighborhood-sums",
                                  "expansion-k", "expansion-fk", "local-density",
                                  "connection", "uv-distribution"])
def test_audit_at_m_zero_does_not_crash(capsys, prop):
    report = _audit_report(capsys, "--property", prop, "--n", "6", "--m", "0")
    if prop in ("fk-degrees", "neighborhood-sums", "expansion-fk"):
        assert report["notes"] == "vacuous: delta = 0 leaves the bound undefined"


def test_kimvu_at_d_n_minus_one_is_a_usage_error(capsys):
    # K_3(4) is complete: the edge probability m / (C(n,2) - dn/2) is 0/0
    assert main(["kimvu", "--n", "4", "--d", "3", "--m", "0",
                 "--x", "1", "--y", "2"]) == 2
    assert "error: kimvu needs d < n-1" in capsys.readouterr().err
