"""Golden-output and exit-code tests for the command-line interface."""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import DATA_DIR, assert_matches_golden
from nmecut import cli
from nmecut.cli import main
from nmecut.estimator import MODES
from nmecut.experiment import CSV_HEADER
from nmecut.qpd import _nme_wire_cut


# Golden CSV name -> the flags its sweep adds to golden_sweep_argv.
GOLDEN_SWEEPS = {
    "golden_stratified_paired.csv": [],
    "golden_multinomial_unpaired.csv": ["--mode", "multinomial", "--unpaired"],
}


def golden_sweep_argv(out_path):
    return [
        "experiment",
        "--f", "0.5", "0.7", "1.0",
        "--shots", "1", "2", "3", "10", "250", "1000",
        "--n-states", "20",
        "--seed", "20240901",
        "--out", str(out_path),
    ]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOverhead:
    def test_separable(self, capsys):
        code, out, _ = run_cli(["overhead", "--f", "0.5"], capsys)
        assert code == 0
        assert out.strip() == "3"

    def test_maximally_entangled(self, capsys):
        code, out, _ = run_cli(["overhead", "--k", "1"], capsys)
        assert code == 0
        assert out.strip() == "1"

    def test_twelve_significant_digits(self, capsys):
        code, out, _ = run_cli(["overhead", "--f", "0.9"], capsys)
        assert code == 0
        assert out.strip() == "1.22222222222"

    def test_requires_exactly_one_flag(self, capsys):
        assert run_cli(["overhead"], capsys)[0] == 2
        assert run_cli(["overhead", "--k", "1", "--f", "0.9"], capsys)[0] == 2

    def test_bad_range(self, capsys):
        code, _, err = run_cli(["overhead", "--f", "0.3"], capsys)
        assert code == 2
        assert "0.5" in err

    def test_negative_k(self, capsys):
        assert run_cli(["overhead", "--k", "-2"], capsys)[0] == 2

    def test_huge_k_is_the_entanglement_free_limit(self, capsys):
        code, out, _ = run_cli(["overhead", "--k", "1e200"], capsys)
        assert code == 0
        assert out.strip() == "3"


class TestDecompose:
    def test_maximally_entangled_two_terms(self, capsys):
        code, out, _ = run_cli(["decompose", "--k", "1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "0  +0.5  teleport[H]  resource",
            "1  +0.5  teleport[SH]  resource",
            "kappa 1",
        ]

    def test_half_entangled(self, capsys):
        code, out, _ = run_cli(["decompose", "--k", "0.5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "0  +0.555555555556  teleport[H]  resource"
        assert lines[1] == "1  +0.555555555556  teleport[SH]  resource"
        assert lines[2] == "2  -0.111111111111  measure-prepare-flip  -"
        assert lines[3] == "kappa 1.22222222222"

    def test_separable(self, capsys):
        code, out, _ = run_cli(["decompose", "--k", "0"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("0  +1  ")
        assert lines[2].startswith("2  -1  ")
        assert lines[3] == "kappa 3"

    def test_invalid_k(self, capsys):
        assert run_cli(["decompose", "--k", "-1"], capsys)[0] == 2


class TestVerify:
    def test_all_cases_pass(self, capsys):
        code, out, _ = run_cli(["verify", "--all"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12  # entanglement-free cut plus 11 k values
        assert all(line.endswith("ok") for line in lines)

    def test_single_value(self, capsys):
        code, out, _ = run_cli(["verify", "--k", "1"], capsys)
        assert code == 0
        assert "ok" in out

    def test_line_reports_choi_and_ptm_deviations(self, capsys):
        code, out, _ = run_cli(["verify", "--k", "0.5"], capsys)
        assert code == 0
        assert re.fullmatch(r"k=0\.5 +max-choi-deviation \S+  max-ptm-deviation \S+  ok\n", out)

    @pytest.mark.parametrize("deviations", [(0.0, 1e-9), (1e-9, 0.0)], ids=["ptm", "choi"])
    def test_either_deviation_fails_the_line(self, deviations, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_max_deviations", lambda _: deviations)
        code, out, _ = run_cli(["verify", "--k", "0.5"], capsys)
        assert code == 1
        assert out.endswith("  FAIL\n")

    def test_invalid_k(self, capsys):
        assert run_cli(["verify", "--k", "-1"], capsys)[0] == 2

    def test_requires_exactly_one_selector(self, capsys):
        assert run_cli(["verify"], capsys)[0] == 2
        assert run_cli(["verify", "--k", "1", "--all"], capsys)[0] == 2


class TestExperiment:
    def test_deterministic_csv(self, tmp_path, capsys):
        args = [
            "experiment",
            "--n-states", "6",
            "--shots", "100", "200",
            "--f", "0.5", "1.0",
            "--seed", "42",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("golden, extra", GOLDEN_SWEEPS.items())
    def test_matches_committed_golden_csv(self, golden, extra, tmp_path, capsys):
        # Cross-version pin: budgets of 1-3 shots leave some terms with no
        # shots, so the zero-shot skip path is covered as well.
        out_path = tmp_path / golden
        assert run_cli(golden_sweep_argv(out_path) + extra, capsys)[0] == 0
        assert_matches_golden(out_path.read_bytes(), golden)

    def test_warm_process_writes_the_cold_bytes(self, tmp_path, capsys):
        # The parser and each k's decomposition are built once per process; reusing them must leak no
        # flag, default or state between calls, whatever ran before.
        def sweep(golden, label):
            out_path = tmp_path / f"{label}-{golden}"
            assert run_cli(golden_sweep_argv(out_path) + GOLDEN_SWEEPS[golden], capsys)[0] == 0
            assert_matches_golden(out_path.read_bytes(), golden)

        paired, unpaired = GOLDEN_SWEEPS
        for golden in (paired, unpaired):
            cli.build_parser.cache_clear()
            _nme_wire_cut.cache_clear()
            sweep(golden, "cold")
        sweep(unpaired, "warm")
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "--mode", "bogus"])
        assert excinfo.value.code == 2
        assert run_cli(["experiment", "--n-states", "0", "--out", str(tmp_path / "x.csv")], capsys)[0] == 2
        sweep(paired, "warm")

    def test_summary_table_printed(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "experiment",
                "--n-states", "2",
                "--shots", "100",
                "--f", "0.9",
                "--seed", "1",
                "--out", str(tmp_path / "t.csv"),
            ],
            capsys,
        )
        assert code == 0
        assert "avg_error" in out
        assert "wrote 1 records" in out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"f_values": [0.9], "shot_grid": [100], "n_states": 3, "seed": 4})
        )
        out_path = tmp_path / "cfg.csv"
        code, _, _ = run_cli(
            ["experiment", "--config", str(config), "--n-states", "2", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        rows = out_path.read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].split(",")[-1] == "2"  # flag overrides the file's n_states

    def test_f_just_above_one_half_writes_k_as_positive_zero(self, tmp_path, capsys):
        out_path = tmp_path / "near_half.csv"
        args = ["experiment", "--f", "0.5000000001", "--shots", "250", "500", "--n-states", "20", "--out", str(out_path)]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert [row.split(",")[1] for row in out_path.read_text().splitlines()[1:]] == ["0.0", "0.0"]
        assert [line.split()[1] for line in out.splitlines()[2:]] == ["0", "0"]

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["experiment", "--f", "0.2", "--out", str(tmp_path / "x.csv")], capsys
        )
        assert code == 2
        assert "0.5" in err

    def test_n_states_above_the_memory_cap_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["experiment", "--n-states", str(2**22 + 1), "--out", str(tmp_path / "x.csv")], capsys
        )
        assert code == 2
        assert "n_states" in err
        assert not (tmp_path / "x.csv").exists()

    def test_seed_env_var_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NMECUT_SEED", "99")
        args = [
            "experiment", "--n-states", "2", "--shots", "100", "--f", "1.0",
        ]
        a = tmp_path / "env.csv"
        b = tmp_path / "explicit.csv"
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        monkeypatch.delenv("NMECUT_SEED")
        assert run_cli(args + ["--seed", "99", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_integer_seed_env_var_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NMECUT_SEED", "abc")
        code, _, err = run_cli(
            ["experiment", "--n-states", "1", "--shots", "10", "--f", "1.0",
             "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2
        assert "NMECUT_SEED" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("seed", ["-5", str(2**64)])
    def test_seed_outside_uint64_exits_two(self, seed, tmp_path, capsys):
        code, _, err = run_cli(
            ["experiment", "--n-states", "1", "--shots", "10", "--f", "1.0",
             "--seed", seed, "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2
        assert "seed" in err

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "experiment",
                "--n-states", "1",
                "--shots", "100",
                "--f", "1.0",
                "--out", str(tmp_path / "missing-dir" / "x.csv"),
            ],
            capsys,
        )
        assert code == 1
        assert "x.csv" in err


# Each malformed config, with the text its error must name.
MALFORMED_CONFIGS = [
    (b"[1,2]", "f_values"),
    (b'{"n_states": 2.5}', "n_states"),
    (b'{"n_states": true}', "n_states"),
    (b'{"f_values": "0.9"}', "f_values"),
    (b'{"n_state": 2}', "n_state"),
    (b'{"seed": true}', "seed"),
    (b'{"paired": "false"}', "paired"),
    (None, "nope.json"),
    ('{"seed": 1, "note": "caf\u00e9"}'.encode("latin-1"), "malformed.json"),
    (b'{"shot_grid": [100000000000000000000], "n_states": 1}', "shot_grid"),
    (b'{"f_values": [1' + b"0" * 400 + b"]}", "f must lie in [0.5, 1]"),
    (b'{"f_values": [1' + b"0" * 5000 + b"]}", "malformed.json"),
]


class TestExperimentConfigErrors:
    @pytest.mark.parametrize(
        "content, named",
        MALFORMED_CONFIGS,
        ids=["not-an-object", "float-n-states", "bool-n-states", "string-f-values", "typo",
             "bool-seed", "string-paired", "missing-file", "not-utf8", "huge-shots", "huge-f",
             "f-over-int-parse-limit"],
    )
    def test_malformed_config_exits_two(self, content, named, tmp_path, capsys):
        config = tmp_path / ("nope.json" if content is None else "malformed.json")
        if content is not None:
            config.write_bytes(content)
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(
            ["experiment", "--config", str(config), "--out", str(out_path)], capsys
        )
        assert code == 2
        assert "Traceback" not in err
        assert named in err
        assert not out_path.exists()

    def test_integer_f_in_file_matches_float_flag(self, tmp_path, capsys):
        config = tmp_path / "int-f.json"
        config.write_text(json.dumps({"f_values": [1], "shot_grid": [10, 100], "n_states": 3, "seed": 5}))
        flags = ["--f", "1", "--shots", "10", "100", "--n-states", "3", "--seed", "5"]
        a, b = tmp_path / "file.csv", tmp_path / "flag.csv"
        assert run_cli(["experiment", "--config", str(config), "--out", str(a)], capsys)[0] == 0
        assert run_cli(["experiment", *flags, "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_paired_false_in_file_matches_unpaired_flag(self, tmp_path, capsys):
        base = {"f_values": [0.5, 1.0], "shot_grid": [10, 100], "n_states": 3, "seed": 5}
        config = tmp_path / "unpaired.json"
        config.write_text(json.dumps(dict(base, paired=False)))
        plain = tmp_path / "paired.json"
        plain.write_text(json.dumps(base))
        a, b, c = tmp_path / "file.csv", tmp_path / "flag.csv", tmp_path / "paired.csv"
        assert run_cli(["experiment", "--config", str(config), "--out", str(a)], capsys)[0] == 0
        assert run_cli(["experiment", "--config", str(plain), "--unpaired", "--out", str(b)], capsys)[0] == 0
        assert run_cli(["experiment", "--config", str(plain), "--out", str(c)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


class TestPlot:
    @pytest.fixture()
    def sweep_csv(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            [
                "experiment",
                "--n-states", "40",
                "--shots", "250", "500", "1000", "2000", "4000",
                "--f", "0.5", "1.0",
                "--seed", "11",
                "--out", str(path),
            ],
            capsys,
        )
        assert code == 0
        return path

    def test_renders_svg(self, sweep_csv, tmp_path, capsys):
        out = tmp_path / "chart.svg"
        code, text, _ = run_cli(["plot", "--in", str(sweep_csv), "--out", str(out)], capsys)
        assert code == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 2
        assert "f = 0.5" in svg and "f = 1" in svg

    def test_matches_committed_golden_svg(self, tmp_path, capsys):
        # The chart is drawn from the CSV by Python's float formatting alone, with no numpy stream,
        # so its bytes are compared directly rather than through the numpy provenance of the CSVs.
        out = tmp_path / "golden.svg"
        args = ["plot", "--in", str(DATA_DIR / "golden_stratified_paired.csv"), "--out", str(out)]
        assert run_cli(args, capsys)[0] == 0
        assert out.read_bytes() == (DATA_DIR / "golden_stratified_paired.svg").read_bytes()

    def test_assert_passes_on_sweep(self, sweep_csv, tmp_path, capsys):
        code, out, _ = run_cli(
            ["plot", "--in", str(sweep_csv), "--out", str(tmp_path / "c.svg"), "--assert"],
            capsys,
        )
        assert code == 0
        assert "all checks passed" in out

    def test_assert_fails_on_flat_series(self, tmp_path, capsys):
        bad = tmp_path / "flat.csv"
        rows = ["f,k,shots,avg_error,std_error,n_states"]
        for shots in (250, 1000, 4000):
            rows.append(f"0.5,0.0,{shots},0.05,0.001,10")
            rows.append(f"1.0,1.0,{shots},0.05,0.001,10")
        bad.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli(
            ["plot", "--in", str(bad), "--out", str(tmp_path / "f.svg"), "--assert"],
            capsys,
        )
        assert code == 1
        assert "check failed" in err

    def test_malformed_csv_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,sweep\n1,2,3\n")
        code, _, _ = run_cli(
            ["plot", "--in", str(bad), "--out", str(tmp_path / "x.svg")], capsys
        )
        assert code == 2

    def test_assert_fails_when_every_error_is_nan(self, tmp_path, capsys):
        nan_csv = tmp_path / "nan.csv"
        rows = ["f,k,shots,avg_error,std_error,n_states"]
        for shots in (250, 1000, 4000):
            rows.append(f"0.5,0.0,{shots},nan,nan,10")
            rows.append(f"1.0,1.0,{shots},nan,nan,10")
        nan_csv.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(
            ["plot", "--in", str(nan_csv), "--out", str(tmp_path / "n.svg"), "--assert"],
            capsys,
        )
        assert code == 1
        assert "all checks passed" not in out
        assert err.count("check failed") >= 6

    @pytest.mark.parametrize("check", [False, True], ids=["plot", "plot-assert"])
    def test_infinite_error_is_skipped_by_the_chart_and_flagged_by_the_check(self, tmp_path, capsys, check):
        inf_csv = tmp_path / "inf.csv"
        inf_csv.write_text("f,k,shots,avg_error,std_error,n_states\n0.5,0.0,10,inf,0.1,5\n")
        svg = tmp_path / "inf.svg"
        code, _, err = run_cli(["plot", "--in", str(inf_csv), "--out", str(svg)] + ["--assert"] * check, capsys)
        assert code == (1 if check else 0)
        assert "Traceback" not in err
        assert svg.exists()
        assert ("avg_error inf is not a positive finite number" in err) == check

    @pytest.mark.parametrize(
        "rows, named",
        [
            (["0.5,0.0,250,0.1,0.01,10", "0.5,0.0,0,0.2,0.01,10", "0.5,0.0,1000,0.05,0.01,10"], ":3: shots"),
            (["0.5,0.0,250,0.1,0.01,10", "0.5,0.0,-100,0.2,0.01,10"], ":3: shots"),
            (["nan,0.0,250,0.1,0.01,10", "nan,0.0,1000,0.05,0.01,10"], ":2: f must"),
            (["0.5,0.0,250,0.1,0.01,10", "0.5,0.0,250,0.09,0.01,10", "0.5,0.0,1000,0.05,0.01,10"], ":3: repeats"),
        ],
        ids=["zero-shots", "negative-shots", "nan-f", "repeated-cell"],
    )
    def test_assert_rejects_a_row_no_sweep_writes(self, rows, named, tmp_path, capsys):
        # These used to end in a LinAlgError traceback, pass with nothing checked, or fit a meaningless slope.
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(["f,k,shots,avg_error,std_error,n_states", *rows]) + "\n")
        code, out, err = run_cli(["plot", "--in", str(bad), "--out", str(tmp_path / "x.svg"), "--assert"], capsys)
        assert code == 2
        assert "Traceback" not in err
        assert "all checks passed" not in out
        assert f"bad.csv{named}" in err

    def test_non_utf8_csv_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("f,k,shots,avg_error,std_error,n_states\n0.5,0,250,0.1,0.01,10 é\n".encode("latin-1"))
        code, _, err = run_cli(
            ["plot", "--in", str(bad), "--out", str(tmp_path / "x.svg")], capsys
        )
        assert code == 2
        assert "UTF-8" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["plot", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.svg")],
            capsys,
        )
        assert code == 2


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["overhead", "decompose", "verify", "experiment", "plot"]
    )
    def test_subcommand_help(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "--" in capsys.readouterr().out

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["unknown-command"])
        assert excinfo.value.code == 2


# Tokens a user or a script might pass where a number belongs; "٣" is an Arabic-Indic 3, which int() accepts.
TOKENS = ("nan", "inf", "-inf", "1e400", "1e-300", "-1", "0", "abc", "0x10", "٣", "")


def mostly(good, bad):
    """A draw from the strategy `good` about nine times in ten, else from `bad`.

    An example fails at its first bad argument, so most arguments must be good for the checks behind
    argparse and behind the first one to run at all.
    """
    return st.tuples(st.integers(0, 9), good, bad).map(lambda drawn: drawn[2] if drawn[0] == 0 else drawn[1])


def value(*good):
    """One argument: mostly a value from `good`, else a token from TOKENS."""
    return mostly(st.sampled_from(good), st.sampled_from(TOKENS))


def flag(name, *values):
    """[] or [name, one draw from each of `values`]."""
    return st.one_of(st.just([]), st.tuples(*values).map(lambda drawn: [name, *drawn]))


K, F, COUNT = value("0", "0.5", "1"), value("0.5", "0.9", "1"), value("1", "2", "٣")


def experiment_argv(data, tmp_path):
    config = tmp_path / "config.json"
    field, setting = data.draw(
        st.sampled_from([("f_values", F), ("shot_grid", COUNT), ("n_states", COUNT), ("seed", COUNT)])
    )
    config.write_text(f'{{"{field}": {data.draw(setting) or "null"}}}', encoding="utf-8")
    # n-states and shots are always given, so every sweep stays at <= 3 states and <= 2 budgets.
    return [
        "experiment", "--n-states", data.draw(COUNT), "--shots", *data.draw(st.lists(COUNT, min_size=1, max_size=2)),
        "--out", str(tmp_path / data.draw(mostly(st.just("out.csv"), st.just("missing/out.csv")))),
        *data.draw(flag("--f", F) | flag("--f", F, F)),
        *data.draw(flag("--seed", COUNT)),
        *data.draw(flag("--mode", st.sampled_from([*MODES, "abc"]))),
        *data.draw(flag("--unpaired")),
        *data.draw(flag("--config", mostly(st.just(str(config)), st.just(str(tmp_path / "nope.json"))))),
    ]


def plot_argv(data, tmp_path):
    header = data.draw(value(",".join(CSV_HEADER)))
    row = st.tuples(F, K, value("10", "250", "1000"), value("0.1", "0.01"), value("0.01"), COUNT).map(list)
    ragged = st.lists(st.sampled_from(TOKENS), min_size=5, max_size=7)
    rows = data.draw(st.lists(mostly(row, ragged).map(",".join), max_size=3))
    csv = tmp_path / "in.csv"
    csv.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return ["plot", "--in", str(csv), "--out", str(tmp_path / "out.svg"), *data.draw(flag("--assert"))]


FUZZ_ARGV = {
    "overhead": lambda data, _: ["overhead", *data.draw(flag("--k", K)), *data.draw(flag("--f", F))],
    "decompose": lambda data, _: ["decompose", *data.draw(flag("--k", K))],
    "verify": lambda data, _: ["verify", *data.draw(flag("--k", K)), *data.draw(flag("--all"))],
    "experiment": experiment_argv,
    "plot": plot_argv,
}


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the command line with exit status 2
        return exc.code


class TestFuzz:
    @pytest.mark.parametrize("build", FUZZ_ARGV.values(), ids=FUZZ_ARGV.keys())
    @settings(
        max_examples=20, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_every_command_line_ends_in_an_exit_code(self, build, data, tmp_path):
        # Each example overwrites the same files under tmp_path, so sharing the fixture is safe.
        argv = build(data, tmp_path)
        assert exit_code(argv) in (0, 1, 2), argv
