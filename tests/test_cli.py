import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from anglemerge.cli import EXIT_ERROR, EXIT_NO_CROSSING, EXIT_OK, _save_label_file, main
from anglemerge.geometry import DataSet, save_points_csv
from anglemerge.pipeline import cluster_dataset
from anglemerge.synthetic import SubspaceSpec, gen_subspace_dependent
from helpers import SUBPROCESS_TIMEOUT, unit_sphere_points


def run_cli(*argv):
    return main(list(argv))


def assert_one_line_error(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.fixture(scope="module")
def subspace_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "normal.csv"
    code = run_cli(
        "synth", "--model", "normal", "--n", "100", "--r", "10", "--l", "4",
        "--num-points", "400", "--seed", "3", "--out", str(path),
    )
    assert code == EXIT_OK
    return path


class TestSynthAndCluster:
    def test_cluster_recovers_labels_and_exits_zero(self, subspace_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            "cluster", "--input", str(subspace_csv), "--labeled",
            "--seed", "0", "--out", str(out),
        )
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert report["crossed"] is True
        assert report["l_hat"] == 4
        assert report["ce"] == 0.0
        assert report["nmi"] == 1.0
        assert len(report["trace"]) == report["initial_k"] - 1
        assert report["under_split"]["flagged"] is False
        # The stdout line holds every report field but the trace.
        printed = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert printed == {k: v for k, v in report.items() if k != "trace"}
        labels = np.loadtxt(out / "labels.csv", dtype=int)
        assert labels.shape == (400,)

    def test_label_file_has_the_bytes_of_savetxt(self, tmp_path):
        labels = np.array([0, 3, 12, 130, 4096, -1, 2**62], dtype=np.int64)
        _save_label_file(tmp_path / "labels.csv", labels)
        np.savetxt(tmp_path / "expected.csv", labels, fmt="%d")
        assert (tmp_path / "labels.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_unlabeled_report_omits_metrics(self, subspace_csv, tmp_path):
        unlabeled = tmp_path / "points.csv"
        raw = np.loadtxt(subspace_csv, delimiter=",")
        np.savetxt(unlabeled, raw[:, :-1], delimiter=",")
        out = tmp_path / "run"
        code = run_cli("cluster", "--input", str(unlabeled), "--out", str(out))
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert "ce" not in report and "nmi" not in report

    def test_no_crossing_exits_two(self, tmp_path):
        # A single Gaussian cloud: within and between angle distributions
        # coincide, the score never crosses the threshold.
        rng = np.random.default_rng(5)
        data = DataSet(points=unit_sphere_points(rng, 120, 40))
        path = tmp_path / "cloud.csv"
        save_points_csv(path, data)
        out = tmp_path / "run"
        code = run_cli("cluster", "--input", str(path), "--out", str(out))
        assert code == EXIT_NO_CROSSING
        report = json.loads((out / "report.json").read_text())
        assert report["crossed"] is False
        assert report["l_hat"] == 1

    def test_report_is_strict_json_when_zeta_is_infinite(self, tmp_path):
        # A record with t = 1 has zeta = +inf; the report writes it as the
        # number 1e999, not the non-standard token Infinity.
        path = tmp_path / "small.csv"
        assert run_cli("synth", "--model", "normal", "--n", "30", "--r", "3", "--l", "2",
                       "--num-points", "100", "--seed", "0", "--out", str(path)) == EXIT_OK
        out = tmp_path / "run"
        code = run_cli("cluster", "--input", str(path), "--labeled", "--seed", "0",
                       "--out", str(out))
        assert code in (EXIT_OK, EXIT_NO_CROSSING)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        rows = [row for row in report["trace"] if row["t"] < 2]
        assert rows and all(row["zeta"] == np.inf for row in rows)

    @pytest.mark.parametrize("command", ["cluster", "trace"])
    def test_one_initial_cluster_exits_two(self, subspace_csv, tmp_path, command):
        # One initial cluster leaves nothing to merge: no trace, no pair.
        init_path = tmp_path / "init.csv"
        init_path.write_text("7\n" * 400)
        out = tmp_path / "run"
        code = run_cli(command, "--input", str(subspace_csv), "--labeled",
                       "--init-labels", str(init_path), "--out", str(out))
        assert code == EXIT_NO_CROSSING
        if command == "cluster":
            report = json.loads((out / "report.json").read_text())
            assert (report["initial_k"], report["l_hat"], report["crossed"]) == (1, 1, False)
            assert report["trace"] == []
            assert np.loadtxt(out / "labels.csv", dtype=int).tolist() == [0] * 400
        else:
            assert [path.name for path in out.iterdir()] == ["trace.csv"]
            assert (out / "trace.csv").read_text() == "k,gamma,zeta,t\n"

    def test_external_initial_labels(self, subspace_csv, tmp_path):
        raw = np.loadtxt(subspace_csv, delimiter=",")
        truth = raw[:, -1].astype(int)
        # Pure initial clusters: split every true cluster into chunks of 5.
        init = np.zeros(truth.size, dtype=int)
        next_id = 0
        for label in np.unique(truth):
            members = np.where(truth == label)[0]
            for start in range(0, members.size, 5):
                init[members[start : start + 5]] = next_id
                next_id += 1
        init_path = tmp_path / "init.csv"
        np.savetxt(init_path, init, fmt="%d")
        out = tmp_path / "run"
        code = run_cli(
            "cluster", "--input", str(subspace_csv), "--labeled",
            "--init-labels", str(init_path), "--out", str(out),
        )
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["l_hat"] == 4
        assert report["ce"] == 0.0

    def test_float_init_labels_give_the_integer_trace(self, subspace_csv, tmp_path):
        truth = np.loadtxt(subspace_csv, delimiter=",")[:, -1].astype(int)
        init = 2 * truth + np.arange(truth.size) % 2
        outs = []
        for name, fmt in (("int", "%d"), ("float", "%.1f")):
            init_path = tmp_path / f"{name}.csv"
            np.savetxt(init_path, init, fmt=fmt)
            out = tmp_path / name
            code = run_cli(
                "cluster", "--input", str(subspace_csv), "--labeled",
                "--init-labels", str(init_path), "--out", str(out),
            )
            assert code == EXIT_OK
            report = json.loads((out / "report.json").read_text())
            report.pop("elapsed_ms")
            outs.append((json.dumps(report), (out / "labels.csv").read_text()))
        assert "2.0" in (tmp_path / "float.csv").read_text().split()
        assert outs[0] == outs[1]

    def test_deterministic_outputs(self, subspace_csv, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(
                "cluster", "--input", str(subspace_csv), "--labeled",
                "--seed", "9", "--out", str(out),
            )
            report = json.loads((out / "report.json").read_text())
            report.pop("elapsed_ms")  # wall-clock, the one legitimate variation
            outs.append((json.dumps(report), (out / "labels.csv").read_text()))
        assert outs[0] == outs[1]

    def test_csv_path_is_bit_exact_with_the_in_memory_run(self, tmp_path):
        # synth writes the CSV that cluster reads back; the run must be the
        # one cluster_dataset makes on the generated DataSet itself.
        path, out = tmp_path / "data.csv", tmp_path / "run"
        assert run_cli(
            "synth", "--model", "dependent", "--n", "100", "--r", "10", "--l", "12",
            "--num-points", "600", "--seed", "5", "--out", str(path),
        ) == EXIT_OK
        code = run_cli("cluster", "--input", str(path), "--labeled", "--seed", "5",
                       "--out", str(out))
        report = json.loads((out / "report.json").read_text())
        data = gen_subspace_dependent(SubspaceSpec(n=100, r=10, L=12, N=600, seed=5))
        run = cluster_dataset(data, seed=5)

        def hexed(rows):
            return [(r["k"], float.hex(r["gamma"]), float.hex(r["zeta"]), r["t"]) for r in rows]

        assert report["trace"] and hexed(report["trace"]) == hexed(run.trace_rows())
        np.testing.assert_array_equal(np.loadtxt(out / "labels.csv", dtype=np.int64),
                                      run.labels)
        assert code == (EXIT_OK if run.selection.crossed else EXIT_NO_CROSSING)


class TestEvalRoundTrip:
    def test_eval_matches_cluster_report(self, subspace_csv, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(
            "cluster", "--input", str(subspace_csv), "--labeled",
            "--seed", "0", "--out", str(out),
        )
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        truth_path = tmp_path / "truth.csv"
        raw = np.loadtxt(subspace_csv, delimiter=",")
        np.savetxt(truth_path, raw[:, -1].astype(int), fmt="%d")
        code = run_cli("eval", "--truth", str(truth_path), "--pred", str(out / "labels.csv"))
        assert code == EXIT_OK
        scored = json.loads(capsys.readouterr().out)
        assert scored["ce"] == pytest.approx(report["ce"], abs=1e-12)
        assert scored["nmi"] == pytest.approx(report["nmi"], abs=1e-12)


    def test_eval_reads_float_labels_and_large_integers_exactly(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("0\n0\n1\n1\n2\n2\n")
        results = []
        # Integer-valued floats read as integers; integer literals above
        # 2**53 stay distinct, though a float cannot tell them apart.
        for truth_text in ("0\n0\n1\n1\n2\n2\n", "0.0\n0.0\n1.0\n1.0\n2.0\n2.0\n",
                           "7\n7\n9007199254740992\n9007199254740992\n"
                           "9007199254740993\n9007199254740993\n"):
            truth = tmp_path / "truth.csv"
            truth.write_text(truth_text)
            assert run_cli("eval", "--truth", str(truth), "--pred", str(pred)) == EXIT_OK
            results.append(json.loads(capsys.readouterr().out))
        assert results == [{"ce": 0.0, "nmi": 1.0}] * 3


class TestBench:
    def test_campaign_csv_with_summary_rows(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(
            "bench", "--model", "normal", "--n", "100", "--r", "10", "--l", "4",
            "--num-points", "400", "--trials", "3", "--seed", "0", "--out", str(out),
        )
        assert code == EXIT_OK
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        trial_rows = [r for r in rows if r["trial"].isdigit()]
        stat_rows = {r["trial"] for r in rows if not r["trial"].isdigit()}
        assert len(trial_rows) == 3
        assert stat_rows == {"mean", "median", "std"}
        assert [r["seed"] for r in trial_rows] == ["0", "1", "2"]
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert set(summary) == {"mean", "median", "std"}
        # The fully-random regime recovers perfectly at this scale.
        assert summary["mean"]["ce"] == 0.0
        assert summary["mean"]["nmi"] == 1.0
        assert summary["std"]["abs_l_error"] == 0.0

    @pytest.mark.parametrize("model", ["dependent", "dp"])
    def test_trial_rows_equal_the_cluster_reports(self, model, tmp_path, capsys):
        shape = ["--model", model, "--l", "6", "--num-points", "300"]
        out = tmp_path / "bench.csv"
        code = run_cli("bench", *shape, "--trials", "2", "--seed", "4", "--out", str(out))
        assert code == EXIT_OK
        with open(out) as handle:
            rows = [r for r in csv.DictReader(handle) if r["trial"].isdigit()]
        assert [r["seed"] for r in rows] == ["4", "5"]
        for row in rows:
            data, run = tmp_path / f"data{row['seed']}.csv", tmp_path / f"run{row['seed']}"
            assert run_cli("synth", *shape, "--seed", row["seed"], "--out", str(data)) == EXIT_OK
            run_cli("cluster", "--input", str(data), "--labeled", "--seed", row["seed"],
                    "--out", str(run))
            report = json.loads((run / "report.json").read_text())
            for field in ("l_true", "l_hat", "abs_l_error", "ce", "nmi"):
                assert float(row[field]) == report[field], field
            assert int(row["crossed"]) == report["crossed"]

    def test_zero_trials_is_a_typed_error(self, tmp_path, capsys):
        code = run_cli(
            "bench", "--model", "normal", "--trials", "0", "--out", str(tmp_path / "b.csv"),
        )
        assert code == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err)
        assert not (tmp_path / "b.csv").exists()


class TestTrace:
    def test_trace_and_histograms(self, subspace_csv, tmp_path):
        out = tmp_path / "trace"
        code = run_cli(
            "trace", "--input", str(subspace_csv), "--labeled",
            "--seed", "0", "--out", str(out),
        )
        assert code == EXIT_OK
        with open(out / "trace.csv") as handle:
            rows = list(csv.DictReader(handle))
        ks = [int(r["k"]) for r in rows]
        assert ks == list(range(ks[0], 1, -1))
        # Crossing pattern of the selected clustering.
        crossers = [int(r["k"]) for r in rows if float(r["gamma"]) > float(r["zeta"])]
        assert max(crossers) == 4

        sizes = {}
        for name in ("within_hist.csv", "between_hist.csv"):
            with open(out / name) as handle:
                hist = list(csv.DictReader(handle))
            assert len(hist) == 50
            sizes[name] = sum(int(r["count"]) for r in hist)
        # Histogram totals equal the angle-set sizes of the selected pair:
        # C(s_i, 2) within and s_i * s_j between for integer cluster sizes.
        s_within = sizes["within_hist.csv"]
        roots = np.roots([1, -1, -2 * s_within])
        assert any(abs(r - round(float(r.real))) < 1e-9 and r > 0 for r in roots)

    def test_separated_angle_populations_yield_distinct_histograms(self, tmp_path):
        # Two well-separated clusters: the within and between histograms
        # must occupy clearly different angle ranges.
        rng = np.random.default_rng(11)
        a = np.array([1.0] + [0.0] * 29)
        b = np.array([0.0, 1.0] + [0.0] * 28)
        pts = np.vstack(
            [a + rng.normal(0, 0.02, 30) for _ in range(40)]
            + [b + rng.normal(0, 0.02, 30) for _ in range(40)]
        )
        path = tmp_path / "two.csv"
        save_points_csv(path, DataSet(points=pts))
        out = tmp_path / "trace"
        run_cli("trace", "--input", str(path), "--seed", "0", "--out", str(out))

        def hist_mean(name):
            with open(out / name) as handle:
                rows = list(csv.DictReader(handle))
            total = sum(int(r["count"]) for r in rows)
            return (
                sum(
                    (float(r["bin_lo"]) + float(r["bin_hi"])) / 2 * int(r["count"])
                    for r in rows
                )
                / total
            )

        within_mean = hist_mean("within_hist.csv")
        between_mean = hist_mean("between_hist.csv")
        assert between_mean - within_mean > 1.0


class TestBounds:
    def test_table_rows(self, capsys):
        code = run_cli(
            "bounds", "--t-list", "11,51,101,151", "--mean-sep", "0",
            "--var-ratio-sum", "3", "--format", "json",
        )
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["t"] for r in rows] == [11, 51, 101, 151]
        published = [0.970174, 0.999567, 0.999980, 0.999998]
        for row, expected in zip(rows, published):
            assert row["one_minus_eps"] == pytest.approx(expected, abs=1e-5)
        assert all(r["t_min"] == 1575 for r in rows)

    def test_unbounded_marker(self, capsys):
        code = run_cli(
            "bounds", "--t-list", "11", "--mean-sep", "0", "--var-ratio-sum", "2",
        )
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "unbounded" in text

    def test_rows_below_t_min_are_marked(self, capsys):
        # Below t_min = 118 delta_t bounds nothing: it reads smaller at t = 11,
        # 51 and 101 than at 151, so only the last row says it applies.
        assert run_cli("bounds") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(",t_min,psi,alpha_t,c,delta_applies")
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["False"] * 3 + ["True"]

    def test_csv_written_to_file(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = run_cli(
            "bounds", "--t-list", "40", "--mean-sep", "2", "--var-ratio-sum", "10",
            "--out", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("t,eps_t,one_minus_eps")
        assert lines[1].startswith("40,")


    @pytest.mark.parametrize(
        "argv", [["--mean-sep", "1e10"], ["--mean-sep", "1e17"], ["--mean-sep", "1e308"],
                 ["--var-ratio-sum", "1e308"]]
    )
    def test_huge_separation_prints_finite_values(self, capsys, argv):
        assert run_cli("bounds", "--format", "json", *argv) == EXIT_OK
        for row in json.loads(capsys.readouterr().out):
            assert isinstance(row["t_min"], int)
            assert np.isfinite([row["delta_t"], row["psi"]]).all()

    @pytest.mark.parametrize("t_list", [",", ""])
    def test_empty_t_list_is_a_typed_error(self, capsys, t_list):
        assert run_cli("bounds", "--t-list", t_list) == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err)

    # NoFiniteSampleSizeError never reaches the CLI: bound_report maps it to
    # "unbounded" (test_unbounded_marker). DomainError does, as one line.
    @pytest.mark.parametrize(
        "argv", [["--t-list", "1"], ["--var-ratio-sum", "1"], ["--mean-sep", "-1"],
                 ["--mean-sep", "nan"], ["--var-ratio-sum", "inf"]]
    )
    def test_out_of_domain_parameter_is_a_typed_error(self, capsys, argv):
        assert run_cli("bounds", *argv) == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err)


class TestErrorPaths:
    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli("cluster", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_coordinate(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("1.0,2.0\n3.0,nan\n5.0,6.0\n7.0,8.0\n")
        code = run_cli("cluster", "--input", str(path), "--out", str(tmp_path / "run"))
        assert code == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err)

    def test_all_zero_row(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("1.0,2.0\n0.0,0.0\n3.0,1.0\n2.0,2.0\n")
        code = run_cli("cluster", "--input", str(path), "--out", str(tmp_path / "run"))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "row 1 has zero norm" in err

    def test_two_point_initial_cluster(self, subspace_csv, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("0\n0\n" + "1\n" * 199 + "2\n" * 199)  # 400 points
        code = run_cli("cluster", "--input", str(subspace_csv), "--labeled",
                       "--init-labels", str(labels), "--out", str(tmp_path / "run"))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "smallest has 2" in err

    def test_ragged_points_csv(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0\n6.0,7.0,8.0\n")
        code = run_cli("cluster", "--input", str(path), "--out", str(tmp_path / "run"))
        assert code == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["cluster", "eval"])
    def test_non_integer_label_file(self, subspace_csv, tmp_path, capsys, command):
        labels = tmp_path / "labels.csv"
        labels.write_text("0\n1.5\n" * 200)  # one entry per point of subspace_csv
        if command == "cluster":
            argv = ["cluster", "--input", str(subspace_csv), "--labeled",
                    "--init-labels", str(labels), "--out", str(tmp_path / "run")]
        else:
            argv = ["eval", "--truth", str(labels), "--pred", str(labels)]
        assert run_cli(*argv) == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "command, text",
        [("eval", "0 1\n1 1\n"), ("eval", "0 1\n"), ("cluster", "0 1 2 3 " * 100 + "\n")],
        ids=["eval-2x2", "eval-one-line", "cluster-one-line"],
    )
    def test_label_file_with_several_values_on_a_line(self, subspace_csv, tmp_path, capsys,
                                                      command, text):
        # Each file holds one value per point of the other input, so read
        # flat it would pass for a label file.
        labels = tmp_path / "labels.csv"
        labels.write_text(text)
        if command == "cluster":
            argv = ["cluster", "--input", str(subspace_csv), "--labeled",
                    "--init-labels", str(labels), "--out", str(tmp_path / "run")]
        else:
            truth = tmp_path / "truth.csv"
            truth.write_text("0\n" * len(text.split()))
            argv = ["eval", "--truth", str(truth), "--pred", str(labels)]
        assert run_cli(*argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert_one_line_error(err)
        per_line = len(text.splitlines()[0].split())
        assert f"label file {labels} has {per_line} values on a line" in err

    @pytest.mark.parametrize("label", ["nan", "9007199254740993.0"], ids=["nan", "above-2**53"])
    def test_unreadable_float_label_is_one_error_line(self, tmp_path, capsys, label):
        # A float literal at or above 2**53 could round onto another label.
        labels = tmp_path / "labels.csv"
        labels.write_text(f"0\n{label}\n1\n")
        assert run_cli("eval", "--truth", str(labels), "--pred", str(labels)) == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err)

    @pytest.mark.parametrize("empty", ["--input", "--init-labels", "--truth"])
    def test_empty_file_is_one_error_line(self, subspace_csv, tmp_path, empty):
        # A fresh interpreter, so that a warning numpy prints reaches stderr.
        path = tmp_path / "empty.csv"
        path.write_text("")
        out = str(tmp_path / "run")
        argv = {
            "--input": ["cluster", "--input", str(path), "--out", out],
            "--init-labels": ["cluster", "--input", str(subspace_csv), "--labeled",
                              "--init-labels", str(path), "--out", out],
            "--truth": ["eval", "--truth", str(path), "--pred", str(path)],
        }[empty]
        result = subprocess.run([sys.executable, "-m", "anglemerge.cli", *argv],
                                capture_output=True, text=True)
        assert result.returncode == EXIT_ERROR
        assert_one_line_error(result.stderr)
        assert "has no data" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [["bounds", "--t-list", "abc"],
         ["cluster", "--seed", "x", "--input", "a.csv", "--out", "o"],
         [],
         ["synth", "--model", "normal", "--seed", "-1", "--out", "o.csv"]],
        ids=["bad-t-list", "bad-seed", "no-command", "negative-seed"],
    )
    def test_malformed_command_line_is_a_typed_error(self, capsys, argv):
        assert run_cli(*argv) == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err)

    def test_out_of_memory_is_one_error_line(self, subspace_csv, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 111. GiB for an array")

        monkeypatch.setattr("anglemerge.cli.cluster_dataset", exhausted)
        out = tmp_path / "run"
        assert run_cli("cluster", "--input", str(subspace_csv), "--out", str(out)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert err.startswith("error: out of memory: Unable to allocate")

    @pytest.mark.parametrize("argv", [["--n", "0"], ["--n", "-1"], ["--alpha", "nan"]])
    def test_degenerate_dp_spec_is_a_typed_error(self, tmp_path, capsys, argv):
        out = tmp_path / "dp.csv"
        assert run_cli("synth", "--model", "dp", "--out", str(out), *argv) == EXIT_ERROR
        assert_one_line_error(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["1e200", "1e308"])
    def test_huge_dp_spread_prints_no_warning(self, tmp_path, rho):
        # At 1e200 every coordinate is finite, at 1e308 some overflow: the
        # first succeeds with an empty stderr, the second is one error line
        # naming the spread.
        argv = ["synth", "--model", "dp", "--rho", rho, "--out", str(tmp_path / "dp.csv")]
        result = subprocess.run([sys.executable, "-m", "anglemerge.cli", *argv],
                                capture_output=True, text=True)
        if rho == "1e200":
            assert (result.returncode, result.stderr) == (EXIT_OK, "")
        else:
            assert result.returncode == EXIT_ERROR
            assert_one_line_error(result.stderr)
            assert "rho=1e+308" in result.stderr

    def test_tiny_dp_spread_returns(self, tmp_path):
        # Every row's squares underflow to 0, but no row is zero, so none is
        # drawn again. The timeout fails a generator that redraws them
        # forever instead of hanging the suite.
        out = tmp_path / "dp.csv"
        argv = ["synth", "--model", "dp", "--rho", "1e-200", "--sigma", "1e-200",
                "--n", "10", "--num-points", "5", "--out", str(out)]
        result = subprocess.run([sys.executable, "-m", "anglemerge.cli", *argv],
                                capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
        assert (result.returncode, result.stderr) == (EXIT_OK, "")
        points = np.loadtxt(out, delimiter=",")[:, :-1]
        assert np.isfinite(points).all() and points.any(axis=1).all()

    @pytest.mark.parametrize("command", ["cluster", "trace", "synth", "bench"])
    def test_negative_seed_is_rejected_by_every_command(self, capsys, command):
        argv = [command, "--seed", "-1", "--out", "o"]
        argv += ["--input", "a.csv"] if command in ("cluster", "trace") else ["--model", "normal"]
        assert run_cli(*argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "--seed" in err

    def test_non_integer_label_column(self, tmp_path, capsys):
        path = tmp_path / "labeled.csv"
        rows = unit_sphere_points(np.random.default_rng(0), 30, 4)
        labels = np.arange(30) % 3 + np.where(np.arange(30) == 7, 0.5, 0.0)
        np.savetxt(path, np.column_stack([rows, labels]), delimiter=",")
        code = run_cli("cluster", "--input", str(path), "--labeled", "--out", str(tmp_path / "run"))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "row 7" in err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: anglemerge")

    def test_console_script_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "anglemerge.cli", "bounds", "--t-list", "11"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "0.970174" in result.stdout
