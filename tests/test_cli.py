import argparse
import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from harmalign import cli, core
from harmalign.align import AlignmentParams, harmonic_alignment, multi_alignment
from harmalign.cli import main
from harmalign.core import DataMatrix, Report, Rng, load_matrix, write_output
from harmalign.evaluation import ExperimentConfig, ManifoldSampler, random_orthogonal


@pytest.fixture
def dataset_csv(tmp_path):
    gen = Rng(0).generator
    values = gen.standard_normal((80, 40))
    path = tmp_path / "x.csv"
    write_output(DataMatrix(values=values), path)
    return str(path)


def embedding_bytes(phi, ranges) -> bytes:
    """The embedding CSV, formatted cell by cell."""
    lines = ["dataset,row," + ",".join(f"c{j + 1}" for j in range(phi.shape[1]))]
    for ds, (lo, hi) in enumerate(ranges):
        for i in range(lo, hi):
            cells = [str(ds), str(i - lo)] + [format(v, ".17g") for v in phi[i]]
            lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestAlign:
    def test_self_alignment_report(self, dataset_csv, tmp_path):
        report_path = tmp_path / "report.json"
        out_path = tmp_path / "embed.csv"
        code = run([
            "align", "--x", dataset_csv, "--y", dataset_csv,
            "--knn-bandwidth", "10",
            "--out", str(out_path), "--report", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["aggregates"]["self_match_rate_0_1"] >= 0.95
        assert report["params"]["align_params"]["t"] == 1
        header = out_path.read_text().splitlines()[0]
        assert header.startswith("dataset,row,")

    def test_out_bytes_and_defaults(self, dataset_csv, tmp_path):
        # no align flag given: every parameter is the dataclass default
        other = tmp_path / "y.csv"
        write_output(DataMatrix(values=Rng(1).generator.standard_normal((60, 40))), other)
        out_path, report_path = tmp_path / "embed.csv", tmp_path / "report.json"
        assert run(["align", "--x", dataset_csv, "--y", str(other),
                    "--out", str(out_path), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["params"]["align_params"] == asdict(AlignmentParams())
        result = harmonic_alignment(load_matrix(dataset_csv), load_matrix(other))
        assert out_path.read_bytes() == embedding_bytes(result.phi, result.row_ranges)

    def test_zero_bands_usage_error(self, dataset_csv):
        code = run(["align", "--x", dataset_csv, "--y", dataset_csv, "--bands", "0"])
        assert code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--sigma", "-1"], "sigma must be positive, got -1.0"),
        (["--kernel", "eq1"], "anisotropic kernel requires sigma"),
        (["--rank", "1"], "rank must be >= 2, got 1"),  # refused before any graph
        (["--rank", "81"], "rank 81 exceeds the 80 points of the graph"),
    ])
    def test_bad_parameter_config_error(self, dataset_csv, capsys, flags, message):
        assert run(["align", "--x", dataset_csv, "--y", dataset_csv, *flags]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_duplicate_rows_name_a_kernel_the_cli_can_select(self, tmp_path, capsys):
        # 24 copies of row 0 put its 20th neighbor at distance 0
        values = Rng(2).generator.standard_normal((80, 5))
        values[1:25] = values[0]
        path = str(tmp_path / "dup.csv")
        write_output(DataMatrix(values=values), path)
        assert run(["align", "--x", path, "--y", path]) == 1
        assert ("error: zero adaptive bandwidth at point 0 (duplicate points within 20 "
                "neighbors); use a fixed bandwidth instead, e.g. the anisotropic kernel with "
                "a sigma (CLI: --kernel eq1 --sigma S)\n") in capsys.readouterr().err
        out = tmp_path / "embed.csv"
        assert run(["align", "--x", path, "--y", path, "--kernel", "eq1", "--sigma", "2",
                    "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 80

    def test_missing_input_runtime_error(self, tmp_path, dataset_csv, capsys):
        code = run(["align", "--x", str(tmp_path / "nope.csv"), "--y", dataset_csv])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestMultiAlign:
    def test_two_inputs_match_align(self, dataset_csv, tmp_path):
        out_pair = tmp_path / "pair.csv"
        out_multi = tmp_path / "multi.csv"
        args = ["--knn-bandwidth", "10"]
        assert run(["align", "--x", dataset_csv, "--y", dataset_csv,
                    "--out", str(out_pair)] + args) == 0
        assert run(["multi-align", "--inputs", dataset_csv, dataset_csv,
                    "--out", str(out_multi)] + args) == 0
        pair = np.loadtxt(out_pair, delimiter=",", skiprows=1)
        multi = np.loadtxt(out_multi, delimiter=",", skiprows=1)
        assert np.abs(pair[:, 2:] - multi[:, 2:]).max() <= 1e-10

    def test_three_identical_inputs_self_match(self, dataset_csv, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(["multi-align", "--inputs", dataset_csv, dataset_csv, dataset_csv,
                    "--knn-bandwidth", "10", "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        for key in ("self_match_rate_0_1", "self_match_rate_0_2", "self_match_rate_1_2"):
            assert report["aggregates"][key] >= 0.95

    def test_out_bytes_match_per_cell_format(self, dataset_csv, tmp_path):
        others = []
        for seed, n in ((2, 50), (3, 70)):
            path = tmp_path / f"in{seed}.csv"
            values = Rng(seed).generator.standard_normal((n, 40))
            write_output(DataMatrix(values=values, labels=np.arange(n) % 3), path)
            others.append(str(path))
        out_path = tmp_path / "multi.csv"
        assert run(["multi-align", "--inputs", dataset_csv, *others, "--knn-bandwidth", "10",
                    "--kernel", "alg2", "--bands", "4", "--t", "2", "--out", str(out_path)]) == 0
        params = AlignmentParams(knn=10, n_bands=4, t=2)
        result = multi_alignment([load_matrix(p) for p in (dataset_csv, *others)], params)
        assert out_path.read_bytes() == embedding_bytes(result.phi, result.row_ranges)

    def test_out_bytes_do_not_depend_on_the_part_count(self, dataset_csv, tmp_path,
                                                       monkeypatch):
        # two parts: the second half of the rows is formatted by a forked child
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        other = tmp_path / "y.csv"
        write_output(DataMatrix(values=Rng(4).generator.standard_normal((61, 40))), other)
        out_path = tmp_path / "multi.csv"
        assert run(["multi-align", "--inputs", dataset_csv, str(other), "--knn-bandwidth", "10",
                    "--out", str(out_path)]) == 0
        result = multi_alignment([load_matrix(dataset_csv), load_matrix(other)],
                                 AlignmentParams(knn=10))
        assert out_path.read_bytes() == embedding_bytes(result.phi, result.row_ranges)
        assert sorted(os.listdir(tmp_path)) == ["multi.csv", "x.csv", "y.csv"]

    @pytest.mark.parametrize("sizes, rates", [
        ((480, 480, 480), ["self_match_rate_0_1", "self_match_rate_0_2",
                           "self_match_rate_1_2"]),
        ((480, 480, 470), ["self_match_rate_0_1"]),
    ])
    def test_pooled_run_equal_to_a_serial_one(self, tmp_path, monkeypatch, forks,
                                              sizes, rates):
        sampler = ManifoldSampler(Rng(0).spawn("source"), dim=20)
        x = sampler.draw(sizes[0], Rng(1).spawn("draw"))[0]
        views = [x, x @ random_orthogonal(20, Rng(2)),
                 sampler.draw(sizes[2], Rng(3).spawn("draw"))[0] if sizes[2] != sizes[0]
                 else x @ random_orthogonal(20, Rng(3))]
        inputs = [str(tmp_path / f"in{i}.csv") for i in range(3)]
        for path, values in zip(inputs, views):
            write_output(DataMatrix(values=values), path)
        forks.clear()  # the inputs' second parts
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
            out, report = tmp_path / f"out{cpus}.csv", tmp_path / f"report{cpus}.json"
            assert run(["multi-align", "--inputs", *inputs, "--out", str(out),
                        "--report", str(report)]) == 0
            runs.append((out.read_bytes(), json.loads(report.read_text())))
            # the prepares and the embedding's second part fork; the maps and rates run here
            assert len(forks) == (0 if cpus == 1 else 2)
        (serial_out, serial), (pooled_out, pooled) = runs
        assert pooled_out == serial_out
        assert sorted(k for k in pooled["aggregates"] if k.startswith("self_match")) == rates
        for report in (serial, pooled):
            del report["aggregates"]["seconds"]
        assert pooled == serial

    @pytest.mark.parametrize("n", [474, 475, 600])
    def test_rates_computed_here(self, monkeypatch, forks, n):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        phi = Rng(5).generator.standard_normal((3 * n, 12))
        ranges = [(0, n), (n, 2 * n), (2 * n, 3 * n)]
        rates = cli._self_match_rates(phi, ranges)
        assert list(rates) == ["self_match_rate_0_1", "self_match_rate_0_2",
                               "self_match_rate_1_2"]
        assert forks == []

    def test_single_input_usage_error(self, dataset_csv):
        assert run(["multi-align", "--inputs", dataset_csv]) == 2


class TestAlignReport:
    def test_align_is_two_input_multi_align(self, dataset_csv, tmp_path):
        other = tmp_path / "y.csv"
        write_output(DataMatrix(values=Rng(4).generator.standard_normal((80, 40))), other)
        runs = {}
        for command, inputs in (("align", ["--x", dataset_csv, "--y", str(other)]),
                                ("multi-align", ["--inputs", dataset_csv, str(other)])):
            out_path, report_path = tmp_path / f"{command}.csv", tmp_path / f"{command}.json"
            assert run([command, *inputs, "--knn-bandwidth", "10",
                        "--out", str(out_path), "--report", str(report_path)]) == 0
            runs[command] = out_path.read_bytes(), json.loads(report_path.read_text())
        (pair_out, pair), (multi_out, multi) = runs["align"], runs["multi-align"]
        assert pair_out == multi_out
        assert pair["params"].pop("command") == "align"
        assert multi["params"].pop("command") == "multi-align"
        assert pair["params"] == multi["params"]
        assert pair["params"]["inputs"] == [dataset_csv, str(other)]
        assert sorted(pair["params"]) == ["align_params", "inputs", "version"]
        result = multi_alignment([load_matrix(dataset_csv), load_matrix(other)],
                                 AlignmentParams(knn=10))
        keys = {"seconds", "self_match_rate_0_1", *result.diagnostics}
        assert set(pair["aggregates"]) == set(multi["aggregates"]) == keys
        assert pair["aggregates"]["spectrum_1"] == result.diagnostics["spectrum_1"]
        assert pair["trials"] == multi["trials"] == []


class TestExperiment:
    def write_config(self, tmp_path, **kw):
        values = {
            "source": "synthetic-manifold",
            "n1": 100, "n2": 100, "dim": 30,
            "trials": 2, "methods": "none",
            "preserved-sweep": "35,100",
            "knn-bandwidth": 10,
            "seed": 3,
        }
        values.update(kw)
        path = tmp_path / "exp.cfg"
        path.write_text("\n".join(f"{k}={v}" for k, v in values.items()) + "\n")
        return str(path)

    def test_corruption_csv_rows(self, tmp_path):
        cfg = self.write_config(tmp_path)
        csv_path = tmp_path / "sweep.csv"
        report_path = tmp_path / "report.json"
        code = run(["experiment", "--mode", "corruption", "--config", cfg,
                    "--csv", str(csv_path), "--report", str(report_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "p,method,trial,accuracy"
        assert len(lines) == 1 + 2 * 2  # 2 sweep points x 2 trials x 1 method
        report = json.loads(report_path.read_text())
        assert report["params"]["mode"] == "corruption"
        assert "version" in report["params"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run(["experiment", "--mode", "corruption", "--config", cfg, "--csv", str(first)])
        run(["experiment", "--mode", "corruption", "--config", cfg, "--csv", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_flag_overrides_config(self, tmp_path):
        cfg = self.write_config(tmp_path, trials=5)
        report_path = tmp_path / "report.json"
        run(["experiment", "--mode", "corruption", "--config", cfg,
             "--trials", "1", "--report", str(report_path)])
        report = json.loads(report_path.read_text())
        assert report["params"]["trials"] == 1

    def test_sweep_from_config_aggregate_keys(self, tmp_path):
        cfg = self.write_config(tmp_path)
        report_path = tmp_path / "report.json"
        assert run(["experiment", "--mode", "corruption", "--config", cfg,
                    "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert sorted(report["aggregates"]) == ["none@p100", "none@p35"]
        assert report["params"]["preserved_sweep"] == [35.0, 100.0]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, trails=7)
        code = run(["experiment", "--mode", "corruption", "--config", cfg])
        assert code == 1
        assert f"{cfg}:10: unknown key 'trails'" in capsys.readouterr().err

    def test_bad_parameter_rejected(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, sigma=-1)
        assert run(["experiment", "--mode", "corruption", "--config", cfg]) == 1
        assert "error: sigma must be positive, got -1.0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # a numpy warning would change the message
    def test_underflowing_fixed_sigma_rejected_without_warnings(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, kernel="fixed", sigma="1e-200")
        assert run(["experiment", "--mode", "corruption", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == ("error: fixed bandwidth sigma=1e-200 is too small: "
                       "its square underflows to 0\n")

    @pytest.mark.filterwarnings("error")  # a numpy warning would change the message
    @pytest.mark.parametrize("kernel, sigma, message", [
        ("fixed", "1e200", "fixed bandwidth sigma=1e+200 is too large: its square overflows"),
        ("eq1", "inf", "anisotropic kernel sigma=inf is too large: its square overflows"),
    ])
    def test_overflowing_sigma_rejected_without_warnings(self, tmp_path, capsys, kernel, sigma,
                                                         message):
        cfg = self.write_config(tmp_path, kernel=kernel, sigma=sigma)
        assert run(["experiment", "--mode", "corruption", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {message} to inf\n"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_error_in_a_worker_arm_printed(self, tmp_path, capsys, monkeypatch, cpus):
        # 11 copies of row 0: the second trial's reference draws 4 of them, at
        # distance 0 within 3 neighbours; the first trial's does not
        values = Rng(0).generator.standard_normal((80, 5))
        values[1:12] = values[0]
        source = tmp_path / "dup.csv"
        write_output(DataMatrix(values=values, labels=np.arange(80) % 2), source)
        cfg = self.write_config(tmp_path, source=source, n1=20, ratios=1, methods="harmonic",
                                **{"knn-bandwidth": 3, "seed": 6})
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # one worker per CPU
        assert run(["experiment", "--mode", "transfer", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "error: zero adaptive bandwidth at point 6 (duplicate points within 3 neighbors); "
            "use a fixed bandwidth instead, e.g. the anisotropic kernel with a sigma "
            "(CLI: --kernel eq1 --sigma S)\n")

    def test_outputs_readable_as_open_creates_them(self, tmp_path, dataset_csv):
        # renamed temp files, created 0o600 by mkstemp, kept that mode
        cfg = self.write_config(tmp_path)
        paths = {name: tmp_path / name for name in ("embed.csv", "r.json", "sweep.csv", "e.json")}
        umask = os.umask(0o022)
        try:
            assert run(["align", "--x", dataset_csv, "--y", dataset_csv, "--knn-bandwidth", "10",
                        "--out", str(paths["embed.csv"]), "--report", str(paths["r.json"])]) == 0
            assert run(["experiment", "--mode", "corruption", "--config", cfg,
                        "--csv", str(paths["sweep.csv"]), "--report", str(paths["e.json"])]) == 0
        finally:
            os.umask(umask)
        assert {name: oct(path.stat().st_mode & 0o777) for name, path in paths.items()} == {
            name: "0o644" for name in paths}

    @pytest.mark.parametrize("key, value, bad", [("ratios", "1,1.5", "'1.5'"),
                                                 ("n1", "many", "'many'")])
    def test_unconvertible_value_names_its_key(self, tmp_path, capsys, key, value, bad):
        cfg = self.write_config(tmp_path, **{key: value})
        assert run(["experiment", "--mode", "transfer", "--config", cfg]) == 1
        assert f"error: {key}: invalid literal for int() with base 10: {bad}" in \
            capsys.readouterr().err

    def test_omitted_keys_take_dataclass_defaults(self, tmp_path, monkeypatch):
        def record(cfg):
            report = Report(params=asdict(cfg))
            report.params["align_params"] = asdict(cfg.align_params)
            report.params["mnn_params"] = asdict(cfg.mnn_params)
            return report

        monkeypatch.setattr(cli, "corruption_experiment", record)
        path = tmp_path / "empty.cfg"
        path.write_text("# every key omitted\nseed =\n")
        report_path = tmp_path / "report.json"
        assert run(["experiment", "--mode", "corruption", "--config", str(path),
                    "--report", str(report_path)]) == 0
        params = json.loads(report_path.read_text())["params"]
        assert params.pop("version")
        assert params["align_params"] == asdict(AlignmentParams())
        assert params == json.loads(json.dumps(asdict(ExperimentConfig())))

    def test_missing_config_usage_error(self, tmp_path):
        code = run(["experiment", "--mode", "corruption",
                    "--config", str(tmp_path / "nope.cfg")])
        assert code == 2

    def test_transfer_mode(self, tmp_path):
        cfg = self.write_config(tmp_path, ratios="1,2", **{"preserved-pct": 100})
        csv_path = tmp_path / "sweep.csv"
        code = run(["experiment", "--mode", "transfer", "--config", cfg,
                    "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "ratio,method,trial,accuracy"
        assert len(lines) == 1 + 2 * 2  # 2 ratios x 2 trials x 1 method


def test_flags_and_config_keys_unchanged():
    subcommands = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    flags = {name: {o for a in p._actions for o in a.option_strings}
             for name, p in subcommands.items()}
    align = {"-h", "--help", "--bands", "--t", "--knn-bandwidth", "--sigma", "--rank",
             "--kernel", "--out", "--report"}
    assert flags == {
        "align": align | {"--x", "--y"},
        "multi-align": align | {"--inputs"},
        "experiment": {"-h", "--help", "--mode", "--config", "--report", "--csv", "--seed",
                       "--trials", "--n1", "--n2", "--preserved-pct", "--methods", "--knn-k"},
    }
    assert set(cli._CONFIG_KEYS) == {
        "source", "n1", "n2", "classes", "dim", "spread", "methods", "trials", "knn-k",
        "seed", "preserved-sweep", "preserved-pct", "ratios", "bands", "t", "kernel",
        "knn-bandwidth", "sigma", "rank", "mnn-k", "mnn-sigma",
    }
