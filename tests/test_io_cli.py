"""Tests for CSV ingestion and the command-line interface."""

import json
from dataclasses import replace

import numpy as np
import pytest

from sncross import (
    DataFormatError,
    RngStream,
    Scenario,
    ThetaState,
    default_true_theta,
    fit,
    read_long_csv,
    simulate_subjects,
    write_long_csv,
)
from sncross.cli import main
from sncross.simulate import default_layout


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """A 4-per-sequence skew-error dataset written to disk."""
    layout = default_layout(4)
    data = simulate_subjects(layout, default_true_theta(Scenario.ERROR_SN), RngStream(7, 0))
    path = tmp_path_factory.mktemp("data") / "trial.csv"
    write_long_csv(path, data)
    return path, data


# ---------------------------------------------------------------------------
# reading and writing
# ---------------------------------------------------------------------------


def test_round_trip_preserves_everything(small_csv):
    path, data = small_csv
    loaded = read_long_csv(path)
    assert loaded.layout == data.layout
    np.testing.assert_array_equal(loaded.y, data.y)
    np.testing.assert_array_equal(loaded.X, data.X)


def test_round_trip_refit_identical(small_csv):
    path, data = small_csv
    loaded = read_long_csv(path)
    res_mem = fit(data, Scenario.ERROR_SN)
    res_csv = fit(loaded, Scenario.ERROR_SN)
    assert res_mem.loglik == res_csv.loglik
    assert res_mem.iterations == res_csv.iterations
    np.testing.assert_array_equal(res_mem.theta.beta, res_csv.theta.beta)
    np.testing.assert_array_equal(res_mem.se, res_csv.se)


def test_layout_inference_gene_study_shape(tmp_path):
    # 12 subjects, 3 sequences, 3 periods, 10 responses -> 12 vectors of 30
    from sncross import CrossoverLayout, assemble_trial

    layout = CrossoverLayout(
        n_per_seq=(4, 4, 4),
        assignment=((1, 2, 3), (3, 1, 2), (2, 3, 1)),
        n_treatments=3,
        n_responses=10,
    )
    rng = RngStream(2, 0)
    vals = {
        (i, j): rng.normal(30)
        for i in range(1, 4)
        for j in range(1, 5)
    }
    data = assemble_trial(layout, vals)
    path = tmp_path / "gene.csv"
    write_long_csv(path, data)
    loaded = read_long_csv(path)
    assert loaded.layout.n_sequences == 3
    assert loaded.layout.n_periods == 3
    assert loaded.layout.n_treatments == 3
    assert loaded.layout.n_responses == 10
    assert loaded.y.shape == (12, 30)


def test_missing_cell_excludes_subject_with_warning(tmp_path, small_csv):
    path, _ = small_csv
    lines = path.read_text().strip().splitlines()
    # drop one record belonging to sequence 2, subject 3
    victim = next(
        i for i, ln in enumerate(lines) if ln.startswith("2,3,1,")
    )
    pruned = tmp_path / "missing.csv"
    pruned.write_text("\n".join(lines[:victim] + lines[victim + 1:]) + "\n")
    with pytest.warns(UserWarning, match="sequence 2 subject 3"):
        loaded = read_long_csv(pruned)
    assert loaded.n_subjects == 11
    assert loaded.layout.n_per_seq == (4, 3, 4)


def test_blank_value_counts_as_missing(tmp_path, small_csv):
    path, _ = small_csv
    lines = path.read_text().strip().splitlines()
    victim = next(i for i, ln in enumerate(lines) if ln.startswith("1,2,"))
    parts = lines[victim].split(",")
    parts[5] = ""
    lines[victim] = ",".join(parts)
    f = tmp_path / "blank.csv"
    f.write_text("\n".join(lines) + "\n")
    with pytest.warns(UserWarning, match="sequence 1 subject 2"):
        loaded = read_long_csv(f)
    assert loaded.n_subjects == 11


def test_empty_file_is_structured_error(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        read_long_csv(f)
    f2 = tmp_path / "header_only.csv"
    f2.write_text("sequence,subject,period,treatment,response_index,value\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        read_long_csv(f2)


def test_header_missing_columns(tmp_path):
    f = tmp_path / "bad_header.csv"
    f.write_text("sequence,subject,period\n1,1,1\n")
    with pytest.raises(DataFormatError, match="missing required columns"):
        read_long_csv(f)


def test_duplicate_record_is_error(tmp_path, small_csv):
    path, _ = small_csv
    lines = path.read_text().strip().splitlines()
    f = tmp_path / "dup.csv"
    f.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        read_long_csv(f)


def test_inconsistent_treatment_is_error(tmp_path, small_csv):
    path, _ = small_csv
    lines = path.read_text().strip().splitlines()
    parts = lines[1].split(",")
    parts[3] = "3" if parts[3] != "3" else "2"
    f = tmp_path / "conflict.csv"
    f.write_text("\n".join(lines + [",".join(parts)]) + "\n")
    with pytest.raises(DataFormatError, match="conflicting treatments|duplicate"):
        read_long_csv(f)


def test_non_numeric_value_is_error(tmp_path, small_csv):
    path, _ = small_csv
    lines = path.read_text().strip().splitlines()
    parts = lines[3].split(",")
    parts[5] = "oops"
    lines[3] = ",".join(parts)
    f = tmp_path / "nonnum.csv"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="non-numeric value"):
        read_long_csv(f)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e308", "-1e150"])
@pytest.mark.parametrize("column", [5, 6], ids=["value", "covariate"])
def test_cmd_fit_rejects_non_finite_or_huge_number(tmp_path, capsys, small_csv, column, token):
    path, _ = small_csv
    lines = path.read_text().strip().splitlines()
    parts = lines[3].split(",")
    parts[column] = token
    lines[3] = ",".join(parts)
    f = tmp_path / "bad.csv"
    f.write_text("\n".join(lines) + "\n")
    code = main(["fit", "--data", str(f), "--scenario", "all", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "line 4" in capsys.readouterr().err


def test_large_finite_value_is_accepted(tmp_path, small_csv):
    path, _ = small_csv
    lines = path.read_text().strip().splitlines()
    parts = lines[3].split(",")
    parts[5] = "9.9e149"
    lines[3] = ",".join(parts)
    f = tmp_path / "big.csv"
    f.write_text("\n".join(lines) + "\n")
    assert read_long_csv(f).y.max() == 9.9e149


def test_covariate_varying_within_subject_is_error(tmp_path, small_csv):
    path, _ = small_csv
    lines = path.read_text().strip().splitlines()
    parts = lines[2].split(",")
    parts[6] = "9.0"
    lines[2] = ",".join(parts)
    f = tmp_path / "cov.csv"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="varies within"):
        read_long_csv(f)


# ---------------------------------------------------------------------------
# CLI: fit
# ---------------------------------------------------------------------------


def test_cmd_fit_single_scenario(tmp_path, small_csv):
    path, _ = small_csv
    out = tmp_path / "out"
    code = main(["fit", "--data", str(path), "--scenario", "error-sn",
                 "--out-dir", str(out)])
    assert code == 0
    payload = json.loads((out / "fit_error_sn.json").read_text())
    assert payload["converged"] is True
    assert payload["scenario"] == "error-sn"
    assert "lambda" in payload["estimates"]
    assert payload["intercept_corrected"] == pytest.approx(
        payload["intercept_raw"] + payload["mean_offset"]
    )
    assert (out / "diag_error_sn.csv").exists()


def test_cmd_fit_normal_omits_lambda(tmp_path):
    layout = default_layout(4)
    truth = ThetaState(
        default_true_theta(Scenario.ERROR_SN).beta, 2.0, 0.64, 0.0, Scenario.NORMAL
    )
    data = simulate_subjects(layout, truth, RngStream(44, 0))
    path = tmp_path / "normal.csv"
    write_long_csv(path, data)
    out = tmp_path / "out"
    code = main(["fit", "--data", str(path), "--scenario", "normal", "--out-dir", str(out)])
    assert code == 0
    payload = json.loads((out / "fit_normal.json").read_text())
    assert payload["converged"] is True
    assert "lambda" not in payload["estimates"]
    assert "lambda" not in payload["se"]


def test_cmd_fit_deterministic_bytes(tmp_path, small_csv):
    path, _ = small_csv
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["fit", "--data", str(path), "--scenario", "error-sn", "--out-dir", str(out1)]) == 0
    assert main(["fit", "--data", str(path), "--scenario", "error-sn", "--out-dir", str(out2)]) == 0
    assert (out1 / "fit_error_sn.json").read_bytes() == (out2 / "fit_error_sn.json").read_bytes()
    assert (out1 / "diag_error_sn.csv").read_bytes() == (out2 / "diag_error_sn.csv").read_bytes()


def test_cmd_fit_all_prints_comparison(tmp_path, capsys, small_csv):
    path, _ = small_csv
    out = tmp_path / "out"
    code = main(["fit", "--data", str(path), "--scenario", "all", "--out-dir", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "AIC" in captured and "BIC" in captured
    assert "best by AIC" in captured
    for tag in ("normal", "error_sn", "effect_sn"):
        assert (out / f"fit_{tag}.json").exists()


def test_cmd_fit_missing_file_exit_2(tmp_path):
    assert main(["fit", "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)]) == 2


def test_cmd_fit_bad_data_exit_2(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    assert main(["fit", "--data", str(f), "--out-dir", str(tmp_path)]) == 2


def test_cmd_fit_constant_response_exit_2(tmp_path, small_csv, capsys):
    # every value 1.0: the likelihood is unbounded, so no model may win by AIC
    path, data = small_csv
    constant = tmp_path / "constant.csv"
    write_long_csv(constant, replace(data, y=np.ones_like(data.y)))
    out = tmp_path / "out"
    code = main(["fit", "--data", str(constant), "--scenario", "all", "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "best by AIC" not in captured.out
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert not list(out.glob("fit_*.json"))


def test_cmd_fit_rescaled_response_is_fitted(tmp_path, small_csv):
    path, data = small_csv
    scaled = tmp_path / "scaled.csv"
    write_long_csv(scaled, replace(data, y=data.y * 1e-4))
    out = tmp_path / "out"
    assert main(["fit", "--data", str(scaled), "--scenario", "error-sn", "--out-dir", str(out)]) == 0
    assert (out / "fit_error_sn.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--seed", "1"],
        ["fit", "--workers", "2"],
        ["diagnose", "--fit", "fit.json", "--seed", "1"],
    ],
)
def test_flags_that_do_nothing_are_rejected(tmp_path, argv):
    # fit and diagnose are deterministic: --seed and --workers would be ignored
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--data", str(tmp_path / "d.csv"), "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_cmd_fit_non_convergence_exit_3(tmp_path, small_csv):
    path, _ = small_csv
    code = main(["fit", "--data", str(path), "--scenario", "error-sn",
                 "--max-iter", "1", "--tol", "1e-12", "--out-dir", str(tmp_path)])
    assert code == 3


# ---------------------------------------------------------------------------
# CLI: simulate
# ---------------------------------------------------------------------------


def test_cmd_simulate_outputs(tmp_path):
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", "error-sn", "--n", "6", "--reps", "2",
                 "--seed", "5", "--out-dir", str(out)])
    assert code == 0
    summary = (out / "mc_summary.csv").read_text().strip().splitlines()
    assert summary[0].startswith("parameter,true,sn_estimate")
    assert len(summary) == 1 + 12
    reps = (out / "mc_replicates.csv").read_text().strip().splitlines()
    assert len(reps) == 1 + 2 * 2


def test_cmd_simulate_worker_invariance(tmp_path):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    for out, workers in ((out1, "1"), (out2, "2")):
        assert main(["simulate", "--scenario", "error-sn", "--n", "6", "--reps", "2",
                     "--seed", "5", "--workers", workers, "--out-dir", str(out)]) == 0
    assert (out1 / "mc_summary.csv").read_bytes() == (out2 / "mc_summary.csv").read_bytes()
    assert (out1 / "mc_replicates.csv").read_bytes() == (out2 / "mc_replicates.csv").read_bytes()


def test_cmd_simulate_seed_changes_output(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out, seed in ((out1, "5"), (out2, "6")):
        assert main(["simulate", "--scenario", "error-sn", "--n", "6", "--reps", "2",
                     "--seed", seed, "--out-dir", str(out)]) == 0
    assert (out1 / "mc_summary.csv").read_bytes() != (out2 / "mc_summary.csv").read_bytes()


def test_cmd_simulate_rejects_normal_scenario(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--scenario", "normal", "--out-dir", str(tmp_path)])


def test_cmd_simulate_bad_reps_exit_2(tmp_path):
    assert main(["simulate", "--scenario", "error-sn", "--reps", "0",
                 "--out-dir", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# CLI: diagnose
# ---------------------------------------------------------------------------


def test_cmd_diagnose_after_fit(tmp_path, small_csv):
    path, data = small_csv
    out = tmp_path / "out"
    assert main(["fit", "--data", str(path), "--scenario", "error-sn",
                 "--out-dir", str(out)]) == 0
    code = main(["diagnose", "--fit", str(out / "fit_error_sn.json"),
                 "--data", str(path), "--out-dir", str(out)])
    assert code == 0
    gof = json.loads((out / "gof.json").read_text())
    assert gof["df"] == 12
    assert gof["n_subjects"] == data.n_subjects
    assert 0.0 <= gof["ks_pvalue"] <= 1.0
    plots = (out / "gof_plots.csv").read_text().strip().splitlines()
    healy_rows = [ln for ln in plots if ln.startswith("healy,")]
    assert len(healy_rows) == data.n_subjects


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_singular_information_writes_null_se_and_diagnose_reads_it(
    tmp_path, boundary_error_sn_data
):
    path = tmp_path / "boundary.csv"
    write_long_csv(path, boundary_error_sn_data)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="not positive definite"):
        code = main(["fit", "--data", str(path), "--scenario", "error-sn", "--out-dir", str(out)])
    assert code == 3  # lambda runs off to the boundary: no fit converged
    text = (out / "fit_error_sn.json").read_text()
    payload = json.loads(text, parse_constant=_reject_constant)
    assert payload["se"]["lambda"] is None
    assert all(v is not None for name, v in payload["se"].items() if name != "lambda")
    code = main(["diagnose", "--fit", str(out / "fit_error_sn.json"),
                 "--data", str(path), "--out-dir", str(out)])
    assert code == 0
    json.loads((out / "gof.json").read_text(), parse_constant=_reject_constant)


def test_cmd_diagnose_dimension_mismatch_exit_2(tmp_path, small_csv):
    path, _ = small_csv
    out = tmp_path / "out"
    assert main(["fit", "--data", str(path), "--scenario", "error-sn",
                 "--out-dir", str(out)]) == 0
    # a data file with a different gene count cannot match the stored fit
    layout = default_layout(4)
    other = simulate_subjects(
        layout, default_true_theta(Scenario.ERROR_SN), RngStream(90, 0)
    )
    from dataclasses import replace
    from sncross import CrossoverLayout

    small_layout = CrossoverLayout(
        n_per_seq=(4, 4, 4),
        assignment=((1, 2, 3), (2, 3, 1), (3, 1, 2)),
        n_treatments=3,
        n_responses=2,
        covariates=(),
    )
    vals = {(i, j): np.zeros(6) + i + j for i in range(1, 4) for j in range(1, 5)}
    from sncross import assemble_trial

    mismatched = assemble_trial(small_layout, vals)
    bad_path = tmp_path / "mismatch.csv"
    write_long_csv(bad_path, mismatched)
    code = main(["diagnose", "--fit", str(out / "fit_error_sn.json"),
                 "--data", str(bad_path), "--out-dir", str(out)])
    assert code == 2


def test_cmd_diagnose_missing_fit_exit_2(tmp_path, small_csv):
    path, _ = small_csv
    assert main(["diagnose", "--fit", str(tmp_path / "nofit.json"),
                 "--data", str(path), "--out-dir", str(tmp_path)]) == 2
