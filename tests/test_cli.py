"""Ingestion, emission, JSON rendering and the subcommand/exit-code contract."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from bregman_bv import (
    DomainError,
    GroupedSampleSet,
    NegativeEntropySimplex,
    SampleSet,
    SquaredEuclidean,
    emit_divergence_field,
    emit_samples,
    ingest,
    render_json,
)
from bregman_bv.cli import _has_group_column, main

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def _readme_argv():
    """The README's CLI examples by subcommand, check on a coarse grid."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    argv = {}
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("bregman-bv "):
            args = [fx(a[len("tests/fixtures/"):]) if a.startswith("tests/fixtures/") else a
                    for a in shlex.split(line)[1:]]
            argv[args[0]] = args
    argv["check"][argv["check"].index("--grid-resolution") + 1] = "8"
    return argv


README_ARGV = _readme_argv()
SUBCOMMANDS = ["decompose", "total-variance", "conditional", "ensemble", "check", "field"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_readme_example_exits_zero(capsys, command):
    assert main(README_ARGV[command]) == 0
    assert capsys.readouterr().err == ""


class TestIngest:
    def test_uniform_pair(self):
        s = ingest(fx("preds_pair.csv"))
        assert isinstance(s, SampleSet)
        assert np.allclose(s.points, [[0.8, 0.2], [0.6, 0.4]])
        assert np.allclose(s.weights, [0.5, 0.5])

    def test_weight_column(self):
        s = ingest(fx("weighted_pair.csv"))
        assert np.allclose(s.weights, [0.25, 0.75])

    @pytest.mark.parametrize("command, flag, name", [
        ("decompose", "--predictions", "preds_pair.csv"),
        ("conditional", "--labels", "grouped_euclid.csv"),  # the group column is peeked at first
    ])
    def test_utf8_bom_is_ignored(self, tmp_path, command, flag, name):
        argv = list(README_ARGV[command])
        assert argv[argv.index(flag) + 1] == fx(name)
        marked = tmp_path / name
        marked.write_bytes(b"\xef\xbb\xbf" + Path(fx(name)).read_bytes())
        assert main(argv + ["--out", str(tmp_path / "plain.json")]) == 0
        argv[argv.index(flag) + 1] = str(marked)
        assert main(argv + ["--out", str(tmp_path / "marked.json")]) == 0
        assert (tmp_path / "marked.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_json_groups(self):
        grouped = ingest(fx("preds_grouped.json"))
        assert isinstance(grouped, GroupedSampleSet)
        assert sorted(grouped.keys()) == ["a", "b"]
        assert grouped.weight("a") == pytest.approx(0.5)
        assert grouped.groups["a"].n == 2

    def test_json_group_keys_stay_exact(self, tmp_path):
        # keys that one float cannot tell apart: above 2**53 and beyond the float range
        keys = [2**53 + 1, 2**53, 10**400, 10**400 + 1]
        path = tmp_path / "keys.json"
        path.write_text(json.dumps({"points": [[0.1 * k, 1.0] for k in range(4)], "groups": keys}))
        grouped = ingest(path)
        assert list(grouped.keys()) == keys
        assert all(grouped.groups[key].n == 1 for key in keys)

    def test_csv_group_column(self):
        grouped = ingest(fx("grouped_euclid.csv"), group_column="z")
        assert grouped.weight("a") == pytest.approx(0.6)
        assert np.allclose(grouped.groups["a"].weights, [1.0 / 3.0, 2.0 / 3.0])

    def test_group_column_ignored_when_not_requested(self):
        s = ingest(fx("grouped_euclid.csv"))
        assert isinstance(s, SampleSet) and s.n == 4

    def test_domain_validation_reports_rows(self):
        g = NegativeEntropySimplex(2)
        with pytest.raises(DomainError, match=r"\[0\]") as info:
            ingest(fx("labels_onehot.csv"), generator=g)
        assert str(info.value) == f"{fx('labels_onehot.csv')}: samples [0] outside the open-simplex domain"
        # the same file passes with the boundary allowance
        s = ingest(fx("labels_onehot.csv"), generator=g, allow_boundary=True)
        assert s.n == 1

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x0,x1\n1,2\n3\n")
        with pytest.raises(ValueError, match="data row 1"):
            ingest(str(path))

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1\n1,apple\n")
        with pytest.raises(ValueError, match="non-numeric"):
            ingest(str(path))

    def test_non_finite_coordinate(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("x0,x1\n1,inf\n")
        with pytest.raises(ValueError, match="non-finite"):
            ingest(str(path))

    def test_bad_weights(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("x0,weight\n1,0\n")
        with pytest.raises(ValueError, match="data rows \\[0\\]"):
            ingest(str(path))

    def test_missing_coordinates(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="x0"):
            ingest(str(path))

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("x0\n1\n")
        with pytest.raises(ValueError, match="infer format"):
            ingest(str(path))

    def test_json_list_groups_rejected(self, tmp_path):
        path = tmp_path / "lg.json"
        path.write_text('{"points": [[1, 2], [3, 4], [5, 6]], "groups": [[1], "a", {"k": 2}]}')
        with pytest.raises(ValueError, match=r"non-scalar group entries in data rows \[0, 2\]"):
            ingest(str(path))

    @pytest.mark.parametrize("key", ["weights", "groups"])
    def test_json_scalar_instead_of_array(self, tmp_path, key):
        path = tmp_path / "s.json"
        path.write_text('{"points": [[1, 2]], "%s": 5}' % key)
        with pytest.raises(ValueError, match=f"'{key}' must be an array"):
            ingest(str(path))

    def test_group_column_peek_skips_json(self, tmp_path):
        # JSON groups come from the file itself, so the file is never opened here
        assert _has_group_column(str(tmp_path / "absent.json"), "z") is False
        assert _has_group_column(fx("grouped_euclid.csv"), "z") is True

    def test_overflowing_group_weights(self, tmp_path):
        # each raw group sum is inf; the group weights come from the normalized rows
        path = tmp_path / "huge.csv"
        path.write_text("x0,x1,weight,z\n1,2,1e308,a\n3,4,1e308,a\n1,2,1e308,b\n3,4,1e308,b\n")
        grouped = ingest(str(path), group_column="z")
        assert [grouped.weight(k) for k in ("a", "b")] == [0.5, 0.5]
        assert grouped.groups["a"].weights.tolist() == [0.5, 0.5]

    def test_ragged_json(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"points": [[1, 2], [3]]}')
        with pytest.raises(ValueError, match="ragged"):
            ingest(str(path))


class TestEmit:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(81)
        s = SampleSet(rng.uniform(-3, 3, (5, 2)), rng.uniform(0.1, 1.0, 5))
        path = tmp_path / "out.csv"
        emit_samples(s, str(path))
        back = ingest(str(path))
        assert np.max(np.abs(back.points - s.points)) <= 1e-12
        assert np.max(np.abs(back.weights - s.weights)) <= 1e-12

    def test_grouped_round_trip(self, tmp_path):
        grouped = GroupedSampleSet(
            {"a": SampleSet([[0.0], [2.0]]), "b": SampleSet([[4.0]])}, [0.25, 0.75]
        )
        path = tmp_path / "grouped.csv"
        emit_samples(grouped, str(path))
        back = ingest(str(path), group_column="group")
        assert back.weight("a") == pytest.approx(0.25, abs=1e-12)
        assert np.allclose(back.groups["a"].points.ravel(), [0.0, 2.0])


class TestRenderJson:
    def test_seventeen_digits(self):
        assert render_json(1.0 / 3.0) == "0.33333333333333331"

    def test_zero_and_specials(self):
        assert render_json(0.0) == "0"
        assert render_json(-0.0) == "0"
        assert render_json(True) == "true"
        assert render_json(None) == "null"
        assert render_json(7) == "7"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            render_json(float("nan"))

    def test_key_order_preserved(self):
        text = render_json({"b": 1, "a": [2.5]})
        assert text.index('"b"') < text.index('"a"')


class TestDivergenceField:
    def test_euclidean_field_is_symmetric(self, tmp_path):
        g = SquaredEuclidean(2)
        path = tmp_path / "field.csv"
        rows = emit_divergence_field(
            g, [0.0, 0.0], {"kind": "box", "lo": [-1, -1], "hi": [1, 1]}, 5, str(path)
        )
        assert rows == 25
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.max(np.abs(data[:, 2] - data[:, 3])) <= 1e-12

    def test_resolution_one_is_region_center(self, tmp_path):
        g = SquaredEuclidean(2)
        path = tmp_path / "single.csv"
        rows = emit_divergence_field(
            g, [0.5, 0.5], {"kind": "box", "lo": [0, 0], "hi": [1, 1]}, 1, str(path)
        )
        assert rows == 1
        data = np.loadtxt(path, delimiter=",", skiprows=1).reshape(-1)
        assert np.allclose(data, [0.5, 0.5, 0.0, 0.0])

    def test_entropy_segment_is_asymmetric(self, tmp_path):
        g = NegativeEntropySimplex(2)
        path = tmp_path / "seg.csv"
        emit_divergence_field(g, [0.5, 0.5], {"kind": "disk", "radius": 0.3}, 5, str(path))
        text = path.read_text().splitlines()
        values = [line for line in text[1:] if not line.endswith(",,")]
        # off-segment grid points keep empty cells; the diagonal carries values
        assert 1 <= len(values) < len(text) - 1
        asym = [line for line in values if line.split(",")[2] != line.split(",")[3]]
        assert asym

    def test_region_outside_domain(self):
        g = NegativeEntropySimplex(2)
        with pytest.raises(ValueError, match="inside the domain"):
            emit_divergence_field(
                g, [0.5, 0.5], {"kind": "box", "lo": [0.1, 0.1], "hi": [0.2, 0.2]}, 4, "unused.csv"
            )


def run_twice(argv_base, tmp_path, stem):
    """Run a subcommand twice with --out files; return (exit codes, bytes pair)."""
    out1 = tmp_path / f"{stem}_1.json"
    out2 = tmp_path / f"{stem}_2.json"
    code1 = main(argv_base + ["--out", str(out1)])
    code2 = main(argv_base + ["--out", str(out2)])
    return (code1, code2), (out1.read_bytes(), out2.read_bytes())


class TestSubcommands:
    def test_decompose_simplex_onehot(self, tmp_path):
        argv = [
            "decompose", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--labels", fx("labels_onehot.csv"), "--predictions", fx("preds_pair.csv"),
            "--label-onehot",
        ]
        (c1, c2), (b1, b2) = run_twice(argv, tmp_path, "dec")
        assert c1 == 0 and c2 == 0
        assert b1 == b2
        assert b'"bias": 0.34234658484830527' in b1

    def test_decompose_mahalanobis_matrix_file(self, tmp_path):
        argv = [
            "decompose", "--generator", "mahalanobis", "--matrix-file", fx("matrix2.csv"),
            "--labels", fx("labels_euclid.csv"), "--predictions", fx("preds_euclid.csv"),
        ]
        (c1, c2), (b1, b2) = run_twice(argv, tmp_path, "mah")
        assert c1 == 0 and c2 == 0 and b1 == b2

    def test_total_variance_csv_and_json(self, tmp_path):
        argv = [
            "total-variance", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--predictions", fx("grouped_simplex.csv"), "--group-col", "z", "--mode", "dual",
        ]
        (c1, c2), (b1, b2) = run_twice(argv, tmp_path, "tv")
        assert c1 == 0 and c2 == 0 and b1 == b2
        argv_json = [
            "total-variance", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--predictions", fx("preds_grouped.json"), "--mode", "primal",
        ]
        assert main(argv_json + ["--out", str(tmp_path / "tvj.json")]) == 0

    def test_conditional_prediction_side(self, tmp_path):
        argv = [
            "conditional", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--labels", fx("labels_onehot.csv"), "--predictions", fx("grouped_simplex.csv"),
            "--group-col", "z", "--label-onehot",
        ]
        (c1, c2), (b1, b2) = run_twice(argv, tmp_path, "cp")
        assert c1 == 0 and c2 == 0 and b1 == b2
        assert b'"side": "prediction"' in b1

    def test_conditional_label_side(self, tmp_path):
        argv = [
            "conditional", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", fx("grouped_euclid.csv"), "--predictions", fx("point_euclid.csv"),
            "--group-col", "z",
        ]
        (c1, c2), (b1, b2) = run_twice(argv, tmp_path, "cl")
        assert c1 == 0 and c2 == 0 and b1 == b2
        assert b'"side": "label"' in b1

    def test_ensemble_dual(self, tmp_path):
        argv = [
            "ensemble", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--labels", fx("labels_onehot.csv"), "--predictions", fx("preds_pair.csv"),
            "--mode", "dual", "--ensemble-n", "2", "--label-onehot",
        ]
        (c1, c2), (b1, b2) = run_twice(argv, tmp_path, "ens")
        assert c1 == 0 and c2 == 0 and b1 == b2
        assert b'"bias_preserved": true' in b1

    @pytest.mark.parametrize("rows, n", [
        ("x0,x1\n0.8,0.2\n0.6,0.4\n", 1100),  # coefficients beyond the float range
        ("x0,x1,weight\n0.8,0.2,1\n0.6,0.4,1e-200\n", 2),  # an atom weight underflows
    ], ids=["n=1100", "tiny-weight"])
    def test_ensemble_extreme_cases_certify(self, tmp_path, capsys, rows, n):
        preds = tmp_path / "preds.csv"
        preds.write_text(rows)
        out = tmp_path / "ens.json"
        code = main([
            "ensemble", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--labels", fx("labels_onehot.csv"), "--predictions", str(preds),
            "--mode", "dual", "--ensemble-n", str(n), "--label-onehot", "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().err == ""
        report = out.read_bytes()
        assert b'"bias_preserved": true' in report and b'"variance_reduced": true' in report

    def test_ensemble_monte_carlo_seeded(self, tmp_path):
        argv = [
            "ensemble", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--labels", fx("labels_onehot.csv"), "--predictions", fx("preds_pair.csv"),
            "--mode", "primal", "--ensemble-n", "2", "--mc-draws", "32", "--seed", "9",
            "--label-onehot",
        ]
        (c1, c2), (b1, b2) = run_twice(argv, tmp_path, "mc")
        assert c1 == 0 and c2 == 0 and b1 == b2

    def test_ensemble_monte_carlo_dual_not_gated(self, tmp_path):
        # MC dual ensembles only hold the bias in expectation: reported, not certified
        argv = [
            "ensemble", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--labels", fx("labels_onehot.csv"), "--predictions", fx("preds_pair.csv"),
            "--mode", "dual", "--ensemble-n", "5", "--mc-draws", "64", "--seed", "11",
            "--label-onehot",
        ]
        (c1, c2), (b1, b2) = run_twice(argv, tmp_path, "mcd")
        assert c1 == 0 and c2 == 0 and b1 == b2
        assert b'"bias_preserved": null' in b1

    def test_check_subcommand(self, tmp_path):
        argv = [
            "check", "--generator", "squared-euclidean", "--dim", "2",
            "--predictions", fx("preds_euclid.csv"), "--grid-resolution", "64",
        ]
        (c1, c2), (b1, b2) = run_twice(argv, tmp_path, "chk")
        assert c1 == 0 and c2 == 0 and b1 == b2

    def test_field_subcommand(self, tmp_path):
        argv = [
            "field", "--generator", "squared-euclidean", "--dim", "2",
            "--center", "0,0", "--region", "disk", "--radius", "1.0", "--resolution", "9",
        ]
        (c1, c2), (b1, b2) = run_twice(argv, tmp_path, "fld")
        assert c1 == 0 and c2 == 0 and b1 == b2


def _offset_files(tmp_path, seed, offset=1e6):
    """A 15-row set in three groups and one point, all near (offset, offset)."""
    rng = np.random.default_rng(seed)
    points = offset + rng.uniform(-2.0, 2.0, size=(15, 2))
    point = offset + rng.uniform(-2.0, 2.0, size=2)
    grouped = tmp_path / "grouped.csv"
    grouped.write_text("x0,x1,z\n" + "".join(
        f"{a!r},{b!r},{'abc'[i // 5]}\n" for i, (a, b) in enumerate(points.tolist())))
    single = tmp_path / "point.csv"
    single.write_text("x0,x1\n{!r},{!r}\n".format(*point.tolist()))
    base = ["--generator", "squared-euclidean", "--dim", "2", "--group-col", "z"]
    return {
        "total-variance primal": ["total-variance", *base, "--predictions", str(grouped), "--mode", "primal"],
        "total-variance dual": ["total-variance", *base, "--predictions", str(grouped), "--mode", "dual"],
        "conditional prediction": ["conditional", *base, "--labels", str(single), "--predictions", str(grouped)],
        "conditional label": ["conditional", *base, "--labels", str(grouped), "--predictions", str(single)],
    }


class TestOffset:
    def test_grouped_reports_certify_at_offset(self, tmp_path, capsys):
        # the generic formula took ||y||^2 - ||x||^2 at ~2e12 and lost ~1e-4 to
        # rounding: both total-variance reports failed the 1e-9 gate here
        for argv in _offset_files(tmp_path, seed=0).values():
            assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""

    @pytest.mark.xfail(strict=True, reason=(
        "known defect, not of the divergence: the overall center of the flattened set and "
        "the weighted mean of the group centers round apart by ~1e-10 at this offset, and "
        "the conditioning identity turns that into a residual just above 1e-9 (about 1 in 8 "
        "random sets)"))
    def test_conditional_at_offset(self, tmp_path):
        reports = _offset_files(tmp_path, seed=23)
        for key in ("conditional prediction", "conditional label"):
            assert main(reports[key]) == 0, key


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        code = main([
            "decompose", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", "no_such.csv", "--predictions", fx("preds_euclid.csv"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_onehot_without_flag_is_input_error(self):
        code = main([
            "decompose", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--labels", fx("labels_onehot.csv"), "--predictions", fx("preds_pair.csv"),
        ])
        assert code == 1

    def test_onehot_flag_needs_simplex(self):
        code = main([
            "decompose", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", fx("labels_euclid.csv"), "--predictions", fx("preds_euclid.csv"),
            "--label-onehot",
        ])
        assert code == 1

    def test_conditional_needs_one_grouped_side(self):
        code = main([
            "conditional", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--labels", fx("grouped_simplex.csv"), "--predictions", fx("grouped_simplex.csv"),
            "--group-col", "z",
        ])
        assert code == 1

    def test_list_valued_json_groups_are_input_errors(self, tmp_path, capsys):
        path = tmp_path / "lg.json"
        path.write_text('{"points": [[0.5, 0.5], [0.6, 0.4]], "groups": [[1], [2]]}')
        code = main([
            "total-variance", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--predictions", str(path), "--mode", "dual",
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: non-scalar group entries in data rows [0, 1]\n"

    @pytest.mark.parametrize("payload, message", [
        *[pytest.param('{"points": [[0.5, 0.5], [%s, 0.4]]}' % cell,
                       "non-numeric coordinates in data rows [1]", id=f"points-{cell}")
          for cell in ("{}", "[]", "true", '"1"', "null")],
        *[pytest.param('{"points": [[0.5, 0.5], [0.6, 0.4]], "weights": [1, %s]}' % cell,
                       "non-numeric weights in data rows [1]", id=f"weights-{cell}")
          for cell in ("{}", "[]", "true", '"1"', "null")],
        pytest.param('{"points": [[0.5, 0.5], [0.6, 0.4], [0.7, 0.3]], "groups": [NaN, NaN, "a"]}',
                     "NaN group entries in data rows [0, 1]", id="nan-groups"),
        pytest.param('{"points": [[], []]}', "points must form a nonempty (n, d) array", id="empty-rows"),
    ])
    def test_malformed_json_is_input_error(self, tmp_path, capsys, payload, message):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        code = main([
            "decompose", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", str(path), "--predictions", fx("preds_euclid.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_overflowing_weight_sums_give_true_reports(self, tmp_path, capsys):
        flat = tmp_path / "huge.csv"
        flat.write_text("x0,x1,weight\n1,2,1e308\n3,4,1e308\n")
        out = tmp_path / "dec.json"
        assert main([
            "decompose", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", str(flat), "--predictions", str(flat), "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["expected_loss"] == 4.0
        grouped = tmp_path / "huge_grouped.csv"
        grouped.write_text("x0,x1,weight,z\n1,2,1e308,a\n3,4,1e308,a\n1,2,1e308,b\n5,6,1e308,b\n")
        out = tmp_path / "tv.json"
        assert main([
            "total-variance", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", str(grouped), "--group-col", "z", "--mode", "primal", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["total"] == pytest.approx(5.5, rel=1e-15)
        assert report["unexplained"] == pytest.approx(5.0, rel=1e-15)

    def test_usage_error_maps_to_one(self, capsys):
        assert main(["decompose", "--generator", "squared-euclidean"]) == 1
        capsys.readouterr()

    def test_missing_dim(self):
        code = main([
            "decompose", "--generator", "squared-euclidean",
            "--labels", fx("labels_euclid.csv"), "--predictions", fx("preds_euclid.csv"),
        ])
        assert code == 1

    @pytest.mark.parametrize("draws", ["0", "-2"])
    def test_mc_draws_must_be_positive(self, capsys, draws):
        code = main([
            "ensemble", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", fx("point_euclid.csv"), "--predictions", fx("preds_euclid.csv"),
            "--mode", "primal", "--ensemble-n", "2", "--mc-draws", draws, "--seed", "1",
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: --mc-draws must be >= 1, got {draws}\n"

    def test_overflowing_coordinates_are_input_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("x0,x1\n1e200,-1e200\n2e200,1e200\n")
        code = main([
            "decompose", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", str(path), "--predictions", str(path),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: divergence overflowed near the domain boundary\n"

    def test_onehot_labels_missing_a_class(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("x0,x1,x2\n1,0,0\n0,1,0\n")
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("x0,x1,x2\n0.5,0.3,0.2\n0.2,0.5,0.3\n")
        out = tmp_path / "report.json"
        code = main([
            "decompose", "--generator", "negative-entropy-simplex", "--dim", "3", "--label-onehot",
            "--labels", str(labels), "--predictions", str(predictions), "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["bayes_error"] == pytest.approx(np.log(2.0), rel=1e-15)
        assert report["central_label"] == [0.5, 0.5, 0.0]

    def test_mc_without_seed(self):
        code = main([
            "ensemble", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", fx("point_euclid.csv"), "--predictions", fx("preds_euclid.csv"),
            "--mode", "primal", "--ensemble-n", "2", "--mc-draws", "16",
        ])
        assert code == 1

    @pytest.mark.parametrize("payload, message", [
        pytest.param('{"points": [[0.5, 0.5], [1%s, 0.4]]}' % ("0" * 400),
                     "non-finite coordinates in data rows [1]", id="coordinate"),
        # beyond the default limit of 4300 digits for int() of a string
        pytest.param('{"points": [[0.5, 0.5], [-1%s, 0.4]]}' % ("0" * 5000),
                     "non-finite coordinates in data rows [1]", id="coordinate-5000-digits"),
        pytest.param('{"points": [[0.5, 0.5], [0.6, 0.4]], "weights": [1, 1%s]}' % ("0" * 400),
                     "zero, negative or non-finite weights in data rows [1]", id="weight"),
    ])
    def test_overflowing_json_integer_is_input_error(self, tmp_path, capsys, payload, message):
        path = tmp_path / "big.json"
        path.write_text(payload)
        code = main([
            "decompose", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", str(path), "--predictions", fx("preds_euclid.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_overflowing_json_group_keys_are_input_error(self, tmp_path, capsys):
        # too long for int(), so beyond the float range: both keys would become inf
        keys = ", ".join(f"{lead}{'0' * 5000}" for lead in (1, 2))
        path = tmp_path / "keys.json"
        path.write_text('{"points": [[0.5, 0.5], [0.6, 0.4], [0.7, 0.3]], "groups": [%s, "a"]}' % keys)
        code = main([
            "total-variance", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--predictions", str(path), "--mode", "dual",
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: infinite group entries in data rows [0, 1]\n"

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"points": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code = main([
            "decompose", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", str(path), "--predictions", fx("preds_euclid.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON (maximum recursion")

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "abc"])
    @pytest.mark.parametrize("command", ["decompose", "total-variance", "conditional", "ensemble", "check"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, command, value):
        assert main([*README_ARGV[command], f"--tolerance={value}"]) == 1
        assert "--tolerance: expected a finite nonnegative number" in capsys.readouterr().err

    @pytest.mark.parametrize("command, message", [
        ("total-variance", "identity violated: residual"),
        ("conditional", "identity violated: residual"),
        ("ensemble", "identity violated: ensembled residual"),
        ("check", "oracle certification failed: objective gap"),
    ])
    def test_zero_tolerance_exits_two_with_report(self, tmp_path, capsys, command, message):
        # every README example has a nonzero residual, so a zero tolerance trips its gate
        out = tmp_path / "rep.json"
        assert main([*README_ARGV[command], "--tolerance", "0", "--out", str(out)]) == 2
        assert json.loads(out.read_text())
        assert message in capsys.readouterr().err

    def test_identity_failure_exits_two(self, tmp_path, capsys):
        # this fixture pair has a residual of a few 1e-17: nonzero, so a zero
        # tolerance must trip the identity gate while still printing the report
        out = tmp_path / "rep.json"
        code = main([
            "decompose", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--labels", fx("preds_pair.csv"), "--predictions", fx("grouped_simplex.csv"),
            "--tolerance", "0", "--out", str(out),
        ])
        assert code == 2
        assert out.exists() and b"identity_residual" in out.read_bytes()
        assert "identity violated" in capsys.readouterr().err

    def test_thread_cap_validation(self, monkeypatch, capsys):
        monkeypatch.setenv("BREGMAN_BV_THREADS", "-3")
        assert main(["decompose", "--generator", "squared-euclidean", "--dim", "2",
                     "--labels", fx("labels_euclid.csv"),
                     "--predictions", fx("preds_euclid.csv")]) == 1
        capsys.readouterr()
        monkeypatch.setenv("BREGMAN_BV_THREADS", "2")
        assert main(["decompose", "--generator", "squared-euclidean", "--dim", "2",
                     "--labels", fx("labels_euclid.csv"),
                     "--predictions", fx("preds_euclid.csv")]) == 0
        capsys.readouterr()
