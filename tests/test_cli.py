"""Ingestion, emission, JSON rendering and the subcommand/exit-code contract."""

import contextlib
import csv
import io
import json
import shlex
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bregman_bv import (
    DomainError,
    GroupedSampleSet,
    NegativeEntropySimplex,
    SampleSet,
    SquaredEuclidean,
    emit_divergence_field,
    ingest,
    render_json,
)
from bregman_bv import cli
from bregman_bv.cli import _fmt_float, _has_group_column, main

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def _readme_argv():
    """The README's CLI examples by subcommand."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    argv = {}
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("bregman-bv "):
            args = [fx(a[len("tests/fixtures/"):]) if a.startswith("tests/fixtures/") else a
                    for a in shlex.split(line)[1:]]
            argv[args[0]] = args
    return argv


README_ARGV = _readme_argv()
SUBCOMMANDS = ["decompose", "total-variance", "conditional", "ensemble", "check", "field"]


EXPECTED = {command: FIXTURES / "expected" / f"{command}.{'csv' if command == 'field' else 'json'}"
            for command in SUBCOMMANDS}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_readme_example_report_is_pinned(capsys, command):
    assert main(README_ARGV[command]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == EXPECTED[command].read_bytes().decode("utf-8")


def test_check_report_is_pinned(capsys):
    # built from lists, these five weighted rows give this report; strided
    # column views of one parsed table move oracle_objective by one ulp
    assert main([
        "check", "--generator", "mahalanobis", "--matrix-file", fx("matrix3.csv"),
        "--labels", fx("check_mahalanobis3.csv"), "--grid-resolution", "64",
    ]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    expected = FIXTURES / "expected" / "check_mahalanobis3.json"
    assert captured.out == expected.read_bytes().decode("utf-8")


def test_check_runs_the_public_oracles(monkeypatch, capsys):
    # the benchmark tracer times the oracle through these public names
    from bregman_bv import oracle

    calls = dict.fromkeys(["argmin_from", "argmin_to"], 0)
    for name in calls:
        def counted(*args, _name=name, _argmin=getattr(oracle, name), **kwargs):
            calls[_name] += 1
            return _argmin(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    assert main(README_ARGV["check"]) == 0
    assert calls == {"argmin_from": 1, "argmin_to": 1}
    assert capsys.readouterr() == (EXPECTED["check"].read_bytes().decode("utf-8"), "")


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

    def test_matrix_file_loading(self, tmp_path):
        path = tmp_path / "A.csv"
        path.write_text("2,0\n0,1\n")
        assert cli._read_mahalanobis(str(path)).matrix.tolist() == [[2.0, 0.0], [0.0, 1.0]]
        assert np.array_equal(cli._read_mahalanobis(fx("matrix3.csv")).matrix,
                              np.loadtxt(fx("matrix3.csv"), delimiter=","))

    @pytest.mark.parametrize("variant", [
        lambda text: b"\xef\xbb\xbf" + text,
        lambda text: text.replace(b"\n", b"\r\n"),
        lambda text: text.replace(b"\n", b"\r"),
    ], ids=["byte-order-mark", "crlf", "cr-only"])
    def test_matrix_file_encodings_give_the_same_report(self, tmp_path, variant):
        path = tmp_path / "matrix3.csv"
        path.write_bytes(variant(Path(fx("matrix3.csv")).read_bytes()))
        out = tmp_path / "check.json"
        assert main(["check", "--generator", "mahalanobis", "--matrix-file", str(path),
                     "--labels", fx("check_mahalanobis3.csv"), "--grid-resolution", "64",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (FIXTURES / "expected" / "check_mahalanobis3.json").read_bytes()

    def test_json_groups(self):
        grouped = ingest(fx("preds_grouped.json"))
        assert isinstance(grouped, GroupedSampleSet)
        assert sorted(grouped.groups) == ["a", "b"]
        assert grouped.group_weights["a"] == pytest.approx(0.5)
        assert grouped.groups["a"].n == 2

    def test_json_group_keys_stay_exact(self, tmp_path):
        # keys that one float cannot tell apart: above 2**53 and beyond the float range
        keys = [2**53 + 1, 2**53, 10**400, 10**400 + 1]
        path = tmp_path / "keys.json"
        path.write_text(json.dumps({"points": [[0.1 * k, 1.0] for k in range(4)], "groups": keys}))
        grouped = ingest(path)
        assert list(grouped.groups) == keys
        assert all(grouped.groups[key].n == 1 for key in keys)

    def test_json_group_keys_merge_as_dict_keys(self, tmp_path):
        path = tmp_path / "merge.json"
        path.write_text(json.dumps({"points": [[0.1 * k, 1.0] for k in range(5)],
                                    "groups": [1, "a", 1.0, True, "a"]}))
        grouped = ingest(path)
        assert list(grouped.groups) == [1, "a"]
        assert grouped.groups[1].points[:, 0].tolist() == [0.0, 0.2, 0.30000000000000004]
        assert grouped.group_weights[1] == 0.6

    def test_csv_group_column(self):
        grouped = ingest(fx("grouped_euclid.csv"), group_column="z")
        assert grouped.group_weights["a"] == pytest.approx(0.6)
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
        assert [grouped.group_weights[k] for k in ("a", "b")] == [0.5, 0.5]
        assert grouped.groups["a"].weights.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("cell, fast", [
        ("nan", True), ("inf", True), ("1e400", True), (" 1", True), ("+.5", True),
        ("-0", True), ("5e-324", True),
        ("1_0", False), ("0x1p3", False), ("", False), ("\u0661", False), ("\x1c1", False),
    ])
    def test_odd_cells_parse_as_float_parses_them(self, tmp_path, monkeypatch, capsys, cell, fast):
        path = tmp_path / "cells.csv"
        path.write_text(f"x0,x1,weight,z\n0.5,0.25,1,a\n-0.0,{cell},2,b\n", encoding="utf-8")
        assert _compare_readers(path, "z", monkeypatch) is fast
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("content, fast", [
        ("x0,x1,z\n1,2,a\n\n3,4,b\n", False),  # blank data line
        ("x0,x1,z\n1,2,a\n3,4,b\n\n", False),  # trailing blank line
        ("x0\n1\n\n2\n", False),  # a blank line of a one-column file has every cell
        ("x0\n1\n2\n\n", False),
        ("x0,x1,z\n", False),  # header only
        ("x0,x1,z\r\n1,2,a\r\n3,4,b\r\n", False),
        ("x0,x1,z\r1,2,a\r3,4,b\r", False),
        ('x0,x1,z\n"1",2,a\n3,4,"b,c"\n', False),
        ("x0,x1,z\n#1,2,a\n3,4,b\n", False),  # '#' is no comment
        ("x0,x1,z\n1,2,a\n3,4\n", False),  # ragged: a short row
        ("x0,x1,z\n1,2,a,9\n3,4,b\n", False),  # ragged: a long row
        ("\ufeffx0,x1,z\n1,2,a\n3,4,b\n", True),
        ("x0,x1,z\n1,2, a b \n3,4, a b\n5,6, a b \n", True),  # keys keep their spaces
        ("x0,x1,z\n1,2,a\n3,4,b", True),  # no final newline
        ("z,x1,x0\n1,2,3\n4,5,6\n", True),  # columns in any order, z read as text
        pytest.param("x0,z\n1,%s\n" % ("k" * 140_000), False, id="cell-beyond-csv-field-limit"),
        pytest.param("x0\n1.%s\n" % ("0" * 140_000), False, id="number-beyond-csv-field-limit"),
    ])
    def test_odd_structures_read_as_the_csv_module_reads_them(
            self, tmp_path, monkeypatch, capsys, content, fast):
        path = tmp_path / "odd.csv"
        path.write_bytes(content.encode("utf-8"))
        group_column = "z" if "z" in content.partition("\n")[0] else None
        assert _compare_readers(path, group_column, monkeypatch) is fast
        assert capsys.readouterr().err == ""

    @settings(max_examples=60, deadline=None)
    @given(
        table=st.integers(1, 4).flatmap(lambda d: st.lists(
            st.lists(st.floats(width=64), min_size=d, max_size=d), min_size=1, max_size=8)),
        styles=st.lists(st.sampled_from(["{!r}", "{:.3e}", "+{!r}", " {!r} ", "{:.17g}"]), min_size=1),
        keys=st.lists(st.text("ab #-_", min_size=0, max_size=3), min_size=1),
        weighted=st.booleans(),
    )
    def test_vectorized_parse_matches_rows(self, table, styles, keys, weighted):
        d = len(table[0])
        header = [f"x{j}" for j in range(d)] + (["weight"] if weighted else []) + ["z"]
        lines = []
        for i, row in enumerate(table):
            cells = [_cell(styles[(i + j) % len(styles)], v) for j, v in enumerate(row)]
            if weighted:
                cells.append(_cell(styles[i % len(styles)], abs(row[0])))
            lines.append(",".join(cells + [keys[i % len(keys)]]) + "\n")
        body = "".join(lines)
        columns = (len(header), list(range(d)), d if weighted else None, len(header) - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = cli._parse_csv_body(body, *columns)
            rows = cli._read_csv_rows("t.csv", csv.reader(io.StringIO(body, newline="")), *columns)
        assert fast is not None
        _assert_bit_equal(fast, rows)

    def test_ragged_json(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"points": [[1, 2], [3]]}')
        with pytest.raises(ValueError, match="ragged"):
            ingest(str(path))


def _cell(style, value):
    """A float written in one of several styles; a leading + only where no sign is."""
    text = style.format(value)
    return text[1:] if text.startswith("+-") else text


def _assert_bit_equal(fast, rows):
    """The vectorized parse gave C-contiguous float64 arrays bit-equal to the row reader's lists."""
    for got, want in zip(fast[:2], rows[:2]):
        assert (got is None) == (want is None)
        if got is not None:
            want = np.asarray(want, dtype=float)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert fast[2] == rows[2]


def _compare_readers(path, group_column, monkeypatch):
    """Read a CSV file through both readers; return whether the vectorized parse took it.

    Both must give bit-equal arrays, or the same error, without a word on stderr.
    """
    parsed = []
    parse = cli._parse_csv_body

    def spy(*columns):
        parsed.append(parse(*columns))
        return parsed[-1]

    monkeypatch.setattr(cli, "_parse_csv_body", spy)
    results = []
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                results.append(cli._read_csv(str(path), group_column))
            except (ValueError, csv.Error) as exc:
                results.append(f"{type(exc).__name__}: {exc}")
        monkeypatch.setattr(cli, "_parse_csv_body", lambda *a: None)
    fast, rows = results
    took = bool(parsed) and parsed[0] is not None
    if took:
        _assert_bit_equal(fast, rows)
    else:
        assert fast == rows
    return took


class TestEmit:
    def test_rows_match_fmt_float(self):
        # the cells _fmt_float writes, one at a time: -0.0 as 0, subnormals and extremes exact
        table = np.array([[-0.0, 5e-324, 1.0], [1e308, 0.1, 2.0], [0.1, -0.0, 3.0]])
        for end in ("\n", ",,\n"):
            want = [",".join(map(_fmt_float, row)) + end for row in table.tolist()]
            assert list(cli._csv_lines(table, end)) == want


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

    # a numpy warning leaked by the grid arithmetic is an error in this suite
    @pytest.mark.parametrize("center, region, message", [
        ([0, 0], {"kind": "box", "lo": [-np.inf, -1], "hi": [1, 1]}, "region bounds must be finite"),
        ([0, 0], {"kind": "box", "lo": [-1, -1], "hi": [1, np.nan]}, "region bounds must be finite"),
        ([0, 0], {"kind": "disk", "radius": 1, "center": [np.inf, 0]}, "region bounds must be finite"),
        ([0, 0], {"kind": "disk", "radius": np.inf}, "disk radius must be finite"),
        ([0, 0], {"kind": "disk", "radius": np.nan}, "disk radius must be finite"),
        ([0, 0], {"kind": "box", "lo": [-1e308, -1], "hi": [1e308, 1]},
         "region spans wider than the float range"),
        ([0, 0], {"kind": "disk", "radius": 1e200}, "disk region is wider than the float range"),
        ([1.5e308, 0], {"kind": "disk", "radius": 3e307}, "disk region is wider than the float range"),
    ], ids=["inf-lo", "nan-hi", "inf-disk-center", "inf-radius", "nan-radius", "box-span", "disk-square",
            "disk-edge"])
    def test_region_checked_before_grid_arithmetic(self, center, region, message):
        with pytest.raises(ValueError) as excinfo:
            emit_divergence_field(SquaredEuclidean(2), center, region, 3, io.StringIO())
        assert str(excinfo.value) == message

    def test_region_near_the_float_limit(self):
        # the midpoint of a one-point grid is taken without forming lo + hi
        out = io.StringIO()
        assert emit_divergence_field(
            SquaredEuclidean(1), [1.25e308], {"kind": "box", "lo": [1e308], "hi": [1.5e308]}, 1, out
        ) == 1
        assert out.getvalue().splitlines()[1] == "1.25e+308,0,0"
        # coordinates whose sum overflows lie off the simplex
        with pytest.raises(ValueError, match="no grid point of the region lies inside the domain"):
            emit_divergence_field(NegativeEntropySimplex(2), [0.5, 0.5],
                                  {"kind": "box", "lo": [1e308, 1e308], "hi": [1.5e308, 1.5e308]}, 3, out)


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

    @pytest.mark.parametrize("n", [2, 10**20, 2**62])
    def test_ensemble_one_row_at_any_n(self, tmp_path, capsys, n):
        # the average of n draws of one row is that row: no enumeration, at any n
        labels, preds = tmp_path / "l.csv", tmp_path / "p.csv"
        labels.write_text("x0,x1\n0.5,1.5\n")
        preds.write_text("x0,x1\n1.0,-2.0\n")
        out = tmp_path / "ens.json"
        code = main([
            "ensemble", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", str(labels), "--predictions", str(preds),
            "--mode", "dual", "--ensemble-n", str(n), "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_bytes())
        assert report["ensembled"] == report["base"]
        assert report["bias_change"] == 0.0 == report["variance_change"]

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


_CONFIDENT_ROWS = ["0.97,3e-14,0.02999999999997", "0.95,5e-14,0.04999999999995", "0.99,2e-14,0.00999999999998"]
_CONFIDENT_FILES = {
    "l.csv": "x0,x1,x2\n1,0,0\n",
    "one.csv": "x0,x1,x2\n0.98,1e-13,0.0199999999999\n",
    "conf.csv": "x0,x1,x2\n" + "".join(f"{row}\n" for row in _CONFIDENT_ROWS),
    "gconf.csv": "x0,x1,x2,z\n" + "".join(f"{row},{z}\n" for row, z in zip(_CONFIDENT_ROWS, "aab")),
    "glab3.csv": "x0,x1,x2,z\n1,0,0,a\n0,1,0,a\n0,0,1,b\n",
}
_SIMPLEX3 = ["--generator", "negative-entropy-simplex", "--dim", "3"]


@pytest.mark.parametrize("argv", [
    ["decompose", *_SIMPLEX3, "--labels", "l.csv", "--predictions", "one.csv", "--label-onehot"],
    ["decompose", *_SIMPLEX3, "--labels", "l.csv", "--predictions", "conf.csv", "--label-onehot"],
    ["conditional", *_SIMPLEX3, "--labels", "l.csv", "--predictions", "gconf.csv", "--group-col", "z",
     "--label-onehot"],
    ["conditional", *_SIMPLEX3, "--labels", "glab3.csv", "--predictions", "one.csv", "--group-col", "z",
     "--label-onehot"],
    ["ensemble", *_SIMPLEX3, "--labels", "l.csv", "--predictions", "conf.csv", "--label-onehot",
     "--mode", "dual", "--ensemble-n", "2"],
    ["field", *_SIMPLEX3, "--center", "0.98,1e-13,0.0199999999999", "--region", "disk", "--radius", "0.01",
     "--resolution", "5"],
], ids=["decompose-one", "decompose-three", "conditional-prediction", "conditional-label", "ensemble", "field"])
def test_confident_predictions_certify(tmp_path, capsys, argv):
    # central predictions of confident softmax rows have coordinates far below 1e-12;
    # they are inside the open simplex, in second-argument position as anywhere else
    for name, text in _CONFIDENT_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / arg) if arg in _CONFIDENT_FILES else arg for arg in argv]
    assert main(argv) == 0  # 0: the report passes its gate
    out, err = capsys.readouterr()
    assert err == ""
    if argv[0] == "decompose":
        assert 0.0 < json.loads(out)["central_prediction"][1] < 1e-12
    if argv[0] == "field":
        assert any(not line.endswith(",,") for line in out.splitlines()[1:])


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

    @pytest.mark.parametrize("options, message", [
        (["--center=0,0", "--region", "box", "--lo=-inf,-1", "--hi=1,1"],
         "--lo needs comma-separated finite numbers, got '-inf,-1'"),
        (["--center=0,0", "--region", "disk", "--radius", "inf"],
         "--radius needs a finite number, got 'inf'"),
        (["--center=0,0", "--region", "box", "--lo=-1e308,-1", "--hi=1e308,1"],
         "region spans wider than the float range"),
        (["--center=0,0", "--region", "disk", "--radius", "1e200"],
         "disk region is wider than the float range"),
        (["--center=1.5e308,0", "--region", "disk", "--radius", "3e307"],
         "disk region is wider than the float range"),
        (["--center=a,0", "--region", "disk", "--radius", "1"],
         "--center needs comma-separated finite numbers, got 'a,0'"),
    ], ids=["inf-lo", "inf-radius", "box-span", "disk-square", "disk-edge", "center-text"])
    def test_field_region_out_of_float_range(self, capsys, options, message):
        code = main(["field", "--generator", "squared-euclidean", "--dim", "2", *options, "--resolution", "3"])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_field_overflowing_divergences(self, capsys):
        # every grid point lies in the full-space domain; every divergence overflows
        code = main(["field", "--generator", "squared-euclidean", "--dim", "2", "--center=0,0",
                     "--region", "box", "--lo=1e200,1e200", "--hi=2e200,2e200", "--resolution", "3"])
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: the divergences overflow at every grid point of the region inside the domain\n"
        )

    def test_cell_beyond_csv_field_limit(self, tmp_path, capsys):
        path = tmp_path / "long_key.csv"
        path.write_text(f"x0,x1,z\n1,2,a\n3,4,{'k' * 140_000}\n5,6,a\n")
        code = main(["total-variance", "--generator", "squared-euclidean", "--dim", "2",
                     "--labels", str(path), "--group-col", "z", "--mode", "primal"])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: {path}: data row 1: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize("command, options", [
        ("decompose", []),
        # conditional peeks at the header for the group column before reading the file
        ("conditional", ["--group-col", "z"]),
    ])
    def test_header_cell_beyond_csv_field_limit(self, tmp_path, capsys, command, options):
        path = tmp_path / "long_header.csv"
        path.write_text(f"x0,x1,{'z' * 140_000}\n1,2,a\n")
        code = main([command, "--generator", "squared-euclidean", "--dim", "2", "--labels", str(path),
                     "--predictions", fx("point_euclid.csv"), *options])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: {path}: header: field larger than field limit (131072)\n"
        )

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
        assert capsys.readouterr().err == f"error: mc_draws must be >= 1, got {draws}\n"

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

    def test_simplex_coordinates_whose_sum_overflows(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("x0,x1\n1e308,1e308\n0.5,0.5\n")
        code = main([
            "decompose", "--generator", "negative-entropy-simplex", "--dim", "2",
            "--labels", str(path), "--predictions", fx("preds_pair.csv"),
        ])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {path}: samples [0] outside the open-simplex domain\n")

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

    def test_mc_without_seed(self, capsys):
        code = main([
            "ensemble", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", fx("point_euclid.csv"), "--predictions", fx("preds_euclid.csv"),
            "--mode", "primal", "--ensemble-n", "2", "--mc-draws", "16",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: Monte Carlo ensembling requires an explicit seed\n"

    def test_mc_without_seed_on_one_atom(self, capsys):
        # the ensemble of a one-row file is that row: nothing is drawn, so no seed is needed
        code = main([
            "ensemble", "--generator", "squared-euclidean", "--dim", "2",
            "--labels", fx("point_euclid.csv"), "--predictions", fx("point_euclid.csv"),
            "--mode", "primal", "--ensemble-n", "2", "--mc-draws", "16",
        ])
        assert code == 0
        assert capsys.readouterr().err == ""

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
        ("total-variance", "identity violated: residual -2.775558e-17 exceeds 0"),
        ("conditional", "identity violated: residual 1.110223e-16 exceeds 0"),
        ("ensemble", "identity violated: ensembled residual 5.551115e-17 exceeds 0 * max(1, loss)"),
        ("check", "oracle certification failed: objective gap 1.110223e-15 exceeds 0"),
    ])
    def test_zero_tolerance_exits_two_with_report(self, tmp_path, capsys, command, message):
        # every README example has a nonzero residual, so a zero tolerance trips its gate
        out = tmp_path / "rep.json"
        assert main([*README_ARGV[command], "--tolerance", "0", "--out", str(out)]) == 2
        assert json.loads(out.read_text())
        assert capsys.readouterr().err == message + "\n"

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

    @pytest.mark.parametrize("command, call", [
        ("field", "bregman_bv.cli.emit_divergence_field"),
        ("ensemble", "bregman_bv.decomposition.ensemble_effect"),
    ])
    def test_allocation_failure_is_input_error(self, monkeypatch, capsys, command, call):
        # raised, not provoked: a real allocation this size could fill an overcommitting host
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) and data type float64"

        def fail(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(call, fail)
        assert main(README_ARGV[command]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command, options", [
        ("decompose", []),
        ("conditional", ["--group-col", "z"]),
    ])
    def test_non_utf8_csv_names_the_file(self, tmp_path, capsys, command, options):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"x0,x1,z\n1,2,\xff\n")
        code = main([command, "--generator", "squared-euclidean", "--dim", "2", "--labels", str(path),
                     "--predictions", fx("point_euclid.csv"), *options])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte\n"
        )

    @pytest.mark.parametrize("content, message", [
        (b"", "no matrix rows"),
        (b"\n\n", "no matrix rows"),
        (b"  \n# a comment\n", "no matrix rows"),
        (b"2,0\n0,a\n", "could not convert string 'a' to float64 at row 1, column 2."),
        (b"2,0\n0\n", "the number of columns changed from 2 to 1 at row 2; "
                      "use `usecols` to select a subset and avoid this error"),
        (b"2,\xff\n0,1\n", "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
        (b"1,0.5\n0,1\n", "Mahalanobis matrix must be symmetric"),
        (b"1,2\n2,1\n", "Mahalanobis matrix must be positive definite"),
        (b"1e400,0\n0,1\n", "Mahalanobis matrix must be finite"),
        (b"1,0,0\n0,1,0\n", "Mahalanobis matrix must be square"),
    ], ids=["empty", "blank-lines", "blank-and-comment", "text-cell", "ragged", "not-utf8",
            "asymmetric", "not-positive-definite", "overflowing-cell", "not-square"])
    def test_matrix_file_errors_name_the_file(self, tmp_path, capsys, content, message):
        path = tmp_path / "A.csv"
        path.write_bytes(content)
        code = main(["check", "--generator", "mahalanobis", "--matrix-file", str(path),
                     "--predictions", fx("preds_euclid.csv")])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("generator", ["huber", "separable-custom"])
    def test_unknown_generator_is_usage_error(self, capsys, generator):
        code = main(["decompose", "--generator", generator, "--dim", "2",
                     "--labels", fx("labels_euclid.csv"), "--predictions", fx("preds_euclid.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith(
            f"bregman-bv decompose: error: argument --generator: invalid choice: '{generator}'"
        )


def _input_error(case_id, argv, message, files=(), env=()):
    """A CLI run that must exit 1; a name in ``files`` stands for that file, written to a temp dir."""
    return pytest.param(argv, message, dict(files), dict(env), id=case_id)


_EUCLID = ["--generator", "squared-euclidean", "--dim", "2"]
_FIELD = ["field", *_EUCLID, "--center=0,0"]


@pytest.mark.parametrize("argv, message, files, env", [
    _input_error("header-only", ["decompose", *_EUCLID, "--labels", "h.csv", "--predictions", "h.csv"],
                 "h.csv: no data rows", {"h.csv": "x0,x1\n"}),
    _input_error("empty-csv", ["decompose", *_EUCLID, "--labels", "e.csv", "--predictions", "e.csv"],
                 "e.csv: empty file", {"e.csv": ""}),
    _input_error("no-group-column", ["total-variance", *_EUCLID, "--labels", "g.csv", "--group-col", "q",
                                     "--mode", "primal"],
                 "g.csv: no column named 'q'", {"g.csv": "x0,x1,z\n1,2,a\n"}),
    _input_error("json-not-object", ["decompose", *_EUCLID, "--labels", "l.json", "--predictions", "l.json"],
                 "l.json: JSON input must be an object with a 'points' array", {"l.json": "[[1, 2]]"}),
    _input_error("json-points-not-rows", ["decompose", *_EUCLID, "--labels", "l.json", "--predictions", "l.json"],
                 "l.json: 'points' must be an array of coordinate rows", {"l.json": '{"points": [1, 2]}'}),
    _input_error("json-weights-length", ["decompose", *_EUCLID, "--labels", "l.json", "--predictions", "l.json"],
                 "l.json: weights length 2 != points length 1",
                 {"l.json": '{"points": [[1, 2]], "weights": [1, 2]}'}),
    _input_error("json-groups-length", ["total-variance", *_EUCLID, "--labels", "l.json", "--mode", "primal"],
                 "l.json: groups length 2 != points length 1",
                 {"l.json": '{"points": [[1, 2]], "groups": ["a", "b"]}'}),
    _input_error("disk-radius", [*_FIELD, "--region", "disk", "--radius=0"], "disk radius must be positive"),
    _input_error("bounds-dimension", [*_FIELD, "--region", "box", "--lo=-1,-1,-1", "--hi=1,1,1"],
                 "region bounds must have dimension 2"),
    _input_error("lo-not-below-hi", [*_FIELD, "--region", "box", "--lo=1,-1", "--hi=1,1"],
                 "region needs lo < hi in every coordinate"),
    _input_error("resolution", [*_FIELD, "--region", "box", "--lo=-1,-1", "--hi=1,1", "--resolution", "0"],
                 "resolution must be >= 1"),
    _input_error("box-corners", [*_FIELD, "--region", "box", "--lo=-1,-1"], "box region needs --lo and --hi"),
    _input_error("disk-radius-missing", [*_FIELD, "--region", "disk"], "disk region needs --radius"),
    *(_input_error(f"{family}-dim{dim}", ["decompose", "--generator", family, "--dim", dim,
                                          "--labels", fx("labels_euclid.csv"), "--predictions", fx("preds_euclid.csv")],
                   message)
      for family, message in (("squared-euclidean", "domain dimension must be a positive integer"),
                              ("negative-entropy-simplex", "the simplex generator needs dimension >= 2"))
      for dim in ("0", "-1")),
    _input_error("matrix-file-missing", ["check", "--generator", "mahalanobis", "--labels", "p.csv"],
                 "mahalanobis needs --matrix-file", {"p.csv": "x0,x1\n1,2\n"}),
    _input_error("grouped-predictions", ["decompose", *_EUCLID, "--labels", "p.csv",
                                         "--predictions", fx("preds_grouped.json")],
                 "predictions must be an ungrouped sample file here", {"p.csv": "x0,x1\n1,2\n"}),
    _input_error("label-not-one-row", ["ensemble", *_EUCLID, "--labels", fx("labels_euclid.csv"),
                                       "--predictions", fx("preds_euclid.csv"), "--mode", "primal",
                                       "--ensemble-n", "2"],
                 "labels must contain exactly one row (deterministic side), got 3"),
    _input_error("check-no-file", ["check", *_EUCLID],
                 "check takes exactly one sample file (--labels or --predictions)"),
    _input_error("check-huge-samples", ["check", *_EUCLID, "--labels", "h.json", "--grid-resolution", "5"],
                 "no grid point with a finite objective value", {"h.json": '{"points": [[0.25, 1e308]]}'}),
    _input_error("check-two-files", ["check", *_EUCLID, "--labels", "p.csv", "--predictions", "p.csv"],
                 "check takes exactly one sample file (--labels or --predictions)", {"p.csv": "x0,x1\n1,2\n"}),
    _input_error("total-variance-two-files", ["total-variance", *_EUCLID, "--labels", "p.csv",
                                              "--predictions", "p.csv", "--mode", "primal"],
                 "total-variance takes exactly one grouped file (--labels or --predictions)",
                 {"p.csv": "x0,x1\n1,2\n"}),
    _input_error("total-variance-ungrouped", ["total-variance", *_EUCLID, "--labels", "p.csv", "--mode", "primal"],
                 "total-variance needs grouped input; pass --group-col or JSON groups", {"p.csv": "x0,x1\n1,2\n"}),
    # dual reports refuse one-hot rows, so ingest does too and names the file rows
    *(_input_error(f"total-variance-dual-onehot-{case}",
                   ["total-variance", *_SIMPLEX3, "--labels", "glab.csv", "--group-col", "z", "--mode", "dual",
                    "--label-onehot"],
                   f"glab.csv: samples {rows} outside the open-simplex domain", {"glab.csv": "x0,x1,x2,z\n" + text})
      for case, rows, text in (("grouped", "[0, 1]", "1,0,0,a\n0,1,0,a\n0.2,0.3,0.5,b\n"),
                               ("interleaved", "[0, 2]", "1,0,0,a\n0.2,0.3,0.5,b\n0,1,0,a\n"))),
    _input_error("negative-seed", ["ensemble", *_SIMPLEX3, "--labels", "l.csv", "--predictions", "p.csv",
                                   "--mode", "dual", "--ensemble-n", "3", "--mc-draws", "4", "--seed", "-1",
                                   "--label-onehot"],
                 "seed must be a nonnegative integer, got -1",
                 {"l.csv": "x0,x1,x2\n1,0,0\n", "p.csv": "x0,x1,x2\n0.7,0.2,0.1\n0.5,0.3,0.2\n"}),
    _input_error("dim-beyond-c-long", ["decompose", "--generator", "squared-euclidean", "--dim", str(10**20),
                                       "--labels", "l.csv", "--predictions", "l.csv"],
                 f"l.csv: points have dimension 2, generator expects {10**20}", {"l.csv": "x0,x1\n0,0\n"}),
    # the interior lattice splits the resolution into --dim positive parts
    _input_error("simplex-lattice-below-dim", ["check", *_SIMPLEX3, "--labels", "s.csv", "--grid-resolution", "2"],
                 "grid_resolution must be at least the dimension 3 on the simplex, got 2",
                 {"s.csv": "x0,x1,x2\n0.2,0.3,0.5\n0.6,0.3,0.1\n"}),
    _input_error("thread-cap-not-integer", ["decompose", *_EUCLID, "--labels", fx("labels_euclid.csv"),
                                            "--predictions", fx("preds_euclid.csv")],
                 "BREGMAN_BV_THREADS must be a nonnegative integer", env={"BREGMAN_BV_THREADS": "two"}),
])
def test_input_error_exits_one(tmp_path, monkeypatch, capsys, argv, message, files, env):
    paths = {name: str(tmp_path / name) for name in files}
    for name, text in files.items():
        Path(paths[name]).write_text(text, encoding="utf-8")
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    argv = [paths.get(arg, arg) for arg in argv]
    for name, path in paths.items():
        message = message.replace(name, path)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


_BEYOND_C = str(10**20)  # beyond the largest array size: refused by name before anything is allocated


_INTP_MAX = str(np.iinfo(np.intp).max)


@pytest.mark.parametrize("argv, message", [
    (["ensemble", *_EUCLID, "--labels", "l.csv", "--predictions", "p.csv", "--mode", "dual",
      "--ensemble-n", _BEYOND_C, "--mc-draws", "4", "--seed", "1"],
     f"n must be at most {_INTP_MAX}, got {_BEYOND_C}"),
    (["ensemble", *_EUCLID, "--labels", "l.csv", "--predictions", "p.csv", "--mode", "dual",
      "--ensemble-n", "3", "--mc-draws", _BEYOND_C, "--seed", "1"],
     f"mc_draws must be at most {_INTP_MAX}, got {_BEYOND_C}"),
    (["check", "--generator", "negative-entropy-simplex", "--dim", "3", "--labels", "s.csv",
      "--grid-resolution", _BEYOND_C],
     f"grid_resolution must be at most {_INTP_MAX}, got {_BEYOND_C}"),
    # a lattice whose index tuple cannot be sized raises a MemoryError with no message
    (["check", "--generator", "negative-entropy-simplex", "--dim", "3", "--labels", "s.csv",
      "--grid-resolution", str(2**62)],
     "MemoryError"),
    ([*_FIELD, "--region", "box", "--lo=-1,-1", "--hi=1,1", "--resolution", _BEYOND_C],
     f"resolution must be at most {_INTP_MAX}, got {_BEYOND_C}"),
    # the draws fill one (mc_draws, n) array of 8-byte entries
    (["ensemble", *_EUCLID, "--labels", "l.csv", "--predictions", "p.csv", "--mode", "primal",
      "--ensemble-n", str(2**63 - 2), "--mc-draws", "1", "--seed", "1"],
     f"mc_draws * n must be at most {2**60 - 1}, got {2**63 - 2}"),
    (["ensemble", *_EUCLID, "--labels", "l.csv", "--predictions", "p.csv", "--mode", "primal",
      "--ensemble-n", str(2**58), "--mc-draws", "2", "--seed", "1"],
     f"Unable to allocate 4.00 EiB for an array with shape (2, {2**58}) and data type float64"),
], ids=["ensemble-n", "mc-draws", "grid-resolution", "grid-resolution-2**62", "field-resolution",
        "mc-draws-times-n", "mc-draws-times-n-unallocatable"])
def test_counts_beyond_numpy_sizes_are_input_errors(tmp_path, capsys, argv, message):
    files = {"p.csv": "x0,x1\n0.1,0.2\n0.3,0.5\n", "l.csv": "x0,x1\n0,0\n",
             "s.csv": "x0,x1,x2\n0.2,0.3,0.5\n0.6,0.3,0.1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main([str(tmp_path / arg) if arg in files else arg for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_seed_beyond_a_c_long_is_valid(tmp_path, capsys):
    (tmp_path / "l.csv").write_text("x0,x1\n0,0\n")
    (tmp_path / "p.csv").write_text("x0,x1\n0.1,0.2\n0.3,0.5\n")
    assert main(["ensemble", *_EUCLID, "--labels", str(tmp_path / "l.csv"), "--predictions", str(tmp_path / "p.csv"),
                 "--mode", "primal", "--ensemble-n", "3", "--mc-draws", "2", "--seed", _BEYOND_C]) == 0
    assert capsys.readouterr().err == ""


# Sample files the fuzz below draws from: rows on the open simplex, so each is
# valid under every built-in generator of dimension 2, plus one random file.
_FUZZ_FILES = {
    "one.csv": "x0,x1\n0.25,0.75\n",
    "two.csv": "x0,x1,weight\n0.5,0.5,1\n0.25,0.75,3\n",
    "grouped.csv": "x0,x1,z\n0.5,0.5,a\n0.25,0.75,b\n0.75,0.25,a\n",
    "grouped.json": '{"points": [[0.5, 0.5], [0.25, 0.75]], "groups": [1, 2]}',
}
# option values: boundary values and values beyond the sizes numpy can index, none
# of which allocates anything (a mid-size count, such as 10**9 grid points, would)
_FUZZ_COUNTS = ["-1", "0", "1", "2", "3", str(2**63), _BEYOND_C]
_FUZZ_CELLS = ["0.25", "0.75", "-1", "0", "1e308", "1e400", "NaN", '"x"']


@st.composite
def _fuzz_file(draw):
    """A small CSV or JSON sample file: (name, text)."""
    d = draw(st.sampled_from([1, 2, 3]))
    rows = draw(st.lists(st.lists(st.sampled_from(_FUZZ_CELLS), min_size=d, max_size=d),
                         min_size=0, max_size=3))
    keys = [draw(st.sampled_from(["a", "b"])) for _ in rows] if draw(st.booleans()) else None
    if draw(st.booleans()):
        header = [f"x{j}" for j in range(d)] + ([] if keys is None else ["z"])
        cells = rows if keys is None else [row + [key] for row, key in zip(rows, keys)]
        return "random.csv", "\n".join(",".join(row) for row in [header, *cells]) + "\n"
    groups = "" if keys is None else ', "groups": ' + json.dumps(keys)
    return "random.json", '{"points": [%s]%s}' % (", ".join(f"[{', '.join(row)}]" for row in rows), groups)


def _fuzz_value(*defaults):
    """An option value: one of ``defaults`` (None leaves the option out) or a pool value."""
    return st.one_of(st.sampled_from(defaults), st.sampled_from(_FUZZ_COUNTS))


@st.composite
def _fuzz_argv(draw):
    """(random file to write, argv) for one CLI run: a valid run with drawn option values."""
    random_name, random_text = draw(_fuzz_file())

    def sample_file(name):  # now and then the random file instead
        return draw(st.sampled_from([name, name, name, random_name]))

    command = draw(st.sampled_from(SUBCOMMANDS))
    generator = draw(st.sampled_from(["squared-euclidean", "negative-entropy-simplex"]))
    argv = [command, "--generator", generator, "--dim", draw(_fuzz_value("2"))]
    if command == "decompose":
        argv += ["--labels", sample_file("two.csv"), "--predictions", sample_file("one.csv")]
    elif command == "total-variance":
        role = draw(st.sampled_from(["--labels", "--predictions"]))
        argv += [role, sample_file(draw(st.sampled_from(["grouped.csv", "grouped.json"]))), "--group-col", "z",
                 "--mode", draw(st.sampled_from(["primal", "dual"]))]
    elif command == "conditional":
        files = [sample_file("grouped.csv"), sample_file("one.csv")]
        if draw(st.booleans()):
            files.reverse()
        argv += ["--labels", files[0], "--predictions", files[1], "--group-col", "z"]
    elif command == "ensemble":
        argv += ["--labels", sample_file("one.csv"), "--predictions", sample_file("two.csv"),
                 "--mode", draw(st.sampled_from(["primal", "dual"])), "--ensemble-n", draw(_fuzz_value("2", "3"))]
        for option, value in (("--mc-draws", draw(_fuzz_value(None, "4"))), ("--seed", draw(_fuzz_value(None, "1")))):
            argv += [] if value is None else [option, value]
    elif command == "check":
        argv += ["--labels", sample_file("two.csv"), "--grid-resolution", draw(_fuzz_value("5"))]
    else:
        argv += ["--center=0.5,0.5", "--resolution", draw(_fuzz_value("3"))]
        argv += draw(st.sampled_from([["--region", "box", "--lo=0.1,0.1", "--hi=0.9,0.9"],
                                      ["--region", "disk", "--radius=0.3"]]))
    return {random_name: random_text}, argv


@settings(max_examples=100, deadline=None)
@given(_fuzz_argv())
# counts beyond a C long that escaped as tracebacks, and samples whose oracle objective overflows
@example(({}, ["ensemble", *_EUCLID, "--labels", "one.csv", "--predictions", "two.csv", "--mode", "dual",
              "--ensemble-n", _BEYOND_C, "--mc-draws", "4", "--seed", "1"]))
@example(({}, ["check", "--generator", "negative-entropy-simplex", "--dim", "2", "--labels", "two.csv",
              "--grid-resolution", str(2**63)]))
@example(({"random.json": '{"points": [[0.25, 1e308]]}'}, ["check", *_EUCLID, "--labels", "random.json"]))
def test_cli_fuzz_exits_cleanly(case):
    # every run ends in a report (0 or 2) or one input-error line (1), never a traceback
    random_file, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in {**_FUZZ_FILES, **random_file}.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = [str(Path(tmp, arg)) if arg in _FUZZ_FILES or arg in random_file else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0] != "error: ", lines
