"""Command-line front end: ingestion, subcommands and deterministic reports.

Reports are JSON with floats rendered at 17 significant digits, so a fixed
input (including the seed, when Monte Carlo ensembling is requested) gives a
byte-identical report.  Exit codes: 0 success, 1 input error, 2 identity or
certification failure (the offending residual is still printed).

Heavy numeric imports happen inside the handlers so that the
``BREGMAN_BV_THREADS`` cap can be applied before the BLAS pools spin up.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import os
import sys

from .errors import EnumerationCapError, InversionError

__all__ = ["ingest", "emit_divergence_field", "render_json"]

# MemoryError: an allocation numpy refuses
_INPUT_ERRORS = (InversionError, EnumerationCapError, ValueError, OSError, MemoryError)


# ---------------------------------------------------------------------------
# deterministic JSON rendering

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value in report")
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Render a report as JSON with 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}"{k}": {render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot render {type(obj)!r}")


def _write_text(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# ingestion

def ingest(path, group_column: str | None = None, *, generator=None, allow_boundary: bool = False):
    """Read a sample file into a SampleSet or, with groups, a GroupedSampleSet.

    The format follows the ``.csv`` or ``.json`` extension.  CSV files need
    a header with coordinate columns ``x0..x{d-1}`` and may carry ``weight``
    and group columns.  JSON files hold
    ``{"points": [[...]], "weights": [...], "groups": [...]}`` with the last
    two optional.  Weights default to uniform and are normalized.  When a
    generator is given, every point is validated against its domain and
    offending data rows are reported.
    """
    import numpy as np

    lowered = str(path).lower()
    if lowered.endswith(".csv"):
        points, weights, groups = _read_csv(path, group_column)
    elif lowered.endswith(".json"):
        points, weights, groups = _read_json(path)
    else:
        raise ValueError(f"cannot infer format of {path!r}; expected a .csv or .json file")

    if len(points) == 0:
        raise ValueError(f"{path}: no data rows")

    from .dualspace import GroupedSampleSet, SampleSet, check_samples

    try:
        flat = SampleSet(points, weights)
        if generator is not None:
            check_samples(generator, flat, allow_boundary=allow_boundary)
    except ValueError as exc:  # DomainError too: name the file, keep the type
        raise type(exc)(f"{path}: {exc}") from None
    if groups is None:
        return flat
    # rows of each group, keys in order of first appearance; dict keys, so JSON 1 and 1.0 merge
    code_of = {key: code for code, key in enumerate(dict.fromkeys(groups))}
    codes = np.fromiter(map(code_of.__getitem__, groups), dtype=np.intp, count=flat.n)
    ends = np.cumsum(np.bincount(codes, minlength=len(code_of)))[:-1]
    members = dict(zip(code_of, np.split(np.argsort(codes, kind="stable"), ends)))
    raw_weights = np.ones(flat.n) if weights is None else np.asarray(weights, dtype=float)
    with np.errstate(over="ignore"):
        group_weights = [np.sum(raw_weights[rows]) for rows in members.values()]
    if not np.all(np.isfinite(group_weights)):
        # a raw group sum overflowed; sums of the normalized weights cannot
        group_weights = [np.sum(flat.weights[rows]) for rows in members.values()]
    group_sets = {
        key: SampleSet(flat.points[rows], raw_weights[rows]) for key, rows in members.items()
    }
    return GroupedSampleSet(group_sets, group_weights)


def _csv_header(path, reader):
    """The stripped header cells of a CSV reader, or None for an empty file."""
    try:
        header = next(reader, None)
    except csv.Error as exc:  # a header cell beyond the csv field limit
        raise ValueError(f"{path}: header: {exc}") from None
    return None if header is None else [h.strip() for h in header]


@contextlib.contextmanager
def _open_csv(path):
    """A CSV file opened as text; a byte that is not UTF-8 is an error naming it."""
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports put before the header
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_mahalanobis(path):
    """The Mahalanobis generator of a headerless CSV matrix, opened like a sample CSV; errors name the file."""
    import numpy as np

    from .generators import Mahalanobis

    with _open_csv(path) as fh:
        lines = fh.readlines()
    try:
        # loadtxt only warns, and returns no rows, when no line holds a cell
        if not any(line.split("#", 1)[0].strip() for line in lines):
            raise ValueError("no matrix rows")
        return Mahalanobis(np.loadtxt(lines, delimiter=",", ndmin=2))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_csv(path, group_column):
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        header = _csv_header(path, reader)
        if header is None:
            raise ValueError(f"{path}: empty file")
        coord_names = []
        while f"x{len(coord_names)}" in header:
            coord_names.append(f"x{len(coord_names)}")
        if not coord_names:
            raise ValueError(f"{path}: header must contain coordinate columns x0..x{{d-1}}")
        coord_idx = [header.index(name) for name in coord_names]
        weight_idx = header.index("weight") if "weight" in header else None
        group_idx = None
        if group_column is not None:
            if group_column not in header:
                raise ValueError(f"{path}: no column named {group_column!r}")
            group_idx = header.index(group_column)
        body = fh.read()
    columns = (len(header), coord_idx, weight_idx, group_idx)
    return (_parse_csv_body(body, *columns)
            or _read_csv_rows(path, csv.reader(io.StringIO(body, newline="")), *columns))


# Characters that send a body to the row-by-row reader: quotes, CR line endings
# and NUL are the csv module's business, and \x1c-\x1f pass numpy's number
# parser as whitespace but not float().
_ROW_BY_ROW = '"\r\0\x1c\x1d\x1e\x1f'


def _parse_csv_body(body, n_cells, coord_idx, weight_idx, group_idx):
    """Points, weights and group keys of a CSV body, parsed in one vectorized call.

    Returns None, and the row-by-row reader decides, unless the body has no
    character of ``_ROW_BY_ROW``, no blank line and no line beyond the csv
    field limit, every data row has ``n_cells`` cells and numpy reads every
    numeric cell; numpy then reads each cell as ``float()`` does.  The
    arrays are C-contiguous float64, as ``SampleSet`` builds them from
    lists, so every report matches the row-by-row reader's.
    """
    import numpy as np

    if any(c in body for c in _ROW_BY_ROW):
        return None
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    # loadtxt skips blank lines, which the csv module reads as rows of 0 cells,
    # and reads cells longer than the csv module's field limit
    if (not lines or not all(lines) or {line.count(",") for line in lines} != {n_cells - 1}
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    numeric = coord_idx + ([] if weight_idx is None else [weight_idx])
    try:
        table = np.loadtxt(lines, dtype=float, delimiter=",", comments=None, usecols=numeric, ndmin=2)
    except ValueError:  # a cell numpy does not read as a number; float() may
        return None
    d = len(coord_idx)
    points = np.ascontiguousarray(table[:, :d])
    weights = None if weight_idx is None else np.ascontiguousarray(table[:, d])
    groups = None if group_idx is None else [line.split(",")[group_idx] for line in lines]
    return points, weights, groups


def _read_csv_rows(path, rows, n_cells, coord_idx, weight_idx, group_idx):
    """Points, weights and group keys of CSV data rows, one row at a time.

    The reference for the vectorized parse, and the only code that reports
    a malformed row.
    """
    points, weights, groups = [], [], []
    row_no = -1
    try:
        for row_no, row in enumerate(rows):
            if len(row) != n_cells:
                raise ValueError(
                    f"{path}: data row {row_no} has {len(row)} cells, header has {n_cells}"
                )
            try:
                points.append([float(row[i]) for i in coord_idx])
                if weight_idx is not None:
                    weights.append(float(row[weight_idx]))
            except ValueError:
                raise ValueError(f"{path}: data row {row_no} has a non-numeric cell") from None
            if group_idx is not None:
                groups.append(row[group_idx])
    except csv.Error as exc:  # raised by the reader for the row after the last one read
        raise ValueError(f"{path}: data row {row_no + 1}: {exc}") from None
    return points, (weights if weight_idx is not None else None), (groups if group_idx is not None else None)


def _read_json(path):
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh, parse_int=_json_int)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict) or "points" not in payload:
        raise ValueError(f"{path}: JSON input must be an object with a 'points' array")
    points = payload["points"]
    if not isinstance(points, list) or not all(isinstance(p, (list, tuple)) for p in points):
        raise ValueError(f"{path}: 'points' must be an array of coordinate rows")
    lengths = {len(p) for p in points}
    if len(lengths) > 1:
        raise ValueError(f"{path}: ragged point rows {sorted(lengths)}")
    # exact types: a JSON true or false is a bool, which would pass as an int
    bad = [i for i, p in enumerate(points) if not all(type(v) in (int, float) for v in p)]
    if bad:
        raise ValueError(f"{path}: non-numeric coordinates in data rows {bad}")
    weights = payload.get("weights")
    groups = payload.get("groups")
    for name, values in (("weights", weights), ("groups", groups)):
        if values is not None and not isinstance(values, list):
            raise ValueError(f"{path}: '{name}' must be an array")
    if weights is not None and len(weights) != len(points):
        raise ValueError(f"{path}: weights length {len(weights)} != points length {len(points)}")
    if groups is not None and len(groups) != len(points):
        raise ValueError(f"{path}: groups length {len(groups)} != points length {len(points)}")
    bad = [i for i, w in enumerate(weights or []) if type(w) not in (int, float)]
    if bad:
        raise ValueError(f"{path}: non-numeric weights in data rows {bad}")
    bad = [i for i, key in enumerate(groups or []) if isinstance(key, (list, dict))]
    if bad:
        raise ValueError(f"{path}: non-scalar group entries in data rows {bad}")
    bad = [i for i, key in enumerate(groups or []) if key != key]
    if bad:
        raise ValueError(f"{path}: NaN group entries in data rows {bad}")
    # distinct keys that overflowed to the same inf would merge their groups
    bad = [i for i, key in enumerate(groups or []) if key in (math.inf, -math.inf)]
    if bad:
        raise ValueError(f"{path}: infinite group entries in data rows {bad}")
    # a coordinate or weight beyond the float range becomes a signed inf,
    # which the non-finite checks then report by row
    points = [[_json_float(v) for v in p] for p in points]
    if weights is not None:
        weights = [_json_float(w) for w in weights]
    return points, weights, groups


def _json_int(literal):
    """JSON integers stay exact; one too long for ``int()`` is far beyond the float range."""
    try:
        return int(literal)
    except ValueError:
        return float(literal)


def _json_float(value):
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _csv_lines(table, end="\n"):
    """Lines of CSV cells, one per row of a float table, then ``end``.

    Cells read as ``_fmt_float`` renders them: 17 significant digits, zero as
    ``0``.  Rows are formatted a block at a time, so a long table is streamed.
    """
    import numpy as np

    line = ",".join(["%.17g"] * table.shape[1]) + end.replace("%", "%%")
    for start in range(0, table.shape[0], 4096):
        block = table[start:start + 4096] + 0.0  # -0.0 + 0.0 is 0.0, printed as 0
        if not np.all(np.isfinite(block)):
            raise ValueError("non-finite value in report")
        for row in block.tolist():
            yield line % tuple(row)


def _write_csv(out, header, lines) -> None:
    """Write a header and lines to a path (opened and closed here) or an open stream."""
    own = isinstance(out, str)
    fh = open(out, "w", encoding="utf-8", newline="") if own else out
    try:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)
    finally:
        if own:
            fh.close()


# ---------------------------------------------------------------------------
# divergence field export (figure data)

def emit_divergence_field(g, center, region, resolution: int, out) -> int:
    """Write a CSV grid of divergences to and from a center point.

    ``region`` is ``{"kind": "box", "lo": [...], "hi": [...]}`` or
    ``{"kind": "disk", "radius": r, "center": [...]}`` (disk center defaults
    to the divergence center).  Rows hold the grid coordinates followed by
    D(center, p) and D(p, center); grid points inside the region but outside
    the generator's domain, or where the divergence overflows, keep empty
    value cells.  Returns the number of valued rows and raises if there are
    none.  A region with non-finite bounds or radius, or wider than the float
    range, raises before any grid arithmetic.
    """
    import numpy as np

    from .dualspace import _sizable

    center = np.asarray(center, dtype=float)
    g.domain.validate(center, role="center")
    kind = region.get("kind")
    if kind == "box":
        lo = np.asarray(region["lo"], dtype=float)
        hi = np.asarray(region["hi"], dtype=float)
        disk_center, radius = None, None
    elif kind == "disk":
        radius = float(region["radius"])
        if not math.isfinite(radius):
            raise ValueError("disk radius must be finite")
        if radius <= 0:
            raise ValueError("disk radius must be positive")
        # the disk test sums the squared offsets of grid points from the
        # center, each inside the box of width 2 * radius around it
        width = 2.0 * radius
        if not math.isfinite(g.dim * width * width):
            raise ValueError("disk region is wider than the float range")
        disk_center = np.asarray(region.get("center", center), dtype=float)
        lo = disk_center - radius  # cannot overflow: the width check keeps radius below 1e154
        hi = disk_center + radius
    else:
        raise ValueError("region kind must be 'box' or 'disk'")
    if lo.shape != (g.dim,) or hi.shape != (g.dim,):
        raise ValueError(f"region bounds must have dimension {g.dim}")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("region bounds must be finite")
    if not np.all(lo < hi):
        raise ValueError("region needs lo < hi in every coordinate")
    with np.errstate(over="ignore"):
        span = hi - lo
    if not np.all(np.isfinite(span)):
        raise ValueError("region spans wider than the float range")

    resolution = _sizable(resolution, "resolution")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if resolution == 1:
        # halved first, so the sum stays in range; as exact as halving the sum
        axes = [np.array([0.5 * lo[j] + 0.5 * hi[j]]) for j in range(g.dim)]
    else:
        axes = [np.linspace(lo[j], hi[j], resolution) for j in range(g.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    if disk_center is not None:
        pts = pts[np.sqrt(np.sum((pts - disk_center) ** 2, axis=-1)) <= radius]

    in_domain = g.domain.contains(pts)

    from_vals = np.full(pts.shape[0], np.nan)
    to_vals = np.full(pts.shape[0], np.nan)
    idx = np.flatnonzero(in_domain)
    if idx.size:
        inside = pts[idx]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            from_vals[idx] = g.divergence_kernel(center, inside)
            to_vals[idx] = g.divergence_kernel(inside, center)
    # overflow hugging an open boundary degrades to empty cells, like off-domain points
    valued = in_domain & np.isfinite(from_vals) & np.isfinite(to_vals)
    count = int(np.sum(valued))
    if count == 0:
        if idx.size:
            raise ValueError("the divergences overflow at every grid point of the region inside the domain")
        raise ValueError("no grid point of the region lies inside the domain")

    # valued rows and rows with empty value cells, each in grid order
    full = _csv_lines(np.column_stack([pts[valued], from_vals[valued], to_vals[valued]]))
    empty = _csv_lines(pts[~valued], ",,\n")
    lines = (next(full) if ok else next(empty) for ok in valued.tolist())
    _write_csv(out, [f"x{j}" for j in range(g.dim)] + ["div_from_center", "div_to_center"], lines)
    return count


# ---------------------------------------------------------------------------
# argument plumbing

def _add_generator_args(p):
    p.add_argument("--generator", required=True,
                   choices=["squared-euclidean", "mahalanobis", "negative-entropy-simplex"],
                   help="built-in generator (separable generators are library-only)")
    p.add_argument("--dim", type=int, help="dimension (required except for mahalanobis)")
    p.add_argument("--matrix-file", help="CSV matrix for the mahalanobis generator")


def _tolerance(text):
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 <= value < float("inf"):  # false for NaN too
        raise argparse.ArgumentTypeError(f"expected a finite nonnegative number, got {text!r}")
    return value


def _add_common_args(p, tolerance=1e-9):
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--tolerance", type=_tolerance, default=tolerance,
                   help="tolerance of the identity or certification gate (default: %(default)g)")


def _generator_from_args(args):
    from .generators import NegativeEntropySimplex, SquaredEuclidean

    if args.generator == "mahalanobis":
        if not args.matrix_file:
            raise ValueError("mahalanobis needs --matrix-file")
        return _read_mahalanobis(args.matrix_file)
    if args.dim is None:
        raise ValueError(f"{args.generator} needs --dim")
    return (SquaredEuclidean if args.generator == "squared-euclidean" else NegativeEntropySimplex)(args.dim)


def _require_plain(sample_set, what):
    from .dualspace import SampleSet

    if not isinstance(sample_set, SampleSet):
        raise ValueError(f"{what} must be an ungrouped sample file here")
    return sample_set


def _require_point(sample_set, what):
    s = _require_plain(sample_set, what)
    if s.n != 1:
        raise ValueError(f"{what} must contain exactly one row (deterministic side), got {s.n}")
    return s.points[0]


# ---------------------------------------------------------------------------
# subcommands: each cmd_*(args, g) returns its report, or field its CSV text


def cmd_decompose(args, g):
    from .decomposition import decompose

    labels = _require_plain(
        ingest(args.labels, generator=g, allow_boundary=args.label_onehot), "labels"
    )
    predictions = _require_plain(ingest(args.predictions, generator=g), "predictions")
    return decompose(g, labels, predictions)


def cmd_total_variance(args, g):
    from .decomposition import total_variance
    from .dualspace import GroupedSampleSet, _side

    path = args.labels or args.predictions
    if not path or (args.labels and args.predictions):
        raise ValueError("total-variance takes exactly one grouped file (--labels or --predictions)")
    # one-hot rows pass ingest only on the side whose report accepts them
    onehot = bool(args.labels and args.label_onehot) and _side(args.mode).boundary_samples
    grouped = ingest(path, group_column=args.group_col, generator=g, allow_boundary=onehot)
    if not isinstance(grouped, GroupedSampleSet):
        raise ValueError("total-variance needs grouped input; pass --group-col or JSON groups")
    return total_variance(g, grouped, args.mode)


def _has_group_column(path, group_col) -> bool:
    """Whether `group_col` names a column of this CSV file.

    Always false for JSON files, whose groups are read from the file itself
    whatever the column argument says.
    """
    if not group_col or str(path).lower().endswith(".json"):
        return False
    with _open_csv(path) as fh:
        return group_col in (_csv_header(path, csv.reader(fh)) or [])


def cmd_conditional(args, g):
    from .decomposition import conditional_label, conditional_prediction
    from .dualspace import GroupedSampleSet

    labels = ingest(
        args.labels,
        group_column=args.group_col if _has_group_column(args.labels, args.group_col) else None,
        generator=g,
        allow_boundary=args.label_onehot,
    )
    predictions = ingest(
        args.predictions,
        group_column=args.group_col if _has_group_column(args.predictions, args.group_col) else None,
        generator=g,
    )
    labels_grouped = isinstance(labels, GroupedSampleSet)
    predictions_grouped = isinstance(predictions, GroupedSampleSet)
    if labels_grouped == predictions_grouped:
        raise ValueError("conditional needs exactly one grouped side (the conditioned one)")
    if predictions_grouped:
        label = _require_point(labels, "labels")
        return conditional_prediction(g, label, predictions)
    prediction = _require_point(predictions, "predictions")
    return conditional_label(g, labels, prediction)


def cmd_ensemble(args, g):
    from .decomposition import ensemble_effect

    label = _require_point(
        ingest(args.labels, generator=g, allow_boundary=args.label_onehot), "labels"
    )
    predictions = _require_plain(ingest(args.predictions, generator=g), "predictions")
    return ensemble_effect(
        g, label, predictions, args.ensemble_n, args.mode,
        mc_draws=args.mc_draws, seed=args.seed,
    )


def cmd_check(args, g):
    from .oracle import OracleConfig, certify_means

    path = args.labels or args.predictions
    if not path or (args.labels and args.predictions):
        raise ValueError("check takes exactly one sample file (--labels or --predictions)")
    s = _require_plain(ingest(path, generator=g), "samples")
    return certify_means(g, s, OracleConfig(grid_resolution=args.grid_resolution), args.tolerance)


def _finite_numbers(option, text, count=None):
    """The comma-separated numbers of a ``field`` option, each finite."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)) or count not in (None, len(values)):
        what = "a finite number" if count == 1 else "comma-separated finite numbers"
        raise ValueError(f"{option} needs {what}, got {text!r}")
    return values


def cmd_field(args, g):
    center = _finite_numbers("--center", args.center)
    if args.region == "box":
        if not args.lo or not args.hi:
            raise ValueError("box region needs --lo and --hi")
        lo, hi = _finite_numbers("--lo", args.lo), _finite_numbers("--hi", args.hi)
        region = {"kind": "box", "lo": lo, "hi": hi}
    else:
        if args.radius is None:
            raise ValueError("disk region needs --radius")
        (radius,) = _finite_numbers("--radius", args.radius, count=1)
        region = {"kind": "disk", "radius": radius, "center": center}
    buffer = io.StringIO()
    emit_divergence_field(g, center, region, args.resolution, buffer)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# parser / entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bregman-bv",
        description="Bias-variance decompositions for Bregman divergences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="three-term decomposition of the expected loss")
    _add_generator_args(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--label-onehot", action="store_true",
                   help="accept boundary (one-hot) labels for the simplex generator")
    _add_common_args(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("total-variance", help="law of total variance over a grouped file")
    _add_generator_args(p)
    p.add_argument("--labels")
    p.add_argument("--predictions")
    p.add_argument("--group-col", help="CSV column holding the conditioning label")
    p.add_argument("--mode", required=True, choices=["primal", "dual"])
    p.add_argument("--label-onehot", action="store_true")
    _add_common_args(p)
    p.set_defaults(func=cmd_total_variance)

    p = sub.add_parser("conditional", help="conditional bias/variance with the gap term")
    _add_generator_args(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--group-col", help="CSV column holding the conditioning label")
    p.add_argument("--label-onehot", action="store_true")
    _add_common_args(p)
    p.set_defaults(func=cmd_conditional)

    p = sub.add_parser("ensemble", help="decomposition before/after primal or dual ensembling")
    _add_generator_args(p)
    p.add_argument("--labels", required=True, help="single-row file: the deterministic label")
    p.add_argument("--predictions", required=True)
    p.add_argument("--mode", required=True, choices=["primal", "dual"])
    p.add_argument("--ensemble-n", type=int, required=True)
    p.add_argument("--mc-draws", type=int, help="Monte Carlo fallback sample count")
    p.add_argument("--seed", type=int, help="seed for the Monte Carlo fallback")
    p.add_argument("--label-onehot", action="store_true")
    _add_common_args(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("check", help="certify analytic means against the brute-force oracle")
    _add_generator_args(p)
    p.add_argument("--labels")
    p.add_argument("--predictions")
    p.add_argument("--grid-resolution", type=int, default=128)
    _add_common_args(p, tolerance=1e-5)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("field", help="CSV grid of divergences to/from a center (figure data)")
    _add_generator_args(p)
    p.add_argument("--center", required=True, help="comma-separated coordinates")
    p.add_argument("--region", required=True, choices=["box", "disk"])
    p.add_argument("--lo", help="box lower corner, comma-separated")
    p.add_argument("--hi", help="box upper corner, comma-separated")
    p.add_argument("--radius", help="disk radius around the center")
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=cmd_field)

    return parser


def _thread_cap():
    raw = os.environ.get("BREGMAN_BV_THREADS")
    if raw is None:
        return None
    try:
        n = int(raw)
    except ValueError:
        raise ValueError("BREGMAN_BV_THREADS must be a nonnegative integer") from None
    if n < 0:
        raise ValueError("BREGMAN_BV_THREADS must be a nonnegative integer")
    return n or None  # 0 = auto


def main(argv=None) -> int:
    try:
        cap = _thread_cap()
        if cap is not None:
            # must run before numpy initializes its BLAS thread pools
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ.setdefault(var, str(cap))
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse uses 2 for usage problems; those are input errors here
            return 0 if exc.code in (0, None) else 1
        g = _generator_from_args(args)
        if getattr(args, "label_onehot", False) and not g.boundary_first_args:
            raise ValueError("--label-onehot is only meaningful for the negative-entropy-simplex generator")
        report = args.func(args, g)
        if isinstance(report, str):  # the CSV text of field, which has no gate
            _write_text(report, args.out)
            return 0
        _write_text(render_json(report.as_dict()) + "\n", args.out)
        failures = report.failures(args.tolerance)
        sys.stderr.writelines(f"{message}\n" for message in failures)
        return 2 if failures else 0
    except _INPUT_ERRORS as exc:
        # a MemoryError raised before numpy sizes an array carries no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
