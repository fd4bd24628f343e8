"""Flexible-pavement recycling case study: mix-design table, thickness
reductions and the two demonstration figure scenarios.

The embedded design table covers eight mixes (layer thicknesses in mm,
resilient modulus of the base in MPa).  Mr values are carried as metadata
only; no formula links them to the index.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Sequence

from ._checks import blank, check_positive, csv_rows, finite, whole_number
from .diffusion import (AffineRule, ScenarioSpec, export_snapshots, field_to_csv, run_scenario,
                        write_manifest)


class MixTableError(ValueError):
    """A mix-design row failed validation."""


@dataclass(frozen=True)
class MixDesign:
    """One pavement design: a labelled RAP:VA+FA blend with per-layer
    thicknesses (mm) and the base resilient modulus (MPa).  ``drainage_mm``
    is None when the design has no drainage layer.  Text is stripped and holds
    no carriage return, so that :func:`write_mix_table` carries it back."""

    label: str
    ac_mm: float
    drainage_mm: float | None
    subbase_mm: float
    base_mm: float
    total_mm: float
    base_mr_mpa: float
    reference: str = ""

    def __post_init__(self):
        for name, text in (("label", self.label), ("reference", self.reference)):
            if not isinstance(text, str) or "\r" in text:
                raise MixTableError(f"{name} must be text without a carriage return, got {text!r}")
            object.__setattr__(self, name, text.strip())
        try:
            layers = [finite(f"{name} thickness", v) for name, v in self.present_layers().items()]
            total = finite("total thickness", self.total_mm)
            check_positive("base Mr", (self.base_mr_mpa,))
        except ValueError as exc:
            raise MixTableError(f"{self.label}: {exc}") from exc
        if min(layers) < 0:
            raise MixTableError(f"{self.label}: layer thicknesses must be >= 0")
        layer_sum = math.fsum(layers)
        if not abs(layer_sum - total) <= 1e-9:
            raise MixTableError(f"{self.label}: layers sum to {layer_sum:g} mm but total is "
                                f"{total:g} mm")

    def present_layers(self) -> dict[str, float]:
        layers = {"ac": self.ac_mm, "subbase": self.subbase_mm, "base": self.base_mm}
        if self.drainage_mm is not None:
            layers["drainage"] = self.drainage_mm
        return layers


# one tuple per design, in MixDesign's field order
_MIX_ROWS = (
    ("0R:100VA", 80.0, None, 200.0, 275.0, 555.0, 350.0, "IRC:37 (2018)"),
    ("50R:50V+20F", 70.0, 100.0, 100.0, 185.0, 455.0, 1344.0, "-"),
    ("60R:40V+20F", 70.0, 100.0, 100.0, 195.0, 465.0, 1191.0, "Saride & Avirneni"),
    ("80R:20V+20F", 70.0, 100.0, 100.0, 205.0, 475.0, 988.0, "Avirneni et al."),
    ("100R:0VA+20F", 70.0, 100.0, 100.0, 240.0, 510.0, 565.0, "Arulrajah et al."),
    ("50R:50V+30F", 70.0, 100.0, 100.0, 195.0, 465.0, 1156.0, "-"),
    ("60R:40V+30F", 70.0, 100.0, 100.0, 205.0, 475.0, 968.0, "Saride & Jallu"),
    ("80R:20V+30F", 70.0, 100.0, 100.0, 215.0, 485.0, 824.0, "Saride & Challapalli"),
)

BASELINE_LABEL = "0R:100VA"

MIX_CSV_COLUMNS = tuple(f.name for f in fields(MixDesign))


def load_mix_table(source: str | Path | None = None) -> list[MixDesign]:
    """Validated mix designs from a CSV file, or the embedded eight-row
    default when ``source`` is None.

    The header names the :data:`MIX_CSV_COLUMNS` in any order, and other
    columns are ignored.  Every row below it that is not blank (see
    :func:`sustkit._checks.csv_rows`) needs the header's field count.  A
    blank number is None, so a blank ``drainage_mm`` means no drainage
    layer.  A bad row raises :class:`MixTableError` naming the file and line.
    """
    if source is None:
        return [MixDesign(*row) for row in _MIX_ROWS]
    path = Path(source)
    designs: list[MixDesign] = []
    rows = csv_rows(path)
    _, header = next(rows, (0, []))
    missing = [c for c in MIX_CSV_COLUMNS if c not in header]
    if missing:
        raise MixTableError(f"{path}: missing columns {missing}")
    columns = [(header.index(f.name), f.type in (str, "str")) for f in fields(MixDesign)]
    for line, row in rows:
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields; the header has {len(header)}")
            designs.append(MixDesign(*(row[i] if is_text else None if blank(row[i])
                                       else float(row[i]) for i, is_text in columns)))
        except ValueError as exc:
            raise MixTableError(f"{path}, line {line}: {exc}") from exc
    if not designs:
        raise MixTableError(f"{path}: no data rows")
    return designs


def _mix_cell(value) -> str:
    if value is None or isinstance(value, str):
        return value or ""
    return repr(float(value)).removesuffix(".0")  # the shortest text that reads back equal


def write_mix_table(designs: Sequence[MixDesign], fh) -> None:
    """Write ``designs`` to the text stream ``fh`` as CSV that
    :func:`load_mix_table` reads back equal: numbers are written exactly,
    no drainage layer is a blank field, and lines end in a bare newline."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(MIX_CSV_COLUMNS)
    writer.writerows(map(_mix_cell, astuple(d)) for d in designs)


def find_mix(designs: Sequence[MixDesign], label: str) -> MixDesign:
    for d in designs:
        if d.label == label:
            return d
    raise KeyError(f"no mix labelled {label!r}; available: {[d.label for d in designs]}")


def thickness_reduction(mix: MixDesign, baseline: MixDesign) -> float:
    """Total-thickness reduction of a mix against a baseline, in percent."""
    if baseline.total_mm <= 0:
        raise ValueError(f"baseline {baseline.label!r} has non-positive total thickness")
    return 100.0 * (baseline.total_mm - mix.total_mm) / baseline.total_mm


def reduction_table(
    designs: Sequence[MixDesign] | None = None,
    baseline_label: str = BASELINE_LABEL,
) -> list[tuple[str, float]]:
    """(label, reduction %) for every non-baseline mix against the baseline."""
    designs = list(designs) if designs is not None else load_mix_table()
    baseline = find_mix(designs, baseline_label)
    return [
        (d.label, thickness_reduction(d, baseline))
        for d in designs
        if d.label != baseline_label
    ]


# -- demonstration figure scenarios -------------------------------------------

FIG4_DOMAINS = (
    ((0.0, 1.0), (0.0, 1.0)),
    ((0.0, 3.0), (0.0, 3.0)),
    ((0.0, 6.0), (0.0, 6.0)),
    ((0.0, 9.0), (0.0, 9.0)),
)
FIG5_DOMAINS = (
    ((0.0, 4.0), (0.0, 6.0)),
    ((0.0, 6.0), (0.0, 9.0)),
    ((0.0, 8.0), (0.0, 12.0)),
    ((0.0, 10.0), (0.0, 15.0)),
)
PANEL_LABELS = ("a", "b", "c", "d")

# Full-scale defaults: 91 points on the longest axis; the H = s*t boundary
# forcing with s=10 run over t in [0, 1000].  Tests use shorter horizons.
DEFAULT_RESOLUTION = 91
DEFAULT_S = 10.0
DEFAULT_T_END = 1000.0


def _panel_resolution(domain, points_longest: int) -> tuple[int, ...]:
    lengths = [hi - lo for lo, hi in domain]
    h = max(lengths) / (points_longest - 1)
    return tuple(max(3, round(length / h) + 1) for length in lengths)


def figure_scenarios(
    which: str,
    resolution: int = DEFAULT_RESOLUTION,
    s: float = DEFAULT_S,
    t_end: float = DEFAULT_T_END,
) -> list[ScenarioSpec]:
    """The four panels of one demonstration figure as solver scenarios:
    H = 0 initially and H = s*t on every boundary edge.  fig4 uses the
    symmetric square domains, fig5 the asymmetric rectangles.
    ``resolution`` (points on the longest axis) must be at least 3."""
    resolution = whole_number("resolution", resolution, 3)
    if which == "fig4":
        domains = FIG4_DOMAINS
    elif which == "fig5":
        domains = FIG5_DOMAINS
    else:
        raise ValueError(f"unknown figure {which!r}; expected 'fig4' or 'fig5'")
    return [
        ScenarioSpec(
            domain=dom,
            resolution=_panel_resolution(dom, resolution),
            boundary_rule=AffineRule(s=s),
            initial_rule=AffineRule(0.0),
            t_end=t_end,
            dt="auto",
        )
        for dom in domains
    ]


def run_demo_figures(
    which: str,
    output_dir: str | Path,
    resolution: int = DEFAULT_RESOLUTION,
    s: float = DEFAULT_S,
    t_end: float = DEFAULT_T_END,
    snapshot_times: Sequence[float] | None = None,
    normalized: bool = False,
) -> dict:
    """Run all four panels of fig4 or fig5, export one CSV grid per panel
    per snapshot, and return (and write) a JSON manifest describing the
    runs.

    With ``normalized`` an additional grid divided by s*t is written for
    every snapshot with t > 0, so ``s`` must then be nonzero.
    """
    s = finite("s", s)
    if normalized and s == 0:
        raise ValueError("normalized grids are divided by s*t, so they need s != 0")
    specs = figure_scenarios(which, resolution=resolution, s=s, t_end=t_end)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    times = [0.0, t_end] if snapshot_times is None else [
        finite("snapshot time", t) for t in snapshot_times]
    manifest = {
        "figure": which,
        "s": s,
        "t_end": t_end,
        "resolution_longest_axis": resolution,
        "snapshot_times_requested": times,
        "panels": [],
    }
    for label, spec in zip(PANEL_LABELS, specs):
        fields = run_scenario(spec, times)
        files = export_snapshots(out, f"{which}_{label}", times, fields)
        for entry, fld in zip(files, fields):
            if normalized and fld.time > 0:
                norm_name = f"{which}_{label}_t{entry['time_requested']:g}_normalized.csv"
                field_to_csv(replace(fld, values=fld.values / (s * fld.time)), out / norm_name)
                entry["normalized_file"] = norm_name
        manifest["panels"].append({
            "label": label,
            "domain": [list(ax) for ax in spec.domain],
            "resolution": list(spec.resolution),
            "dt": spec.resolved_dt(),
            "files": files,
        })
    write_manifest(manifest, out / f"{which}_manifest.json")
    return manifest
