"""write_curves_svg: the points of every band and curve, against a per-point
formatter kept here as the oracle."""

import re

import numpy as np
import pytest

from gensel import svg
from gensel.svg import write_curves_svg


def _per_point_paths(series):
    """The polygon and polyline points, one format call per coordinate."""
    epochs = len(series[0][1])
    x_max = max(epochs - 1, 1)
    y_lo = 0.0
    y_hi = max(
        float(np.max(np.asarray(mean) + np.asarray(std))) for _, mean, std in series
    )
    y_hi = y_hi * 1.05 if y_hi > 0 else 1.0
    plot_w = svg._WIDTH - svg._MARGIN_L - svg._MARGIN_R
    plot_h = svg._HEIGHT - svg._MARGIN_T - svg._MARGIN_B

    def sx(x):
        return svg._MARGIN_L + plot_w * x / x_max

    def sy(y):
        return svg._MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    def fmt(v):
        return f"{v:.3f}"

    polygons, polylines = [], []
    for _, mean, std in series:
        mean = np.asarray(mean, dtype=float)
        std = np.asarray(std, dtype=float)
        upper = [(sx(e), sy(min(y_hi, m + s))) for e, (m, s) in enumerate(zip(mean, std))]
        lower = [(sx(e), sy(max(y_lo, m - s))) for e, (m, s) in enumerate(zip(mean, std))]
        polygons.append(
            " ".join(f"{fmt(px)},{fmt(py)}" for px, py in upper + lower[::-1])
        )
        polylines.append(" ".join(f"{fmt(sx(e))},{fmt(sy(m))}" for e, m in enumerate(mean)))
    return polygons, polylines


def _written_paths(tmp_path, series):
    path = tmp_path / "c.svg"
    write_curves_svg(path, series, deterministic=True)
    text = path.read_text()
    return (re.findall(r'<polygon points="([^"]*)"', text),
            re.findall(r'<polyline points="([^"]*)"', text))


def _cases():
    rng = np.random.default_rng(7)
    long_mean = np.abs(rng.normal(0.5, 0.2, 10_000))
    return {
        "one-epoch": [("a", np.array([0.7]), np.array([0.0]))],
        "all-zero": [("a", np.zeros(5), np.zeros(5)), ("b", np.zeros(5), np.zeros(5))],
        "clipped-at-zero": [  # m - s below 0
            ("a", np.array([1.0, 0.5, 0.1, 0.0]), np.array([0.2, 0.6, 0.3, 0.05])),
            ("b", np.array([0.9, 0.8, 1.1, 0.4]), np.array([0.1, 0.1, 0.3, 0.5])),
        ],
        "negative-zero": [
            ("a", np.array([-0.0, 0.25, -0.0]), np.array([0.0, -0.0, 0.0])),
            ("b", np.array([0.5, -0.0, 1.0]), np.array([-0.0, 0.5, 0.0])),
        ],
        # A NaN top leaves y_hi at 1.0, so the band of 2.0 is clipped there;
        # the NaN edges lie on the bounds.
        "clipped-at-top": [
            ("a", np.array([2.0, np.nan, 0.5]), np.array([0.1, 0.1, 0.6])),
        ],
        "10k-epochs": [
            ("exact", long_mean, rng.uniform(0, 0.3, 10_000)),
            ("random", long_mean[::-1].copy(), rng.uniform(0, 0.3, 10_000)),
        ],
    }


@pytest.mark.parametrize("case", list(_cases()))
def test_paths_as_per_point_format(tmp_path, case):
    series = _cases()[case]
    polygons, polylines = _written_paths(tmp_path, series)
    assert (polygons, polylines) == _per_point_paths(series)
    assert len(polygons) == len(polylines) == len(series)


def test_lists_format_as_arrays(tmp_path):
    """A series given as lists draws the same paths as arrays."""
    series = [("a", [0.5, 0.25, 0.125], [0.0, 0.25, 0.5])]
    arrays = [("a", *map(np.array, series[0][1:]))]
    assert _written_paths(tmp_path, series) == _written_paths(tmp_path, arrays)
    assert _written_paths(tmp_path, series) == _per_point_paths(series)
