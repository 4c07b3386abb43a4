"""Figure emission: self-contained SVG documents with CSV data sidecars.

Every figure function returns an (svg, csv) pair. The CSV carries the exact
plotted series at full precision; numbers rendered inside the SVG are rounded
to four significant figures. SVG output is deterministic and embeds no
external assets, so goldens diff cleanly. ``_line`` and ``_text`` write
every line and text element of a figure, and ``_text`` escapes its string.
``write_figure`` writes one (svg, csv) pair, and ``write_json`` every JSON
report and manifest the toolkit emits; both go through ``write_text``.
"""

from __future__ import annotations

import csv as _csv
import io
import json
import os
from dataclasses import dataclass

from .errors import ShapeMismatch
from .matching import stratum_label

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 460
_ML, _MR, _MT, _MB = 62, 18, 38, 50


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


_DASH = ' stroke-dasharray="6 4"'


def _line(x1, y1, x2, y2, stroke: str, width=None, dashed: bool = False) -> str:
    """One line element; ``width=None`` leaves out ``stroke-width``."""
    width = "" if width is None else f' stroke-width="{width}"'
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"{width}{_DASH if dashed else ""}/>'


def _text(x, y, s: str, size, anchor: str = "middle", transform: str = "") -> str:
    """One text element holding ``_esc(s)``; an empty ``anchor`` or
    ``transform`` leaves out that attribute."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return f'<text x="{x}" y="{y}" font-size="{size}"{anchor}{transform}>{_esc(s)}</text>'


class _Canvas:
    """Minimal line/scatter chart builder in data coordinates."""

    def __init__(self, xlim, ylim, title="", xlabel="", ylabel=""):
        # an empty axis range (one k, one prevalence) is widened to one unit
        xlim, ylim = ((lo, hi if hi > lo else lo + 1.0) for lo, hi in (xlim, ylim))
        self.xlim = xlim
        self.ylim = ylim
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="Helvetica, Arial, sans-serif">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
        ]
        if title:
            self.parts.append(_text(_W / 2, 22, title, 15))
        # axes
        x0, y0 = self.px(xlim[0], ylim[0])
        x1, y1 = self.px(xlim[1], ylim[1])
        self.parts += [_line(x0, y0, x1, y0, "black", 1), _line(x0, y0, x0, y1, "black", 1)]
        for tx in _ticks(*xlim):
            px, py = self.px(tx, ylim[0])
            self.parts += [_line(px, py, px, py + 4, "black"), _text(px, py + 17, _fmt(tx), 11)]
        for ty in _ticks(*ylim):
            px, py = self.px(xlim[0], ty)
            self.parts += [_line(px - 4, py, px, py, "black"), _text(px - 7, py + 4, _fmt(ty), 11, "end")]
        if xlabel:
            self.parts.append(_text((_ML + _W - _MR) / 2, _H - 10, xlabel, 13))
        if ylabel:
            cy = (_MT + _H - _MB) / 2
            self.parts.append(_text(16, cy, ylabel, 13, transform=f"rotate(-90 16 {cy})"))

    def px(self, x: float, y: float) -> tuple[float, float]:
        fx = (x - self.xlim[0]) / (self.xlim[1] - self.xlim[0])
        fy = (y - self.ylim[0]) / (self.ylim[1] - self.ylim[0])
        return (
            round(_ML + fx * (_W - _ML - _MR), 2),
            round(_H - _MB - fy * (_H - _MT - _MB), 2),
        )

    def polyline(self, xs, ys, color: str, dashed: bool = False, width: float = 1.8):
        pts = " ".join(f"{px},{py}" for px, py in (self.px(x, y) for x, y in zip(xs, ys)))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"{_DASH if dashed else ""}/>'
        )

    def hline(self, y: float, color: str = "#555555", dashed: bool = False):
        self.parts.append(_line(*self.px(self.xlim[0], y), *self.px(self.xlim[1], y), color, 1, dashed))

    def vline(self, x: float, color: str = "#555555", dashed: bool = False):
        self.parts.append(_line(*self.px(x, self.ylim[0]), *self.px(x, self.ylim[1]), color, 1, dashed))

    def point(self, x: float, y: float, color: str, filled: bool = True, r: float = 3.5):
        px, py = self.px(x, y)
        fill = color if filled else "white"
        self.parts.append(
            f'<circle cx="{px}" cy="{py}" r="{r}" fill="{fill}" stroke="{color}" stroke-width="1.4"/>'
        )

    def errbar(self, x: float, lo: float, hi: float, color: str):
        (px, plo), (_, phi) = self.px(x, lo), self.px(x, hi)
        self.parts.append(_line(px, plo, px, phi, color, 1.4))
        self.parts += [_line(px - 3, py, px + 3, py, color, 1.4) for py in (plo, phi)]

    def legend(self, entries: list[tuple[str, str]]):
        x = _ML + 12
        y = _MT + 8
        for label, color in entries:
            self.parts += [_line(x, y + 4, x + 22, y + 4, color, 2.5), _text(x + 28, y + 8, label, 11, anchor="")]
            y += 16

    def text(self, x: float, y: float, s: str, size: int = 11, anchor: str = "middle"):
        self.parts.append(_text(*self.px(x, y), s, size, anchor))

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def csv_text(header: list[str], rows) -> str:
    """One CSV table, floats written by ``repr`` (rows hold Python floats:
    numpy 2 spells ``repr`` of ``np.float64(x)`` with its type name)."""
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


# -- figure kinds ---------------------------------------------------------------


def roc_comparison(curves: list[dict], title: str = "ROC comparison") -> tuple[str, str]:
    """``curves``: [{"name", "roc": RocCurve, "ci": ConfidenceInterval}]."""
    if not curves:
        raise ShapeMismatch("need at least one curve")
    canvas = _Canvas((0, 1), (0, 1), title=title, xlabel="1 - specificity", ylabel="sensitivity")
    canvas.polyline([0, 1], [0, 1], "#aaaaaa", dashed=True, width=1.0)
    legend = []
    rows = []
    for i, spec in enumerate(curves):
        roc = spec["roc"]
        color = PALETTE[i % len(PALETTE)]
        fpr = (1.0 - roc.specificities)[::-1]
        tpr = roc.sensitivities[::-1]
        canvas.polyline(fpr, tpr, color)
        ci = spec["ci"]
        legend.append((f"{spec['name']} AUC={_fmt(ci.estimate)} [{_fmt(ci.lower)}-{_fmt(ci.upper)}]", color))
        for t, se, sp in zip(roc.thresholds, roc.sensitivities, roc.specificities):
            rows.append([spec["name"], float(t), float(se), float(sp)])
    canvas.legend(legend)
    return canvas.render(), csv_text(["curve", "threshold", "sensitivity", "specificity"], rows)


def max_eu_vs_prevalence(curves: list[dict], title: str = "Maximum expected utility") -> tuple[str, str]:
    """``curves``: [{"name", "points": [MaxEuPoint]}]."""
    if not curves or any(not c["points"] for c in curves):
        raise ShapeMismatch("need nonempty max-EU curves")
    all_eu = [p.max_eu for c in curves for p in c["points"]]
    all_pi = [p.pi for c in curves for p in c["points"]]
    canvas = _Canvas(
        (min(all_pi), max(all_pi)), (min(0.0, min(all_eu)), max(all_eu)),
        title=title, xlabel="prevalence", ylabel="max expected utility",
    )
    legend = []
    rows = []
    for i, c in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        pts = c["points"]
        canvas.polyline([p.pi for p in pts], [p.max_eu for p in pts], color)
        legend.append((c["name"], color))
        for p in pts:
            rows.append([c["name"], p.pi, p.max_eu, p.sensitivity, p.specificity, p.threshold])
    canvas.legend(legend)
    return canvas.render(), csv_text(
        ["curve", "pi", "max_eu", "sensitivity", "specificity", "threshold"], rows
    )


def stratified_forest(strata: list, reference: float = 0.62,
                      title: str = "Per-stratum AUC") -> tuple[str, str]:
    """Forest-style plot of per-stratum AUC estimates with CI error bars."""
    if not strata:
        raise ShapeMismatch("no strata to plot")
    n = len(strata)
    canvas = _Canvas((0.5, n + 0.5), (0, 1), title=title, xlabel="stratum (size order)", ylabel="AUC")
    canvas.hline(0.5, color="#333333")
    canvas.hline(reference, color="#333333", dashed=True)
    rows = []
    for i, s in enumerate(strata, start=1):
        color = PALETTE[0]
        canvas.errbar(i, s.ci.lower, s.ci.upper, color)
        canvas.point(i, s.auc, color, filled=bool(s.fdr_reject))
        rows.append([
            stratum_label(s.key), s.n_pos, s.n_neg, s.auc,
            s.ci.lower, s.ci.upper, s.mwu_p, int(s.fdr_reject),
        ])
    canvas.legend([(f"reference {_fmt(reference)} (dashed)", "#333333")])
    return canvas.render(), csv_text(
        ["stratum", "n_pos", "n_neg", "auc", "ci_lower", "ci_upper", "mwu_p", "fdr_reject"], rows
    )


def calibration_figure(bins: list, ece: float, title: str = "Calibration") -> tuple[str, str]:
    if not bins:
        raise ShapeMismatch("no calibration bins")
    canvas = _Canvas((0, 1), (0, 1), title=title, xlabel="mean predicted probability",
                     ylabel="fraction positive")
    canvas.polyline([0, 1], [0, 1], "#aaaaaa", dashed=True, width=1.0)
    xs = [b.mean_score for b in bins]
    ys = [b.frac_positive for b in bins]
    canvas.polyline(xs, ys, PALETTE[0])
    for b in bins:
        canvas.point(b.mean_score, b.frac_positive, PALETTE[0])
    canvas.legend([(f"ECE={_fmt(ece)}", PALETTE[0])])
    rows = [[b.mean_score, b.frac_positive, b.count] for b in bins]
    return canvas.render(), csv_text(["mean_score", "frac_positive", "count"], rows)


def weak_robust_curve(result, title: str = "Weak-model curation") -> tuple[str, str]:
    if not result.ks:
        raise ShapeMismatch("probe result has no per-k curve")
    canvas = _Canvas((1, max(result.ks)), (0, 1), title=title,
                     xlabel="number of principal components k", ylabel="UAR / AUC")
    canvas.hline(0.5, color="#333333")
    canvas.polyline(result.ks, result.weak_uar_matched, PALETTE[0])
    canvas.polyline(result.ks, result.weak_uar_calibration, PALETTE[2])
    curated = [(k, a) for k, a in zip(result.ks, result.curated_auc_per_k) if a is not None]
    if curated:
        canvas.polyline([k for k, _ in curated], [a for _, a in curated], PALETTE[1])
    legend = [
        ("weak model UAR (matched task)", PALETTE[0]),
        ("weak model UAR (calibration task)", PALETTE[2]),
        ("main classifier AUC (curated set)", PALETTE[1]),
    ]
    if result.tau is not None:
        canvas.vline(result.tau, color="#2ca02c", dashed=True)
        legend.append((f"tau = {result.tau}", "#2ca02c"))
    canvas.legend(legend)
    rows = [
        [k, m, c, len(r), ("" if a is None else a), s]
        for k, m, c, r, a, s in zip(
            result.ks, result.weak_uar_matched, result.weak_uar_calibration,
            result.removed_ids_per_k, result.curated_auc_per_k, result.curated_size_per_k,
        )
    ]
    return canvas.render(), csv_text(
        ["k", "weak_uar_matched", "weak_uar_calibration", "n_removed", "curated_auc", "curated_size"],
        rows,
    )


def two_by_two(table, stats, title: str = "Symptoms vs status") -> tuple[str, str]:
    t = [[float(table[z][y]) for y in (0, 1)] for z in (0, 1)]
    total = sum(sum(row) for row in t)
    if total <= 0:
        raise ShapeMismatch("table is empty")
    canvas = _Canvas((0, 1), (0, 1), title=title)
    for z in (0, 1):
        for y in (0, 1):
            cx = 0.3 + 0.4 * y
            cy = 0.65 - 0.3 * z
            canvas.text(cx, cy, _fmt(t[z][y] / total), size=15)
    canvas.text(0.3, 0.92, "status 0", size=12)
    canvas.text(0.7, 0.92, "status 1", size=12)
    canvas.text(0.06, 0.65, "pred 0", size=12, anchor="start")
    canvas.text(0.06, 0.35, "pred 1", size=12, anchor="start")
    canvas.text(
        0.5, 0.12,
        f"phi={_fmt(stats.phi)}  MI={_fmt(stats.mi)} nats  sens={_fmt(stats.sensitivity)}  "
        f"spec={_fmt(stats.specificity)}  AUC={_fmt(stats.auc)}",
        size=12,
    )
    rows = [
        ["p_pred0_status0", t[0][0] / total],
        ["p_pred0_status1", t[0][1] / total],
        ["p_pred1_status0", t[1][0] / total],
        ["p_pred1_status1", t[1][1] / total],
        ["phi", stats.phi],
        ["mi_nats", stats.mi],
        ["sensitivity", stats.sensitivity],
        ["specificity", stats.specificity],
        ["auc", stats.auc],
    ]
    return canvas.render(), csv_text(["name", "value"], rows)


_FIGURE_KINDS = {
    "roc_comparison": roc_comparison,
    "max_eu_vs_prevalence": max_eu_vs_prevalence,
    "stratified_forest": stratified_forest,
    "calibration": calibration_figure,
    "weak_robust_curve": weak_robust_curve,
    "two_by_two": two_by_two,
}


def emit_figure(kind: str, *args, **kwargs) -> tuple[str, str]:
    """Dispatch to a figure builder by kind; returns (svg, csv)."""
    if kind not in _FIGURE_KINDS:
        raise ShapeMismatch(f"unknown figure kind {kind!r}")
    return _FIGURE_KINDS[kind](*args, **kwargs)


@dataclass
class ReportBundle:
    figures: dict[str, str]
    tables: dict[str, str]
    manifest: dict

    def write(self, outdir: str) -> None:
        os.makedirs(outdir, exist_ok=True)
        for suffix, texts in ((".svg", self.figures), (".csv", self.tables)):
            for name, text in texts.items():
                write_text(os.path.join(outdir, name + suffix), text)
        write_json(os.path.join(outdir, "manifest.json"), self.manifest, sort_keys=True)


def write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8, newlines untranslated: the one file write
    behind every figure, table, JSON report and manifest emitted here."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def write_figure(stem: str, figure: tuple[str, str]) -> None:
    """Write an ``emit_figure`` (svg, csv) pair to ``stem.svg`` and ``stem.csv``."""
    write_text(stem + ".svg", figure[0])
    write_text(stem + ".csv", figure[1])


def write_csv(path: str, header: list[str], rows) -> None:
    write_text(path, csv_text(header, rows))


def write_json(path: str, payload, sort_keys: bool = False) -> None:
    """Write ``payload`` as JSON indented by two spaces, with a final newline."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n")
