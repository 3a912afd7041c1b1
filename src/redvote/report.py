"""Analysis reports: the structured result record and its renderings.

A report carries everything a safety case needs to cite: the solved
per-instance outputs, the exported figures, an optional posterior table,
the verdict against a tolerable-hazard-rate bound, the tool version and a
digest of the input file. Two runs over byte-identical input produce
identical reports except for the ``generated_at`` timestamp, which is
deliberately excluded from the digest-checked region.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple

#: Quantitative band for the highest safety integrity level: rates in
#: [1e-9, 1e-8) hazardous failures per hour. Reported informationally.
SIL4_LOW = 1e-9
SIL4_HIGH = 1e-8


def sci(value: float) -> str:
    """Scientific notation with five significant digits, for human output."""
    return f"{value:.4e}"


def input_digest(data: bytes) -> str:
    import hashlib  # loads OpenSSL; only digesting needs it, not every import

    return "sha256:" + hashlib.sha256(data).hexdigest()


def sil_band_note(rate: float) -> str:
    if rate < SIL4_LOW:
        return f"below the SIL-4 band (rate < {SIL4_LOW:.0e}/h)"
    if rate < SIL4_HIGH:
        return f"inside the SIL-4 band [{SIL4_LOW:.0e}, {SIL4_HIGH:.0e})/h"
    return f"above the SIL-4 band (rate >= {SIL4_HIGH:.0e}/h)"


class AnalysisReport(namedtuple(
        "AnalysisReport",
        "workflow tool_version input_digest generated_at instances exports provenance "
        "posteriors threshold verdict verdict_metric sil_note",
        defaults=(None,) * 5)):
    """One solve/posteriors/sweep result in citable form: output values per
    instance, export values and provenance notes, plus, where the command
    gives them, a posterior table per variable and the verdict against a
    threshold."""

    __slots__ = ()

    def digest_region(self) -> dict:
        """Everything that must be identical for identical inputs."""
        region = self._asdict()
        region.pop("generated_at")
        return region


def timestamp() -> str:
    """The current UTC time to the second, in ISO 8601 with a ``+00:00`` offset."""
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def to_json(report: AnalysisReport | SweepReport) -> str:
    """The report's fields as one JSON object, in field order."""
    return json.dumps(report._asdict(), indent=2, allow_nan=False) + "\n"


def render_text(report: AnalysisReport, color: bool = False) -> str:
    def paint(text: str, code: str) -> str:
        return f"\x1b[{code}m{text}\x1b[0m" if color else text

    lines = [
        f"workflow: {report.workflow}",
        f"tool: redvote {report.tool_version}",
        f"input: {report.input_digest}",
        f"generated: {report.generated_at}",
    ]
    if report.instances:
        lines.append("")
    for name, outputs in report.instances.items():
        note = next(
            (p.split(": ", 1)[1] for p in report.provenance if p.startswith(f"{name}: ")), ""
        )
        lines.append(f"instance {name}" + (f"  [{note}]" if note else ""))
        for pname, value in outputs.items():
            lines.append(f"  {pname} = {sci(value)}")
    if report.exports:
        lines.append("")
        lines.append("exports")
        for name, value in report.exports.items():
            lines.append(f"  {name} = {sci(value)}")
    if report.posteriors is not None:
        lines.append("")
        lines.append("posteriors")
        width = max((len(v) for v in report.posteriors), default=0)
        for variable, dist in report.posteriors.items():
            cells = "  ".join(f"{state}={sci(p)}" for state, p in dist.items())
            lines.append(f"  {variable:<{width}}  {cells}")
    if report.threshold is not None:
        lines.append("")
        lines.append(f"threshold: {sci(report.threshold)} per hour on {report.verdict_metric}")
        verdict = paint(report.verdict or "", "32" if report.verdict == "PASS" else "31")
        lines.append(f"verdict: {verdict}")
        if report.sil_note:
            lines.append(f"sil: {report.sil_note}")
    return "\n".join(lines) + "\n"


def render_csv(report: AnalysisReport) -> str:
    import csv  # only the CSV renderers need these, not every solve
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["name", "value"])
    writer.writerow(["workflow", report.workflow])
    writer.writerow(["input_digest", report.input_digest])
    for name, outputs in report.instances.items():
        for pname, value in outputs.items():
            writer.writerow([f"{name}.{pname}", repr(value)])
    for name, value in report.exports.items():
        writer.writerow([name, repr(value)])
    if report.posteriors is not None:
        for variable, dist in report.posteriors.items():
            for state, p in dist.items():
                writer.writerow([f"posterior.{variable}.{state}", repr(p)])
    if report.threshold is not None:
        writer.writerow(["threshold", repr(report.threshold)])
        writer.writerow(["verdict", report.verdict])
    return out.getvalue()


class SweepReport(namedtuple(
        "SweepReport",
        "workflow parameter tool_version input_digest generated_at export_names rows")):
    """One row per sweep factor, all exports evaluated: each of ``rows`` is
    ``{"factor": f, "exports": {...}}``."""

    __slots__ = ()

    digest_region = AnalysisReport.digest_region


sweep_to_json = to_json


def render_sweep_csv(report: SweepReport) -> str:
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["factor"] + list(report.export_names))
    for row in report.rows:
        writer.writerow(
            [repr(row["factor"])] + [repr(row["exports"][name]) for name in report.export_names]
        )
    return out.getvalue()


def render_sweep_text(report: SweepReport) -> str:
    lines = [
        f"workflow: {report.workflow}",
        f"sweep parameter: {report.parameter}",
        "",
        "  ".join(["factor".ljust(10)] + [name.ljust(12) for name in report.export_names]),
    ]
    for row in report.rows:
        cells = [f"{row['factor']:<10g}"]
        cells += [sci(row["exports"][name]).ljust(12) for name in report.export_names]
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"
