"""Report rendering: canonical JSON, a markdown summary, CSV per length grid.

The JSON document is the contract: sorted keys, fixed separators, no
timestamps or timings, so identical scenario + engine version gives
byte-identical bytes. Markdown and CSV are derived views for humans and
plotting tools. Timings and cache statistics go to the run_meta sidecar
only.
"""

import csv
import io
import json
import os


def render_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _fit_line(fit):
    if not isinstance(fit, dict):
        return "none"
    if "status" in fit:
        return fit["status"]
    if "error" in fit:
        return "refused: %s" % fit["error"]
    names = ["n%d" % (i + 1) for i in range(fit.get("variables", 1))]
    if fit.get("variables", 1) == 1:
        names = ["n"]
    coeffs = fit.get("coefficients", [])
    parts = []
    for entry in coeffs:
        num, den = entry["numerator"], entry["denominator"]
        coeff = str(num) if den == 1 else "%d/%d" % (num, den)
        mono = "*".join(
            "%s^%d" % (names[i], e) if e > 1 else names[i]
            for i, e in enumerate(entry["exponents"]) if e
        )
        parts.append(coeff if not mono else "%s*%s" % (coeff, mono))
    text = " + ".join(parts) if parts else "0"
    return "%s (total degree %s, onset %s)" % (
        text, fit.get("total_degree"), fit.get("onset"))


def render_markdown(report):
    lines = []
    lines.append("# %s" % (report.get("label") or "scenario report"))
    lines.append("")
    lines.append("Engine: %s %s. Overall status: **%s** (exit %d)." % (
        report["engine"]["name"], report["engine"]["version"],
        report["status"], report["exit_code"]))
    lines.append("")
    lines.append("| # | task | status | summary |")
    lines.append("|---|------|--------|---------|")
    for i, entry in enumerate(report["tasks"]):
        summary = _summarize(entry)
        lines.append("| %d | %s | %s | %s |" % (i, entry["task"], entry["status"], summary))
    lines.append("")
    for i, entry in enumerate(report["tasks"]):
        if entry["status"] == "PASS":
            continue
        lines.append("## task %d: %s %s" % (i, entry["task"], entry["status"]))
        for failure in entry.get("failures", []):
            lines.append("- %s" % failure)
        if "error" in entry:
            lines.append("- %s" % entry["error"])
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _summarize(entry):
    task = entry["task"]
    if "error" in entry:
        return entry["error"]
    if task in ("fit", "degree_bound"):
        bits = [_fit_line(entry.get("fit", {}))]
        check = entry.get("bound_check")
        if check:
            bits.append("bound %s vs degree %s: %s" % (
                check["bound"], check["degree"], check["verdict"]))
        return "; ".join(bits)
    if task == "normal_form":
        return "c=%s d=%s, %d points validated" % (
            entry.get("c"), entry.get("d"), len(entry.get("validated_points", [])))
    if task == "stabilization":
        v = entry.get("verdict", {})
        return "%s stable=%s value=%s" % (
            entry.get("observable"), v.get("stable"), v.get("value"))
    if task == "grade":
        v = entry.get("verdict", {})
        return "grade stable=%s value=%s" % (v.get("stable"), v.get("value"))
    if task == "betti_bass":
        v = entry.get("verdicts", {})
        return "pd=%s id=%s" % (
            v.get("pd", {}).get("value"), v.get("id", {}).get("value"))
    if task == "component_track":
        return _fit_line(entry.get("fits", {}).get("lambda", {}))
    if task == "artin_rees":
        return "d=%s (%s), window of %d points" % (
            entry.get("d"), entry.get("verdict"), len(entry.get("window_checked", [])))
    return ""


def _csv_name(stem, index, task):
    return "%s.task%d_%s_lambda.csv" % (stem, index, task)


def artifact_names(stem, tasks):
    """Every file name a run of these tasks can write: the report, the
    summary, the run meta and one length CSV per task, named by the task's
    index and name alone, so they are known before the run."""
    names = [stem + ".report.json", stem + ".summary.md", stem + ".run_meta.json"]
    names.extend(_csv_name(stem, i, task["task"]) for i, task in enumerate(tasks))
    return names


def lambda_csvs(report, stem):
    """(file name, csv text) for every task entry that carries a length grid."""
    out = []
    for i, entry in enumerate(report["tasks"]):
        table = entry.get("lambda_table")
        if not table:
            continue
        rows = sorted(
            (tuple(int(x) for x in key.split(",")), value)
            for key, value in table.items()
        )
        r = len(rows[0][0])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n%d" % (j + 1) for j in range(r)] + ["lambda"])
        for point, value in rows:
            writer.writerow(list(point) + [value])
        out.append((_csv_name(stem, i, entry["task"]), buf.getvalue()))
    return out


def write_artifacts(report, meta, out_dir, stem):
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name, text):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)

    emit(stem + ".report.json", render_json(report))
    emit(stem + ".summary.md", render_markdown(report))
    for name, text in lambda_csvs(report, stem):
        emit(name, text)
    emit(stem + ".run_meta.json", render_json(meta))
    return written
