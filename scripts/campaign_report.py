#!/usr/bin/env python3
"""Render a campaign artifact as a paper-style markdown report.

Reads one file in the campaign artifact schema of
src/campaign/artifact.hpp (campaign.csv or campaign.json, as produced by
dpbyz_campaign or example_attack_playground) and writes markdown:

  - a run summary (cell tallies per status, axis values covered),
  - per-epsilon GAR x attack tables of final accuracy (mean +- std over
    seeds) and membership-inference AUC — the layout of the paper's
    robustness and privacy tables,
  - an adaptive-vs-fixed dominance table per (GAR, eps) group that
    fields both adaptive_alie and fixed-factor ALIE ("little") cells,
  - skip/error tallies grouped by reason, so pre-screened cells are
    accounted for rather than silently absent.

Stdlib only — the CI campaign job runs it against the committed smoke
artifact so the report path cannot rot.  Writes to stdout or --out.
"""

import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path

HEADER = [
    "cell", "id", "gar", "attack", "eps", "participation", "topology",
    "channel", "churn", "seeds", "skip_reason", "final_acc_mean",
    "final_acc_std", "final_loss_mean", "final_loss_std", "min_loss_mean",
    "mi_auc", "inv_rel_error", "inv_label_acc",
]
AXES = ["gar", "attack", "eps", "participation", "topology", "channel",
        "churn"]
METRIC_STRINGS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def parse_metric(value):
    if isinstance(value, (int, float)):
        return float(value)
    return METRIC_STRINGS.get(value, None) if value in METRIC_STRINGS \
        else float(value)


def load_rows(path: Path):
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        if doc.get("campaign") != 1:
            sys.exit(f"campaign_report: {path} is not a campaign artifact")
        return [dict(cell) for cell in doc.get("cells", [])]
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",") != HEADER:
        sys.exit(f"campaign_report: {path} does not carry the campaign schema")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(HEADER):
            sys.exit(f"campaign_report: ragged row in {path}: {line!r}")
        rows.append(dict(zip(HEADER, cells)))
    return rows


def typed(rows):
    for r in rows:
        r["eps"] = parse_metric(r["eps"])
        for key in HEADER[HEADER.index("final_acc_mean"):]:
            r[key] = parse_metric(r[key])
    return rows


def fmt(v, digits=3):
    if v is None or (isinstance(v, float) and not math.isfinite(v)):
        return "—"
    return f"{v:.{digits}f}"


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def axis_values(rows, axis):
    seen = []
    for r in rows:
        v = str(r[axis])
        if v not in seen:
            seen.append(v)
    return seen


def summary_section(rows, path):
    run = [r for r in rows if not r["skip_reason"]]
    errored = [r for r in rows if str(r["skip_reason"]).startswith("error:")]
    pending = [r for r in rows if r["skip_reason"] == "pending"]
    skipped = len(rows) - len(run) - len(errored) - len(pending)
    out = [f"# Campaign report: `{path}`", ""]
    out.append(table(
        ["cells", "run", "pre-screened", "errored", "pending"],
        [[str(len(rows)), str(len(run)), str(skipped), str(len(errored)),
          str(len(pending))]]))
    out.append("")
    out.append("Axes covered: " + "; ".join(
        f"**{axis}** = {', '.join(axis_values(rows, axis))}"
        for axis in AXES if len(axis_values(rows, axis)) > 1) + ".")
    return out


def metric_tables(rows, metric, title, note):
    """One GAR x attack table per (eps, secondary-axis combination): when
    the grid also sweeps participation/topology/channel/churn, each
    combination gets its own table rather than being silently collapsed
    into one cell."""
    out = [f"## {title}", "", note, ""]
    run = [r for r in rows if not r["skip_reason"]]
    extra = [axis for axis in AXES[3:]
             if axis != "eps" and len(axis_values(rows, axis)) > 1]
    combos = []
    for r in rows:
        combo = tuple(str(r[axis]) for axis in extra)
        if combo not in combos:
            combos.append(combo)
    gars = axis_values(rows, "gar")
    attacks = axis_values(rows, "attack")
    for eps in sorted({r["eps"] for r in rows}):
        for combo in combos:
            body = []
            for gar in gars:
                line = [f"`{gar}`"]
                for attack in attacks:
                    cells = [r for r in run
                             if r["gar"] == gar and r["attack"] == attack
                             and r["eps"] == eps
                             and tuple(str(r[a]) for a in extra) == combo]
                    if not cells:
                        line.append("—")
                    elif metric == "acc":
                        line.append(f"{fmt(cells[0]['final_acc_mean'])} ± "
                                    f"{fmt(cells[0]['final_acc_std'])}")
                    else:
                        line.append(fmt(cells[0]["mi_auc"]))
                body.append(line)
            scope = "".join(f", {axis} = {value}"
                            for axis, value in zip(extra, combo))
            out.append(f"### ε = {eps:g}{scope}")
            out.append("")
            out.append(table(["GAR \\ attack"] + [f"`{a}`" for a in attacks],
                             body))
            out.append("")
    return out


def dominance_section(rows):
    """Adaptive ALIE vs the most damaging fixed ALIE, per (gar, eps)."""
    groups = {}
    for r in rows:
        if r["skip_reason"]:
            continue
        name = str(r["attack"]).split(":")[0]
        if name in ("little", "adaptive_alie"):
            groups.setdefault((r["gar"], r["eps"]), {}).setdefault(
                name, []).append(r)
    body = []
    for (gar, eps), by_attack in sorted(groups.items()):
        if "little" not in by_attack or "adaptive_alie" not in by_attack:
            continue
        fixed = max(c["final_loss_mean"] for c in by_attack["little"])
        adaptive = max(c["final_loss_mean"] for c in by_attack["adaptive_alie"])
        verdict = "holds" if adaptive >= fixed - 1e-9 else "**violated**"
        body.append([f"`{gar}`", f"{eps:g}", fmt(fixed), fmt(adaptive),
                     fmt(adaptive - fixed), verdict])
    if not body:
        return []
    return [
        "## Adaptive vs. fixed-factor ALIE (final training loss)", "",
        "The adaptive adversary tunes its factor against a shadow copy of "
        "the defense; dominance holds when it does at least as much damage "
        "as the best fixed factor in the grid.", "",
        table(["GAR", "ε", "best fixed", "adaptive", "margin", "dominance"],
              body), ""]


def skip_section(rows):
    tally = Counter(str(r["skip_reason"]) for r in rows if r["skip_reason"])
    if not tally:
        return []
    body = [[str(count), reason.replace("|", ";")]
            for reason, count in sorted(tally.items(),
                                        key=lambda kv: (-kv[1], kv[0]))]
    return ["## Skipped / errored cells", "",
            table(["cells", "reason"], body), ""]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("artifact", type=Path,
                    help="campaign.csv or campaign.json to report on")
    ap.add_argument("--out", type=Path, default=None,
                    help="write the markdown here instead of stdout")
    args = ap.parse_args()
    if not args.artifact.exists():
        sys.exit(f"campaign_report: no such file: {args.artifact}")

    rows = typed(load_rows(args.artifact))
    if not rows:
        sys.exit(f"campaign_report: {args.artifact} carries no cells")

    out = summary_section(rows, args.artifact)
    out.append("")
    out += metric_tables(
        rows, "acc", "Final accuracy",
        "Mean ± stddev over seeds; dashes are skipped or absent cells.")
    out += metric_tables(
        rows, "mi_auc", "Membership-inference AUC",
        "Measured leakage of the seed-1 model (0.5 = no leak). The paper "
        "derives the privacy column by accounting; this one is attacked.")
    out += dominance_section(rows)
    out += skip_section(rows)

    text = "\n".join(out).rstrip() + "\n"
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
        print(f"campaign_report: wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
