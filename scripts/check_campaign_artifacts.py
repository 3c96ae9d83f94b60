#!/usr/bin/env python3
"""Validate campaign artifacts (CSV and/or JSON) against the shared schema.

Checks any file written in the campaign artifact schema of
src/campaign/artifact.hpp — dpbyz_campaign's campaign.csv/campaign.json
and example_attack_playground's bench_out/attack_playground.csv alike:

  - exact header/field-name match with the canonical column set,
  - cell indices are unique and ascending,
  - numeric fields parse (with the schema's "nan"/"inf" spellings),
  - no field smuggles a comma/newline past the sanitizer,
  - run cells (empty skip_reason) carry finite robustness metrics and
    accuracies in [0, 1]; pre-screened skips carry their reason,
  - no cell failed at runtime ("error: ..." reason) or is still "pending",
  - when both a CSV and a JSON are given, their cell tables agree.

Optionally (--expect-adaptive-dominance) asserts the committed smoke
artifact's acceptance property: for every (gar, eps) group that contains
both, the adaptive ALIE cell's final training loss is >= the best (most
damaging) fixed-factor ALIE cell's, within --tolerance.

Stdlib only — this is the CI campaign job's gate.  Exits non-zero with a
list of violations.
"""

import argparse
import json
import math
import sys
from pathlib import Path

HEADER = [
    "cell", "id", "gar", "attack", "eps", "participation", "topology",
    "channel", "churn", "seeds", "skip_reason", "final_acc_mean",
    "final_acc_std", "final_loss_mean", "final_loss_std", "min_loss_mean",
    "mi_auc", "inv_rel_error", "inv_label_acc",
]
NUMERIC = HEADER[HEADER.index("final_acc_mean"):]
METRIC_STRINGS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def parse_metric(value, errors, where):
    if isinstance(value, (int, float)):
        return float(value)
    if value in METRIC_STRINGS:
        return METRIC_STRINGS[value]
    try:
        return float(value)
    except ValueError:
        errors.append(f"{where}: unparsable metric {value!r}")
        return math.nan


def load_csv(path: Path, errors):
    lines = path.read_text().splitlines()
    if not lines:
        errors.append(f"{path}: empty file")
        return []
    header = lines[0].split(",")
    if header != HEADER:
        errors.append(f"{path}: header mismatch: {header}")
        return []
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(HEADER):
            errors.append(f"{path}:{i}: {len(cells)} fields, want {len(HEADER)}")
            continue
        rows.append(dict(zip(HEADER, cells)))
    return rows


def load_json(path: Path, errors):
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        errors.append(f"{path}: invalid JSON: {e}")
        return []
    if doc.get("campaign") != 1:
        errors.append(f"{path}: missing/unknown campaign version marker")
        return []
    cells = doc.get("cells", [])
    if doc.get("count") != len(cells):
        errors.append(f"{path}: count={doc.get('count')} but {len(cells)} cells")
    rows = []
    for i, cell in enumerate(cells):
        missing = [k for k in HEADER if k not in cell]
        if missing:
            errors.append(f"{path}: cell {i} missing fields {missing}")
            continue
        rows.append({k: cell[k] for k in HEADER})
    return rows


def canonical(row, errors, where):
    """Normalize one row to typed values, recording violations."""
    out = dict(row)
    for key in ("cell", "seeds"):
        try:
            out[key] = int(row[key])
        except (TypeError, ValueError):
            errors.append(f"{where}: non-integer {key}={row[key]!r}")
            out[key] = -1
    out["eps"] = parse_metric(row["eps"], errors, where)
    for key in NUMERIC:
        out[key] = parse_metric(row[key], errors, where)
    for key, value in row.items():
        if isinstance(value, str) and ("," in value or "\n" in value):
            errors.append(f"{where}: field {key} escaped the sanitizer: {value!r}")
    return out


def check_rows(rows, where, errors):
    indices = [r["cell"] for r in rows]
    if indices != sorted(set(indices)):
        errors.append(f"{where}: cell indices not unique/ascending: {indices}")
    for r in rows:
        tag = f"{where} cell {r['cell']} ({r['id']})"
        reason = r["skip_reason"]
        if reason.startswith("error:") or reason == "pending":
            errors.append(f"{tag}: cell did not run: {reason}")
            continue
        if reason:
            continue  # pre-screened skips carry no metric promises
        for key in ("final_acc_mean", "final_loss_mean", "min_loss_mean"):
            if not math.isfinite(r[key]):
                errors.append(f"{tag}: run cell has non-finite {key}")
        if math.isfinite(r["final_acc_mean"]) and not 0.0 <= r["final_acc_mean"] <= 1.0:
            errors.append(f"{tag}: accuracy {r['final_acc_mean']} outside [0, 1]")
        if math.isfinite(r["mi_auc"]) and not 0.0 <= r["mi_auc"] <= 1.0:
            errors.append(f"{tag}: mi_auc {r['mi_auc']} outside [0, 1]")
        if r["seeds"] < 1:
            errors.append(f"{tag}: run cell with seeds={r['seeds']}")


def check_dominance(rows, tolerance, errors):
    """Adaptive ALIE must hurt at least as much as the best fixed ALIE in
    every (gar, eps) group that fields both (higher loss = more damage)."""
    groups = {}
    for r in rows:
        if r["skip_reason"]:
            continue
        name = r["attack"].split(":")[0]
        if name not in ("little", "adaptive_alie"):
            continue
        groups.setdefault((r["gar"], r["eps"]), {}).setdefault(name, []).append(r)
    compared = 0
    for (gar, eps), by_attack in sorted(groups.items()):
        if "little" not in by_attack or "adaptive_alie" not in by_attack:
            continue
        compared += 1
        best_fixed = max(c["final_loss_mean"] for c in by_attack["little"])
        adaptive = max(c["final_loss_mean"] for c in by_attack["adaptive_alie"])
        if adaptive < best_fixed - tolerance:
            errors.append(
                f"dominance violated at (gar={gar}, eps={eps}): adaptive_alie "
                f"loss {adaptive} < best fixed ALIE loss {best_fixed}")
    if compared == 0:
        errors.append("dominance check requested but no (gar, eps) group "
                      "contains both 'little' and 'adaptive_alie' cells")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("artifacts", nargs="+", type=Path,
                    help="campaign .csv and/or .json files to validate")
    ap.add_argument("--expect-adaptive-dominance", action="store_true",
                    help="assert adaptive ALIE >= best fixed ALIE loss per "
                         "(gar, eps) group")
    ap.add_argument("--tolerance", type=float, default=1e-9,
                    help="slack for the dominance comparison")
    args = ap.parse_args()

    errors = []
    tables = {}
    for path in args.artifacts:
        if not path.exists():
            errors.append(f"{path}: no such file")
            continue
        raw = (load_json if path.suffix == ".json" else load_csv)(path, errors)
        rows = [canonical(r, errors, f"{path} row {i}") for i, r in enumerate(raw)]
        check_rows(rows, str(path), errors)
        tables[path] = rows

    # Cross-format agreement when a CSV/JSON pair was passed.
    materialized = list(tables.items())
    for i in range(len(materialized)):
        for j in range(i + 1, len(materialized)):
            (pa, ra), (pb, rb) = materialized[i], materialized[j]
            ka = [(r["cell"], r["id"], r["skip_reason"]) for r in ra]
            kb = [(r["cell"], r["id"], r["skip_reason"]) for r in rb]
            if ka != kb:
                errors.append(f"{pa} and {pb} disagree on the cell table")

    if args.expect_adaptive_dominance:
        merged = [r for rows in tables.values() for r in rows]
        check_dominance(merged, args.tolerance, errors)

    if errors:
        print(f"check_campaign_artifacts: {len(errors)} violation(s)")
        for e in errors:
            print(f"  {e}")
        return 1
    total = sum(len(rows) for rows in tables.values())
    print(f"check_campaign_artifacts: OK ({len(tables)} file(s), {total} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
