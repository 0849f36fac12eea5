"""Output checks for one config run: the CSV schema, the row count, the
paper invariants, and (at workload seed 0) agreement with the reference CSV
produced by the seed code. Each check returns a list of problems; empty
means the run is correct."""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import Config, expected_rows

SCHEMAS = {
    "E1-moment-decay": ["kind", "p", "profile", "r", "alpha", "abs_moment",
                        "bound", "hp_norm", "ratio"],
    "E2-grand-maximal-constant": ["kind", "p", "r", "T", "value", "model",
                                  "param_a", "param_b", "r_squared"],
    "E3-atom-image": ["operator", "p", "s", "lambda", "r", "seed", "alpha", "m1_ratio",
                      "m2_ratio", "best_c", "abs_pairing", "bound", "moment_ratio"],
    "E4-cancellation": ["operator", "p", "alpha", "r", "oscillation", "psi",
                        "ratio", "window", "sensitivity", "dual_gap"],
    "E5-duality": ["mode", "instance", "r", "trials", "lhs", "rhs", "gap", "ratio"],
}

# columns that must be finite wherever they are filled in
FINITE = {
    "E1-moment-decay": ("ratio",),
    "E2-grand-maximal-constant": ("value", "param_a", "param_b", "r_squared"),
    "E3-atom-image": ("m1_ratio", "m2_ratio", "best_c", "moment_ratio"),
    "E4-cancellation": ("ratio",),
    "E5-duality": ("lhs", "rhs"),
}

SENSITIVITY_LIMIT = 0.10    # window sensitivity of T*, as in hardylab.operators
SMOOTHING_ZERO = 1e-4       # "numerical zero" for smoothing ratios, as in the acceptance gate
DUALITY_RTOL = 1e-9


def quantum(x: float) -> float:
    """One unit in the 9th significant digit, the precision of the CSV."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 8) if x else 0.0


def read_csv(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    header = rows[0]
    return header, [dict(zip(header, r)) for r in rows[1:]]


def _invariants(cfg: Config, rows: list[dict]) -> list[str]:
    bad = []
    for col in FINITE[cfg.scenario]:
        for i, row in enumerate(rows):
            if row[col] == "" or (cfg.scenario == "E1-moment-decay" and row["kind"] == "summary"):
                continue
            if not math.isfinite(float(row[col])):
                bad.append(f"row {i}: {col} = {row[col]} is not finite")
    if cfg.scenario == "E1-moment-decay":
        # a summary is the max/min span of its data ratios, inf when the
        # minimum is exactly 0 (odd moments of a symmetric profile)
        lows: dict[tuple, float] = {}
        for row in rows:
            if row["kind"] == "data":
                key = (row["p"], row["profile"], row["alpha"])
                lows[key] = min(lows.get(key, math.inf), float(row["ratio"]))
        for i, row in enumerate(rows):
            if row["kind"] == "summary":
                zero_low = lows.get((row["p"], row["profile"], row["alpha"])) == 0.0
                if zero_low != math.isinf(float(row["ratio"])):
                    bad.append(f"row {i}: summary span {row['ratio']} with data minimum "
                               f"{lows.get((row['p'], row['profile'], row['alpha']))}")
    if cfg.scenario == "E5-duality":
        for i, row in enumerate(rows):
            lhs, rhs = float(row["lhs"]), float(row["rhs"])
            if row["mode"] == "deterministic":
                if abs(lhs - rhs) > DUALITY_RTOL * abs(rhs) + quantum(rhs):
                    bad.append(f"row {i}: deterministic lhs {lhs} != rhs {rhs}")
            elif lhs > rhs + quantum(rhs):
                bad.append(f"row {i}: random lhs {lhs} > rhs {rhs}")
    if cfg.scenario == "E4-cancellation":
        by_alpha: dict[str, list[tuple[float, float]]] = {}
        for i, row in enumerate(rows):
            if float(row["sensitivity"]) > SENSITIVITY_LIMIT:
                bad.append(f"row {i}: window sensitivity {row['sensitivity']} > 0.10")
            by_alpha.setdefault(row["alpha"], []).append((float(row["r"]), float(row["ratio"])))
        op = cfg.param("operator")
        for alpha, pts in by_alpha.items():
            ratios = [ratio for _, ratio in sorted(pts, reverse=True)]
            if op == "gaussian" and max(ratios) > SMOOTHING_ZERO:
                bad.append(f"alpha {alpha}: smoothing ratio {max(ratios)} > {SMOOTHING_ZERO}")
            if op == "sign-mult" and any(b <= a for a, b in zip(ratios, ratios[1:])):
                bad.append(f"alpha {alpha}: sign-mult ratios do not grow as r shrinks: {ratios}")
    return bad


def _cells_agree(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if x == y:
        return True
    if max(abs(x), abs(y)) < 1e-12:
        return abs(x - y) <= 1e-12
    return abs(x - y) <= 1e-8 * max(abs(x), abs(y))


def compare_reference(path: Path, ref: Path) -> list[str]:
    if not ref.is_file():
        return [f"missing reference {ref.name}"]
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(ref, newline="") as fh:
        want = list(csv.reader(fh))
    if len(got) != len(want):
        return [f"{len(got)} lines, reference has {len(want)}"]
    bad = []
    for i, (g, w) in enumerate(zip(got, want)):
        if len(g) != len(w) or not all(_cells_agree(a, b) for a, b in zip(g, w)):
            bad.append(f"line {i} differs from the reference: {g} vs {w}")
    return bad


def check_run(cfg: Config, out_dir: Path, reference_dir: Path | None) -> list[str]:
    """Every problem with the outputs of one config run."""
    path = out_dir / f"{cfg.tag}.csv"
    if not path.is_file():
        return [f"{path.name} was not written"]
    header, rows = read_csv(path)
    if header != SCHEMAS[cfg.scenario]:
        return [f"{path.name}: header {header} is not the {cfg.scenario} schema"]
    want = expected_rows(cfg)
    if len(rows) != want:
        return [f"{path.name}: {len(rows)} rows, expected {want}"]
    bad = [f"{path.name}: {b}" for b in _invariants(cfg, rows)]
    if reference_dir is not None:
        bad += [f"{path.name}: {b}" for b in compare_reference(path, reference_dir / path.name)]
    return bad
