"""Config-driven experiment scenarios with fixed CSV schemas and SVG charts.

Every run is deterministic given (config, seed): rows are emitted in sorted
parameter order and floats are printed with 9 significant digits, so a rerun
produces byte-identical CSV. Wall-clock runtimes go to a .meta.txt sidecar
(and stderr), never into the CSV.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  (NumPy loads it lazily; load it with the package)

from . import pool
from .atoms import (
    AtomSpec,
    PreMoleculeSpec,
    edge_cutoff,
    make_atom,
    min_premolecule_constant,
    moment_bound_check,
    validate_premolecule,
)
from .config import ExperimentConfig
from .grid import Ball, GridFunction, GridSpec, ball_smooth_fields, integrate, lp_quasinorm
from .maximal import MollifierSpec, ScaleGrid, build_test_dictionary, grand_maximal_table, small_maximal_table
from .moments import HardyIndex, dual_norm_check, monomial_field, multiindices, psi, small_ball_factor
from .operators import cancellation_test, catalog_entry, get_operator, smooth_window, window_radius
from .svgchart import Series, line_chart

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

# scenario -> runner returning (rows, chart extras). The run_E* names are
# looked up at call time, so rebinding one (to time or patch it) takes effect.
RUNNERS = {
    "E1-moment-decay": lambda cfg: (run_E1_moment_decay(cfg), {}),
    "E2-grand-maximal-constant": lambda cfg: (run_E2_grand_maximal_constant(cfg), {}),
    "E3-atom-image": lambda cfg: (run_E3_atom_image(cfg), {}),
    "E4-cancellation": lambda cfg: run_E4_cancellation(cfg),
    "E5-duality": lambda cfg: (run_E5_duality(cfg), {}),
}


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.9g}"


def _alpha_str(alpha) -> str:
    return ";".join(str(a) for a in alpha)


def write_csv(path, schema: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(schema) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


@dataclass
class RunResult:
    scenario: str
    csv_path: Path
    svg_paths: list[Path]
    rows: list[list]
    runtime: float


# the E1 profiles whose field does not depend on p
_P_FREE_PROFILES = ("indicator", "bump")


def _origin_balls(grid: GridSpec, radii) -> list[Ball]:
    """The balls of the given radii at the origin; ValueError for one that
    does not fit the grid."""
    balls = [Ball((0.0,) * grid.dim, r) for r in radii]
    for ball in balls:
        if not ball.fits_in(grid):
            raise ValueError(f"the ball of radius {ball.radius:g} does not fit the grid")
    return balls


def _profile_field(kind: str, grid: GridSpec, ball: Ball, rng, idx: HardyIndex) -> GridFunction:
    if kind == "indicator":
        mask = ball.mask(grid)
        return GridFunction(grid, mask.astype(float))
    if kind == "bump":
        return edge_cutoff(grid, ball, width_frac=0.6)
    if kind == "random":
        noise = ball.box(grid).scatter(ball_smooth_fields(grid, ball, ball.radius / 3.0, 1, rng)[:, 0])
        return edge_cutoff(grid, ball) * GridFunction(grid, noise)
    # "atom", the last profile that E1's key table takes
    return make_atom(AtomSpec(idx, 2.0, ball, "local"), int(rng.integers(0, 2**31)), grid)


# ---------------------------------------------------------------------------


def run_E1_moment_decay(cfg: ExperimentConfig) -> list[list]:
    """Moment/norm ratios for small-ball profiles across an r-ladder, with a
    max/min summary per (p, profile, alpha)."""
    grid, prm = cfg.grid, cfg.params
    mol = cfg.check("mollifier", lambda: MollifierSpec(prm["mollifier"], grid.dim))
    p_values, profiles, ladder = prm["p_values"], prm["profiles"], prm["r_ladder"]
    cfg.check("p_values", lambda: [HardyIndex(p, grid.dim) for p in p_values])
    balls = cfg.check("r_ladder", lambda: _origin_balls(grid, ladder))
    scales = ScaleGrid.default(grid, 1.0)
    # the fields by p, profile and r; a field that does not depend on p is
    # made once and its norms are taken at every p
    fields = {}  # norms key -> (field, the p its norms are needed at)
    grids = []  # per p: per profile, (r, ball, field, norms key) per r
    for ip, p in enumerate(p_values):
        idx = HardyIndex(p, grid.dim)
        grids.append([])
        for iprof, prof in enumerate(profiles):
            grids[-1].append([])
            for ir, (r, ball) in enumerate(zip(ladder, balls)):
                p_free = prof in _P_FREE_PROFILES
                key = (iprof, ir) if p_free else (iprof, ir, ip)
                if key not in fields:
                    rng = np.random.default_rng([cfg.seed, ip, iprof, ir])
                    fields[key] = (_profile_field(prof, grid, ball, rng, idx), p_values if p_free else [p])
                grids[-1][-1].append((r, ball, fields[key][0], key))
    # one streamed pass over the scales for every (field, p) pair: each
    # kernel is built once; only the h^p norms are kept
    maxima = small_maximal_table([g for g, _ in fields.values()], mol, scales)
    norms = {key: {q: lp_quasinorm(mg, q) for q in qs} for (key, (_, qs)), mg in zip(fields.items(), maxima)}
    del maxima
    rows = []
    for p, cells in zip(p_values, grids):
        idx = HardyIndex(p, grid.dim)
        for prof, row_cells in zip(profiles, cells):
            ratios: dict[tuple, list[float]] = {}
            for r, ball, g, key in row_cells:
                hp = norms[key][p]
                for row in moment_bound_check(g, ball, idx, hp):
                    rows.append(["data", p, prof, r, _alpha_str(row.alpha),
                                 row.abs_moment, row.bound, hp, row.ratio])
                    ratios.setdefault(row.alpha, []).append(row.ratio)
            for alpha, vals in sorted(ratios.items()):
                lo = min(vals)
                span = max(vals) / lo if lo > 0 else float("inf")
                rows.append(["summary", p, prof, "", _alpha_str(alpha), "", "", "", span])
    return rows


def _fit_log_model(Ts, values):
    """Least-squares fit values ~ a + b log T; returns (a, b, r^2)."""
    A = np.vstack([np.ones(len(Ts)), np.log(Ts)]).T
    coef, *_ = np.linalg.lstsq(A, values, rcond=None)
    pred = A @ coef
    ss = np.sum((values - np.mean(values)) ** 2)
    r2 = 1.0 - np.sum((values - pred) ** 2) / ss if ss > 0 else 1.0
    return float(coef[0]), float(coef[1]), float(r2)


def _check_T_ladder(Ts, grid: GridSpec) -> None:
    if min(Ts) <= 0:
        raise ValueError("T ladder requires every T > 0")
    if max(Ts) > grid.half_width / 2.0:
        raise ValueError("T ladder exceeds L/2 (wrap-around guard)")


def run_E2_grand_maximal_constant(cfg: ExperimentConfig) -> list[list]:
    """Grand-maximal norms of atoms across a T-ladder: log-model fit at p = 1,
    power-model fit at p < 1, and the T-variation of small-ball atoms."""
    grid, prm = cfg.grid, cfg.params
    Ts, p_values, n_seeds = prm["T_ladder"], prm["p_values"], prm["n_seeds"]
    r_large, r_small = prm["r_large"], prm["r_small"]
    cfg.check("T_ladder", lambda: _check_T_ladder(Ts, grid))
    for key in ("r_large", "r_small"):
        cfg.check(key, lambda: _origin_balls(grid, [prm[key]]))
    cfg.check("p_values", lambda: [HardyIndex(p, grid.dim) for p in p_values])
    mol = MollifierSpec("smooth-bump", grid.dim)
    # per p, the atoms of its (p, r) blocks against its T dictionaries, in one
    # streamed pass over the distinct scales: the p = 1 dictionaries (order 1)
    # fold on each atom's support and the p < 1 ones on the full grid
    blocks = [(p, r_large) for p in p_values] + [(1.0, r_small)]
    atoms = [[make_atom(AtomSpec(HardyIndex(p, grid.dim), np.inf, Ball((0.0,) * grid.dim, r),
                                 "local"), cfg.seed + s, grid) for s in range(n_seeds)]
             for p, r in blocks]
    norms: list = [None] * len(blocks)  # block -> its atoms' mean h^p norm per T
    for p in dict.fromkeys(p for p, _ in blocks):
        members = [b for b, (q, _) in enumerate(blocks) if q == p]
        dicts = [build_test_dictionary(grid, HardyIndex(p, grid.dim), T, mol) for T in Ts]
        table = grand_maximal_table([f for b in members for f in atoms[b]], dicts)
        for n, b in enumerate(members):
            cells = table[n * n_seeds:(n + 1) * n_seeds]
            norms[b] = np.asarray([float(np.mean([lp_quasinorm(row[j], p) for row in cells]))
                                   for j in range(len(Ts))])
        del table, cells  # only the norms outlive the call: the cells go before the next fold

    rows = []
    for b, p in enumerate(p_values):
        vals = norms[b]
        for T, v in zip(Ts, vals):
            rows.append(["data", p, r_large, T, v, "", "", "", ""])
        if p == 1.0:
            icpt, slope, r2 = _fit_log_model(Ts, vals)
            rows.append(["fit", p, r_large, "", "", "log", icpt, slope, r2])
        else:
            # power model vals ~ A T^b, fitted on a log scale
            log_amp, expo, r2 = _fit_log_model(Ts, np.log(vals))
            rows.append(["fit", p, r_large, "", "", "power", float(np.exp(log_amp)), expo, r2])
    small = norms[len(p_values)]
    for T, v in zip(Ts, small):
        rows.append(["data", 1.0, r_small, T, v, "", "", "", ""])
    variation = float((small.max() - small.min()) / small.min())
    rows.append(["variation", 1.0, r_small, "", variation, "", "", "", ""])
    return rows


def run_E3_atom_image(cfg: ExperimentConfig) -> list[list]:
    """Apply a catalog operator to atoms across the r-ladder; report both
    pre-molecule size ratios and the windowed moment decay of the images."""
    grid, prm = cfg.grid, cfg.params
    name = prm["operator"]
    cfg.check("operator", lambda: catalog_entry(name))
    T_op = cfg.check("operator_params", lambda: get_operator(name, grid, **prm["operator_params"]))
    p, s, lam, C, n_seeds, ladder = (prm[k] for k in ("p", "s", "lambda", "C", "n_seeds", "r_ladder"))
    idx = cfg.check("p", lambda: HardyIndex(p, grid.dim))
    balls = cfg.check("r_ladder", lambda: _origin_balls(grid, ladder))
    # s, lambda and C as the atoms and the pre-molecule checks take them
    largest = balls[0]
    cfg.check("s", lambda: (AtomSpec(idx, s, largest), PreMoleculeSpec(idx, s, np.inf, 1.0, largest)))
    cfg.check("lambda", lambda: PreMoleculeSpec(idx, s, lam, 1.0, largest))
    cfg.check("C", lambda: PreMoleculeSpec(idx, s, lam, C, largest))
    mol = MollifierSpec("gaussian", grid.dim)
    scales = ScaleGrid.default(grid, 1.0)
    alphas = multiindices(grid.dim, idx.N_p)
    cells = []  # (r, ball, seed, image of the atom); the atoms are not kept
    for r, ball in zip(ladder, balls):
        spec_a = AtomSpec(idx, s, ball, "local")
        for seed in range(n_seeds):
            cells.append((r, ball, seed, T_op.apply(make_atom(spec_a, cfg.seed + seed, grid))))
    # every h^p norm from one streamed pass over the scales
    hps = [lp_quasinorm(m, p) for m in small_maximal_table([Ta for *_, Ta in cells], mol, scales)]
    rows = []
    for (r, ball, seed, Ta), hp in zip(cells, hps):
        rep = validate_premolecule(Ta, PreMoleculeSpec(idx, s, lam, C, ball))
        best = min_premolecule_constant(Ta, idx, s, lam, ball)
        window = smooth_window(grid, ball.center, window_radius(r))
        for alpha in alphas:
            bound = small_ball_factor(idx, alpha, r)
            pairing = abs(integrate(Ta * window * monomial_field(grid, ball.center, alpha)))
            rows.append([T_op.name, p, s, lam, r, seed, _alpha_str(alpha),
                         rep.m1_ratio, rep.m2_ratio, best, pairing, bound,
                         pairing / (hp * bound) if hp > 0 else float("inf")])
    rows.sort(key=lambda row: (-row[4], row[5], row[6]))
    return rows


def run_E4_cancellation(cfg: ExperimentConfig) -> tuple[list[list], dict]:
    """Cancellation ratios across the r-ladder, plus an SVG overlaying the
    measured oscillation with the decay modulus."""
    grid, prm = cfg.grid, cfg.params
    name = prm["operator"]
    cfg.check("operator", lambda: catalog_entry(name))
    T_op = cfg.check("operator_params", lambda: get_operator(name, grid, **prm["operator_params"]))
    p, alphas = prm["p"], prm["alphas"]
    idx = cfg.check("p", lambda: HardyIndex(p, grid.dim))
    # psi rejects an alpha of the wrong dimension or outside the admissible range
    cfg.check("alphas", lambda: [psi(idx, alpha, 0.5) for alpha in alphas])
    balls = [Ball((0.0,) * grid.dim, r) for r in prm["r_ladder"]]
    report = cancellation_test(T_op, idx, balls, alphas, grid)
    rows = []
    for row in report:
        rows.append([T_op.name, p, _alpha_str(row.alpha), row.ball.radius,
                     row.oscillation, row.psi_value, row.ratio, row.window_radius,
                     row.window_sensitivity, row.dual_gap])
    rows.sort(key=lambda row: (row[2], -row[3]))

    series = []
    for alpha in alphas:
        sub = [r for r in report if r.alpha == tuple(alpha)]
        rs = [r.ball.radius for r in sub]
        series.append(Series(f"oscillation a={_alpha_str(alpha)}", rs,
                             [r.oscillation for r in sub]))
        series.append(Series(f"psi a={_alpha_str(alpha)}", rs,
                             [r.psi_value for r in sub], dashed=True))
        series.append(Series(f"ratio a={_alpha_str(alpha)}", rs,
                             [r.ratio for r in sub]))
    extras = {"series": series, "title": f"cancellation: {T_op.name} (p={p:g})"}
    return rows, extras


def run_E5_duality(cfg: ExperimentConfig) -> list[list]:
    """Dual-norm checks: deterministic mode certifies the identity, random
    mode gives the Monte-Carlo lower bound. The instances run on the worker
    pool, each with its own generators, so the rows equal a serial loop's."""
    grid, prm = cfg.grid, cfg.params
    n_instances, trials, degree, mode = (prm[k] for k in ("n_instances", "trials", "degree", "mode"))
    balls = cfg.check("r_values", lambda: _origin_balls(grid, prm["r_values"]))

    def instance(i: int) -> list[list]:
        ball = balls[i % len(balls)]
        r = ball.radius
        rng = np.random.default_rng([cfg.seed, 51, i])
        noise = ball_smooth_fields(grid, ball, ball.radius / 2.0, 1, rng)[:, 0]
        f = GridFunction(grid, ball.box(grid).scatter(noise))
        rows = []
        if mode in ("both", "deterministic"):
            lhs, rhs = dual_norm_check(f, ball, degree, trials=0, seed=cfg.seed + i,
                                       include_deterministic=True)
            rows.append(["deterministic", i, r, 0, lhs, rhs, abs(lhs - rhs),
                         lhs / rhs if rhs > 0 else 1.0])
        if mode in ("both", "random"):
            lhs, rhs = dual_norm_check(f, ball, degree, trials=trials, seed=cfg.seed + i,
                                       include_deterministic=False)
            rows.append(["random", i, r, trials, lhs, rhs, abs(lhs - rhs),
                         lhs / rhs if rhs > 0 else 1.0])
        return rows

    rows = [row for part in pool.POOL.map(instance, range(n_instances)) for row in part]
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


# ---------------------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    start = time.perf_counter()
    rows, extras = RUNNERS[cfg.scenario](cfg)
    runtime = time.perf_counter() - start

    tag = cfg.params["tag"]
    if not tag:
        op = cfg.params.get("operator")
        tag = cfg.scenario if op is None else f"{cfg.scenario}-{op}"
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.out_dir / f"{tag}.csv"
    write_csv(csv_path, SCHEMAS[cfg.scenario], rows)

    svg_paths = []
    if extras.get("series"):
        svg_path = cfg.out_dir / f"{tag}.svg"
        line_chart(svg_path, extras["title"], extras["series"], "r", "value")
        svg_paths.append(svg_path)

    meta_path = cfg.out_dir / f"{tag}.meta.txt"
    with open(meta_path, "w") as fh:
        fh.write(f"scenario={cfg.scenario}\nconfig={cfg.source.path}\nseed={cfg.seed}\n"
                 f"grid: dim={cfg.grid.dim} m={cfg.grid.points_per_axis} "
                 f"L={cfg.grid.half_width!r}\nruntime_seconds={runtime:.3f}\n"
                 f"rows={len(rows)}\n")
    if not cfg.quiet:
        print(f"{cfg.scenario}: {len(rows)} rows -> {csv_path} "
              f"({runtime:.2f}s)", file=sys.stderr)
    return RunResult(cfg.scenario, csv_path, svg_paths, rows, runtime)
