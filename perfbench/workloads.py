"""The benchmark's workloads: hardylab experiment configs generated from a seed.

Each workload is a list of configs, each run in a fresh process exactly as
`hardylab run <cfg>` would run it. A config's seed is its listed seed plus the
workload seed S, so S = 0 reproduces the listed seeds (and the reference CSVs
under reference/<workload>/).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    """One experiment config: [experiment] scenario/seed, [grid], [scenario] keys."""

    name: str
    scenario: str
    seed: int
    dim: int
    m: int
    L: str
    params: tuple[tuple[str, str], ...]

    def param(self, key: str, default: str | None = None) -> str | None:
        return dict(self.params).get(key, default)

    @property
    def tag(self) -> str:
        """The CSV stem hardylab derives: the tag key, else scenario[-operator]."""
        tag = self.param("tag")
        if tag is not None:
            return tag
        op = self.param("operator")
        return self.scenario if op is None else f"{self.scenario}-{op}"

    def text(self, workload_seed: int) -> str:
        lines = ["[experiment]", f"scenario = {self.scenario}",
                 f"seed = {self.seed + workload_seed}", "",
                 "[grid]", f"dim = {self.dim}", f"m = {self.m}", f"L = {self.L}", "",
                 "[scenario]"]
        lines += [f"{k} = {v}" for k, v in self.params]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple[Config, ...]
    # spans that must record zero calls in the traced run
    zero_spans: tuple[str, ...] = ()


def _e4_1d(name, operator, p, alphas, ladder):
    return Config(name, "E4-cancellation", 7, 1, 8192, "4.0",
                  (("operator", operator), ("p", p), ("alphas", alphas),
                   ("r_ladder", ladder), ("tag", name)))


BATTERY_1D = Workload(
    "battery-1d",
    "the 8 shipped 1-d configs as a lab user runs them; the only workload where "
    "process set-up is about half the wall time; E5 projections and E1 convolutions dominate",
    (
        Config("e1_moment_decay", "E1-moment-decay", 3, 1, 8192, "4.0",
               (("p_values", "1, 2/3"), ("profiles", "indicator, bump, random"),
                ("r_ladder", "2^-1, 2^-2, 2^-3, 2^-4, 2^-5, 2^-6, 2^-7, 2^-8"))),
        Config("e2_grand_maximal", "E2-grand-maximal-constant", 1, 1, 2048, "16",
               (("p_values", "1, 1/2"), ("T_ladder", "1, 2, 4, 8"), ("r_large", "1.0"),
                ("r_small", "0.25"), ("n_seeds", "6"))),
        Config("e3_atom_image_gaussian", "E3-atom-image", 2, 1, 4096, "4.0",
               (("operator", "gaussian"), ("operator_params", "width=0.01"), ("p", "1"),
                ("s", "2"), ("lambda", "2"), ("r_ladder", "2^-2, 2^-3, 2^-4, 2^-5"),
                ("n_seeds", "3"))),
        _e4_1d("e4-gaussian-p1", "gaussian", "1", "0", "2^-2, 2^-3, 2^-4, 2^-5, 2^-6"),
        _e4_1d("e4-gaussian-phalf", "gaussian", "1/2", "0, 1", "2^-2, 2^-3, 2^-4, 2^-5, 2^-6"),
        _e4_1d("e4-riesz-p1", "riesz", "1", "0", "2^-3, 2^-4, 2^-5"),
        _e4_1d("e4-sign-p1", "sign-mult", "1", "0", "2^-2, 2^-3, 2^-4, 2^-5, 2^-6, 2^-7"),
        Config("e5_duality", "E5-duality", 5, 1, 2048, "4.0",
               (("n_instances", "10"), ("trials", "500"), ("degree", "1"), ("mode", "both"),
                ("r_values", "0.3, 0.5"))),
    ),
)

SPECTRAL_2D = Workload(
    "spectral-2d",
    "2-d maximal functions: padded convolutions and the mollifier kernel cache, "
    "almost no ball projections",
    (
        Config("e1_moment_decay_2d", "E1-moment-decay", 3, 2, 256, "4.0",
               (("p_values", "1, 2/3"), ("profiles", "indicator, bump, random"),
                ("r_ladder", "2^-1, 2^-2, 2^-3, 2^-4"))),
        Config("e2_grand_maximal_2d", "E2-grand-maximal-constant", 1, 2, 256, "16",
               (("p_values", "1, 1/2"), ("T_ladder", "1, 2, 4, 8"), ("r_large", "1.0"),
                ("r_small", "0.5"), ("n_seeds", "3"))),
    ),
)

_LADDER_2D = "2^-2, 2^-3, 2^-4, 2^-5"

DUALITY_2D = Workload(
    "duality-2d",
    "2-d ball projections, Monte-Carlo dual norms and unpadded multipliers; "
    "no padded convolution at all",
    (
        Config("e5_duality_2d", "E5-duality", 5, 2, 256, "4.0",
               (("n_instances", "4"), ("trials", "100"), ("degree", "2"), ("mode", "both"),
                ("r_values", "0.3, 0.5"))),
        Config("e4-gaussian-2d", "E4-cancellation", 7, 2, 512, "4.0",
               (("operator", "gaussian"), ("p", "1/2"), ("alphas", "(0,0); (1,0); (0,1)"),
                ("r_ladder", _LADDER_2D), ("tag", "e4-gaussian-2d"))),
        Config("e4-sign-2d", "E4-cancellation", 7, 2, 512, "4.0",
               (("operator", "sign-mult"), ("p", "1"), ("alphas", "(0,0)"),
                ("r_ladder", _LADDER_2D), ("tag", "e4-sign-2d"))),
    ),
    zero_spans=("grid.convolve", "grid.padded_convolution", "maximal.small_maximal",
                "maximal.grand_maximal"),
)

WORKLOADS = {w.name: w for w in (BATTERY_1D, SPECTRAL_2D, DUALITY_2D)}


# ---------------------------------------------------------------------------
# what a correct run of a config produces


def number(text: str) -> float:
    """A config number: 2^-3, 2/3, inf or a plain float."""
    s = text.strip()
    if s.lower() == "inf":
        return math.inf
    if "^" in s:
        base, exp = s.split("^", 1)
        return float(base) ** number(exp)
    if "/" in s:
        num, den = s.split("/", 1)
        return float(num) / float(den)
    return float(s)


def numbers(text: str) -> list[float]:
    return [number(t) for t in text.replace(";", ",").split(",") if t.strip()]


def moment_orders(p: float, dim: int) -> int:
    """Number of multi-indices |alpha| <= N_p, N_p = floor(dim (1/p - 1))."""
    g = dim * (1.0 / p - 1.0)
    if abs(g - round(g)) <= 1e-9 * max(1.0, abs(g)):
        g = round(g)
    return math.comb(int(math.floor(g)) + dim, dim)


def expected_rows(cfg: Config) -> int:
    s = cfg.scenario
    if s == "E1-moment-decay":
        n_r = len(numbers(cfg.param("r_ladder")))
        n_prof = len([t for t in cfg.param("profiles").split(",") if t.strip()])
        return sum(n_prof * (n_r + 1) * moment_orders(p, cfg.dim)
                   for p in numbers(cfg.param("p_values")))
    if s == "E2-grand-maximal-constant":
        n_t = len(numbers(cfg.param("T_ladder")))
        return (len(numbers(cfg.param("p_values"))) + 1) * (n_t + 1)
    if s == "E3-atom-image":
        return (len(numbers(cfg.param("r_ladder"))) * int(cfg.param("n_seeds"))
                * moment_orders(number(cfg.param("p")), cfg.dim))
    if s == "E4-cancellation":
        alphas = cfg.param("alphas")
        n_alpha = alphas.count("(") or len(numbers(alphas))
        return len(numbers(cfg.param("r_ladder"))) * n_alpha
    if s == "E5-duality":
        return int(cfg.param("n_instances")) * (2 if cfg.param("mode") == "both" else 1)
    raise ValueError(f"unknown scenario {s!r}")
