"""Plain-text experiment configs: `key = value` lines under [section] headers.

Deliberately not INI-compatible-by-library: the hand parser keeps line
numbers for every key so config errors can cite them, and values get the
numeric conveniences the experiment files want (2^-3, 2/3, inf).

SCENARIO_KEYS declares every section and key a scenario takes, each with its
parser and default. `ExperimentConfig.from_file` applies it before anything
runs: an unknown scenario, section or key, a missing required key and a value
its parser rejects are each a ConfigError that cites path:line. The parsers
check syntax only. A check that needs the grid or another key runs at the top
of the scenario's runner, before any field is made, through
`ExperimentConfig.check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .grid import GridSpec

def parse_number(text: str) -> float:
    """Float with the config conveniences: 2^-3, 2/3, inf."""
    s = text.strip()
    try:
        if s in ("inf", "Inf", "INF"):
            return math.inf
        if "^" in s:
            base, exp = s.split("^", 1)
            return float(base) ** float(parse_number(exp))
        if "/" in s:
            num, den = s.split("/", 1)
            return float(num) / float(den)
        return float(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"cannot parse number {text!r}") from e


def parse_number_list(text: str) -> list[float]:
    items = [t for t in text.replace(";", ",").split(",") if t.strip()]
    return [parse_number(t) for t in items]


def parse_alpha_list(text: str) -> list[tuple[int, ...]]:
    """Multi-indices of nonnegative integers: '0, 1' (dim 1) or
    '(1,0); (0,1)' (dim 2)."""
    s = text.strip()
    if "(" in s:
        chunks = [c.strip().strip(";,").strip().strip("()") for c in s.replace(")", ")|").split("|") if c.strip()]
    else:
        chunks = [c for c in s.replace(";", ",").split(",") if c.strip()]
    try:
        out = [tuple(int(v) for v in c.split(",")) for c in chunks]
    except ValueError:
        raise ConfigError(f"multi-index entries must be integers, got {text!r}") from None
    if any(v < 0 for alpha in out for v in alpha):
        raise ConfigError(f"multi-index entries must be nonnegative, got {text!r}")
    return out


@dataclass
class ConfigFile:
    path: str
    sections: dict[str, dict[str, tuple[str, int]]] = field(default_factory=dict)
    section_lines: dict[str, int] = field(default_factory=dict)

    def where(self, section: str, key: str) -> str:
        """path:line of the key, or the path alone when the key is absent."""
        entry = self.sections.get(section, {}).get(key)
        return f"{self.path}:{entry[1]}" if entry else self.path

    def parsed(self, section: str, keys: dict) -> dict:
        """Every key of keys (key -> (parser, default)) parsed from the
        section, or from its default when absent. An unknown key, a missing
        required key (default None) or a value its parser rejects is a
        ConfigError that cites its line."""
        given = self.sections.get(section, {})
        for key, (_, line) in given.items():
            if key not in keys:
                raise ConfigError(f"{self.path}:{line}: unknown key {key!r} in [{section}]; "
                                  f"it takes {', '.join(keys)}")
        out = {}
        for key, (parse, default) in keys.items():
            where = self.where(section, key)
            raw = given[key][0] if key in given else default
            if raw is None:
                line = self.section_lines.get(section)
                where = f"{self.path}:{line}" if line else self.path
                raise ConfigError(f"{where}: section [{section}] is missing required key {key!r}")
            try:
                out[key] = parse(key, raw)
            except ConfigError as e:
                raise ConfigError(f"{where}: {e}") from None
        return out


def load_config(path) -> ConfigFile:
    cfg = ConfigFile(str(path))
    section = None
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError(f"{path}:{lineno}: empty section header")
            cfg.sections.setdefault(section, {})
            cfg.section_lines.setdefault(section, lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in cfg.sections[section]:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line "
                              f"{cfg.sections[section][key][1]} of [{section}]")
        cfg.sections[section][key] = (value, lineno)
    return cfg


# ---------------------------------------------------------------------------
# value parsers, parse(key, text) -> value: syntax only; a check that needs the
# grid or another key runs in the runner, through ExperimentConfig.check


def string(key: str, raw: str) -> str:
    return raw


def _keyed(parse, what: str):
    """parse(text) as a parser of a key's value: its ConfigError names the key."""

    def parse_key(key: str, raw: str):
        try:
            return parse(raw)
        except ConfigError as e:
            raise ConfigError(f"bad {what} for {key!r}: {raw!r} ({e})") from None

    return parse_key


def _nonempty(parse):
    """parse as the parser of a list that must hold at least one entry."""

    def parse_key(key: str, raw: str) -> list:
        vals = parse(key, raw)
        if not vals:
            raise ConfigError(f"{key} is empty")
        return vals

    return parse_key


number = _keyed(parse_number, "number")
number_list = _nonempty(_keyed(parse_number_list, "list"))
alpha_list = _nonempty(_keyed(parse_alpha_list, "list"))


def integer(floor: int | None = None):
    """The parser of a finite integer, at least floor when one is given."""

    def parse(key: str, raw: str) -> int:
        val = number(key, raw)
        if not (math.isfinite(val) and val.is_integer()) or (floor is not None and val < floor):
            at_least = "" if floor is None else f" >= {floor}"
            raise ConfigError(f"{key!r} must be an integer{at_least}, got {raw!r}")
        return int(val)

    return parse


def r_ladder(key: str, raw: str) -> list[float]:
    """A nonempty, strictly decreasing list of radii in (0, 1)."""
    vals = number_list(key, raw)
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(f"{key} must be strictly decreasing")
    if any(v >= 1 for v in vals):
        raise ConfigError(f"{key} requires every r < 1")
    if any(v <= 0 for v in vals):
        raise ConfigError(f"{key} requires every r > 0")
    return vals


def choice(*options: str, many: bool = False):
    """The parser of one of options, or with many of a comma-separated list of them."""

    def parse(key: str, raw: str):
        vals = [v.strip() for v in raw.split(",")] if many else [raw]
        for v in vals:
            if v not in options:
                raise ConfigError(f"bad {key} {v!r}; choose from {', '.join(options)}")
        return vals if many else raw

    return parse


def operator_params(key: str, raw: str) -> dict[str, float]:
    """`name=number` tokens, separated by commas or blanks."""
    params = {}
    for tok in raw.replace(",", " ").split():
        name, eq, val = tok.partition("=")
        if not eq:
            raise ConfigError(f"bad {key} token {tok!r}")
        try:
            params[name] = parse_number(val)
        except ConfigError as e:
            raise ConfigError(f"bad {key} token {tok!r} ({e})") from None
    return params


# ---------------------------------------------------------------------------
# the keys of every section, per scenario: key -> (parser, default text),
# default None for a required key; a section or key not listed is an error

_RUN_KEYS = {
    "experiment": {"scenario": (string, None), "seed": (integer(0), "0"), "out_dir": (string, ".")},
    "grid": {"dim": (integer(), "1"), "m": (integer(), "2048"), "L": (number, "4")},
}
# the output key every scenario takes; an empty tag names the outputs
# scenario[-operator]
_OUTPUT_KEYS = {"tag": (string, "")}
_OPERATOR_KEYS = {"operator": (string, None), "operator_params": (operator_params, "")}


def _scenario(keys: dict) -> dict:
    return {**_RUN_KEYS, "scenario": {**keys, **_OUTPUT_KEYS}}


SCENARIO_KEYS = {
    "E1-moment-decay": _scenario({
        "mollifier": (string, "gaussian"), "p_values": (number_list, "1, 2/3"),
        "profiles": (choice("indicator", "bump", "random", "atom", many=True), "indicator, bump, random"),
        "r_ladder": (r_ladder, "2^-1, 2^-2, 2^-3, 2^-4, 2^-5, 2^-6, 2^-7, 2^-8")}),
    "E2-grand-maximal-constant": _scenario({
        "p_values": (number_list, "1, 1/2"), "T_ladder": (number_list, "1, 2, 4, 8"),
        "r_large": (number, "1"), "r_small": (number, "0.25"), "n_seeds": (integer(1), "6")}),
    "E3-atom-image": _scenario({
        **_OPERATOR_KEYS, "p": (number, "1"), "s": (number, "2"), "lambda": (number, "2"), "C": (number, "1"),
        "r_ladder": (r_ladder, "2^-2, 2^-3, 2^-4, 2^-5"), "n_seeds": (integer(1), "3")}),
    "E4-cancellation": _scenario({
        **_OPERATOR_KEYS, "p": (number, "1"), "alphas": (alpha_list, "0"),
        "r_ladder": (r_ladder, "2^-2, 2^-3, 2^-4, 2^-5, 2^-6")}),
    "E5-duality": _scenario({
        "n_instances": (integer(1), "10"), "trials": (integer(0), "500"), "degree": (integer(0), "1"),
        "mode": (choice("both", "deterministic", "random"), "both"), "r_values": (number_list, "0.3, 0.5")}),
}


@dataclass
class ExperimentConfig:
    """A validated scenario run: every key parsed by SCENARIO_KEYS, the
    [scenario] keys in params."""

    scenario: str
    grid: GridSpec
    seed: int
    out_dir: Path
    quiet: bool
    source: ConfigFile
    params: dict

    @classmethod
    def from_file(cls, path, out_dir=None, quiet: bool = False) -> "ExperimentConfig":
        cfg = load_config(path)
        experiment = cfg.parsed("experiment", _RUN_KEYS["experiment"])
        scenario = experiment["scenario"]
        if scenario not in SCENARIO_KEYS:
            raise ConfigError(f"{cfg.where('experiment', 'scenario')}: unknown scenario {scenario!r}; "
                              f"choose one of {', '.join(SCENARIO_KEYS)}")
        keys = SCENARIO_KEYS[scenario]
        for section, line in cfg.section_lines.items():
            if section not in keys:
                raise ConfigError(f"{path}:{line}: unknown section [{section}]; "
                                  f"{scenario} takes {', '.join(f'[{s}]' for s in keys)}")
        grid_keys = cfg.parsed("grid", keys["grid"])
        params = cfg.parsed("scenario", keys["scenario"])
        try:
            grid = GridSpec(grid_keys["dim"], grid_keys["L"], grid_keys["m"])
        except ValueError as e:
            raise ConfigError(f"{path}: bad [grid] section: {e}") from None
        return cls(scenario=scenario, grid=grid,
                   seed=experiment["seed"],
                   out_dir=Path(out_dir or experiment["out_dir"]), quiet=quiet, source=cfg,
                   params=params)

    def check(self, key: str, build):
        """build(), with the ValueError it raises on the [scenario] key's
        value turned into a ConfigError that cites the key's line."""
        try:
            return build()
        except ValueError as e:
            raise ConfigError(f"{self.source.where('scenario', key)}: {e}") from None
