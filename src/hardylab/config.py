"""Plain-text experiment configs: `key = value` lines under [section] headers.

Deliberately not INI-compatible-by-library: the hand parser keeps line
numbers for every key so config errors can cite them, and values get the
numeric conveniences the experiment files want (2^-3, 2/3, inf).
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

    def get(self, section: str, key: str, default=None, required: bool = False) -> str | None:
        try:
            return self.sections[section][key][0]
        except KeyError:
            if required:
                line = self.section_lines.get(section)
                where = f"{self.path}:{line}" if line else self.path
                raise ConfigError(
                    f"{where}: section [{section}] is missing required key {key!r}"
                ) from None
            return default

    def where(self, section: str, key: str) -> str:
        """path:line of the key, or the path alone when the key is absent."""
        entry = self.sections.get(section, {}).get(key)
        return f"{self.path}:{entry[1]}" if entry else self.path

    def get_number(self, section: str, key: str, default=None, required: bool = False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return default
        try:
            return parse_number(raw)
        except ConfigError:
            raise ConfigError(f"{self.where(section, key)}: bad number for {key!r}: {raw!r}") from None

    def get_list(self, section: str, key: str, parse, default: str | None = None) -> list:
        """parse (parse_number_list or parse_alpha_list) of the value, or of
        default when the key is absent (required when default is None); a
        value that parse rejects raises ConfigError with its line."""
        raw = self.get(section, key, default=default, required=default is None)
        try:
            return parse(raw)
        except ConfigError as e:
            raise ConfigError(f"{self.where(section, key)}: bad list for {key!r}: {raw!r} ({e})") from None

    def get_int(self, section: str, key: str, default=None, required: bool = False,
                minimum: int | None = None):
        """The value as an int; a value that is not a finite integer, or one
        below minimum, raises ConfigError with its line."""
        val = self.get_number(section, key, required=required)
        if val is None:
            return default
        if not (math.isfinite(val) and val.is_integer()) or (minimum is not None and val < minimum):
            floor = "" if minimum is None else f" >= {minimum}"
            raise ConfigError(f"{self.where(section, key)}: {key!r} must be an integer{floor}, "
                              f"got {self.get(section, key)!r}")
        return int(val)

    def get_bool(self, section: str, key: str, default: bool = False) -> bool:
        raw = self.get(section, key)
        if raw is None:
            return default
        if raw.lower() in ("1", "yes", "true", "on"):
            return True
        if raw.lower() in ("0", "no", "false", "off"):
            return False
        raise ConfigError(f"{self.where(section, key)}: bad boolean for {key!r}: {raw!r}")


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


@dataclass
class ExperimentConfig:
    """Validated scenario description driving the harness."""

    scenario: str
    grid: GridSpec
    seed: int
    out_dir: Path
    quiet: bool
    source: ConfigFile

    @classmethod
    def from_file(cls, path, out_dir=None, seed=None, grid_m=None, dim=None,
                  quiet: bool = False) -> "ExperimentConfig":
        cfg = load_config(path)
        if "experiment" not in cfg.sections:
            raise ConfigError(f"{path}: missing [experiment] section")
        scenario = cfg.get("experiment", "scenario", required=True)
        gdim = dim if dim is not None else cfg.get_int("grid", "dim", default=1)
        gm = grid_m if grid_m is not None else cfg.get_int("grid", "m", default=2048)
        gL = cfg.get_number("grid", "L", default=4.0)
        try:
            grid = GridSpec(gdim, gL, gm)
        except ValueError as e:
            raise ConfigError(f"{path}: bad [grid] section: {e}") from None
        the_seed = seed if seed is not None else cfg.get_int("experiment", "seed", default=0)
        out = out_dir or cfg.get("experiment", "out_dir", default=".")
        return cls(scenario=scenario, grid=grid, seed=the_seed,
                   out_dir=Path(out), quiet=quiet, source=cfg)

    def ladder(self, default: str | None = None) -> list[float]:
        """The strictly decreasing [scenario] r_ladder, every r < 1."""
        vals = self.source.get_list("scenario", "r_ladder", parse_number_list, default=default)
        where = self.source.where("scenario", "r_ladder")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise ConfigError(f"{where}: r_ladder must be strictly decreasing")
        if any(v >= 1 for v in vals):
            raise ConfigError(f"{where}: r_ladder requires every r < 1")
        if any(v <= 0 for v in vals):
            raise ConfigError(f"{where}: r_ladder requires every r > 0")
        if not vals:
            raise ConfigError(f"{where}: r_ladder is empty")
        return vals
