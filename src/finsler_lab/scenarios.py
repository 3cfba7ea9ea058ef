"""Scenario files, chart building, and the built-in example registry.

A scenario file is UTF-8 text with top-level ``name``/``dimension`` keys and
``[domain] [metric] [field] [numerics]`` sections; every functional entry
(metric matrix, wind components, the scalar field) is an expression in the
chart variables. One file describes one chart. Built-in examples are stored
as canonical file texts so they parse, validate and round-trip exactly like
user scenarios; the sphere example attaches two extra polar-cap charts plus
analytic cross-chart maps used by the overlap consistency checks.

A built-in example's charts are parsed, validated and built on first use, so
a call pays only for the charts it reads; a user scenario file is parsed and
validated and its one chart built when it is loaded.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .calculus import ScalarField
from .domains import BoxDomain, DiscDomain, Domain
from .errors import LevelNotFound, ParseError, ValidationError
from .expressions import VARIABLES, Const, Expr, compile_expression, compile_rows, parse_expression
from .metrics import (
    WIND_NORM_MARGIN, Metric, RandersMetric, RiemannianMetric, _rows_of, _wind_rows,
)

_VALIDATION_GRID = 13
# the largest probe or sample count a run may ask for: a larger one builds points
# (or an array of them) that no run finishes
MAX_COUNT = 10**6
# the [domain] keys each domain kind takes
_DOMAIN_KIND_KEYS = {
    "box": ("kind", "lower", "upper"),
    "disc": ("kind", "radius", "center"),
    "sphere-chart": ("kind", "radius", "center"),
}
# the keys each section takes ("" is the header); any other key is a ParseError
_SECTION_KEYS = {
    "": ("name", "dimension"),
    "domain": tuple(dict.fromkeys(k for keys in _DOMAIN_KIND_KEYS.values() for k in keys)),
    "metric": ("kind", "h", "wind"),
    "field": ("f",),
    "numerics": ("step", "probes", "tolerance"),
}


@dataclass(frozen=True)
class Numerics:
    step: float = 1e-3
    probes: int = 32
    tolerance: float = 1e-6


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative single-chart scenario, 1-1 with its file text."""

    name: str
    dimension: int
    domain_kind: str  # box | disc | sphere-chart
    domain_params: Dict[str, Tuple[float, ...]]
    metric_kind: str  # riemannian | randers
    h_entries: List[List[Expr]]
    wind_entries: Optional[List[Expr]]
    field_expr: Expr
    numerics: Numerics


@dataclass(frozen=True, eq=False)
class Chart:
    """Runtime bundle: metric/field/domain built from one config."""

    name: str
    metric: Metric
    field: ScalarField
    domain: Domain
    numerics: Numerics
    config: ScenarioConfig


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    description: str
    charts: Mapping[str, Chart]
    default_chart: str
    critical_charts: Tuple[str, ...] = ()
    known_b: Optional[Callable[[float], float]] = None
    known_b_label: str = ""
    # defaults of the level-based verbs: check-partition's levels, and the
    # (from, to) range of verify-distance and check-parallel
    partition_levels: Tuple[float, ...] = ()
    distance_range: Tuple[Optional[float], Optional[float]] = (None, None)
    level_parametrizations: Dict[str, Callable[[float, float], np.ndarray]] = field(
        default_factory=dict
    )
    chart_maps: Tuple[Tuple[str, str, Callable[[np.ndarray], np.ndarray]], ...] = ()

    @property
    def chart(self) -> Chart:
        return self.charts[self.default_chart]

    def level_parametrization(self, chart_name=None):
        return self.level_parametrizations.get(chart_name or self.default_chart)


# ---------------------------------------------------------------------------
# parsing


def _split_top_level(text, sep=","):
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario file."""
    sections: Dict[str, Dict[str, Tuple[str, int]]] = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno, len(line))
            current = line[1:-1].strip().lower()
            if not current or current not in _SECTION_KEYS:
                raise ParseError(f"unknown section '[{current}]'", lineno, 1)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno, 1)
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if key not in _SECTION_KEYS[current]:
            raise ParseError(f"unknown key '{key}' in [{current or 'header'}]", lineno, 1)
        if not value:
            raise ParseError(f"empty value for '{key}'", lineno, len(raw))
        if key in sections[current]:
            raise ParseError(f"duplicate key '{key}'", lineno, 1)
        # the column of the value's first character, for errors inside it
        column = len(raw) - len(raw[raw.index("=") + 1:].lstrip()) + 1
        sections[current][key] = (value, (lineno, column))
    return _config_from_sections(sections)


def _take(sections, section, key, default=None, required=False):
    entry = sections.get(section, {}).get(key)
    if entry is None:
        if required:
            raise ValidationError(f"missing '{key}' in [{section or 'header'}]")
        return default
    return entry[0]


def _take_at(sections, section, key):
    """The (line, column) of a key's value."""
    return sections[section][key][1]


def _numbers(text, key, kind=float, size=None):
    """The comma list of a key's value as finite numbers of the kind (``size`` of them, if
    given); else a ``ValidationError`` naming the key."""
    try:
        values = tuple(map(kind, text.split(",")))
    except ValueError:
        values = ()
    if not values or not all(map(math.isfinite, values)) or size not in (None, len(values)):
        what = "an integer" if kind is int else "a finite number" if size == 1 else "finite numbers"
        raise ValidationError(f"'{key}' must be {what}, got '{text}'")
    return values


def _split_at(text, column, sep=","):
    """``_split_top_level`` of a value, each part with the file column it starts at, given
    the column of the value's first character."""
    parts = []
    for part in _split_top_level(text, sep):
        parts.append((part, column))
        column += len(part) + 1
    return parts


def _parse_expr_at(text, at):
    """The expression text whose first character is at the file's (line, column); a
    ``ParseError`` is reported at the file's line and column."""
    try:
        return parse_expression(text)
    except ParseError as exc:
        line, column = at
        if exc.column is not None:
            column += exc.column - 1
        raise ParseError(f"in expression '{text.strip()}': {exc.message}", line, column) from None


def _config_from_sections(sections) -> ScenarioConfig:
    name = _take(sections, "", "name", required=True)
    dim_text = _take(sections, "", "dimension", required=True)
    try:
        dimension = int(dim_text)
    except ValueError:
        raise ValidationError(f"dimension must be an integer, got '{dim_text}'") from None
    if not 1 <= dimension <= 3:
        raise ValidationError(f"dimension must be 1, 2 or 3, got {dimension}")

    domain_kind = _take(sections, "domain", "kind", required=True).lower()
    if domain_kind not in _DOMAIN_KIND_KEYS:
        raise ValidationError(f"unknown domain kind '{domain_kind}'")
    for key, (_, (lineno, _)) in sections["domain"].items():
        if key not in _DOMAIN_KIND_KEYS[domain_kind]:
            raise ParseError(
                f"key '{key}' does not apply to domain kind '{domain_kind}'", lineno, 1
            )
    params: Dict[str, Tuple[float, ...]] = {}
    if domain_kind == "box":
        lower = _take(sections, "domain", "lower", required=True)
        upper = _take(sections, "domain", "upper", required=True)
        params["lower"], params["upper"] = _numbers(lower, "lower"), _numbers(upper, "upper")
        if len(params["lower"]) != dimension or len(params["upper"]) != dimension:
            raise ValidationError("box bounds must match the dimension")
        if any(lo >= hi for lo, hi in zip(params["lower"], params["upper"])):
            raise ValidationError("box lower bounds must be below upper bounds")
    else:
        [radius] = _numbers(_take(sections, "domain", "radius", required=True), "radius", size=1)
        if radius <= 0:
            raise ValidationError("domain radius must be positive")
        if domain_kind == "sphere-chart" and radius >= 1.0:
            raise ValidationError("sphere-chart radius must stay below 1")
        params["radius"] = (radius,)
        center = _take(sections, "domain", "center")
        if center is not None:
            cc = _numbers(center, "center")
            if len(cc) != dimension:
                raise ValidationError("domain center must match the dimension")
            params["center"] = cc

    metric_kind = _take(sections, "metric", "kind", required=True).lower()
    if metric_kind not in ("riemannian", "randers"):
        raise ValidationError(f"unknown metric kind '{metric_kind}'")
    h_text = _take(sections, "metric", "h", required=True)
    line, column = _take_at(sections, "metric", "h")
    h_entries = [[_parse_expr_at(e, (line, c)) for e, c in _split_at(row, start)]
                 for row, start in _split_at(h_text, column, ";")]
    if len(h_entries) != dimension or any(len(r) != dimension for r in h_entries):
        raise ValidationError(f"h must be a {dimension}x{dimension} expression matrix")
    wind_entries = None
    if metric_kind == "randers":
        wind_text = _take(sections, "metric", "wind", required=True)
        line, column = _take_at(sections, "metric", "wind")
        wind_entries = [_parse_expr_at(e, (line, c)) for e, c in _split_at(wind_text, column)]
        if len(wind_entries) != dimension:
            raise ValidationError(f"wind must have {dimension} components")
    elif _take(sections, "metric", "wind") is not None:
        raise ValidationError("riemannian metrics take no wind")

    field_text = _take(sections, "field", "f", required=True)
    field_expr = _parse_expr_at(field_text, _take_at(sections, "field", "f"))

    def number(key, default, kind=float):
        return _numbers(_take(sections, "numerics", key, default=default), key, kind, size=1)[0]

    numerics = Numerics(step=number("step", "1e-3"), probes=number("probes", "32", int),
                        tolerance=number("tolerance", "1e-6"))
    if numerics.step <= 0 or numerics.probes < 1 or numerics.tolerance <= 0:
        raise ValidationError("numerics values must be positive")
    if numerics.probes > MAX_COUNT:
        raise ValidationError(
            f"numerics probes must be at most {MAX_COUNT}, got {numerics.probes}")

    config = ScenarioConfig(
        name=name,
        dimension=dimension,
        domain_kind=domain_kind,
        domain_params=params,
        metric_kind=metric_kind,
        h_entries=h_entries,
        wind_entries=wind_entries,
        field_expr=field_expr,
        numerics=numerics,
    )
    _validate_config(config)
    return config


def _validate_config(config: ScenarioConfig):
    allowed = set(VARIABLES[: config.dimension])
    exprs = [e for row in config.h_entries for e in row] + [config.field_expr]
    if config.wind_entries:
        exprs += list(config.wind_entries)
    for e in exprs:
        extra = e.variables() - allowed
        if extra:
            raise ValidationError(
                f"expression '{e}' uses variables {sorted(extra)} beyond dimension"
                f" {config.dimension}"
            )
    domain = build_domain(config)
    samples = domain.sample_grid(_VALIDATION_GRID)
    n = config.dimension
    h, w = [e for row in config.h_entries for e in row], list(config.wind_entries or ())
    # one generated call for all samples (per field and sample if one is
    # undefined); the checks then take every sample at once. A sample fails at
    # its first failing check, in the order: h undefined, h asymmetric, h not
    # positive definite, wind undefined; the first failing sample is reported.
    fields = [(compile_expression(e, n), s) for e, s in ((h, (n, n)), (w, (n,))) if e]
    (H, *wind), undefined = _rows_of(samples, *fields, rows=compile_rows(h + w, n))
    asymmetric = np.flatnonzero((H != H.transpose(0, 2, 1)).any(axis=(1, 2)))
    symmetric = len(H) if asymmetric.size == 0 else asymmetric[0]
    eigs = np.linalg.eigvalsh(H[:symmetric])
    indefinite = np.flatnonzero(eigs.min(axis=1) <= 0.0)
    if indefinite.size:
        i = indefinite[0]
        raise ValidationError(
            f"h is not positive definite at {samples[i]} (eigenvalues {eigs[i]})"
        )
    if asymmetric.size:
        raise ValidationError(f"h is not symmetric at {samples[asymmetric[0]]}")
    if undefined is not None:
        raise undefined
    if w:
        # h(W, W) summed as the kernels sum it, refused at their bound
        _, hww = _wind_rows(H, *wind)
        # fmax, like a running max(), passes over nan
        worst_wind = float(np.fmax.reduce(hww, initial=0.0))
        if worst_wind >= 1.0 - WIND_NORM_MARGIN:
            raise ValidationError(f"wind norm exceeds 1 - {WIND_NORM_MARGIN!r}: "
                                  f"max sampled h(W,W) = {worst_wind}")


def render_scenario(config: ScenarioConfig) -> str:
    """Canonical file text; parse(render(parse(t))) is a fixed point."""
    lines = [f"name = {config.name}", f"dimension = {config.dimension}", ""]
    lines.append("[domain]")
    lines.append(f"kind = {config.domain_kind}")
    if config.domain_kind == "box":
        lines.append("lower = " + ", ".join(repr(v) for v in config.domain_params["lower"]))
        lines.append("upper = " + ", ".join(repr(v) for v in config.domain_params["upper"]))
    else:
        lines.append(f"radius = {config.domain_params['radius'][0]!r}")
        if "center" in config.domain_params:
            lines.append(
                "center = " + ", ".join(repr(v) for v in config.domain_params["center"])
            )
    lines.append("")
    lines.append("[metric]")
    lines.append(f"kind = {config.metric_kind}")
    lines.append(
        "h = " + " ; ".join(", ".join(str(e) for e in row) for row in config.h_entries)
    )
    if config.wind_entries:
        lines.append("wind = " + ", ".join(str(e) for e in config.wind_entries))
    lines.append("")
    lines.append("[field]")
    lines.append(f"f = {config.field_expr}")
    lines.append("")
    lines.append("[numerics]")
    lines.append(f"step = {config.numerics.step!r}")
    lines.append(f"probes = {config.numerics.probes}")
    lines.append(f"tolerance = {config.numerics.tolerance!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# building


def build_domain(config: ScenarioConfig) -> Domain:
    if config.domain_kind == "box":
        return BoxDomain(config.domain_params["lower"], config.domain_params["upper"])
    radius = config.domain_params["radius"][0]
    center = config.domain_params.get("center")
    if center is None:
        center = np.zeros(config.dimension)
    return DiscDomain(radius=radius, center=np.asarray(center, dtype=float))


def _flat_field(entries: List[Expr], dim):
    """The entries' values at a point in one generated call, or once if none reads a coordinate."""
    fn = compile_expression(entries, dim)
    if not any(e.variables() for e in entries):
        values = fn(np.zeros(dim))
        return lambda x: values
    return fn


def build_metric(config: ScenarioConfig) -> Metric:
    n = config.dimension
    h = [e for row in config.h_entries for e in row]
    riemannian = config.metric_kind == "riemannian"
    # a Riemannian chart is the Randers chart of zero wind
    w = [Const(0.0)] * n if riemannian else list(config.wind_entries)
    # each entry's derivative in each coordinate, the coordinate index first
    dh, dw = ([e.diff(VARIABLES[k]) for k in range(n) for e in f] for f in (h, w))
    # (h, W) in one generated call per point, and at a stack of points; the stage and the
    # inverse are generated from the trees, and read the checked (h, W, dh, dW) or (h, W)
    # call only where an entry fails
    trees = (*h, *w, *dh, *dw)
    return (RiemannianMetric if riemannian else RandersMetric)(
        _flat_field(h + w, n), n, compile_expression(trees, n), rows=compile_rows(h + w, n),
        trees=trees)


def build_chart(config: ScenarioConfig, name: str = "main") -> Chart:
    return Chart(
        name=name,
        metric=build_metric(config),
        field=ScalarField.from_expression(config.field_expr, config.dimension),
        domain=build_domain(config),
        numerics=config.numerics,
        config=config,
    )


class _Charts(Mapping):
    """Read-only chart name -> Chart, built from its file text on first read and kept."""

    def __init__(self, texts: Dict[str, str]):
        self._texts = texts
        self._built: Dict[str, Chart] = {}

    def __getitem__(self, name: str) -> Chart:
        if name not in self._built:
            self._built[name] = build_chart(parse_scenario(self._texts[name]), name)
        return self._built[name]

    def __contains__(self, name) -> bool:  # a key test builds nothing
        return name in self._texts

    def __iter__(self):
        return iter(self._texts)

    def __len__(self) -> int:
        return len(self._texts)


def build_scenario(config: ScenarioConfig) -> Scenario:
    return Scenario(
        name=config.name,
        description="user scenario",
        charts=MappingProxyType({"main": build_chart(config)}),
        default_chart="main",
    )


# ---------------------------------------------------------------------------
# built-in registry


_EUCLIDEAN_LINEAR_TEXT = """\
name = euclidean-linear
dimension = 2

[domain]
kind = box
lower = -2.0, -2.0
upper = 2.0, 2.0

[metric]
kind = riemannian
h = 1, 0 ; 0, 1

[field]
f = x

[numerics]
step = 1e-3
probes = 16
tolerance = 1e-6
"""


def _minkowski_text(wind_norm: float) -> str:
    lam = 1.0 - wind_norm**2
    f = f"(sqrt({lam!r} * (x^2 + y^2) + {wind_norm**2!r} * x^2) - {wind_norm!r} * x) / {lam!r}"
    return f"""\
name = minkowski-randers-distance
dimension = 2

[domain]
kind = disc
radius = 4.5

[metric]
kind = randers
h = 1, 0 ; 0, 1
wind = {wind_norm!r}, 0

[field]
f = {f}

[numerics]
step = 1e-3
probes = 32
tolerance = 1e-6
"""


_DISC_RADIAL_TEXT = """\
name = disc-radial
dimension = 2

[domain]
kind = disc
radius = 0.9

[metric]
kind = randers
h = 1, 0 ; 0, 1
wind = x, y

[field]
f = x^2 + y^2

[numerics]
step = 1e-3
probes = 32
tolerance = 1e-6
"""

# rotationally invariant wind 0.5 * d/dphi; theta in (1e-4, pi - 1e-4)
_SPHERE_BAND_TEXT = """\
name = randers-sphere-height
dimension = 2

[domain]
kind = box
lower = 1e-4, -10.0
upper = 3.1414926535897932, 10.0

[metric]
kind = randers
h = 1, 0 ; 0, sin(x)^2
wind = 0, 0.5

[field]
f = cos(x)

[numerics]
step = 1e-3
probes = 32
tolerance = 1e-6
"""

_SPHERE_NORTH_CAP_TEXT = """\
name = randers-sphere-height-north-cap
dimension = 2

[domain]
kind = sphere-chart
radius = 0.8

[metric]
kind = randers
h = 1 + x^2 / (1 - x^2 - y^2), x * y / (1 - x^2 - y^2) ; x * y / (1 - x^2 - y^2), 1 + y^2 / (1 - x^2 - y^2)
wind = -0.5 * y, 0.5 * x

[field]
f = sqrt(1 - x^2 - y^2)

[numerics]
step = 1e-3
probes = 32
tolerance = 1e-6
"""

_SPHERE_SOUTH_CAP_TEXT = _SPHERE_NORTH_CAP_TEXT.replace(
    "name = randers-sphere-height-north-cap",
    "name = randers-sphere-height-south-cap",
).replace("f = sqrt(1 - x^2 - y^2)", "f = -sqrt(1 - x^2 - y^2)")


def _band_to_north_cap(p):
    theta, phi = p
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)])


def _band_to_south_cap(p):
    theta, phi = p
    # south chart is the orthographic projection seen from below; x keeps
    # its sign, y flips so the chart stays orientation-consistent
    return np.array([math.sin(theta) * math.cos(phi), -math.sin(theta) * math.sin(phi)])


def _build_euclidean_linear() -> Scenario:
    spread = 3.6

    def level_param(c, s):
        return np.array([c, -1.8 + spread * s])

    return Scenario(
        name="euclidean-linear",
        description="Euclidean plane with a linear function; trivial reference",
        charts=_Charts(_TEXTS["euclidean-linear"]),
        default_chart="main",
        known_b=lambda t: 1.0,
        known_b_label="1",
        partition_levels=(-0.5, 0.0, 0.5),
        distance_range=(-0.5, 0.5),
        level_parametrizations={"main": level_param},
    )


def minkowski_randers_distance(wind_norm: float = 0.5) -> Scenario:
    """Constant-wind Minkowski plane with its forward distance from 0."""
    if not 0.0 < wind_norm < 1.0:
        raise ValidationError("wind_norm must lie in (0, 1)")

    def level_param(c, s):
        ang = 2.0 * math.pi * s
        return c * np.array([wind_norm + math.cos(ang), math.sin(ang)])

    return Scenario(
        name="minkowski-randers-distance",
        description=f"Minkowski Randers norm distance from the origin, |W| = {wind_norm}",
        charts=_Charts({"main": _minkowski_text(wind_norm)}),
        default_chart="main",
        known_b=lambda t: 1.0,
        known_b_label="1",
        partition_levels=(1.0, 1.5, 2.0),
        distance_range=(1.0, 2.0),
        level_parametrizations={"main": level_param},
    )


def _build_disc_radial() -> Scenario:
    def known_b(t):
        return (2.0 * math.sqrt(t) + 2.0 * t) ** 2

    def level_param(c, s):
        if c < 0.0:
            raise LevelNotFound(f"level {c} lies outside [0, inf), the range of f = x^2 + y^2")
        ang = 2.0 * math.pi * s
        r = math.sqrt(c)
        return r * np.array([math.cos(ang), math.sin(ang)])

    return Scenario(
        name="disc-radial",
        description="unit-disc Randers metric with radial wind and f = x^2 + y^2",
        charts=_Charts(_TEXTS["disc-radial"]),
        default_chart="main",
        critical_charts=("main",),
        known_b=known_b,
        known_b_label="(2*sqrt(t) + 2*t)^2",
        partition_levels=(0.04, 0.16, 0.36),
        distance_range=(0.04, 0.25),
        level_parametrizations={"main": level_param},
    )


def _build_sphere_height() -> Scenario:
    def level_param(c, s):
        if not -1.0 <= c <= 1.0:
            raise LevelNotFound(f"level {c} lies outside [-1, 1], the range of f = cos(x)")
        return np.array([math.acos(c), 2.0 * math.pi * s])

    def cap_level_param_north(c, s):
        ang = 2.0 * math.pi * s
        r = math.sqrt(max(0.0, 1.0 - c * c))
        return r * np.array([math.cos(ang), math.sin(ang)])

    def cap_level_param_south(c, s):
        ang = 2.0 * math.pi * s
        r = math.sqrt(max(0.0, 1.0 - c * c))
        return r * np.array([math.cos(ang), -math.sin(ang)])

    return Scenario(
        name="randers-sphere-height",
        description="round sphere with rotational Killing wind and height function",
        charts=_Charts(_TEXTS["randers-sphere-height"]),
        default_chart="band",
        critical_charts=("north-cap", "south-cap"),
        known_b=lambda t: 1.0 - t * t,
        known_b_label="1 - t^2",
        partition_levels=(-0.5, 0.0, 0.5),
        distance_range=(0.0, 1.0 - 1e-6),
        level_parametrizations={
            "band": level_param,
            "north-cap": cap_level_param_north,
            "south-cap": cap_level_param_south,
        },
        chart_maps=(
            ("band", "north-cap", _band_to_north_cap),
            ("band", "south-cap", _band_to_south_cap),
        ),
    )


_REGISTRY: Dict[str, Callable[[], Scenario]] = {
    "euclidean-linear": _build_euclidean_linear,
    "minkowski-randers-distance": minkowski_randers_distance,
    "disc-radial": _build_disc_radial,
    "randers-sphere-height": _build_sphere_height,
}

_TEXTS: Dict[str, Dict[str, str]] = {
    "euclidean-linear": {"main": _EUCLIDEAN_LINEAR_TEXT},
    "minkowski-randers-distance": {"main": _minkowski_text(0.5)},
    "disc-radial": {"main": _DISC_RADIAL_TEXT},
    "randers-sphere-height": {
        "band": _SPHERE_BAND_TEXT,
        "north-cap": _SPHERE_NORTH_CAP_TEXT,
        "south-cap": _SPHERE_SOUTH_CAP_TEXT,
    },
}


def list_examples() -> List[str]:
    return sorted(_REGISTRY)


def load_example(name: str) -> Scenario:
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown example '{name}'; available: {', '.join(list_examples())}"
        ) from None
    return builder()


def example_texts(name: str) -> Dict[str, str]:
    """Canonical scenario file text per chart of a registry example."""
    if name not in _TEXTS:
        raise ValidationError(f"unknown example '{name}'")
    return dict(_TEXTS[name])
