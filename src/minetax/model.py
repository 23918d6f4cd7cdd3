"""Core data types and evaluation functions for the mining taxation game.

Two models live here: the single-period analytical model (quadratic cost,
linear demand, linear damage) and the multi-period extended model with
technology choice, quadratic extraction-rate costs and a piecewise-linear
cumulative extraction/purification cost over geological strata.

All evaluation functions are pure; parameter objects are immutable.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence


def _require_finite(what: str, values: Iterable[float]) -> None:
    # JSON accepts NaN and Infinity, and every comparison with NaN is false
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite")


@dataclass(frozen=True)
class AnalyticalParams:
    """Constants of the single-period model.

    alpha: price intercept, beta: price slope, delta: quadratic cost
    coefficient, gamma: linear cost coefficient, phi: fixed cost,
    k: pollution coefficient (damage per unit extracted).
    """

    alpha: float = 100.0
    beta: float = 1.0
    delta: float = 1.0
    gamma: float = 1.0
    phi: float = 0.0
    k: float = 1.0

    def __post_init__(self):
        _require_finite(
            "analytical parameters",
            (self.alpha, self.beta, self.delta, self.gamma, self.phi, self.k),
        )
        if self.alpha <= 0 or self.beta <= 0 or self.delta <= 0:
            raise ValueError("alpha, beta, delta must be positive")
        # k = 0 is permitted: a revenue-only regulator is a useful
        # degenerate case
        if self.gamma < 0 or self.phi < 0 or self.k < 0:
            raise ValueError("gamma, phi and k must be nonnegative")
        if self.alpha <= self.gamma:
            raise ValueError("alpha must exceed gamma (no profitable extraction)")


@dataclass(frozen=True)
class TechParams:
    """One technology alternative: pollution coefficient and cost structure.

    slopes[m] is the marginal extraction/purification cost while mining
    stratum m+1; the slopes must be nondecreasing.
    """

    tech_id: int
    k: float
    alpha_er: float
    beta_er: float
    gamma_er: float
    slopes: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "slopes", tuple(float(s) for s in self.slopes))
        _require_finite(
            "technology parameters",
            (self.k, self.alpha_er, self.beta_er, self.gamma_er) + self.slopes,
        )
        # k = 0, a technology that does no damage, as in AnalyticalParams
        if self.k < 0:
            raise ValueError("pollution coefficient k must be nonnegative")
        if min(self.alpha_er, self.beta_er, self.gamma_er) < 0:
            raise ValueError("cost coefficients must be nonnegative")
        # slope 0 is allowed so the analytical model embeds as a degenerate
        # single-stratum instance
        if any(s < 0 for s in self.slopes):
            raise ValueError("stratum slopes must be nonnegative")
        if not self.slopes:
            raise ValueError("at least one stratum slope required")
        # strata get dearer with depth, so the cumulative cost is convex:
        # every follower solver and the grid oracle's certificate rest on it
        if any(a > b for a, b in zip(self.slopes, self.slopes[1:])):
            raise ValueError(
                f"technology {self.tech_id}: stratum slopes must be nondecreasing"
            )


@dataclass(frozen=True)
class StrataTable:
    """Amounts of ore per stratum and the derived cumulative breakpoints."""

    amounts: tuple[float, ...]
    breakpoints: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "amounts", tuple(float(a) for a in self.amounts))
        _require_finite("stratum amounts", self.amounts)
        if not self.amounts or any(a <= 0 for a in self.amounts):
            raise ValueError("stratum amounts must be positive")
        cum = []
        total = 0.0
        for a in self.amounts:
            total += a
            cum.append(total)
        object.__setattr__(self, "breakpoints", tuple(cum))

    @property
    def stock(self) -> float:
        return self.breakpoints[-1]

    @functools.cached_property
    def starts(self) -> tuple[float, ...]:
        """(0, b_1, ..., b_{M-1}, inf): where each stratum starts, and inf
        for the one past the last. Computed once per table."""
        return (0.0,) + self.breakpoints[:-1] + (math.inf,)

    def active_stratum(self, x: float) -> int:
        """1-based stratum index containing cumulative extraction x.

        Beyond the last breakpoint the last stratum index is reported.
        """
        if x < 0:
            raise ValueError("cumulative extraction must be nonnegative")
        for i, b in enumerate(self.breakpoints):
            if x <= b:
                return i + 1
        return len(self.amounts)


@dataclass(frozen=True)
class Dominance:
    """`dominator` is no dearer than `tech` in alpha_er, beta_er, gamma_er
    and every stratum slope, and cheaper in at least one of them.

    On every schedule, then, `tech` costs at least `fixed_gap` (the gamma_er
    gap) more per period and at least `unit_gap` (the beta_er gap plus the
    least slope gap) more per unit extracted, each discounted as the
    profit is, so the mine earns at least as much with `dominator` at
    every tax.
    """

    tech: TechParams
    dominator: TechParams
    fixed_gap: float
    unit_gap: float


@dataclass(frozen=True)
class ExtendedModel:
    """Multi-period model: per-period prices, technologies, strata, bounds."""

    T: int
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    techs: tuple[TechParams, ...]
    strata: StrataTable
    r: float = 0.0
    tau_bounds: Optional[tuple[tuple[float, float], ...]] = None
    q_bounds: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "techs", tuple(self.techs))
        if self.T < 1:
            raise ValueError("horizon T must be at least 1")
        if len(self.alpha) != self.T or len(self.beta) != self.T:
            raise ValueError("alpha and beta must have length T")
        _require_finite("alpha, beta and r", self.alpha + self.beta + (self.r,))
        if any(b <= 0 for b in self.beta):
            raise ValueError("price slopes beta_t must be positive")
        if self.r < 0:
            raise ValueError("discount rate must be nonnegative")
        if not self.techs:
            raise ValueError("at least one technology required")
        if len({t.tech_id for t in self.techs}) != len(self.techs):
            raise ValueError("technology ids must be unique")
        if any(len(t.slopes) != len(self.strata.amounts) for t in self.techs):
            raise ValueError("each technology needs one slope per stratum")
        # default decision-variable boxes: taxes up to the price intercept,
        # extraction up to the revenue-maximizing quantity
        if self.tau_bounds is None:
            object.__setattr__(
                self, "tau_bounds", tuple((0.0, a) for a in self.alpha)
            )
        else:
            object.__setattr__(
                self,
                "tau_bounds",
                tuple((float(lo), float(hi)) for lo, hi in self.tau_bounds),
            )
        if self.q_bounds is None:
            object.__setattr__(
                self,
                "q_bounds",
                tuple((0.0, a / (2.0 * b)) for a, b in zip(self.alpha, self.beta)),
            )
        else:
            object.__setattr__(
                self,
                "q_bounds",
                tuple((float(lo), float(hi)) for lo, hi in self.q_bounds),
            )
        if len(self.tau_bounds) != self.T or len(self.q_bounds) != self.T:
            raise ValueError("tau_bounds and q_bounds must have length T")
        bounds = self.tau_bounds + self.q_bounds
        _require_finite("bounds", (x for pair in bounds for x in pair))
        for lo, hi in bounds:
            if lo > hi:
                raise ValueError("bounds must be ordered low <= high")
        # every follower solver searches [0, hi] per period
        if any(lo != 0 for lo, _ in self.q_bounds):
            raise ValueError("extraction lower bounds must be 0")
        # LeaderStrategy rejects a negative tax, so a negative lower bound
        # would fail only when the EA happens to draw below 0
        if any(lo < 0 for lo, _ in self.tau_bounds):
            raise ValueError("tax lower bounds must be nonnegative")

    @property
    def stock(self) -> float:
        """Total resource stock; informational only (no hard constraint)."""
        return self.strata.stock

    @functools.cached_property
    def dominance(self) -> tuple[Dominance, ...]:
        """Each technology that another one dominates, in table order, with
        the first undominated technology (in table order) that dominates
        it. Identical technologies dominate neither way. Computed once per
        model."""
        costs = [(t.alpha_er, t.beta_er, t.gamma_er) + t.slopes for t in self.techs]

        def dominates(i: int, j: int) -> bool:
            return costs[i] != costs[j] and all(
                a <= b for a, b in zip(costs[i], costs[j])
            )

        n = len(costs)
        top = [i for i in range(n) if not any(dominates(j, i) for j in range(n))]
        found = []
        for j in range(n):
            if j in top:
                continue
            tech = self.techs[j]
            dominator = self.techs[next(i for i in top if dominates(i, j))]
            least_slope_gap = min(
                b - a for a, b in zip(dominator.slopes, tech.slopes)
            )
            found.append(Dominance(
                tech=tech,
                dominator=dominator,
                fixed_gap=tech.gamma_er - dominator.gamma_er,
                unit_gap=tech.beta_er - dominator.beta_er + least_slope_gap,
            ))
        return tuple(found)

    @functools.cached_property
    def dominated_technologies(self) -> dict[int, int]:
        """Id of each dominated technology: id of its dominator."""
        return {d.tech.tech_id: d.dominator.tech_id for d in self.dominance}

    def tech(self, tech_id: int) -> TechParams:
        for t in self.techs:
            if t.tech_id == tech_id:
                return t
        raise KeyError(f"unknown technology id {tech_id}")

    def discount(self, t: int) -> float:
        """Discount factor for 1-based period t."""
        return (1.0 + self.r) ** (-(t - 1))

    @functools.cached_property
    def discount_factors(self) -> tuple[float, ...]:
        """(d_1, ..., d_T), d_t = `discount(t)`. Computed once per model."""
        return tuple(self.discount(t) for t in range(1, self.T + 1))

    @functools.cached_property
    def cost_weights(self) -> tuple[float, ...]:
        """(w_1, ..., w_T), w_t = d_t - d_{t+1} with d_{T+1} = 0: the
        discounted cost is sum_t w_t C(X_t) with X_t the extraction through
        period t. Computed once per model."""
        d = self.discount_factors
        return tuple(a - b for a, b in zip(d, d[1:] + (0.0,)))

    @functools.cached_property
    def discounted_periods(self) -> float:
        """sum_t d_t. Computed once per model."""
        return sum(self.discount_factors)


@dataclass(frozen=True)
class LeaderStrategy:
    """Per-period tax vector of the regulator."""

    tau: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "tau", tuple(map(float, self.tau)))
        if any(x < 0 for x in self.tau):
            raise ValueError("taxes must be nonnegative")


@dataclass(frozen=True)
class FollowerResponse:
    """Per-period extraction schedule plus chosen technology."""

    q: tuple[float, ...]
    a: int

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(map(float, self.q)))
        if any(x < 0 for x in self.q):
            raise ValueError("extraction must be nonnegative")


@dataclass(frozen=True)
class ObjectivePoint:
    """Leader objectives plus the follower's profit at the same point."""

    revenue: float
    damage: float
    profit: float


def cumulative_cost(x: float, tech: TechParams, strata: StrataTable) -> float:
    """Piecewise-linear cumulative extraction/purification cost C(x).

    Marginal cost within stratum m is tech.slopes[m]; past the last
    breakpoint the last slope extends unbounded.
    """
    if x < 0:
        raise ValueError("cumulative extraction must be nonnegative")
    cost = 0.0
    prev = 0.0
    for slope, b in zip(tech.slopes, strata.breakpoints):
        if x <= b:
            return cost + slope * (x - prev)
        cost += slope * (b - prev)
        prev = b
    return cost + tech.slopes[-1] * (x - prev)


def extraction_rate_cost(q_t: float, tech: TechParams) -> float:
    """Quadratic cost of extracting q_t units within one period.

    The fixed component gamma_er is charged regardless of q_t.
    """
    if q_t < 0:
        raise ValueError("extraction must be nonnegative")
    return tech.alpha_er * q_t * q_t + tech.beta_er * q_t + tech.gamma_er


def period_profit(
    t: int,
    q_prefix: Sequence[float],
    tau_t: float,
    tech: TechParams,
    model: ExtendedModel,
) -> float:
    """Mine profit in period t (1-based) given extraction through period t.

    The extraction/purification charge is the increment of the cumulative
    cost curve between the previous and current cumulative totals.
    """
    if not 1 <= t <= model.T:
        raise ValueError(f"period {t} out of range 1..{model.T}")
    if len(q_prefix) != t:
        raise ValueError("q_prefix must cover periods 1..t")
    q_t = q_prefix[-1]
    if any(q < 0 for q in q_prefix):
        raise ValueError("extraction must be nonnegative")
    cum = sum(q_prefix)
    revenue = (model.alpha[t - 1] - model.beta[t - 1] * q_t) * q_t
    ep = cumulative_cost(cum, tech, model.strata) - cumulative_cost(
        cum - q_t, tech, model.strata
    )
    return revenue - extraction_rate_cost(q_t, tech) - ep - tau_t * q_t


def follower_total_profit(
    resp: FollowerResponse, strat: LeaderStrategy, model: ExtendedModel
) -> float:
    """Discounted sum of per-period mine profits."""
    if len(resp.q) != model.T or len(strat.tau) != model.T:
        raise ValueError("schedule lengths must equal the horizon T")
    tech = model.tech(resp.a)
    total = 0.0
    for t in range(1, model.T + 1):
        total += model.discount(t) * period_profit(
            t, resp.q[:t], strat.tau[t - 1], tech, model
        )
    return total


def leader_objectives(
    resp: FollowerResponse, strat: LeaderStrategy, model: ExtendedModel
) -> tuple[float, float]:
    """Leader's (revenue, damage): revenue discounted, damage not.

    Damage is a physical quantity and is never discounted; only monetary
    flows carry the discount factor.
    """
    if len(resp.q) != model.T or len(strat.tau) != model.T:
        raise ValueError("schedule lengths must equal the horizon T")
    revenue = sum(
        d * x * v for d, x, v in zip(model.discount_factors, strat.tau, resp.q)
    )
    return revenue, model.tech(resp.a).k * sum(resp.q)


def analytical_as_extended(p: AnalyticalParams) -> ExtendedModel:
    """Embed the single-period model as a T=1 extended instance.

    The quadratic cost delta*q^2 + gamma*q maps onto the extraction-rate
    cost (alpha_er = delta, beta_er = 0, gamma_er = 0) plus a single
    stratum of slope gamma sized beyond any optimum. Requires phi = 0.
    """
    if p.phi != 0:
        raise ValueError("embedding requires zero fixed cost")
    stock = p.alpha / p.beta  # far beyond the unconstrained optimum
    tech = TechParams(
        tech_id=1,
        k=p.k,
        alpha_er=p.delta,
        beta_er=0.0,
        gamma_er=0.0,
        slopes=(p.gamma,),
    )
    return ExtendedModel(
        T=1,
        alpha=(p.alpha,),
        beta=(p.beta,),
        techs=(tech,),
        strata=StrataTable(amounts=(stock,)),
        r=0.0,
    )


# --- configuration loading -------------------------------------------------


def _object(section: str, d) -> dict:
    if not isinstance(d, dict):
        raise ValueError(f"{section} must be a JSON object")
    return d


def _number(section: str, name: str, value) -> float:
    # JSON numbers only: a string such as "5" or a bool is not read as one
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{section}: {name} must be a number, got {value!r}")
    return float(value)


def _integer(section: str, name: str, value) -> int:
    # an integer-valued float such as 5.0 is accepted; 5.7 is not truncated
    x = _number(section, name, value)
    if not x.is_integer():
        raise ValueError(f"{section}: {name} must be an integer, got {value!r}")
    return int(x)


def _array(section: str, name: str, value, read=_number) -> tuple:
    """`read` applied to each item of a JSON array. A string is iterable
    too, but "56789" is not the array (5, 6, 7, 8, 9)."""
    if not isinstance(value, list):
        raise ValueError(f"{section}: {name} must be an array, got {value!r}")
    return tuple(read(section, f"{name}[{i}]", v) for i, v in enumerate(value))


def _pair(section: str, name: str, value) -> tuple[float, float]:
    pair = _array(section, name, value)
    if len(pair) != 2:
        raise ValueError(f"{section}: {name} must be a [low, high] pair")
    return pair


def analytical_from_dict(d: dict) -> AnalyticalParams:
    section = "analytical config"
    d = _object(section, d)
    try:
        return AnalyticalParams(
            alpha=_number(section, "alpha", d["alpha"]),
            beta=_number(section, "beta", d["beta"]),
            delta=_number(section, "delta", d["delta"]),
            gamma=_number(section, "gamma", d["gamma"]),
            phi=_number(section, "phi", d.get("phi", 0.0)),
            k=_number(section, "k", d["k"]),
        )
    except KeyError as e:
        raise ValueError(f"{section} missing field {e.args[0]!r}") from e
    except OverflowError as e:
        raise ValueError(f"{section}: {e}") from e


def _technology(section: str, name: str, td) -> TechParams:
    td = _object(f"{section}: {name}", td)
    return TechParams(
        tech_id=_integer(section, f"{name}.tech_id", td["tech_id"]),
        k=_number(section, f"{name}.k", td["k"]),
        alpha_er=_number(section, f"{name}.alpha_er", td["alpha_er"]),
        beta_er=_number(section, f"{name}.beta_er", td["beta_er"]),
        gamma_er=_number(section, f"{name}.gamma_er", td["gamma_er"]),
        slopes=_array(section, f"{name}.slopes", td["slopes"]),
    )


def extended_from_dict(d: dict) -> ExtendedModel:
    section = "extended config"
    d = _object(section, d)
    try:
        bounds = {
            name: _array(section, name, d[name], _pair)
            for name in ("tau_bounds", "q_bounds")
            if d.get(name) is not None
        }
        return ExtendedModel(
            T=_integer(section, "T", d["T"]),
            alpha=_array(section, "alpha", d["alpha"]),
            beta=_array(section, "beta", d["beta"]),
            techs=_array(section, "technologies", d["technologies"], _technology),
            strata=StrataTable(amounts=_array(section, "strata", d["strata"])),
            r=_number(section, "r", d.get("r", 0.0)),
            **bounds,
        )
    except KeyError as e:
        raise ValueError(f"{section} missing field {e.args[0]!r}") from e
    except OverflowError as e:
        raise ValueError(f"{section}: {e}") from e


@dataclass(frozen=True)
class ModelConfig:
    analytical: Optional[AnalyticalParams]
    extended: Optional[ExtendedModel]


def config_from_dict(d: dict) -> ModelConfig:
    d = _object("config", d)
    return ModelConfig(
        analytical=(
            analytical_from_dict(d["analytical"]) if "analytical" in d else None
        ),
        extended=extended_from_dict(d["extended"]) if "extended" in d else None,
    )


def load_config(path: str | Path) -> ModelConfig:
    with open(path) as f:
        return config_from_dict(json.load(f))


def default_config() -> ModelConfig:
    """Bundled parameters: the published single- and multi-period instances."""
    return load_config(Path(__file__).with_name("data") / "default_config.json")
