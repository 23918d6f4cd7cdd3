"""Core data types and evaluation functions for the mining taxation game.

Two models live here: the single-period analytical model (quadratic cost,
linear demand, linear damage) and the multi-period extended model with
technology choice, quadratic extraction-rate costs and a piecewise-linear
cumulative extraction/purification cost over geological strata.

All evaluation functions are pure; parameter objects are immutable.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
from collections import namedtuple
from collections.abc import Callable, Iterable
from operator import mul, sub
from pathlib import Path


def _require_finite(what: str, values: Iterable[float]) -> None:
    # JSON accepts NaN and Infinity, and every comparison with NaN is false
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite")


class AnalyticalParams(namedtuple("AnalyticalParams", "alpha beta delta gamma phi k")):
    """Constants of the single-period model.

    alpha: price intercept, beta: price slope, delta: quadratic cost
    coefficient, gamma: linear cost coefficient, phi: fixed cost,
    k: pollution coefficient (damage per unit extracted).
    """

    __slots__ = ()
    alpha: float
    beta: float
    delta: float
    gamma: float
    phi: float
    k: float

    def __new__(cls, alpha, beta, delta, gamma, phi, k):
        _require_finite("analytical parameters", (alpha, beta, delta, gamma, phi, k))
        if alpha <= 0 or beta <= 0 or delta <= 0:
            raise ValueError("alpha, beta, delta must be positive")
        # k = 0 is permitted: a revenue-only regulator is a useful
        # degenerate case
        if gamma < 0 or phi < 0 or k < 0:
            raise ValueError("gamma, phi and k must be nonnegative")
        if alpha <= gamma:
            raise ValueError("alpha must exceed gamma (no profitable extraction)")
        return super().__new__(cls, alpha, beta, delta, gamma, phi, k)


class TechParams(
    namedtuple("TechParams", "tech_id k alpha_er beta_er gamma_er slopes")
):
    """One technology alternative: pollution coefficient and cost structure.

    slopes[m] is the marginal extraction/purification cost while mining
    stratum m+1; the slopes must be nondecreasing.
    """

    __slots__ = ()
    tech_id: int
    k: float
    alpha_er: float
    beta_er: float
    gamma_er: float
    slopes: tuple[float, ...]

    def __new__(cls, tech_id, k, alpha_er, beta_er, gamma_er, slopes):
        slopes = tuple(float(s) for s in slopes)
        _require_finite(
            "technology parameters", (k, alpha_er, beta_er, gamma_er) + slopes
        )
        # k = 0, a technology that does no damage, as in AnalyticalParams
        if k < 0:
            raise ValueError("pollution coefficient k must be nonnegative")
        if min(alpha_er, beta_er, gamma_er) < 0:
            raise ValueError("cost coefficients must be nonnegative")
        # slope 0 is allowed so the analytical model embeds as a degenerate
        # single-stratum instance
        if any(s < 0 for s in slopes):
            raise ValueError("stratum slopes must be nonnegative")
        if not slopes:
            raise ValueError("at least one stratum slope required")
        # strata get dearer with depth, so the cumulative cost is convex:
        # every follower solver and the grid oracle's certificate rest on it
        if any(a > b for a, b in zip(slopes, slopes[1:])):
            raise ValueError(
                f"technology {tech_id}: stratum slopes must be nondecreasing"
            )
        return super().__new__(cls, tech_id, k, alpha_er, beta_er, gamma_er, slopes)


class StrataTable(namedtuple("StrataTable", "amounts")):
    """Amounts of ore per stratum and the derived cumulative breakpoints."""

    # no __slots__: the cached property needs an instance dict
    amounts: tuple[float, ...]

    def __new__(cls, amounts):
        amounts = tuple(float(a) for a in amounts)
        _require_finite("stratum amounts", amounts)
        if not amounts or any(a <= 0 for a in amounts):
            raise ValueError("stratum amounts must be positive")
        return super().__new__(cls, amounts)

    @functools.cached_property
    def breakpoints(self) -> tuple[float, ...]:
        """(b_1, ..., b_M), b_m the ore in strata 1..m, summed in order.
        Computed once per table."""
        return tuple(itertools.accumulate(self.amounts))

    @property
    def stock(self) -> float:
        return self.breakpoints[-1]

    def cost_curve(self, slopes: tuple[float, ...]) -> Callable[[float], float]:
        """The cumulative cost C with these stratum slopes, as a function
        of x >= 0 that checks nothing. Piece m starts at low_m, in (0, b_1,
        ..., b_M), has slope s_m (the last slope twice) and cost P_m =
        C(low_m) there. With m = bisect_left(breakpoints, x),

            C(x) = P_m + s_m (x - low_m),

        which is the float the walk up the strata of `cumulative_cost`
        returns, at 0, -0.0, on a breakpoint and past the last one, since
        P_m is summed as that walk sums it. Built afresh on each call:
        `FollowerConstants` holds each table technology's curve."""
        if len(slopes) != len(self.amounts):
            raise ValueError("each technology needs one slope per stratum")
        bps, lows = self.breakpoints, (0.0,) + self.breakpoints
        # P_0 = 0.0, P_m = P_{m-1} + s_m (b_m - b_{m-1}): the walk's sums
        costs = itertools.accumulate(map(mul, slopes, map(sub, bps, lows)),
                                     initial=0.0)
        pieces = tuple(zip(costs, slopes + slopes[-1:], lows))

        def curve(x: float) -> float:
            p, s, low = pieces[bisect.bisect_left(bps, x)]
            return p + s * (x - low)

        return curve

    def active_stratum(self, x: float) -> int:
        """1-based stratum index containing cumulative extraction x.

        Beyond the last breakpoint the last stratum index is reported.
        """
        # false for NaN and both infinities; -0.0 passes
        if not 0.0 <= x < math.inf:
            raise ValueError("cumulative extraction must be finite and nonnegative")
        return min(bisect.bisect_left(self.breakpoints, x) + 1, len(self.amounts))


class Dominance(namedtuple("Dominance", "tech dominator fixed_gap unit_gap")):
    """`dominator` is no dearer than `tech` in alpha_er, beta_er, gamma_er
    and every stratum slope, and cheaper in at least one of them.

    On every schedule, then, `tech` costs at least `fixed_gap` (the gamma_er
    gap) more per period and at least `unit_gap` (the beta_er gap plus the
    least slope gap) more per unit extracted, each discounted as the
    profit is, so the mine earns at least as much with `dominator` at
    every tax.
    """

    __slots__ = ()
    tech: TechParams
    dominator: TechParams
    fixed_gap: float
    unit_gap: float


class FollowerConstants(namedtuple(
    "FollowerConstants",
    "tech cost rows slopes breakpoints inner starts d w w_head w_last"
    " discounted fixed_cost bracket",
)):
    """What a fixed-technology follower solve (`lower.best_response_fixed_tech`)
    reads of the model and of `tech`, none of which depends on the taxes:
    C, rows (alpha_t, c_t = beta_t + alpha_er, qbar_t), the strata (inner =
    breakpoints[:-1], starts = (0, inner, inf)), d, w, w[:-1], w_T, r > 0,
    -(sum_t d_t) gamma_er, and the shooting's first bracket (sum_t w_t s_1,
    sum_t w_t s_M), summed as `lower._shoot` sums it. The one record of a
    technology's costs: the writer, the battery and the profit-gap
    certificate read C and c_t here."""

    __slots__ = ()

    @classmethod
    def build(cls, tech: TechParams, model: ExtendedModel) -> FollowerConstants:
        strata, slopes, w = model.strata, tech.slopes, model.cost_weights
        inner = strata.breakpoints[:-1]
        rows = tuple(
            (a, b + tech.alpha_er, h)
            for a, b, (_, h) in zip(model.alpha, model.beta, model.q_bounds)
        )
        bracket = tuple(sum(wt * s for wt in w) for s in (slopes[0], slopes[-1]))
        return cls(
            tech, strata.cost_curve(slopes), rows, slopes, strata.breakpoints,
            inner, (0.0,) + inner + (math.inf,), model.discount_factors, w,
            w[:-1], w[-1], model.r > 0.0,
            -model.discounted_periods * tech.gamma_er, bracket,
        )


class ExtendedModel(
    namedtuple("ExtendedModel", "T alpha beta techs strata r tau_bounds q_bounds")
):
    """Multi-period model: per-period prices, technologies, strata, bounds."""

    # no __slots__: the cached properties need an instance dict
    T: int
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    techs: tuple[TechParams, ...]
    strata: StrataTable
    r: float
    tau_bounds: tuple[tuple[float, float], ...]
    q_bounds: tuple[tuple[float, float], ...]

    def __new__(
        cls, T, alpha, beta, techs, strata, r=0.0, tau_bounds=None, q_bounds=None
    ):
        alpha = tuple(float(a) for a in alpha)
        beta = tuple(float(b) for b in beta)
        techs = tuple(techs)
        if T < 1:
            raise ValueError("horizon T must be at least 1")
        if len(alpha) != T or len(beta) != T:
            raise ValueError("alpha and beta must have length T")
        _require_finite("alpha, beta and r", alpha + beta + (r,))
        if any(b <= 0 for b in beta):
            raise ValueError("price slopes beta_t must be positive")
        if r < 0:
            raise ValueError("discount rate must be nonnegative")
        if not techs:
            raise ValueError("at least one technology required")
        if len({t.tech_id for t in techs}) != len(techs):
            raise ValueError("technology ids must be unique")
        if any(len(t.slopes) != len(strata.amounts) for t in techs):
            raise ValueError("each technology needs one slope per stratum")
        # default decision-variable boxes: taxes up to the price intercept,
        # extraction up to the revenue-maximizing quantity
        if tau_bounds is None:
            tau_bounds = tuple((0.0, a) for a in alpha)
        else:
            tau_bounds = tuple((float(lo), float(hi)) for lo, hi in tau_bounds)
        if q_bounds is None:
            q_bounds = tuple((0.0, a / (2.0 * b)) for a, b in zip(alpha, beta))
        else:
            q_bounds = tuple((float(lo), float(hi)) for lo, hi in q_bounds)
        if len(tau_bounds) != T or len(q_bounds) != T:
            raise ValueError("tau_bounds and q_bounds must have length T")
        bounds = tau_bounds + q_bounds
        _require_finite("bounds", (x for pair in bounds for x in pair))
        for lo, hi in bounds:
            if lo > hi:
                raise ValueError("bounds must be ordered low <= high")
        # every follower solver searches [0, hi] per period
        if any(lo != 0 for lo, _ in q_bounds):
            raise ValueError("extraction lower bounds must be 0")
        # `evolve` builds its strategies without LeaderStrategy's check, from
        # taxes drawn and clipped into these bounds: this check is what keeps
        # them nonnegative
        if any(lo < 0 for lo, _ in tau_bounds):
            raise ValueError("tax lower bounds must be nonnegative")
        model = super().__new__(
            cls, T, alpha, beta, techs, strata, r, tau_bounds, q_bounds
        )
        # d_T must stay a positive float: every follower solver divides by
        # the discount factors
        if model.discount_factors[-1] == 0.0:
            raise ValueError(
                f"discount rate r = {r} is too large for horizon "
                f"T = {T}: the discount factor of period T underflows to 0"
            )
        return model

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

    @functools.cached_property
    def undominated(self) -> tuple[TechParams, ...]:
        """The technologies no other one dominates, in table order.
        Computed once per model."""
        dominated = self.dominated_technologies
        return tuple(t for t in self.techs if t.tech_id not in dominated)

    @functools.cached_property
    def follower_constants(self) -> dict[int, FollowerConstants]:
        """Each technology's `FollowerConstants`, by id. Computed once per
        model."""
        return {t.tech_id: FollowerConstants.build(t, self) for t in self.techs}

    @functools.cached_property
    def choice_plan(self) -> tuple[tuple[Dominance, int, float], ...]:
        """What `lower.best_response` reads to skip dominated technologies:
        per `Dominance` record, in order, the record, its dominator's
        position in `undominated` and the fixed-cost part of the profit-gap
        bound, fixed_gap * sum_t d_t. Computed once per model."""
        at = {t.tech_id: i for i, t in enumerate(self.undominated)}
        return tuple(
            (dom, at[dom.dominator.tech_id], dom.fixed_gap * self.discounted_periods)
            for dom in self.dominance
        )

    @functools.cached_property
    def _techs_by_id(self) -> dict[int, TechParams]:
        """Each technology by its id. Computed once per model."""
        return {t.tech_id: t for t in self.techs}

    def tech(self, tech_id: int) -> TechParams:
        try:
            return self._techs_by_id[tech_id]
        except KeyError:
            raise KeyError(f"unknown technology id {tech_id}") from None

    @functools.cached_property
    def discount_factors(self) -> tuple[float, ...]:
        """(d_1, ..., d_T), d_t = (1 + r)^-(t-1) for 1-based period t.
        Computed once per model."""
        return tuple((1.0 + self.r) ** (-(t - 1)) for t in range(1, self.T + 1))

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


def _nonnegative_floats(what: str, values: Iterable[float]) -> tuple[float, ...]:
    """`values` as a tuple of floats, each finite and at least 0 (-0.0
    included). 0.0 <= x is false for NaN and -inf, and +inf is looked for."""
    v = tuple(map(float, values))
    if not all(map((0.0).__le__, v)) or math.inf in v:
        raise ValueError(f"{what} must be finite and nonnegative")
    return v


class LeaderStrategy(namedtuple("LeaderStrategy", "tau")):
    """Per-period tax vector of the regulator. Its constructor checks each
    tax finite and nonnegative; `bilevel._evaluate` builds strategies with
    the namedtuple's `_make` instead, from taxes inside the model's
    tau_bounds, which `ExtendedModel` checked."""

    __slots__ = ()
    tau: tuple[float, ...]

    def __new__(cls, tau):
        return super().__new__(cls, _nonnegative_floats("taxes tau", tau))


def replace(obj, /, **changes):
    """A copy of the record `obj` with `changes`, built by its constructor:
    every check runs again, and cached properties start empty."""
    return type(obj)(**{**obj._asdict(), **changes})


def cumulative_cost(x: float, tech: TechParams, strata: StrataTable) -> float:
    """Piecewise-linear cumulative extraction/purification cost C(x).

    Marginal cost within stratum m is tech.slopes[m]; past the last
    breakpoint the last slope extends unbounded. A walk up the strata,
    apart from `StrataTable.cost_curve`, the C the follower charges: the
    grid oracle reads C here, so it shares none with the solver it checks.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError("cumulative extraction must be finite and nonnegative")
    slopes = tech.slopes
    if len(slopes) != len(strata.amounts):
        raise ValueError("each technology needs one slope per stratum")
    cost = prev = 0.0
    for slope, b in zip(slopes, strata.breakpoints):
        if x <= b:
            return cost + slope * (x - prev)
        cost += slope * (b - prev)
        prev = b
    return cost + slopes[-1] * (x - prev)


def leader_objectives(
    resp, strat: LeaderStrategy, model: ExtendedModel
) -> tuple[float, float]:
    """Leader's (revenue, damage) at the follower's answer `resp` (a
    `lower.BestResponse`, of which only the schedule q and the technology
    a are read): revenue discounted, damage not.

    Damage is a physical quantity and is never discounted; only monetary
    flows carry the discount factor.
    """
    if len(resp.q) != model.T or len(strat.tau) != model.T:
        raise ValueError("schedule lengths must equal the horizon T")
    revenue = sum(map(mul, map(mul, model.discount_factors, strat.tau), resp.q))
    # the id map behind `ExtendedModel.tech`, read without the method call
    try:
        k = model._techs_by_id[resp.a].k
    except KeyError:
        raise KeyError(f"unknown technology id {resp.a}") from None
    return revenue, k * sum(resp.q)


def analytical_as_extended(p: AnalyticalParams) -> ExtendedModel:
    """Embed the single-period model as a T=1 extended instance.

    The cost delta*q^2 + gamma*q + phi maps onto the extraction-rate cost
    (alpha_er = delta, beta_er = 0, gamma_er = phi) plus a single stratum
    of slope gamma sized beyond any optimum: the profit of follower_profit.
    """
    stock = p.alpha / p.beta  # far beyond the unconstrained optimum
    tech = TechParams(
        tech_id=1,
        k=p.k,
        alpha_er=p.delta,
        beta_er=0.0,
        gamma_er=p.phi,
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
    return AnalyticalParams(
        alpha=_number(section, "alpha", d["alpha"]),
        beta=_number(section, "beta", d["beta"]),
        delta=_number(section, "delta", d["delta"]),
        gamma=_number(section, "gamma", d["gamma"]),
        phi=_number(section, "phi", d.get("phi", 0.0)),
        k=_number(section, "k", d["k"]),
    )


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


class ModelConfig(namedtuple("ModelConfig", "analytical extended")):
    __slots__ = ()
    analytical: AnalyticalParams | None
    extended: ExtendedModel | None


def config_from_dict(d: dict) -> ModelConfig:
    """A missing field or a number too large for a float names its section."""
    d = _object("config", d)
    readers = (("analytical", analytical_from_dict), ("extended", extended_from_dict))
    sections = {}
    for name, read in readers:
        try:
            sections[name] = read(d[name]) if name in d else None
        except KeyError as e:
            raise ValueError(f"{name} config missing field {e.args[0]!r}") from e
        except OverflowError as e:
            raise ValueError(f"{name} config: {e}") from e
    return ModelConfig(**sections)


def load_config(path: str | Path) -> ModelConfig:
    with open(path) as f:
        try:
            d = json.load(f)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: {e}") from None
    return config_from_dict(d)


def default_config() -> ModelConfig:
    """Bundled parameters: the published single- and multi-period instances."""
    return load_config(Path(__file__).with_name("data") / "default_config.json")
