"""Model parameters, derived fitness quantities, mutation kernel and presets.

The two-host model is specified by scalar rates (lambda_, theta, delta), per-host
trait functions (infection efficiency beta, extra death d, spore production r)
with influx fractions xi summing to one, and a mutation kernel scaled by the
mutation width epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grid import Field, TraitGrid, make_grid

TraitFunction = Callable[[np.ndarray], np.ndarray]


class ModelError(ValueError):
    pass


class KernelResolutionError(ModelError):
    """Raised when the grid under-resolves the scaled mutation kernel."""


# ---------------------------------------------------------------------------
# trait function helpers

@dataclass(frozen=True)
class Constant:
    c: float

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c)


@dataclass(frozen=True)
class QuadraticBump:
    """scale * ((x - lo)(hi - x))^+ : compactly supported on [lo, hi]."""

    scale: float
    lo: float
    hi: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.scale * np.clip((x - self.lo) * (self.hi - x), 0.0, None)


@dataclass(frozen=True)
class ScaledFunction:
    factor: float
    base: TraitFunction

    def __call__(self, x):
        return self.factor * np.asarray(self.base(x), dtype=float)


def constant(c: float) -> TraitFunction:
    return Constant(c)


def quadratic_bump(scale: float, lo: float, hi: float) -> TraitFunction:
    return QuadraticBump(scale, lo, hi)


_EXPR_NAMES = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "sin": np.sin, "cos": np.cos, "tanh": np.tanh,
    "pos": lambda u: np.clip(u, 0.0, None),
    "pi": math.pi, "e": math.e,
}


@dataclass(frozen=True)
class TraitExpression:
    """Closed-form expression in x (e.g. '200*pos((x-0.2)*(0.6-x))')."""

    expr: str

    def __post_init__(self):
        self._compile()

    def _compile(self):
        try:
            code = compile(self.expr, "<trait-expression>", "eval")
        except SyntaxError as exc:
            raise ModelError(f"invalid trait expression {self.expr!r}: {exc.msg}") from exc
        for name in code.co_names:
            if name not in _EXPR_NAMES and name != "x":
                raise ModelError(f"unknown name {name!r} in trait expression")
        return code

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = eval(self._compile(), {"__builtins__": {}}, {**_EXPR_NAMES, "x": x})
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()


def compile_trait_expression(expr: str) -> TraitFunction:
    return TraitExpression(expr)


# ---------------------------------------------------------------------------
# parameters

@dataclass
class HostParams:
    """Per-host trait functions and the influx fraction xi."""

    xi: float
    beta: TraitFunction
    beta_support: tuple[float, float]
    d: TraitFunction = field(default_factory=lambda: constant(0.0))
    r: TraitFunction = field(default_factory=lambda: constant(1.0))

    def __post_init__(self):
        if not 0.0 < self.xi < 1.0:
            raise ModelError(f"xi must be in (0, 1), got {self.xi}")
        lo, hi = self.beta_support
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ModelError(f"invalid beta support {self.beta_support}")

    def scaled_beta(self, factor: float) -> "HostParams":
        return HostParams(
            xi=self.xi,
            beta=ScaledFunction(factor, self.beta),
            beta_support=self.beta_support,
            d=self.d,
            r=self.r,
        )


@dataclass
class ModelParams:
    lambda_: float
    theta: float
    delta: float
    hosts: tuple[HostParams, HostParams]

    def __post_init__(self):
        for name in ("lambda_", "theta", "delta"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ModelError(f"{name} must be finite and positive, got {v}")
        xi_sum = self.hosts[0].xi + self.hosts[1].xi
        if abs(xi_sum - 1.0) > 1e-12:
            raise ModelError(f"influx fractions must sum to 1, got {xi_sum}")

    def scaled_beta(self, factor: float) -> "ModelParams":
        """Model with both infection efficiencies multiplied by factor."""
        return ModelParams(
            self.lambda_, self.theta, self.delta,
            (self.hosts[0].scaled_beta(factor), self.hosts[1].scaled_beta(factor)),
        )


# ---------------------------------------------------------------------------
# mutation kernel

def laplace_density(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.exp(-np.abs(np.asarray(x, dtype=float)))


@dataclass
class MutationKernel:
    """Samples of the scaled kernel on the difference grid of a TraitGrid.

    ``samples[j]`` holds the kernel value at offset ``(j - (n-1)) * h`` so that
    ``samples[(n-1) + i - j]`` is the kernel evaluated at ``x_i - x_j``.
    ``mass`` is the discrete trapezoid mass after renormalization (exactly 1);
    ``raw_mass`` is the mass the truncated, unnormalized samples carried.
    """

    base_density: TraitFunction
    epsilon: float
    grid: TraitGrid
    samples: np.ndarray
    raw_mass: float
    mass: float = 1.0

    @property
    def center_value(self) -> float:
        return float(self.samples[self.grid.n - 1])


def scale_kernel(
    m: TraitFunction,
    eps: float,
    grid: TraitGrid,
    *,
    min_nodes_per_width: int = 5,
) -> MutationKernel:
    if not (np.isfinite(eps) and eps > 0):
        raise ModelError(f"epsilon must be positive, got {eps}")
    n = grid.n
    offsets = grid.h * np.arange(-(n - 1), n)
    within = np.count_nonzero(np.abs(offsets) <= eps + 1e-15)
    if within < min_nodes_per_width:
        raise KernelResolutionError(
            f"grid under-resolves kernel: {within} nodes within |x| <= eps={eps} "
            f"(h={grid.h:.3g}); need {min_nodes_per_width}"
        )
    raw = np.asarray(m(offsets / eps), dtype=float) / eps
    if np.any(raw < 0) or not np.all(np.isfinite(raw)):
        raise ModelError("kernel density must be finite and nonnegative")
    sym_err = np.max(np.abs(raw - raw[::-1]))
    if sym_err > 1e-12 * max(raw.max(), 1.0):
        raise ModelError("kernel density must be symmetric")
    # trapezoid mass on the difference grid
    raw_mass = grid.h * (raw.sum() - 0.5 * raw[0] - 0.5 * raw[-1])
    if raw_mass <= 0:
        raise ModelError("kernel has no mass on the sampled range")
    samples = raw / raw_mass
    return MutationKernel(m, float(eps), grid, samples, float(raw_mass))


# ---------------------------------------------------------------------------
# derived per-host quantities

@dataclass
class HostDerived:
    """Fitness samples and support/threshold data for one host."""

    k: int
    psi: Field
    beta: Field
    d: Field
    r: Field
    sigma_support: tuple[int, int]   # index range (inclusive) of closure{beta > 0}
    omega_support: tuple[int, int]   # index range (inclusive) of {psi > 0}
    x_star: float
    psi_max: float
    r0: float
    argmax_multiplicity: int = 1


def _index_range(mask: np.ndarray, what: str) -> tuple[int, int]:
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ModelError(f"{what} is empty on the grid window")
    return int(idx[0]), int(idx[-1])


def build_fitness(mp: ModelParams, k: int, grid: TraitGrid) -> HostDerived:
    """Sample the invasion fitness beta*r / (delta*(theta+d)) for host k."""
    host = mp.hosts[k - 1]
    x = grid.nodes
    beta = np.asarray(host.beta(x), dtype=float)
    d = np.asarray(host.d(x), dtype=float)
    r = np.asarray(host.r(x), dtype=float)
    if np.any(beta < 0) or np.any(d < 0) or np.any(r < 0):
        raise ModelError(f"host {k} trait functions must be nonnegative")
    psi = beta * r / (mp.delta * (mp.theta + d))
    if not np.any(psi > 0):
        raise ModelError(f"host {k} fitness is identically zero on the window")
    psi_max = float(psi.max())
    peaks = np.flatnonzero(psi >= psi_max - 1e-12 * max(psi_max, 1.0))
    x_star = float(x[peaks[0]])
    lo, hi = host.beta_support
    sigma = _index_range((x >= lo - 1e-12) & (x <= hi + 1e-12), f"support of beta_{k}")
    omega = _index_range(psi > 0, f"positivity set of psi_{k}")
    r0 = host.xi * mp.lambda_ / mp.theta * psi_max
    return HostDerived(
        k=k,
        psi=Field(grid, psi),
        beta=Field(grid, beta),
        d=Field(grid, d),
        r=Field(grid, r),
        sigma_support=sigma,
        omega_support=omega,
        x_star=x_star,
        psi_max=psi_max,
        r0=float(r0),
        argmax_multiplicity=int(len(peaks)),
    )


# ---------------------------------------------------------------------------
# assumption checks

@dataclass
class AssumptionReport:
    checks: dict[str, bool]
    warnings: list[str]
    support_distance: float

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def support_distance(mp: ModelParams) -> float:
    (a1, b1) = mp.hosts[0].beta_support
    (a2, b2) = mp.hosts[1].beta_support
    if b1 < a2:
        return a2 - b1
    if b2 < a1:
        return a1 - b2
    return 0.0


def validate_assumptions(
    mp: ModelParams, kernel: MutationKernel, derived: Sequence[HostDerived]
) -> AssumptionReport:
    checks: dict[str, bool] = {}
    warnings: list[str] = []
    grid = kernel.grid

    checks["xi_sum"] = abs(mp.hosts[0].xi + mp.hosts[1].xi - 1.0) <= 1e-12
    checks["positive_scalars"] = all(v > 0 for v in (mp.lambda_, mp.theta, mp.delta))
    checks["kernel_unit_mass"] = abs(
        grid.h * (kernel.samples.sum() - 0.5 * kernel.samples[0] - 0.5 * kernel.samples[-1])
        - 1.0
    ) <= 1e-6
    checks["kernel_symmetric"] = bool(
        np.array_equal(kernel.samples, kernel.samples[::-1])
    )

    edge_decay = True
    for hd in derived:
        edge = max(abs(hd.psi.values[0]), abs(hd.psi.values[-1]))
        if edge > 1e-12 * max(hd.psi_max, 1.0):
            edge_decay = False
            warnings.append(f"psi_{hd.k} does not vanish at the window edges")
    checks["psi_vanishes_at_edges"] = edge_decay

    dist = support_distance(mp)
    if dist <= 0:
        warnings.append(
            "overlapping supports - superposition/concentration hypotheses violated"
        )
    if kernel.raw_mass < 1.0 - 1e-6:
        warnings.append(
            f"kernel truncation lost mass {1.0 - kernel.raw_mass:.3g}; renormalized"
        )
    for hd in derived:
        if hd.argmax_multiplicity > 1:
            warnings.append(
                f"psi_{hd.k} attains its maximum at {hd.argmax_multiplicity} nodes; "
                "concentration point may be ambiguous"
            )
    return AssumptionReport(checks, warnings, dist)


# ---------------------------------------------------------------------------
# presets (the three standard two-bump scenarios)

PRESET_EPSILON = 1e-3


def preset(name: str) -> ModelParams:
    """Named parameter sets: fig1, fig2 and fig3 scenarios.

    All share xi1 = xi2 = 1/2, lambda = theta = delta = 1, d == 0, r == 1 and a
    Laplace mutation kernel; they differ in the infection-efficiency bumps.
    """
    bumps = {
        "fig1": ((200.0, 0.2, 0.6), (400.0, 0.7, 0.9)),
        "fig2": ((200.0, 0.2, 0.6), (150.0, 0.7, 0.9)),
        "fig3": ((200.0, 0.3, 0.7), (400.0, 0.6, 0.8)),
    }
    if name not in bumps:
        raise ModelError(f"unknown preset {name!r}; expected one of {sorted(bumps)}")
    (s1, a1, b1), (s2, a2, b2) = bumps[name]
    hosts = (
        HostParams(xi=0.5, beta=quadratic_bump(s1, a1, b1), beta_support=(a1, b1)),
        HostParams(xi=0.5, beta=quadratic_bump(s2, a2, b2), beta_support=(a2, b2)),
    )
    return ModelParams(lambda_=1.0, theta=1.0, delta=1.0, hosts=hosts)


# ---------------------------------------------------------------------------
# problem assembly

DEFAULT_MIN_PADDING = 0.2
DEFAULT_NODES_PER_EPSILON = 8.0


def default_window(mp: ModelParams, eps: float, padding: float | None = None) -> tuple[float, float]:
    pad = max(DEFAULT_MIN_PADDING, 10.0 * eps) if padding is None else padding
    los = [h.beta_support[0] for h in mp.hosts]
    his = [h.beta_support[1] for h in mp.hosts]
    return min(los) - pad, max(his) + pad


def default_node_count(window: tuple[float, float], eps: float) -> int:
    length = window[1] - window[0]
    n = int(math.ceil(length * DEFAULT_NODES_PER_EPSILON / eps)) + 1
    return int(min(max(n, 257), 8193))


@dataclass
class Problem:
    """A discretized model instance: grid, kernel samples and derived fields."""

    mp: ModelParams
    eps: float
    grid: TraitGrid
    kernel: MutationKernel
    derived: tuple[HostDerived, HostDerived]
    mode: str = "fft"

    def host(self, k: int) -> HostDerived:
        return self.derived[k - 1]

    @property
    def combined_fitness(self) -> Field:
        h1, h2 = self.mp.hosts
        return Field(
            self.grid,
            h1.xi * self.derived[0].psi.values + h2.xi * self.derived[1].psi.values,
        )


def build_problem(
    mp: ModelParams,
    eps: float,
    *,
    n: int | None = None,
    padding: float | None = None,
    mode: str = "fft",
) -> Problem:
    window = default_window(mp, eps, padding)
    if n is None:
        n = default_node_count(window, eps)
    grid = make_grid(window[0], window[1], n)
    kernel = scale_kernel(laplace_density, eps, grid)
    derived = (build_fitness(mp, 1, grid), build_fitness(mp, 2, grid))
    return Problem(mp=mp, eps=eps, grid=grid, kernel=kernel, derived=derived, mode=mode)
