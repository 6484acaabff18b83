"""Model parameters, derived fitness quantities, mutation kernel and presets.

The two-host model is specified by scalar rates (lambda_, theta, delta), per-host
trait functions (infection efficiency beta, extra death d, spore production r)
with influx fractions xi summing to one, and a mutation kernel scaled by the
mutation width epsilon.
"""

from __future__ import annotations

import ast
import math
import types
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .grid import Field, TraitGrid, UsageError, grid_spacing, make_grid


class ModelError(UsageError):
    pass


class KernelResolutionError(ModelError):
    """Raised when the grid under-resolves the scaled mutation kernel."""


# ---------------------------------------------------------------------------
# trait expressions

_EXPR_NAMES = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "sin": np.sin, "cos": np.cos, "tanh": np.tanh,
    "pos": lambda u: np.clip(u, 0.0, None),
    "pi": np.float64(math.pi), "e": np.float64(math.e),
}


def _float_comparisons(tree: ast.Expression) -> ast.Expression:
    """The tree with each comparison times 1.0: its value as a float64, for
    numpy booleans add as logical or ((x > 0.3) + (x > 0.5) would be 1, not 2,
    right of 0.5).  ``ast.walk`` is iterative, so a deep tree is no deeper a
    recursion here than the compiler's own."""

    def as_float(value):
        if not isinstance(value, ast.Compare):
            return value
        one = ast.copy_location(ast.Constant(1.0), value)
        return ast.copy_location(ast.BinOp(value, ast.Mult(), one), value)

    for node in ast.walk(tree):
        for field, value in ast.iter_fields(node):
            setattr(node, field, [as_float(v) for v in value] if isinstance(value, list)
                    else as_float(value))
    return tree


def _compiled(expr: str) -> types.CodeType:
    """The checked code of a trait expression."""
    try:
        tree = ast.parse(expr, "<trait-expression>", "eval")
        # an f-string builds its text when evaluated, at any size its format
        # spec asks for ('f"{1:{10**7}}"' is 10 MB), and numpy parses a
        # string of a number as that number
        if any(isinstance(node, ast.JoinedStr) or isinstance(node, ast.Constant)
               and isinstance(node.value, (str, bytes)) for node in ast.walk(tree)):
            raise ModelError(f"trait expression {expr!r} may not contain strings")
        code = compile(_float_comparisons(tree), "<trait-expression>", "eval")
        # numbers are float64, which overflow to inf: Python ints grow without bound
        code = code.replace(co_consts=tuple(
            np.float64(c) if isinstance(c, (int, float)) else c for c in code.co_consts))
    except (SyntaxError, OverflowError, RecursionError) as exc:
        # RecursionError: nested past what the parser or the compiler can take
        raise ModelError(f"invalid trait expression {expr!r}: {exc.args[0]}") from exc
    # a lambda, comprehension or generator carries its own code object,
    # whose names the check below would not see
    if any(isinstance(c, types.CodeType) for c in code.co_consts):
        raise ModelError(f"trait expression {expr!r} may not define functions")
    for name in code.co_names:
        if name not in _EXPR_NAMES and name != "x":
            raise ModelError(f"unknown name {name!r} in trait expression")
    return code


@dataclass(frozen=True)
class TraitExpression:
    """Closed-form expression in x (e.g. '200*pos((x-0.2)*(0.6-x))')."""

    expr: str

    def __post_init__(self):
        # compiled once; the frozen instance keeps the code beside its field
        object.__setattr__(self, "_code", _compiled(self.expr))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        try:
            # an overflow or the log of a nonpositive value gives inf or nan
            # silently; build_problem rejects those with a message of its own
            with np.errstate(all="ignore"):
                out = np.asarray(eval(self._code, {"__builtins__": {}}, {**_EXPR_NAMES, "x": x}))
            if np.iscomplexobj(out):  # a cast to float would drop the imaginary part
                raise TypeError("complex values")
            return np.broadcast_to(out.astype(float, copy=False), x.shape).copy()
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            raise ModelError(f"trait expression {self.expr!r} failed: {exc}") from exc


# ---------------------------------------------------------------------------
# parameters

@dataclass
class HostParams:
    """Per-host trait expressions and the influx fraction xi."""

    xi: float
    beta: TraitExpression
    beta_support: tuple[float, float]
    d: TraitExpression = TraitExpression("0")
    r: TraitExpression = TraitExpression("1")

    def __post_init__(self):
        if not 0.0 < self.xi < 1.0:
            raise ModelError(f"xi must be in (0, 1), got {self.xi}")
        lo, hi = self.beta_support
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ModelError(f"invalid beta support {self.beta_support}")

    def scaled_beta(self, factor: float) -> "HostParams":
        # the same float64 product as multiplying beta's values by factor
        return replace(self, beta=TraitExpression(f"{float(factor)!r}*({self.beta.expr})"))


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

MIN_NODES_PER_WIDTH = 5


@dataclass
class MutationKernel:
    """The scaled Laplace kernel on a TraitGrid, renormalized to unit trapezoid
    mass on the grid's difference grid: exp(-|z|/eps) / (2 eps raw_mass) at
    every offset z, where ``raw_mass`` is the trapezoid mass the unnormalized
    kernel carries on the offsets j h, |j| < n.
    """

    grid: TraitGrid
    raw_mass: float
    eps: float


def _check_resolution(eps: float, h: float, n: int) -> None:
    """``ModelError`` unless the width eps is positive, and
    ``KernelResolutionError`` unless a grid of n nodes h apart resolves it.

    The check fails only when fewer than two positive offsets j h lie within
    eps, so it tests j = 1, 2 alone."""
    if not (np.isfinite(eps) and eps > 0):
        raise ModelError(f"epsilon must be positive, got {eps}")
    within = 1 + 2 * np.count_nonzero(h * np.arange(1, min(n, 3)) <= eps + 1e-15)
    if within < MIN_NODES_PER_WIDTH:
        raise KernelResolutionError(
            f"grid under-resolves kernel: {within} nodes within |x| <= eps={eps} "
            f"(h={h:.3g}); need {MIN_NODES_PER_WIDTH}"
        )


def scale_kernel(eps: float, grid: TraitGrid) -> MutationKernel:
    """The Laplace kernel m(z) = exp(-|z|)/2 scaled to m_eps(z) = m(z/eps)/eps.

    ``raw_mass`` is the geometric sum
    (t/2) (1 + 2 r (1 - r^(n-1)) / (1 - r) - r^(n-1)), t = h/eps, r = e^-t,
    with 1 - r^k taken as -expm1(-k t).
    """
    n = grid.n
    _check_resolution(eps, grid.h, n)
    t = grid.h / eps
    geometric = math.exp(-t) * math.expm1(-(n - 1) * t) / math.expm1(-t)
    raw_mass = 0.5 * t * (1.0 + 2.0 * geometric - math.exp(-(n - 1) * t))
    return MutationKernel(grid, raw_mass, float(eps))


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
    sigma_support: tuple[int, int]   # index range (inclusive) of the declared beta support
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
    if not all(np.all(np.isfinite(v) & (v >= 0)) for v in (beta, d, r)):
        raise ModelError(f"host {k} trait functions must be finite and nonnegative")
    with np.errstate(all="ignore"):  # a psi not finite makes r0 not finite: rejected below
        psi = beta * r / (mp.delta * (mp.theta + d))
    if not np.any(psi > 0):
        raise ModelError(f"host {k} fitness is identically zero on the window")
    psi_max = float(psi.max())
    r0 = host.xi * mp.lambda_ / mp.theta * psi_max
    if not math.isfinite(r0):
        raise ModelError(f"host {k} R0 = xi*lambda/theta*max(psi) is not finite")
    peaks = np.flatnonzero(psi >= psi_max - 1e-12 * max(psi_max, 1.0))
    x_star = float(x[peaks[0]])
    lo, hi = host.beta_support
    sigma = _index_range((x >= lo - 1e-12) & (x <= hi + 1e-12), f"support of beta_{k}")
    return HostDerived(
        k=k,
        psi=Field(grid, psi),
        beta=Field(grid, beta),
        d=Field(grid, d),
        r=Field(grid, r),
        sigma_support=sigma,
        x_star=x_star,
        psi_max=psi_max,
        r0=float(r0),
        argmax_multiplicity=int(len(peaks)),
    )


# ---------------------------------------------------------------------------
# assumption checks

def support_distance(mp: ModelParams) -> float:
    (a1, b1) = mp.hosts[0].beta_support
    (a2, b2) = mp.hosts[1].beta_support
    if b1 < a2:
        return a2 - b1
    if b2 < a1:
        return a1 - b2
    return 0.0


OVERLAPPING_SUPPORTS = "overlapping supports - superposition/concentration hypotheses violated"


def validate_assumptions(
    mp: ModelParams, kernel: MutationKernel, derived: Sequence[HostDerived]
) -> list[str]:
    """Warnings for the model assumptions this instance violates.

    The scalar and influx conditions are not checked here: building the
    parameters enforces them, and the Laplace kernel meets the kernel's.
    """
    warnings: list[str] = []
    for hd in derived:
        edge = max(abs(hd.psi.values[0]), abs(hd.psi.values[-1]))
        if edge > 1e-12 * max(hd.psi_max, 1.0):
            warnings.append(f"psi_{hd.k} does not vanish at the window edges")
        lo, hi = hd.sigma_support
        if hd.beta.values[:lo].any() or hd.beta.values[hi + 1:].any():
            warnings.append(f"beta_{hd.k} is positive outside its declared support")
    if support_distance(mp) <= 0:
        warnings.append(OVERLAPPING_SUPPORTS)
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
    return warnings


# ---------------------------------------------------------------------------
# model documents and presets

def model_from_dict(raw: dict) -> ModelParams:
    """Build model parameters from a model document.

    Expected shape::

        {"lambda": 1.0, "theta": 1.0, "delta": 1.0,
         "hosts": [{"xi": 0.5, "beta": "200*pos((x-0.2)*(0.6-x))",
                    "beta_support": [0.2, 0.6], "d": "0", "r": "1"}, ...]}

    Traits are ``TraitExpression`` strings in x; ``d`` and ``r`` default to "0" and "1".
    """
    try:
        hosts = [
            HostParams(
                xi=float(h["xi"]),
                beta=TraitExpression(h["beta"]),
                beta_support=tuple(h["beta_support"]),
                d=TraitExpression(str(h.get("d", "0"))),
                r=TraitExpression(str(h.get("r", "1"))),
            )
            for h in raw["hosts"]
        ]
        if len(hosts) != 2:
            raise ModelError("config must define exactly two hosts")
        return ModelParams(
            lambda_=float(raw["lambda"]),
            theta=float(raw["theta"]),
            delta=float(raw["delta"]),
            hosts=(hosts[0], hosts[1]),
        )
    except KeyError as exc:
        raise ModelError(f"missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # float("abc"), three support bounds
        raise ModelError(str(exc)) from exc


def preset(name: str) -> ModelParams:
    """Named model documents: the fig1, fig2 and fig3 scenarios.

    All share xi1 = xi2 = 1/2, lambda = theta = delta = 1, d == 0 and r == 1;
    they differ in the quadratic infection-efficiency bumps s*((x-lo)(hi-x))^+.
    """
    bumps = {
        "fig1": ((200.0, 0.2, 0.6), (400.0, 0.7, 0.9)),
        "fig2": ((200.0, 0.2, 0.6), (150.0, 0.7, 0.9)),
        "fig3": ((200.0, 0.3, 0.7), (400.0, 0.6, 0.8)),
    }
    if name not in bumps:
        raise ModelError(f"unknown preset {name!r}; expected one of {sorted(bumps)}")
    hosts = [{"xi": 0.5, "beta": f"{s}*pos((x-{lo})*({hi}-x))", "beta_support": [lo, hi]}
             for s, lo, hi in bumps[name]]
    return model_from_dict({"lambda": 1.0, "theta": 1.0, "delta": 1.0, "hosts": hosts})


# ---------------------------------------------------------------------------
# problem assembly

DEFAULT_MIN_PADDING = 0.2
DEFAULT_NODES_PER_EPSILON = 8.0


def default_window(mp: ModelParams, eps: float, padding: float | None = None) -> tuple[float, float]:
    pad = max(DEFAULT_MIN_PADDING, 10.0 * eps) if padding is None else padding
    lo = min(h.beta_support[0] for h in mp.hosts) - pad
    hi = max(h.beta_support[1] for h in mp.hosts) + pad
    if not math.isfinite(hi - lo):
        raise ModelError(f"trait window [{lo:g}, {hi:g}] has no finite length")
    return lo, hi


def default_node_count(window: tuple[float, float], eps: float) -> int:
    # capped before rounding: a subnormal eps makes the ratio overflow to inf
    nodes = min((window[1] - window[0]) * DEFAULT_NODES_PER_EPSILON / eps, 8192.0)
    return max(math.ceil(nodes) + 1, 257)


@dataclass
class Problem:
    """A discretized model instance: grid, mutation kernel and derived fields."""

    mp: ModelParams
    eps: float
    grid: TraitGrid
    kernel: MutationKernel
    derived: tuple[HostDerived, HostDerived]

    def host(self, k: int) -> HostDerived:
        return self.derived[k - 1]

    @cached_property
    def combined_radius(self) -> float:
        """Spectral radius of the combined operator, the coupled map's
        linearization at zero: computed once per problem, on first use.
        Raises ``SpectralError`` when the eigensolve does not converge."""
        # spectral builds on this module
        from .spectral import certified, solve_combined_spectrum

        return certified(solve_combined_spectrum(self), "combined spectral radius").lambda1

    @cached_property
    def host_spectra(self) -> tuple:
        """The principal eigenpairs of the two host operators, computed once
        per problem, on first use, and certified as ``combined_radius`` is."""
        from .spectral import certified, solve_host_spectrum

        return tuple(certified(solve_host_spectrum(self, k), f"host {k} spectrum")
                     for k in (1, 2))

    @cached_property
    def update_maps(self) -> tuple:
        """The coupled map T = T_1 + T_2 and the host maps T_1 and T_2
        (``operators.build_maps``), built once per problem, on first use."""
        from .operators import build_maps

        return build_maps(self)

    @cached_property
    def assumption_warnings(self) -> list[str]:
        """The model-assumption warnings of this instance (O(n)), on first use."""
        return validate_assumptions(self.mp, self.kernel, self.derived)


def grid_size(mp: ModelParams, eps: float, *, n: int | None = None,
              padding: float | None = None) -> tuple[tuple[float, float], int]:
    """The trait window and node count of ``build_problem``'s grid, checked
    as ``make_grid`` and ``scale_kernel`` check them, before anything is
    allocated or sampled."""
    window = default_window(mp, eps, padding)
    if n is None:
        n = default_node_count(window, eps)
    _check_resolution(eps, grid_spacing(*window, n), n)
    return window, n


def build_problem(
    mp: ModelParams,
    eps: float,
    *,
    n: int | None = None,
    padding: float | None = None,
) -> Problem:
    window, n = grid_size(mp, eps, n=n, padding=padding)
    grid = make_grid(window[0], window[1], n)
    kernel = scale_kernel(eps, grid)
    derived = (build_fitness(mp, 1, grid), build_fitness(mp, 2, grid))
    return Problem(mp=mp, eps=eps, grid=grid, kernel=kernel, derived=derived)
