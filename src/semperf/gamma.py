"""Heuristic speedup model built on the compute/communicate ratio Gamma.

Gamma compares what the application demands (operations per word moved) to
what the machine offers (flop rate per unit link bandwidth).  Equivalently
it is the ratio of per-step compute time to communication-plus-latency
time, and it fixes both the parallel efficiency E = Gamma / (1 + Gamma)
and the speedup S = P * E.  A saturated (communication-free) run is
represented by ``math.inf``.
"""

import math
from dataclasses import dataclass

from .counts import MEGA, WORD_BYTES, require
from .errors import CalibrationDegenerateError


@dataclass(frozen=True)
class MachineProfile:
    """Per-rank compute rate and interconnect characteristics.

    Rates are MFlop/s, bandwidths MB/s (1 MB = 1e6 bytes), latency seconds
    per message.  ``link_sharing`` is the number of ranks on a node sharing
    one link, so the effective per-rank bandwidth is bandwidth / sharing.
    ``rate_curvature`` parametrizes how the per-rank rate improves with the
    polynomial degree: rate(N) = effective_core_rate * (1 - c / (N + 1)).
    """

    name: str
    effective_core_rate: float
    link_bandwidth: float
    latency: float
    link_sharing: float = 1.0
    rate_curvature: float = 0.0

    def __post_init__(self):
        require("effective_core_rate", self.effective_core_rate, 0, above=True)
        require("link_bandwidth", self.link_bandwidth, 0, above=True)
        require("latency", self.latency, 0)
        require("link_sharing", self.link_sharing, 1)
        require("rate_curvature", self.rate_curvature)

    @property
    def per_rank_bandwidth(self):
        return self.link_bandwidth / self.link_sharing

    def rate_at_degree(self, degree):
        scale = 1.0 - self.rate_curvature / (degree + 1)
        if scale <= 0:
            raise ValueError(
                f"rate model of {self.name} degenerates at degree {degree}"
            )
        return self.effective_core_rate * scale


@dataclass(frozen=True)
class TimeDecomposition:
    """Per-step wall time split into compute, transfer and latency parts."""

    t_p: float
    t_c: float
    t_l: float

    def __post_init__(self):
        if self.t_p < 0 or self.t_c < 0 or self.t_l < 0:
            raise ValueError("time components must be >= 0")

    @property
    def total(self):
        return self.t_p + self.t_c + self.t_l


def gamma_from_efficiency(e):
    """Invert the efficiency relation: Gamma = E / (1 - E)."""
    if not 0.0 < e < 1.0:
        raise ValueError(
            f"efficiency must lie strictly between 0 and 1 (got {e}); "
            "E = 1 means unbounded Gamma"
        )
    return e / (1.0 - e)


def gamma_from_times(decomp):
    """Gamma = T_P / (T_C + T_L); saturated when both vanish."""
    denom = decomp.t_c + decomp.t_l
    if denom == 0.0:
        return math.inf
    return decomp.t_p / denom


def predict_time(machine, degree, p, flops, words, messages):
    """Model one step of P ranks at a polynomial degree from its counts."""
    if p < 1:
        raise ValueError("P must be >= 1")
    t_p = flops / (p * machine.rate_at_degree(degree) * MEGA)
    t_c = words * WORD_BYTES / (p * machine.per_rank_bandwidth * MEGA)
    t_l = messages * machine.latency
    # extreme finite rates can underflow T_P to 0 or overflow a part to inf
    if not (t_p > 0 and math.isfinite(t_p + t_c + t_l)):
        raise ValueError(
            f"model of {machine.name} at P={p}, degree {degree} is out of "
            f"range: T_P={t_p:g} s must be positive and finite, T_C={t_c:g} s "
            f"and T_L={t_l:g} s finite"
        )
    return TimeDecomposition(t_p=t_p, t_c=t_c, t_l=t_l)


BANDWIDTH_MODELS = ("base", "scaled", "scaled_shared")


@dataclass(frozen=True)
class CalibrationInput:
    """One machine's measured point for the interconnect fit.

    ``bandwidth_model`` selects the effective link bandwidth: the base
    interconnect b1, a scaled one alpha*b1, or the scaled one divided by a
    per-node ``sharing`` factor.  Sharing counts on scaled_shared rows only.
    """

    name: str
    t_p: float
    gamma: float
    bandwidth_model: str
    sharing: float = 1.0

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string (got {self.name!r})")
        if self.bandwidth_model not in BANDWIDTH_MODELS:
            raise ValueError(
                f"unknown bandwidth model {self.bandwidth_model!r}; "
                f"expected one of {BANDWIDTH_MODELS}"
            )
        require("t_p", self.t_p, 0, above=True)
        require("gamma", self.gamma, 0, above=True)
        require("sharing", self.sharing, 1)

    def _coefficients(self, base_bandwidth):
        """(W, V) coefficients of W / b_eff, with V = W / alpha.

        (1/b1, 0) on a base row and (0, s/b1) on a scaled one, where s is
        the sharing of a scaled_shared row and 1 on any other.
        """
        if self.bandwidth_model == "base":
            return 1.0 / base_bandwidth, 0.0
        s = self.sharing if self.bandwidth_model == "scaled_shared" else 1.0
        return 0.0, s / base_bandwidth

    def effective_bandwidth(self, base_bandwidth, alpha):
        # at b1 = 1 the coefficients are (1, 0) or (0, s)
        on_base, s = self._coefficients(1.0)
        return base_bandwidth if on_base else alpha * base_bandwidth / s


@dataclass(frozen=True)
class GammaFit:
    """Calibrated communication volume, bandwidth ratio, and latency."""

    w_mb: float
    alpha: float
    t_l: float
    base_bandwidth: float
    residuals: tuple
    input_names: tuple

    @property
    def scaled_bandwidth(self):
        return self.alpha * self.base_bandwidth

    def to_json_dict(self):
        return {
            "w_mb": self.w_mb,
            "alpha": self.alpha,
            "t_l_s": self.t_l,
            "base_bandwidth_mbs": self.base_bandwidth,
            "scaled_bandwidth_mbs": self.scaled_bandwidth,
            "residuals_s": dict(zip(self.input_names, self.residuals)),
        }


def _duplicate_rows(names, coefficients):
    """'a/b' for every row b whose equation repeats an earlier row a's."""
    seen = {}
    dupes = []
    for name, key in zip(names, coefficients):
        if key in seen:
            dupes.append(f"{seen[key]}/{name}")
        else:
            seen[key] = name
    return dupes


def calibrate(inputs, base_bandwidth):
    """Fit (W, alpha, T_L) to measured (T_P, Gamma) points.

    With V = W / alpha every row's W / b_eff + T_L = T_P / Gamma is linear
    in (W, V, T_L), so one linear least-squares fit solves any table of 3
    or more rows: exactly for 3 independent rows, in the least-squares
    sense for more.  A table that does not determine all three unknowns,
    or whose fit is not physical, raises CalibrationDegenerateError.  W is
    returned in MB for the given base bandwidth in MB/s.
    """
    import numpy as np

    require("base_bandwidth", base_bandwidth, 0, above=True)
    inputs = list(inputs)
    names = [r.name for r in inputs]
    if len(inputs) < 3:
        raise CalibrationDegenerateError(
            f"need at least 3 inputs, got {len(inputs)}", inputs=names
        )
    coefficients = [row._coefficients(base_bandwidth) for row in inputs]
    # columns (W, V, T_L)
    matrix = np.array([[*c, 1.0] for c in coefficients])
    if not matrix[:, :2].any(axis=0).all():
        raise CalibrationDegenerateError(
            "inputs span a single link: alpha needs a base row and a "
            "scaled or scaled_shared row",
            inputs=names,
        )
    rhs = np.array([row.t_p / row.gamma for row in inputs])
    (w, v, t_l), _, rank, _ = np.linalg.lstsq(matrix, rhs, rcond=None)
    if rank < 3:
        dupes = _duplicate_rows(names, coefficients)
        detail = (
            f"duplicates: {', '.join(dupes)}"
            if dupes
            else "rows do not span the three unknowns"
        )
        raise CalibrationDegenerateError(
            f"calibration system is singular ({detail})", inputs=names
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = w / v  # inf or NaN when V = 0, rejected below
    # written so that a NaN fails every comparison and is rejected
    if not (w > 0 and 0 < alpha < math.inf and t_l >= -1e-9):
        raise CalibrationDegenerateError(
            f"calibration produced infeasible parameters "
            f"(W={w:.4g} MB, alpha={alpha:.4g}, T_L={t_l:.4g} s)",
            inputs=names,
        )
    t_l = max(t_l, 0.0)
    return GammaFit(
        w_mb=float(w),
        alpha=float(alpha),
        t_l=float(t_l),
        base_bandwidth=float(base_bandwidth),
        residuals=tuple(
            w / row.effective_bandwidth(base_bandwidth, alpha)
            + t_l
            - row.t_p / row.gamma
            for row in inputs
        ),
        input_names=tuple(names),
    )


def normalize_node_usage(raw_node_usage, active_ranks, cores_per_node):
    """Convert node-average CPU usage to per-active-rank usage.

    A node monitor averages over all cores, so a node running 2 ranks on 4
    cores at full tilt reads 50%; the per-rank figure is raw * cores /
    active ranks, capped at 1.
    """
    if not 0.0 <= raw_node_usage <= 1.0:
        raise ValueError(f"raw usage must lie in [0, 1] (got {raw_node_usage})")
    if not 1 <= active_ranks <= cores_per_node:
        raise ValueError(
            f"active_ranks must lie in [1, cores_per_node]: "
            f"{active_ranks} vs {cores_per_node}"
        )
    return min(raw_node_usage * cores_per_node / active_ranks, 1.0)


MAX_BINS = 100_000  # the default width of 0.01 gives 101


@dataclass(frozen=True)
class UsageAnalysis:
    """Histogram of per-window efficiency samples plus mean and Gamma."""

    bin_edges: tuple
    counts: tuple
    mean: float
    gamma: float


def analyze_usage_histogram(samples, bin_width=0.01):
    """Bin efficiency samples into [x, x + bin_width) buckets.

    Returns bucket counts over [0, 1], the arithmetic mean efficiency, and
    the implied Gamma = E / (1 - E) (inf when the mean saturates at 1).
    """
    import numpy as np

    if not 0.0 < bin_width <= 1.0:
        raise ValueError("bin_width must lie in (0, 1]")
    n_bins = math.floor(1.0 / bin_width) + 1
    if n_bins > MAX_BINS:
        raise ValueError(
            f"bin_width {bin_width:g} gives {n_bins} bins, more than "
            f"{MAX_BINS}"
        )
    samples = np.asarray(list(samples), dtype=float)
    if samples.size == 0:
        raise ValueError("no usage samples to analyze")
    # written so that a NaN fails the range check too
    if not np.all((samples >= 0.0) & (samples <= 1.0)):
        raise ValueError("usage samples must lie in [0, 1]")
    edges = np.arange(n_bins + 1) * bin_width
    idx = np.searchsorted(edges, samples, side="right") - 1
    idx = np.clip(idx, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    mean = float(samples.mean())
    if mean >= 1.0:
        gamma = math.inf
    elif mean <= 0.0:
        gamma = 0.0
    else:
        gamma = gamma_from_efficiency(mean)
    return UsageAnalysis(
        bin_edges=tuple(float(e) for e in edges[:-1]),
        counts=tuple(int(c) for c in counts),
        mean=mean,
        gamma=gamma,
    )
