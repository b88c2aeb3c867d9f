"""Constraint-satisfaction view of carving and a constructive solver.

Each net member contributes one constraint: its probe ball must be uncut in
at least one of the m independently carved layers.  The classical local
lemma certifies a solution exists when e * p * (d + 1) < 1, with p bounding
the violation probability of a single constraint and d the number of
constraints sharing radii with it.  Both closed-form bound calculators work
entirely in log space so that astronomically large schedules (the regime the
guarantee actually needs) evaluate without overflow; comparisons within
1e-12 relative of the boundary are resolved conservatively, toward
infeasible.

Each run schedule (:class:`TexpSchedule`, :class:`TgeoRun`) owns its JSON
``kind``, its law, its ``budget()`` and its one-layer ``cut_bound()``, and
JSON reads its fields through one kind-to-class table: no caller names a kind.

The constructive side is Moser-Tardos resampling: start from i.i.d. radii,
repeatedly pick the lowest-index violated constraint, redraw every radius in
its domain across all layers, and recarve incrementally.  Success yields
radius assignments whose carved layers form a padded decomposition at the
probe radius.  The solver reports failure after max_rounds; it never
silently retries with a fresh seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .carving import (PartitionLayer, RadiusAssignment, _check_coverage, _first_cover,
                      _owner_table, greedy_color)
from .decomposition import (ConfigError, PaddedDecomposition, VerificationReport,
                            _known_keys, _number, _shown, verify_padded)
from .nets import Net, net_graph
from .sampler import TexpParams, TgeoParams
from .spaces import _balls

__all__ = [
    "LllBudget",
    "TexpSchedule",
    "TgeoSchedule",
    "TgeoRun",
    "texp_csp_bounds",
    "tgeo_csp_bounds",
    "find_min_D",
    "CspInstance",
    "csp_from_schedule",
    "moser_tardos",
    "MoserTardosResult",
    "MoserTardosFailure",
    "certify_decomposition",
    "CertifiedRun",
    "schedule_to_json",
    "schedule_from_json",
]

_BOUNDARY_SLACK = 1e-12


def _exp(x: float) -> float:
    """exp(x), or infinity where that overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _feasible_from_logs(log_p: float, log_d_plus_one: float) -> bool:
    """Strict e*p*(d+1) < 1 in log space, conservative near the boundary."""
    if log_p == -math.inf:
        return True
    return 1.0 + log_p + log_d_plus_one < -_BOUNDARY_SLACK


@dataclass(frozen=True)
class LllBudget:
    """Violation-probability and neighborhood bounds, kept in log space."""

    log_p_bound: float
    log_d_plus_one: float
    feasible: bool

    @property
    def p_bound(self) -> float:
        return _exp(self.log_p_bound)

    @property
    def d_bound(self) -> float:
        return _exp(self.log_d_plus_one) - 1.0

    @property
    def margin_log(self) -> float:
        """log of e * p_bound * (d_bound + 1); negative means feasible."""
        return 1.0 + self.log_p_bound + self.log_d_plus_one


# ---------------------------------------------------------------------------
# Parameter schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TexpSchedule:
    """Truncated-exponential carving schedule for a doubling constant N.

    Derived quantities: rate lam = eps / (3r), window [l, M] = [3r, (2D+3)r],
    layer count m = floor(log2 N) + 1, and diameter factor c = 4D + 6 (the
    carved clusters have diameter at most 2M = c*r).
    """

    kind = "texp"
    N: int
    r: float
    eps: float
    D: float
    lam: float = field(init=False)
    M: float = field(init=False)
    l: float = field(init=False)
    m: int = field(init=False)
    c: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "N", _number(self.N, "doubling constant", "an integer >= 2",
                                              integer=True, low=2))
        for name in ("r", "eps", "D"):
            object.__setattr__(self, name, _number(getattr(self, name), name,
                                                   "positive and finite", above=0))
        lam, M = self.eps / (3 * self.r), (2 * self.D + 3) * self.r
        if not (math.isfinite(2 * M) and lam > 0):  # 2M bounds the cluster diameter
            raise ConfigError(f"texp needs a finite M = (2D + 3)r and twice it, and a positive "
                              f"lam = eps / (3r), got M={M:g} and lam={lam:g}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "l", 3 * self.r)
        object.__setattr__(self, "m", math.floor(math.log2(self.N)) + 1)
        object.__setattr__(self, "c", 4 * self.D + 6)

    @property
    def probe_radius(self) -> float:
        # the padding conclusion needs balls of three net scales intact
        return 3 * self.r

    @property
    def domain_radius(self) -> float:
        return self.M + 3 * self.r

    @property
    def net_scale(self) -> float:
        """Covering radius and separation of the net ``carve`` builds."""
        return self.r

    def law(self) -> TexpParams:
        return TexpParams(self.lam, self.l, self.M)

    def budget(self) -> LllBudget:
        return texp_csp_bounds(self)

    def cut_bound(self) -> tuple:
        """(bound, regime): one layer's cut bound, the m-th root of a constraint's."""
        regime = self.law().in_estimate_regime and 0 < self.eps < 1 and self.D > 1 / self.eps + 0.5
        return _exp(self.budget().log_p_bound / self.m), regime


@dataclass(frozen=True)
class TgeoRun:
    """Explicit truncated-geometric run parameters (desk-scale regime).

    The packaged guarantee schedule (:class:`TgeoSchedule`) produces radii
    far beyond desk scale; end-to-end runs instead fix (b, p, M, m, r)
    directly, subject to p <= 1/(4b+5), and lean on the exhaustive verifier.
    """

    kind = "tgeo"
    b: float
    p: float
    M: int
    m: int
    r: float

    def __post_init__(self):
        fields = {"b": _number(self.b, "growth exponent", "finite and >= 0", low=0),
                  "p": _number(self.p, "p"),
                  "M": _number(self.M, "M", "an integer >= 2", integer=True, low=2),
                  "m": _number(self.m, "m", "an integer >= 1", integer=True, low=1),
                  "r": _number(self.r, "r", "positive and finite", above=0)}
        if not 0 < fields["p"] < 1:
            raise ValueError("need 0 < p < 1")
        if not math.isfinite(2 * (fields["M"] + fields["r"])):  # the domain's diameter
            raise ConfigError(f"tgeo needs a finite domain radius M + r and twice it, "
                              f"got M={fields['M']:g} and r={fields['r']:g}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def probe_radius(self) -> float:
        return self.r

    @property
    def domain_radius(self) -> float:
        return self.M + self.r

    @property
    def net_scale(self) -> float:
        """Covering radius and separation of the net ``carve`` builds: at most
        the law's lower end, so every point is covered."""
        return min(self.r, self.law().window[0])

    def law(self) -> TgeoParams:
        return TgeoParams(self.p, self.M)

    def budget(self) -> LllBudget:
        return tgeo_csp_bounds(self.b, self.r, self.m, self.p, self.M)

    def cut_bound(self) -> tuple:
        """(bound, regime): one layer's cut bound 20 r p."""
        return 20.0 * self.r * self.p, self.p <= 1 / (4 * self.b + 5) and self.r >= 9


@dataclass(frozen=True)
class TgeoSchedule:
    """Guarantee-level truncated-geometric schedule for growth exponent b.

    Layer count m = floor(b) + 1, window exponent alpha = (1+eps)*m/(m-b),
    and per-radius parameters p(r) = 8*alpha*b*ln(r)/r^alpha and
    M(r) = floor(4b * (1/p) * ln(1/p)).  The schedule is honest about its
    own applicability: r_min is the smallest radius at which the feasibility
    chain is guaranteed, and it is astronomically large.
    """

    b: float
    eps: float

    def __post_init__(self):
        if not (self.b > 0 and self.eps > 0):
            raise ValueError("b and eps must be positive")

    @property
    def m(self) -> int:
        return math.floor(self.b) + 1

    @property
    def alpha(self) -> float:
        return (1 + self.eps) * self.m / (self.m - self.b)

    @property
    def log_r_min(self) -> float:
        a, b, eps = self.alpha, self.b, self.eps
        return max(
            math.log(9.0),
            (2 / a) * math.log(32 * b * b + 40 * b),
            8 * a * b,
            (2 / eps) * math.log(8000 * a * b / eps),
        )

    @property
    def r_min(self) -> float:
        return _exp(self.log_r_min)

    def p_at(self, r: float) -> float:
        if r <= 1:
            raise ValueError("need r > 1")
        log_p = math.log(8 * self.alpha * self.b) + math.log(math.log(r)) \
            - self.alpha * math.log(r)
        return math.exp(log_p)

    def M_at(self, r: float) -> float:
        p = self.p_at(r)
        return math.floor(4 * self.b * (1 / p) * math.log(1 / p))

    def run_at(self, r: float) -> TgeoRun:
        return TgeoRun(self.b, self.p_at(r), int(self.M_at(r)), self.m, r)


def texp_csp_bounds(schedule: TexpSchedule) -> LllBudget:
    """Closed-form constraint bounds for a truncated-exponential schedule.

    Violation probability per constraint is bounded by
    (4 N^3 (D+3)^{log2 N} e^{-(D-3/2) eps} + 12 eps)^m and the neighborhood
    size by N^4 (D+3)^{log2 N} - 1; both are evaluated in log space.
    """
    N, D, eps, m = schedule.N, schedule.D, schedule.eps, schedule.m
    b = math.log2(N)
    log_far = math.log(4.0) + 3 * math.log(N) + b * math.log(D + 3) - (D - 1.5) * eps
    log_near = math.log(12.0) + math.log(eps)
    log_p_single = np.logaddexp(log_far, log_near)
    log_p = m * float(log_p_single)
    log_d_plus_one = 4 * math.log(N) + b * math.log(D + 3)
    return LllBudget(log_p, log_d_plus_one, _feasible_from_logs(log_p, log_d_plus_one))


def tgeo_csp_bounds(b: float, r: float, m: int, p: float, M: float) -> LllBudget:
    """Closed-form constraint bounds for truncated-geometric carving:
    p-bound (20 r p)^m, neighborhood bound (2M + 2r)^b - 1, in log space.

    Requires the estimate's hypotheses r >= 9 and p <= 1/(4b+5).
    """
    if not 9 <= r < math.inf:
        raise ValueError("the cut estimate needs a finite r >= 9")
    if not (b >= 0 and m >= 1 and 0 <= M < math.inf):
        raise ValueError("need b >= 0, m >= 1 and a finite M >= 0")
    if not (0 < p < 1):
        raise ValueError("need 0 < p < 1")
    if p > 1 / (4 * b + 5):
        raise ValueError(f"p={p} violates p <= 1/(4b+5) = {1 / (4 * b + 5)}")
    log_p = m * (math.log(20.0) + math.log(r) + math.log(p))
    log_d_plus_one = b * math.log(2 * M + 2 * r)
    return LllBudget(log_p, log_d_plus_one, _feasible_from_logs(log_p, log_d_plus_one))


def find_min_D(N: int, m: int, alpha_prime: float = 0.4, D_cap: float = 1e100):
    """Smallest D (within bisection tolerance) whose schedule is feasible
    under the exponent rule eps = (D+3)^(-(log2 N)/m - alpha_prime).

    Doubling search finds a factor-2 bracket, bisection tightens it.  Raises
    RuntimeError when no feasible D exists below ``D_cap``.
    """
    b = math.log2(N)
    if m <= b:
        raise ValueError(f"need m > log2(N) = {b}")
    if not (0 < alpha_prime < 1 - b / m):
        raise ValueError(f"need 0 < alpha_prime < 1 - log2(N)/m = {1 - b / m}")
    exponent = -(b / m + alpha_prime)

    def budget_at(D: float) -> LllBudget:
        eps = (D + 3) ** exponent
        return texp_csp_bounds(TexpSchedule(N=N, r=1.0, eps=eps, D=D))

    D = 1.0
    while not budget_at(D).feasible:
        D *= 2
        if D > D_cap:
            raise RuntimeError(f"no feasible D found up to {D_cap}")
    if D == 1.0:
        return D, budget_at(D)
    lo, hi = D / 2, D
    while hi / lo > 1 + 1e-9:
        mid = math.sqrt(lo * hi)
        if budget_at(mid).feasible:
            hi = mid
        else:
            lo = mid
    return hi, budget_at(hi)


# ---------------------------------------------------------------------------
# The constructive engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CspInstance:
    """One constraint per net member: its probe ball must be uncut in at
    least one of m layers.  The constraint's domain consists of the net
    members within ``domain_radius``; those are the radii whose balls can
    reach the probe ball, and they are what a resampling step redraws."""

    net: Net
    m: int
    law: object  # TexpParams | TgeoParams
    probe_radius: float
    domain_radius: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one layer")
        if not (self.probe_radius > 0 and self.domain_radius > 0):
            raise ValueError("radii must be positive")
        if not isinstance(self.law, (TexpParams, TgeoParams)):
            raise TypeError(f"unsupported law {type(self.law).__name__}")


def csp_from_schedule(net: Net, schedule) -> CspInstance:
    if type(schedule) not in _SCHEDULES.values():
        raise TypeError(f"cannot build a CSP from {type(schedule).__name__}")
    return CspInstance(net, schedule.m, schedule.law(),
                       schedule.probe_radius, schedule.domain_radius)


@dataclass
class MoserTardosResult:
    success: bool
    rounds: int
    assignments: list  # m RadiusAssignments (final state, even on failure)
    violated_history: list  # violated-constraint count after init and each round
    residual_violations: int
    layers: list  # m PartitionLayers carved from the final radii


class MoserTardosFailure(RuntimeError):
    """Raised by pipelines when resampling exhausts its round budget."""

    def __init__(self, result: MoserTardosResult):
        super().__init__(
            f"resampling did not converge: {result.residual_violations} violated "
            f"constraints after {result.rounds} rounds")
        self.result = result


def moser_tardos(net: Net, csp: CspInstance, seed: int,
                 max_rounds: int | None = None) -> MoserTardosResult:
    """Resample until every probe ball is uncut in some layer.

    All m * |net| radii start i.i.d. from ``csp.law.sample`` on one
    ``default_rng(seed)`` stream.  Each round picks the violated constraint
    with the lowest net index, redraws every radius in its domain (read from
    that member's distance row) across all m layers from that stream, and
    recarves the points a redrawn ball can cover.  Reports failure (never
    retries) after ``max_rounds`` (default: 100 per constraint).

    ``csp`` must be built on ``net``, whose space the resampler carves.
    Every carving applies the owner rule of :mod:`padlab.carving` to one owner
    table built up front at the law's window ``[l, M]``: every draw is at
    least ``l`` (a texp draw is ``l - log1p(.)/lam``, a tgeo draw at least
    1 = l), so each row ends with the color run of its sure cover, its first
    member within ``l``.  A recarve passes ``space.candidates`` of the domain
    at the radius cap, a superset of the points a redrawn ball can cover, to
    the chunked scan; a row whose radii did not change keeps its owner, so
    the final layers equal :func:`carving.carve` of the final radii and are
    returned as they stand.
    """
    if csp.net is not net:
        raise ValueError("csp was built for a different net")
    space = net.space
    l, M = csp.law.window
    _check_coverage(net, l)
    members = net.members
    T = len(members)
    colors = greedy_color(net_graph(net, 2 * M)).colors
    if max_rounds is None:
        max_rounds = 100 * T

    table = _owner_table(net, colors, l, M)

    balls = _balls(space, members, csp.probe_radius)
    sizes = np.array([len(b) for b in balls])
    flat = np.concatenate(balls)
    offsets = np.concatenate([[0], np.cumsum(sizes)])[:-1]

    rng = np.random.default_rng(seed)
    radii = [csp.law.sample(rng, T) for _ in range(csp.m)]
    assign = [_first_cover(table, colors, t) for t in radii]

    def cut_per_constraint(a):
        f = a[flat]
        heads = np.repeat(f[offsets], sizes)
        return np.add.reduceat(f != heads, offsets) > 0

    def violated_now():
        v = cut_per_constraint(assign[0])
        for li in range(1, csp.m):
            v &= cut_per_constraint(assign[li])
        return v

    violated = violated_now()
    history = [int(violated.sum())]
    rounds = 0
    while violated.any() and rounds < max_rounds:
        u = int(np.argmax(violated))
        near = space.dist_block(members[u:u + 1], members)[0]
        dom = np.nonzero(near < csp.domain_radius)[0]
        for li in range(csp.m):
            radii[li][dom] = csp.law.sample(rng, len(dom))
        affected = space.candidates(members[dom], M)
        for li in range(csp.m):
            assign[li][affected] = _first_cover(table, colors, radii[li], affected)
        violated = violated_now()
        rounds += 1
        history.append(int(violated.sum()))
    residual = int(violated.sum())
    assignments = [RadiusAssignment(t, l, M) for t in radii]
    layers = [PartitionLayer(net, a) for a in assign]
    return MoserTardosResult(residual == 0, rounds, assignments, history, residual, layers)


@dataclass
class CertifiedRun:
    decomposition: PaddedDecomposition
    report: VerificationReport
    meta: dict
    partition_layers: list  # the m carved PartitionLayers backing the claim


def certify_decomposition(net: Net, schedule, seed: int,
                          max_rounds: int | None = None) -> CertifiedRun:
    """Run the resampler on the net's space and verify the claimed padding of
    the layers it carved: (R, D) = (probe radius, 2M).  Raises
    :class:`MoserTardosFailure` when the resampler gives up."""
    csp = csp_from_schedule(net, schedule)
    # by name: perfbench/tracer.py reads net and csp at their parameter names
    result = moser_tardos(net=net, csp=csp, seed=seed, max_rounds=max_rounds)
    if not result.success:
        raise MoserTardosFailure(result)
    layers = [layer.cluster_sets() for layer in result.layers]
    pd = PaddedDecomposition(net, layers, R=csp.probe_radius, D=2 * result.assignments[0].M)
    report = verify_padded(pd)
    meta = {
        "seed": seed,
        "rounds": result.rounds,
        "violated_history": result.violated_history,
        "schedule": schedule_to_json(schedule),
        "probe_radius": csp.probe_radius,
        "domain_radius": csp.domain_radius,
        "m": csp.m,
    }
    return CertifiedRun(pd, report, meta, result.layers)


# ---------------------------------------------------------------------------
# Schedule serialization
# ---------------------------------------------------------------------------


_SCHEDULES = {cls.kind: cls for cls in (TexpSchedule, TgeoRun)}


def schedule_to_json(schedule) -> dict:
    if type(schedule) not in _SCHEDULES.values():
        raise TypeError(f"cannot serialize {type(schedule).__name__}")
    return {"kind": schedule.kind,
            **{f.name: getattr(schedule, f.name) for f in fields(schedule) if f.init}}


def schedule_from_json(doc: dict):
    """A schedule from its JSON object: its kind and its class's fields, which the class reads."""
    if not isinstance(doc, dict):
        raise ConfigError(f"a schedule must be a JSON object, got {_shown(doc)}")
    kind = doc.get("kind")
    cls = _SCHEDULES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown schedule kind {_shown(kind)}")
    names = [f.name for f in fields(cls) if f.init]
    _known_keys(doc, f"a {kind} schedule", ["kind", *names])
    return cls(**{name: doc[name] for name in names})
