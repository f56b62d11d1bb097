"""Finite-SCM verifier for the front-door adjustment the prompt pipeline
relies on.

Variable roles: D is the hidden confounder, T the task, S_prev the prior
step, P the constructed prompt, S the generated step. Graph edges are
D->T, D->S, T->P, S_prev->P, P->S; everything is discrete and small, so
joints are enumerated exactly and the interventional ground truth comes
from graph surgery. The front-door estimate is then computed from the
observational joint alone (no access to D) and compared against surgery.

The S mechanism is stored with the full conditioning signature
P(S | P, T, S_prev, D) so that graphs violating the structure above can
be expressed for negative tests; a table constant in the T and S_prev
slots is what the drawn random SCMs produce. SCMs are built in code
(``random_scm``, ``confounded_example``, ``from_mechanisms``); there is
no SCM file format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIABLES = ("D", "T", "S_prev", "P", "S")
INTERVENABLE = ("T", "S_prev", "P")
TABLES = ("p_d", "p_t_given_d", "p_sprev", "p_p_given_t_sprev", "p_s")

_ROW_TOL = 1e-12


def _check_rows(name, table):
    arr = np.asarray(table, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError(f"{name} has a negative entry")
    sums = arr.sum(axis=-1)
    if not np.allclose(sums, 1.0, rtol=0, atol=_ROW_TOL):
        worst = float(np.abs(sums - 1.0).max())
        raise ValueError(f"{name} rows must sum to 1 (worst deviation {worst:.3e})")
    return arr


def _support_index(supports, variable, value):
    support = supports[variable]
    try:
        return support.index(value)
    except ValueError:
        raise ValueError(f"value {value!r} not in support of {variable} {list(support)}") from None


@dataclass(frozen=True)
class DiscreteSCM:
    supports: dict  # variable name -> tuple of value labels
    p_d: np.ndarray  # [D]
    p_t_given_d: np.ndarray  # [D, T]
    p_sprev: np.ndarray  # [S_prev]
    p_p_given_t_sprev: np.ndarray  # [T, S_prev, P]
    p_s: np.ndarray  # [P, T, S_prev, D, S]

    def __post_init__(self):
        supports = {k: tuple(v) for k, v in self.supports.items()}
        missing = [v for v in VARIABLES if v not in supports or not supports[v]]
        if missing:
            raise ValueError(f"supports missing or empty for {missing}")
        object.__setattr__(self, "supports", supports)
        nd, nt = len(supports["D"]), len(supports["T"])
        nv, np_, ns = len(supports["S_prev"]), len(supports["P"]), len(supports["S"])
        shapes = ((nd,), (nd, nt), (nv,), (nt, nv, np_), (np_, nt, nv, nd, ns))
        for name, shape in zip(TABLES, shapes):
            arr = _check_rows(name, getattr(self, name))
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            object.__setattr__(self, name, arr)

    def index(self, variable, value):
        return _support_index(self.supports, variable, value)

    def joint(self):
        """Exact joint over (D, T, S_prev, P, S): surgery with no intervention."""
        return _surgery_joint(self, {})

    def observational_joint(self):
        return ObservationalJoint(
            supports={k: self.supports[k] for k in ("T", "S_prev", "P", "S")},
            table=self.joint().sum(axis=0),
        )


def from_mechanisms(supports, p_d, p_t_given_d, p_sprev, p_p_given_t_sprev, p_s_given_p_d):
    """Build an SCM whose S mechanism depends only on (P, D), broadcast into
    the general table layout."""
    p_s_given_p_d = np.asarray(p_s_given_p_d, dtype=np.float64)
    nt, nv = len(supports["T"]), len(supports["S_prev"])
    np_, nd, ns = p_s_given_p_d.shape
    p_s = np.broadcast_to(
        p_s_given_p_d[:, None, None, :, :], (np_, nt, nv, nd, ns)
    ).copy()
    return DiscreteSCM(supports, p_d, p_t_given_d, p_sprev, p_p_given_t_sprev, p_s)


@dataclass(frozen=True)
class ObservationalJoint:
    """Exact joint over (T, S_prev, P, S): what an observer without access
    to the confounder can tabulate."""

    supports: dict
    table: np.ndarray  # [T, S_prev, P, S]

    def __post_init__(self):
        supports = {k: tuple(v) for k, v in self.supports.items()}
        object.__setattr__(self, "supports", supports)
        arr = np.asarray(self.table, dtype=np.float64)
        if np.any(arr < 0):
            raise ValueError("joint has a negative entry")
        if abs(arr.sum() - 1.0) > 1e-9:
            raise ValueError(f"joint must sum to 1, got {arr.sum()!r}")
        object.__setattr__(self, "table", arr)

    def index(self, variable, value):
        return _support_index(self.supports, variable, value)

    def _conditional_given_t(self, variable, t_value):
        """Observational pi(variable | T=t) for variable P or S."""
        ti = self.index("T", t_value)
        axis = ("S_prev", "P", "S").index(variable)
        slice_t = self.table[ti].sum(axis=tuple(i for i in range(3) if i != axis))
        denom = slice_t.sum()
        if denom == 0.0:
            raise ValueError(f"conditioning event T={t_value} has zero probability")
        return dict(zip(self.supports[variable], (slice_t / denom).tolist()))

    def conditional_s_given_t(self, t_value):
        """Observational pi(S | T=t), what a naive reader of the data uses."""
        return self._conditional_given_t("S", t_value)

    def conditional_p_given_t(self, t_value):
        return self._conditional_given_t("P", t_value)


def _one_hot(size, index):
    row = np.zeros(size, dtype=np.float64)
    row[index] = 1.0
    return row


def _surgery_joint(scm, do_assignments):
    unknown = set(do_assignments) - set(INTERVENABLE)
    if unknown:
        raise ValueError(f"cannot intervene on {sorted(unknown)}; only {INTERVENABLE}")
    p_t = scm.p_t_given_d
    p_sprev = scm.p_sprev
    p_p = scm.p_p_given_t_sprev
    if "T" in do_assignments:
        ti = scm.index("T", do_assignments["T"])
        p_t = np.broadcast_to(_one_hot(p_t.shape[1], ti), p_t.shape)
    if "S_prev" in do_assignments:
        vi = scm.index("S_prev", do_assignments["S_prev"])
        p_sprev = _one_hot(p_sprev.shape[0], vi)
    if "P" in do_assignments:
        pi = scm.index("P", do_assignments["P"])
        p_p = np.broadcast_to(_one_hot(p_p.shape[2], pi), p_p.shape)
    return np.einsum(
        "d,dt,v,tvp,ptvds->dtvps", scm.p_d, p_t, p_sprev, p_p, scm.p_s
    )


def surgery_distribution(scm, do_assignments):
    """Ground-truth interventional distribution over S: point-mass the
    intervened mechanisms, enumerate the joint, marginalize."""
    return surgery_marginal(scm, do_assignments, "S")


def surgery_marginal(scm, do_assignments, variable):
    """Interventional marginal of any single variable (used by the front1
    and front2 identity checks)."""
    joint = _surgery_joint(scm, do_assignments)
    axis = VARIABLES.index(variable)
    keep = tuple(i for i in range(len(VARIABLES)) if i != axis)
    return dict(zip(scm.supports[variable], joint.sum(axis=keep).tolist()))


def _mediator_terms(table):
    """pi(t, v), pi(t, v, p) and pi(S | p, t, v) of a [T, S_prev, P, S]
    joint; the conditional is zero where pi(t, v, p) is."""
    m_tv = table.sum(axis=(2, 3))
    denom_tvp = table.sum(axis=3)
    cond_s = np.divide(
        table,
        denom_tvp[:, :, :, None],
        out=np.zeros_like(table),
        where=denom_tvp[:, :, :, None] > 0,
    )
    return m_tv, denom_tvp, cond_s


def frontdoor_estimate(joint, do_assignments):
    """Front-door adjustment from observational data alone:

        pi(S | do(T=t*), do(S_prev=v*))
            = sum_p pi(p | t*, v*) sum_{t,v} pi(S | p, t, v) pi(t, v)

    Raises ValueError, naming the event, when a conditional the sum needs
    has a zero-probability conditioning set.
    """
    if set(do_assignments) != {"T", "S_prev"}:
        raise ValueError("front-door estimate expects do-assignments for exactly T and S_prev")
    ti = joint.index("T", do_assignments["T"])
    vi = joint.index("S_prev", do_assignments["S_prev"])
    table = joint.table
    m_tv, denom_tvp, cond_s = _mediator_terms(table)
    denom_star = m_tv[ti, vi]
    if denom_star == 0.0:
        raise ValueError(
            f"conditioning event T={do_assignments['T']}, "
            f"S_prev={do_assignments['S_prev']} has zero probability"
        )
    p_given_star = table[ti, vi].sum(axis=1) / denom_star  # pi(p | t*, v*)

    needed = (m_tv[:, :, None] > 0) & (p_given_star[None, None, :] > 0)
    undefined = needed & (denom_tvp == 0)
    if np.any(undefined):
        t_i, v_i, p_i = (int(i[0]) for i in np.nonzero(undefined))
        raise ValueError(
            "conditioning event "
            f"T={joint.supports['T'][t_i]}, S_prev={joint.supports['S_prev'][v_i]}, "
            f"P={joint.supports['P'][p_i]} has zero probability"
        )
    estimate = np.einsum("p,tv,tvps->s", p_given_star, m_tv, cond_s)
    return dict(zip(joint.supports["S"], estimate.tolist()))


def front1_gap(scm):
    """Max deviation of pi(P | do(T=t)) from observational pi(P | T=t)
    across the T support."""
    joint = scm.observational_joint()
    worst = 0.0
    for t in scm.supports["T"]:
        by_surgery = surgery_marginal(scm, {"T": t}, "P")
        by_data = joint.conditional_p_given_t(t)
        worst = max(worst, max(abs(by_surgery[p] - by_data[p]) for p in scm.supports["P"]))
    return worst


def front2_gap(scm):
    """Max deviation of pi(S | do(P=p)) from the mediator-side summation
    sum_{t,v} pi(S | p, t, v) pi(t, v)."""
    m_tv, _, cond_s = _mediator_terms(scm.observational_joint().table)
    worst = 0.0
    for pi_, p in enumerate(scm.supports["P"]):
        by_surgery = surgery_distribution(scm, {"P": p})
        summed = np.einsum("tv,tvs->s", m_tv, cond_s[:, :, pi_, :])
        worst = max(
            worst,
            max(abs(by_surgery[s] - summed[si]) for si, s in enumerate(scm.supports["S"])),
        )
    return worst


def frontdoor_gap(scm):
    """Max elementwise gap between the front-door estimate and graph
    surgery over every (T, S_prev) intervention pair."""
    joint = scm.observational_joint()
    worst = 0.0
    for t in scm.supports["T"]:
        for v in scm.supports["S_prev"]:
            do = {"T": t, "S_prev": v}
            estimate = frontdoor_estimate(joint, do)
            truth = surgery_distribution(scm, do)
            worst = max(worst, max(abs(estimate[s] - truth[s]) for s in scm.supports["S"]))
    return worst


def _random_rows(rng, shape):
    """Rows sum to one with every entry at least 0.01: draw, normalize,
    then mix with the uniform floor."""
    k = shape[-1]
    if 0.01 * k >= 1.0:
        raise ValueError(f"support of size {k} too large for the 0.01 positivity floor")
    raw = rng.uniform(0.1, 1.0, size=shape)
    rows = raw / raw.sum(axis=-1, keepdims=True)
    return (1.0 - 0.01 * k) * rows + 0.01


def random_scm(seed):
    """Seeded SCM with supports of size 2..4, positivity floor 0.01 on
    every row, and an S mechanism that depends only on (P, D)."""
    rng = np.random.default_rng(seed)
    sizes = {v: int(rng.integers(2, 5)) for v in VARIABLES}
    supports = {v: tuple(f"{v.lower()}{i}" for i in range(sizes[v])) for v in VARIABLES}
    return from_mechanisms(
        supports=supports,
        p_d=_random_rows(rng, (sizes["D"],)),
        p_t_given_d=_random_rows(rng, (sizes["D"], sizes["T"])),
        p_sprev=_random_rows(rng, (sizes["S_prev"],)),
        p_p_given_t_sprev=_random_rows(rng, (sizes["T"], sizes["S_prev"], sizes["P"])),
        p_s_given_p_d=_random_rows(rng, (sizes["P"], sizes["D"], sizes["S"])),
    )


def confounded_example():
    """Binary D/T/P/S with a single prior step: the naive conditional
    pi(S | T) and the interventional pi(S | do(T)) disagree by a wide
    margin, and the front-door estimate recovers the interventional value."""
    supports = {
        "D": ("d0", "d1"),
        "T": ("t0", "t1"),
        "S_prev": ("v0",),
        "P": ("p0", "p1"),
        "S": ("s0", "s1"),
    }
    return from_mechanisms(
        supports=supports,
        p_d=[0.5, 0.5],
        p_t_given_d=[[0.9, 0.1], [0.1, 0.9]],
        p_sprev=[1.0],
        p_p_given_t_sprev=[[[0.9, 0.1]], [[0.1, 0.9]]],
        p_s_given_p_d=[
            [[0.9, 0.1], [0.5, 0.5]],  # P=p0: D=d0 row, D=d1 row
            [[0.5, 0.5], [0.1, 0.9]],  # P=p1
        ],
    )
