"""Layer decomposition of integer demand and ramp projection.

Integer demand splits into stacked 0/1 subproblems: layer ``i`` demands one
unit at slot ``t`` exactly when ``d(t) >= i``, so the layer demands sum back
to ``d``.  Each layer runs the binary online algorithm independently; layers
indexed above the generator capacity are forced onto the grid, which keeps
the combined output within capacity by construction.

Schedules produced without ramp awareness are made ramp-feasible afterwards
by a forward clamp that walks the cycle once.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .model import BillingParams, Schedule, Trace, _frozen, _premium_mass, check_pairing
from .online import Algorithm, RunRecord, _as_algorithm, run_algorithm
from .prediction import Prediction
from .validators import check_seed, is_real, read_reals


@dataclass(frozen=True, eq=False)
class LayerStack:
    """Binary layers of an integer-demand trace, bottom (layer 1) first."""

    layers: tuple[Trace, ...]
    depth: int


def decompose(trace: Trace) -> LayerStack:
    """Split integer demand into 0/1 layers that sum back to the original.

    Kept on the trace: the first call builds the stack and every later
    call on the same trace object returns that same stack.  Threads racing
    on a new trace may each build one, but all of them get the one stored
    first.
    """
    stack = trace.__dict__.get("_layer_stack")
    if stack is not None:
        return stack
    if not trace.has_integer_demands():
        raise DomainError("layer decomposition requires integer demands")
    d = trace.demands
    depth = int(trace.max_demand)
    # the layers share the parent's frozen prices; only demands are new
    layers = tuple(
        Trace(prices=trace.prices, demands=_frozen((d >= i).astype(float))) for i in range(1, depth + 1)
    )
    return trace.__dict__.setdefault("_layer_stack", LayerStack(layers=layers, depth=depth))


@lru_cache(maxsize=1024)
def _layer_seed(seed: int, layer_index: int) -> int:
    # Layer 1 keeps the root seed so a single-layer run reproduces a plain
    # run_algorithm call; higher layers get independent derived streams.
    seed = check_seed(seed)
    if layer_index == 1:
        return seed
    return int(np.random.SeedSequence([seed, layer_index]).generate_state(1)[0])


def _layer_sigma_hats(sigma_hats, depth: int) -> list[float | None]:
    if sigma_hats is None:
        return [None] * depth
    rule = "must be a real number or one per layer"
    hats = read_reals(sigma_hats, "sigma_hats", real=rule)
    if is_real(sigma_hats):
        return [float(hats)] * depth
    if hats.ndim != 1:  # a 0-d array is not a real number
        raise DomainError(f"sigma_hats {rule}, got {sigma_hats!r}")
    if len(hats) != depth:
        raise DomainError(f"got {len(hats)} per-layer sigma_hat values for {depth} layers")
    return hats.tolist()


def _layer_masses(premium: np.ndarray, rows, p_m: float) -> list[float]:
    """The premium mass of each 0/1 layer row, at one premium vector for all rows."""
    return [_premium_mass(premium, row, p_m) for row in rows]


def true_layer_sigma_hats(trace: Trace, params: BillingParams) -> list[float]:
    """Per-layer premium masses of the true trace (a perfect predictor)."""
    layers = decompose(trace).layers
    check_pairing(trace, params)
    return _layer_masses(params.p_g - trace.prices, (layer.demands for layer in layers), params.p_m)


def flipped_layer_sigma_hats(trace: Trace, params: BillingParams) -> list[float]:
    """Per-layer predictions forced onto the wrong side of the switch test."""
    return [0.0 if s > 1 else 2.0 for s in true_layer_sigma_hats(trace, params)]


def predicted_layer_sigma_hats(prediction: Prediction, params: BillingParams, depth: int) -> list[float]:
    """Per-layer premium masses of a predicted trace.

    Layer ``i`` of the prediction demands one unit where the predicted
    demand reaches ``i``; its mass uses the predicted prices.
    """
    rows = (prediction.demands >= i for i in range(1, depth + 1))
    return _layer_masses(params.p_g - prediction.prices, rows, params.p_m)


def run_layered(
    trace: Trace,
    params: BillingParams,
    algorithm: Algorithm | str,
    lam: float | None = None,
    sigma_hats=None,
    seed: int | None = None,
) -> Schedule:
    """Run a binary algorithm on every capacity-eligible layer and sum.

    ``sigma_hats`` is a real scalar applied to all layers or a sequence with
    one real value per layer.  Layers indexed above the capacity buy from
    the grid outright.  Randomized algorithms draw each layer's threshold
    with a seed derived from ``(seed, layer index)``, so runs are
    reproducible and layers independent; a seed, where given, must be a
    non-negative integer.
    """
    algorithm = _as_algorithm(algorithm)
    if seed is not None:
        seed = check_seed(seed)
    stack = decompose(trace)
    hats = _layer_sigma_hats(sigma_hats, stack.depth)
    seeded = seed is not None and algorithm.is_randomized
    u = np.zeros(len(trace))
    for i, (layer, hat) in enumerate(zip(stack.layers, hats), start=1):
        if i > params.capacity:
            break  # this layer and all above it buy from the grid: v covers them
        layer_seed = _layer_seed(seed, i) if seeded else None
        record: RunRecord = run_algorithm(
            layer, params, algorithm, lam=lam, sigma_hat=hat, seed=layer_seed
        )
        # the layer serves its demand locally before its switch slot, so no
        # per-layer schedule is built
        slot = len(trace) if record.switch_slot is None else record.switch_slot
        u[:slot] += layer.demands[:slot]
    # u counts whole units, so d - u is exactly the sum of the layers' grid purchases
    return Schedule(u=_frozen(u), v=_frozen(trace.demands - u))


def project_ramp_block(u, v, demands, capacity, ramp) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Project many schedules on one trace onto the ramp-feasible set, in one
    forward pass over the slots.

    ``u`` and ``v`` hold each schedule's outputs and grid purchases, one row
    per schedule (a 2-D array or a list of vectors); ``capacity`` and
    ``ramp`` are a value for every row or one for all rows; ``demands`` is
    the trace's, and every input is non-negative.  Every row gets
    :func:`project_ramp`'s rule, element-wise: ``max(lo, min(want, hi))``
    with ``lo = max(0, prev - R)`` and ``hi = min(C, d(t), prev + R)``.
    ``maximum`` and ``minimum`` pick one of their inputs and ``prev +/- R``
    is the same float sum, so each row is bit for bit what a scalar loop
    over that row gives.  Once the slots are done, yields each row's
    projected outputs and purchases in turn, as new read-only vectors that a
    ``Schedule`` keeps without a copy.
    """
    rows = len(u)
    ramp = np.broadcast_to(np.asarray(ramp, dtype=float), (rows,))
    # min(want, C, d(t)), slot-major so that each step reads and writes one
    # contiguous row of ``rows``; the steps overwrite it with the outputs
    level = np.minimum(np.broadcast_to(np.asarray(capacity, dtype=float), (rows,)), demands[:, None])
    for column, want in zip(level.T, u):
        np.minimum(want, column, out=column)
    lo = np.empty(rows)
    hi = np.empty(rows)
    prev = np.zeros(rows)
    for step in level:
        # the floor at 0 is left out of lo: min(want, C, d(t), prev + R) >= 0 already
        np.subtract(prev, ramp, out=lo)
        np.minimum(step, np.add(prev, ramp, out=hi), out=hi)
        prev = np.maximum(lo, hi, out=step)
    for column, grid in zip(level.T, v):
        # a tie of 0.0 and -0.0 may resolve either way; the scalar rule's
        # zeros are all +0.0 (a zero output is its floor), and adding 0.0 gives that
        out = _frozen(column + 0.0)
        yield out, _frozen(np.maximum(grid, demands - out))


def project_ramp(schedule: Schedule, trace: Trace, params: BillingParams) -> Schedule:
    """Project a schedule onto the ramp-feasible set by one forward pass.

    Each output is clamped into ``[max(0, prev - R), min(C, d(t), prev +
    R)]`` starting from a pre-cycle level of 0.  When demand falls faster
    than the generator may ramp down, that interval is empty and the output
    is pinned to its ramp-feasible minimum (briefly over-generating), which
    keeps the projection feasible and idempotent.  Grid purchases are then
    raised wherever the clamped output leaves demand uncovered.  This is
    the one-row case of :func:`project_ramp_block`.
    """
    if params.ramp is None:
        raise DomainError("project_ramp needs a ramp limit in the billing parameters")
    if len(schedule) != len(trace):
        raise DomainError("schedule and trace lengths differ")
    [(u, v)] = project_ramp_block([schedule.u], [schedule.v], trace.demands, params.capacity, params.ramp)
    return Schedule(u=u, v=v)
