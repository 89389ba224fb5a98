"""Central-finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError
from .forkpool import ForkPool, available_cpus
from .tensor import Tape, Tensor, backward, no_grad, use_tape


#: Coordinates per probed chunk. Chunks go to the processes in turn, in
#: coordinate order, so one large parameter does not load one process.
PROBE_CHUNK = 64


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    passed: bool
    checked: int = 0
    skipped_kinks: int = 0


def _rel_err(a: float, b: float, floor: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    tol: float = 1e-4,
    h: float = 1e-5,
    floor: float = 1e-8,
) -> GradCheckReport:
    """Compare analytic grads of the scalar f() against central differences.

    f must be a pure function of the current param values. Each coordinate is
    probed with the fourth-order five-point stencil (truncation O(h^4)), so
    the comparison noise stays far below the tolerance even for coordinates
    with small gradients. The rel-error denominator is floored (`floor`) so
    near-zero-gradient coordinates compare by absolute error tol*floor; raise
    the floor toward the model's typical gradient scale when coordinates sit
    below the finite-difference noise level.

    Kink exclusion: the stencil embeds two central estimates (half-width h
    and 2h) that agree to O(h^2) wherever f is smooth; coordinates where they
    disagree have a ReLU kink inside the probe interval, where the one-sided
    derivative is undefined, and are skipped (counted in the report).

    The coordinates are probed in chunks on up to min(chunks, available
    CPUs) processes, and the worst one is picked in coordinate order, so the
    report is the same on any CPU count.
    """
    for p in params.values():
        p.zero_grad()
    with use_tape(Tape()):
        loss = f()
        if not np.isfinite(loss.data).all():
            raise NumericError("grad_check: non-finite loss at the evaluation point")
        backward(loss)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for name, p in params.items()}

    def probe(chunk: list[tuple[str, int]]) -> list[float | None]:
        """Each coordinate's relative error, None where a kink is skipped;
        every probed value is put back, so each process keeps f's point."""
        errors = []
        with no_grad():
            for name, i in chunk:
                flat = params[name].data.reshape(-1)
                orig = flat[i]
                values = []
                for offset in (-2.0, -1.0, 1.0, 2.0):
                    flat[i] = orig + offset * h
                    values.append(float(f().data))
                flat[i] = orig
                if not all(np.isfinite(v) for v in values):
                    raise NumericError(f"grad_check: non-finite f near '{name}'[{i}]")
                m2, m1, p1, p2 = values
                inner_est = (p1 - m1) / (2.0 * h)
                outer_est = (p2 - m2) / (4.0 * h)
                if abs(inner_est - outer_est) > max(1e-7, 1e-5 * max(abs(inner_est), abs(outer_est))):
                    errors.append(None)
                    continue
                numeric = (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)
                errors.append(_rel_err(float(analytic[name].reshape(-1)[i]), numeric, floor))
        return errors

    coords = [(name, i) for name, p in params.items() for i in range(p.size)]
    chunks = [coords[lo : lo + PROBE_CHUNK] for lo in range(0, len(coords), PROBE_CHUNK)]
    with ForkPool(probe, min(len(chunks), available_cpus()) - 1, "grad_check: probe") as pool:
        errors = [err for part in pool.map((), chunks) for err in part]

    worst = 0.0
    worst_name = ""
    checked = 0
    skipped = 0
    for (name, i), err in zip(coords, errors):
        if err is None:
            skipped += 1
            continue
        checked += 1
        if err > worst:
            worst = err
            worst_name = f"{name}[{i}]"
    return GradCheckReport(max_rel_error=worst, worst_param=worst_name, passed=worst < tol,
                           checked=checked, skipped_kinks=skipped)
