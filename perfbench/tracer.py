"""Span recorder for the traced in-process run of the benchmark.

`traced(package)` wraps every public function of the layer modules in a
span and installs the wrapper in every namespace of the package that holds
a reference to the function (observables imports
`thermal_state_density_expansion` by name, so both `thermal` and
`observables` get the wrapper).  On exit the originals are restored.

Spans are kept in memory.  Each thread has its own stack; a span opened on
a thread with an empty stack (a sweep thread-pool worker) takes as parent
the innermost open span of the thread that started the recorder, so pool
work nests under its `cli.cmd_*` span.  Self time is a span's duration
minus the part of it covered by its children, with overlapping children
(parallel workers) counted once.

Besides timing, a few calls are observed through their arguments and return
values; `exact_metrics` derives its counts from those observations and
from call counts, never from the clock, so they repeat exactly between runs.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("cli", "thermal", "observables", "fock", "gates", "verify")


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent, start, end]
        self.observed: list[tuple] = []  # (invocation, name, facts)
        self.invocation = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, observe=None):
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent_stack = stack or self._root_stack
            parent = parent_stack[-1] if parent_stack else None
            span = [name, parent, time.perf_counter(), None]
            with self._lock:
                self.spans.append(span)
                stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.observed.append(
                    (self.invocation, name, observe(bound.arguments, result)))
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Summed self time in seconds per span name."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, parent, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, float] = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out


# ---------------------------------------------------------------------------
# observations: facts taken from arguments and return values
# ---------------------------------------------------------------------------

def _observe_cutoff(args, result):
    return result


def _observe_density(args, result):
    return (args["amps"].as_tuple(), args["params"].n_bar, args["cutoff"])


MAX_WIDENINGS = 8


def _observe_wigner(args, result):
    """(full-grid evaluations, points per grid, key of the grid kept).

    A widening call evaluates the start grid and each doubling of it up to
    the grid it returns; a returned grid that is no doubling of the start
    grid counts as one evaluation."""
    from thermoqubit.observables import GridSpec

    grid, widen = args["grid"], args["widen"]
    if widen is None:
        widen = grid is None
    spec = grid if grid is not None else GridSpec()
    evals = 1
    if widen:
        for doublings in range(MAX_WIDENINGS + 1):
            if spec == result.spec:
                evals = doublings + 1
                break
            spec = spec.doubled()
    kept = result.spec
    rho = args["rho"].data
    digest = hashlib.sha256(rho.tobytes()).hexdigest()
    return (evals, kept.nq * kept.np, (digest, rho.shape, kept))


def _observe_verify(args, result):
    return (result["counts"]["total"], result["counts"]["failed"])


OBSERVERS = {
    "thermal.auto_cutoff": _observe_cutoff,
    "thermal.thermal_state_density_expansion": _observe_density,
    "observables.wigner_from_density": _observe_wigner,
    "verify.run_verification": _observe_verify,
}


def public_functions(module):
    return [(name, obj) for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


@contextmanager
def traced(package: str, recorder: SpanRecorder):
    """Install span wrappers on the layer modules of `package`."""
    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == package
                                        or n.startswith(package + "."))]
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for name, fn in public_functions(module):
            span = f"{layer}.{name}"
            wrappers[id(fn)] = recorder.wrap(span, fn, OBSERVERS.get(span))
    patched = []
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and inspect.isfunction(value):
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    try:
        yield recorder
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SELF_TIMED = (
    "cli.cmd_sweep_fidelity", "cli.cmd_sweep_mandel", "cli.cmd_wigner_grid",
    "cli.cmd_verify",
    "thermal.auto_cutoff", "thermal.thermal_state_density_expansion",
    "thermal.thermal_state_density_operator", "thermal.thermal_number_states",
    "thermal.bogoliubov_unitary", "thermal.gate_thermalization_residual",
    "fock.tensor_product", "fock.reduce_pure_state",
    "observables.fidelity_numeric", "observables.fidelity_closed_form",
    "observables.mandel_numeric", "observables.mandel_closed_form",
    "observables.wigner_from_density", "observables.wigner_closed_form",
    "verify.run_verification",
)
COUNTED = (
    "thermal.auto_cutoff", "thermal.thermal_state_density_expansion",
    "fock.reduce_pure_state", "observables.fidelity_numeric",
    "observables.wigner_from_density",
)


def _distinct_ratio(facts: list[tuple], attempts: int) -> float:
    """Distinct (invocation, key) facts over attempts.  Keys are distinct per
    CLI invocation because each command is its own process for users; 1.0
    when nothing was attempted (nothing wasted)."""
    if attempts == 0:
        return 1.0
    return len(set(facts)) / attempts


def timed_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Self times from the clock: these vary from run to run."""
    stats = recorder.self_times()
    out = {f"{name}.self_s": stats.get(name, 0.0) for name in SELF_TIMED}
    out["gates.self_s"] = sum((total for name, total in stats.items()
                               if name.startswith("gates.")), 0.0)
    return out


def exact_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Counts from calls, arguments and return values: these repeat."""
    calls: dict[str, int] = {}
    for name, *_ in recorder.spans:
        calls[name] = calls.get(name, 0) + 1
    out = {f"{name}.calls": calls.get(name, 0) for name in COUNTED}

    def facts(name):
        return [(inv, f) for inv, n, f in recorder.observed if n == name]

    cutoffs = [f for _, f in facts("thermal.auto_cutoff")]
    out["thermal.cutoff_max"] = max(cutoffs, default=0)
    out["thermal.cutoff_sum"] = sum(cutoffs)
    builds = facts("thermal.thermal_state_density_expansion")
    out["thermal.density_builds_useful_ratio"] = _distinct_ratio(
        builds, len(builds))
    wigner = facts("observables.wigner_from_density")
    evals = sum(f[0] for _, f in wigner)
    out["observables.wigner_grid_evals"] = evals
    out["observables.wigner_points_evaluated"] = sum(f[0] * f[1]
                                                     for _, f in wigner)
    out["observables.wigner_useful_ratio"] = _distinct_ratio(
        [(inv, f[2]) for inv, f in wigner], evals)
    checks = [f for _, f in facts("verify.run_verification")]
    out["verify.checks_total"] = sum(total for total, _ in checks)
    out["verify.checks_failed"] = sum(failed for _, failed in checks)
    return out
