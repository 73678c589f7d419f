"""Spans and counters around calls into dbvsim's public functions.

The tracer replaces each listed function at every module attribute that
binds it (modules import by name, so ``mac_sign`` is bound in
``primitives``, ``protocols`` and ``attacks`` alike) and restores the
originals on ``uninstall``.  Nothing in ``src/`` is edited.

A span is (id, name, start_ns, end_ns, parent id, operation id).  Spans stay
in memory and are written out once, when the run ends.  Self time is a
span's duration minus the durations of its direct children; calls run on
one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

from dbvsim import attacks, bounds, channel, montecarlo, optimize, primitives, protocols

#: Bits of the length prefix primitives.mac_sign hashes before the message.
_MAC_LENGTH_PREFIX_BITS = 64


def _mac_blocks(counts, key, message_bits, *_a, **_k):
    bits = _MAC_LENGTH_PREFIX_BITS + int(np.size(message_bits))
    counts["primitives.mac_blocks"] += math.ceil(bits / key.field_bits)


def _sampler(counts, _key, n, k, *_a, **_kw):
    counts["primitives.sampler_k"] += k
    counts["primitives.sampler_n"] += n


def _samples(counts, sig, *_a, **_k):
    counts["channel.samples"] += int(np.size(sig))


def _source(counts, _e, n, *_a, **_k):
    counts["protocols.source_bits"] += n


def _read(counts, _self, indices, *_a, **_k):
    counts["protocols.positions_read"] += int(np.size(indices))


def _tail_terms(counts, k, beta, p, *_a, **_k):
    """Terms bounds._binomial_tails sums: the smaller side of the cut."""
    k = int(k)
    cut = bounds.max_errors(beta, k)
    if cut < 0 or cut >= k or p in (0.0, 1.0):
        return
    counts["bounds.tail_terms"] += cut + 1 if (cut + 0.5) < k * p else k - cut


#: (layer, function name, counter fed from the call's arguments).
#: ``Class.method`` names a method of a class defined in the layer's module.
TRACED = (
    ("channel", "random_bits", None),
    ("channel", "bpsk_modulate", None),
    ("channel", "propagate", _samples),
    ("channel", "bpsk_demodulate", None),
    ("primitives", "mac_sign", _mac_blocks),
    ("primitives", "mac_verify", None),
    ("primitives", "MacKey.generate", None),
    ("primitives", "sample_indices", _sampler),
    ("protocols", "run_pi1", None),
    ("protocols", "run_pi2", None),
    ("protocols", "run_pi3", None),
    ("protocols", "brm_source_emit", _source),
    ("protocols", "RetrievalAudit.read", _read),
    ("protocols", "verify_response", None),
    ("attacks", "attack_dfa", None),
    ("attacks", "attack_mfa", None),
    ("attacks", "attack_impersonation", None),
    ("attacks", "attack_tfa_relay", None),
    ("attacks", "attack_tfa_sampling", None),
    ("attacks", "attack_tfa_general", None),
    ("montecarlo", "estimate_rates", None),
    ("montecarlo", "run_trial", None),
    ("montecarlo", "exact_success_probability", None),
    ("montecarlo", "clopper_pearson", None),
    ("bounds", "exact_binomial_tail_lower", _tail_terms),
    ("bounds", "exact_binomial_tail_upper", _tail_terms),
    ("bounds", "challenge_length_dfa", None),
    ("bounds", "challenge_length_brm_general", None),
    ("bounds", "challenge_length_brm_sampling", None),
    ("optimize", "optimize_dfa", None),
    ("optimize", "optimize_brm", None),
    ("optimize", "max_feasible_lambda", None),
    ("optimize", "sweep_curves", None),
)

#: Counted without a span: the optimizer's outer loop evaluates it thousands
#: of times per call.
OUTER_EVAL = ("channel", "intended_blocked_ber", "optimize.outer_evals")

COUNTERS = (
    "channel.samples",
    "primitives.mac_blocks",
    "primitives.sampler_k_over_n",
    "protocols.source_bits",
    "protocols.positions_read",
    "protocols.source_read_share",
    "protocols.retrieval_cap_errors",
    "bounds.tail_terms",
    "optimize.outer_evals",
)

_LAYERS = {
    "channel": channel,
    "primitives": primitives,
    "protocols": protocols,
    "attacks": attacks,
    "montecarlo": montecarlo,
    "bounds": bounds,
    "optimize": optimize,
}


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fn, _ in TRACED]


class Tracer:
    """Records spans and counts while installed; accumulates across installs.

    ``bind_in`` names modules outside dbvsim (the benchmark's own) whose
    bindings of the traced functions are replaced too.
    """

    def __init__(self, bind_in: tuple = ()) -> None:
        self._bind_in = tuple(bind_in)
        self.op: Optional[int] = None
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        # Open spans: [id, name, start_ns, children_ns].
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self.counts, *args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, name, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except protocols.RetrievalCapError:
                if name == "protocols.RetrievalAudit.read":
                    self.counts["protocols.retrieval_cap_errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                spans.append((span_id, name, frame[2], end, parent, self.op))

        return traced

    def _count_only(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _bind_everywhere(self, original: Callable, replacement: Callable) -> None:
        modules = [m for n, m in sys.modules.items() if n == "dbvsim" or n.startswith("dbvsim.")]
        for mod in modules + list(self._bind_in):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer, fn_name, counter in TRACED:
            mod = _LAYERS[layer]
            name = f"{layer}.{fn_name}"
            if "." in fn_name:
                cls_name, meth = fn_name.split(".")
                cls = getattr(mod, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    wrapped = self._wrap(name, raw, counter)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
            else:
                original = getattr(mod, fn_name)
                self._bind_everywhere(original, self._wrap(name, original, counter))
        layer, fn_name, key = OUTER_EVAL
        original = getattr(_LAYERS[layer], fn_name)
        self._bind_everywhere(original, self._count_only(key, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def counters(self) -> dict[str, float]:
        c = self.counts
        k, n = c["primitives.sampler_k"], c["primitives.sampler_n"]
        read, source = c["protocols.positions_read"], c["protocols.source_bits"]
        out = {name: c[name] for name in COUNTERS}
        out["primitives.sampler_k_over_n"] = k / n if n else 0.0
        out["protocols.source_read_share"] = read / source if source else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op\n")
            for span_id, name, start, end, parent, op in sorted(self.spans):
                fh.write(f"{span_id},{name},{start},{end},"
                         f"{'' if parent is None else parent},{'' if op is None else op}\n")

