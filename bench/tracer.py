"""Span recorder for the traced benchmark run.

Spans are recorded only here, around calls into the public functions of the
cylsim modules; nothing in the package is edited.  `install` rebinds each
target in every cylsim module that holds it (so `from .czdec import
build_decomposition` in `sampler` is traced too) and `uninstall` restores the
originals.  A target that a later version of the package no longer has is
listed in `absent` instead of failing the run.

Calls made inside sampler pool workers are not traced: a forked worker
inherits the wrappers, but its spans stay in the worker's memory and are
discarded when it exits.
"""

from __future__ import annotations

import functools
import sys
import time

WORKER_NOTE = "calls made inside pool worker processes are not traced"


def _tag_first(args, kwargs):
    """Size tag of the first argument: n<qubits> for circuits, HxW for blocks."""
    a = args[0] if args else None
    if hasattr(a, "n_qubits"):
        return f"n{a.n_qubits}"
    if hasattr(a, "height") and hasattr(a, "width"):
        return f"{a.height}x{a.width}"
    return None


def _tag_threads(args, kwargs):
    threads = args[4] if len(args) > 4 else kwargs.get("threads")
    return f"t{threads}"


#: (module, attribute, tag function); "Class.method" attributes patch the class
TARGETS = (
    ("cli", "main", None),
    ("circuits", "ClusterCircuit.to_json", None),
    ("circuits", "ClusterCircuit.from_json", None),
    ("czdec", "build_decomposition", None),
    ("czdec", "lp_feasibility", None),
    ("sampler", "default_rep", None),
    ("sampler", "check_simulable", None),
    ("sampler", "sample_parallel", _tag_threads),
    ("oracle", "exact_distribution", _tag_first),
    ("oracle", "dense_output", _tag_first),
    ("oracle", "tv_distance", None),
    ("oracle", "normalize_counts", None),
    ("coarse", "s_estimate", _tag_first),
    ("coarse", "coeff_tensor", _tag_first),
    ("coarse", "block_value", _tag_first),
    ("coarse", "block_prob_contraction", _tag_first),
    ("coarse", "conjecture_fast_path", _tag_first),
    ("coarse", "find_negativity_witness", _tag_first),
)


class Tracer:
    """In-memory spans: (name, tag, start, end, parent index, operation id)."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, tagger):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else None
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, tag, start, end, parent, self.op)

        return traced

    def install(self) -> None:
        if self._restore:
            return
        self.absent = []
        loaded = [m for k, m in sys.modules.items() if k == "cylsim" or k.startswith("cylsim.")]
        for mod_name, attr, tagger in self.targets:
            name = f"{mod_name}.{attr.split('.')[-1]}"
            module = sys.modules.get(f"cylsim.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if raw is None:
                    self.absent.append(f"{mod_name}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, tagger))
                else:
                    new = self._wrap(name, raw, tagger)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(name, orig, tagger)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                out[s[4]] -= s[3] - s[2]
        return out

    def to_json(self) -> dict:
        keys = ("name", "tag", "start", "end", "parent", "op")
        return {
            "note": WORKER_NOTE,
            "absent": self.absent,
            "spans": [dict(zip(keys, s)) for s in self.spans],
        }
