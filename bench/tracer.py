"""Outside-in tracer for operadforge's layers.

The tracer wraps public functions of the library's modules from outside:
modules bind names at import (`terms` and `operad` import `cable`, `comb`
imports `normalize`, `normalize` imports `beta_step_at` and
`check_discipline`), so each function is replaced at every binding site,
found by identity in every loaded `operadforge` module.  One wrapper serves
all sites of a function.  Only the outermost call of a function is timed:
`canon_braids` and `to_lambda` recurse through their module global, and the
inner calls pass straight through.  `shift` and `subst` are not wrapped.

Spans (name, start, end, parent, operation id) are kept in compact arrays
and written once, at the end.  Per-function totals are kept as the spans
close: calls, time, and self time (duration minus the durations of the
traced calls it made).  The bookkeeping a probe does after a call, such as
printing a term to key it, is charged to neither the call nor its parent's
self time.

The wrappers do nothing unless an operation is running under `run_op`.
"""

from __future__ import annotations

import array
import gzip
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

# (span name, module, function), outermost layer last.
TRACED = (
    ("braids.handle_reduce", "braids", "handle_reduce"),
    ("braids.braid_is_trivial", "braids", "braid_is_trivial"),
    ("braids.cable", "braids", "cable"),
    ("terms.check_discipline", "terms", "check_discipline"),
    ("terms.beta_step_at", "terms", "beta_step_at"),
    ("normalize.normalize", "normalize", "normalize"),
    ("normalize.canon_braids", "normalize", "canon_braids"),
    ("normalize.eta_contract", "normalize", "eta_contract"),
    ("normalize.lam_equal", "normalize", "lam_equal"),
    ("normalize.canonical_equal", "normalize", "canonical_equal"),
    ("comb.comb_equal", "comb", "comb_equal"),
    ("comb.comb_normal_form", "comb", "comb_normal_form"),
    ("comb.to_lambda", "comb", "to_lambda"),
    ("comb.sample_closed", "comb", "sample_closed"),
    ("operad.check_equivariance", "operad", "check_equivariance"),
)

OP_SPAN = "op"

# Passed to a probe in place of the result when the traced call raised.
RAISED = object()


class Stat:
    __slots__ = ("calls", "s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.names = [OP_SPAN] + [name for name, _, _ in TRACED]
        self.stats = {name: Stat() for name in self.names}
        self.parent = array.array("i")
        self.name = array.array("H")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[list] = []  # open spans: [index, start, child seconds]
        self.active = False
        self.op_id = -1
        self.t0 = perf_counter()
        self._restore: list[tuple[object, str, object]] = []
        self._normalize_inputs: set = set()
        self._subterms: dict = {}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every binding site."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "operadforge" or name.startswith("operadforge.")
        }
        self._lib = {short: mods[f"operadforge.{short}"] for _, short, _ in TRACED}
        probes = {
            "braids.handle_reduce": self._probe_handle_reduce,
            "braids.braid_is_trivial": self._probe_braid_is_trivial,
            "braids.cable": self._probe_cable,
            "terms.check_discipline": self._probe_check_discipline,
            "normalize.normalize": self._probe_normalize,
            "comb.comb_equal": self._probe_comb_equal,
            "comb.comb_normal_form": self._probe_comb_normal_form,
        }
        self._normalize_sig = inspect.signature(self._lib["normalize"].normalize)
        for span, short, attr in TRACED:
            fn = getattr(self._lib[short], attr)
            wrapper = self._wrap(span, fn, probes.get(span))
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def _wrap(self, span: str, fn, probe):
        tracer = self
        nid = self.names.index(span)
        stat = self.stats[span]
        depth = 0

        def wrapper(*args, **kwargs):
            nonlocal depth
            if depth or not tracer.active:
                return fn(*args, **kwargs)
            depth = 1
            frame = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                depth = 0
                tracer._close(frame, stat, probe, args, kwargs, RAISED)
                raise
            depth = 0
            tracer._close(frame, stat, probe, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans ----------------------------------------------------------------

    def _open(self, nid: int) -> list:
        idx = len(self.start)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.end.append(0.0)
        t = perf_counter()
        self.start.append(t - self.t0)
        frame = [idx, t, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame, stat, probe=None, args=(), kwargs=None, result=None) -> None:
        t = perf_counter()
        dur = t - frame[1]
        self.end[frame[0]] = t - self.t0
        self.stack.pop()
        stat.calls += 1
        stat.s += dur
        stat.self_s += dur - frame[2]
        if probe is not None:
            probe(stat, frame, dur, args, kwargs, result)
        if self.stack:
            self.stack[-1][2] += perf_counter() - frame[1]

    def run_op(self, op_id: int, call):
        """Run one operation under a root span, with the wrappers live."""
        self.op_id = op_id
        self.active = True
        frame = self._open(0)
        try:
            return call()
        finally:
            self._close(frame, self.stats[OP_SPAN])
            self.active = False

    def _parent_name(self) -> str:
        return self.names[self.name[self.stack[-1][0]]] if self.stack else ""

    def _had_children(self, frame) -> bool:
        return len(self.start) > frame[0] + 1

    # -- probes: counts taken at the boundary, after the call ------------------

    def _probe_handle_reduce(self, stat, frame, dur, args, kwargs, result):
        stat.add("letters_in", len(args[0].letters))
        if result is not RAISED:
            stat.add("letters_out", len(result.letters))

    def _probe_braid_is_trivial(self, stat, frame, dur, args, kwargs, result):
        if result is False and not self._had_children(frame):
            stat.add("fast_rejects", 1)

    def _probe_cable(self, stat, frame, dur, args, kwargs, result):
        if result is not RAISED:
            stat.add("letters_out", len(result.letters))

    def _probe_check_discipline(self, stat, frame, dur, args, kwargs, result):
        stat.add("nodes", args[0].size)

    def _probe_normalize(self, stat, frame, dur, args, kwargs, result):
        bound = self._normalize_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        t = a["t"]
        # LTerm nodes define __eq__ without __hash__, so key on the printed term.
        key = (a["d"].value, a["ctx"].names, self._lib["terms"].pretty(t))
        if key in self._normalize_inputs:
            stat.add("repeat_inputs", 1)
        else:
            self._normalize_inputs.add(key)
        stat.add("nodes_in", t.size)
        if result is not RAISED:
            stat.add("nodes_out", result.size)

    def _probe_comb_equal(self, stat, frame, dur, args, kwargs, result):
        nodes = self._intern(stat, args[0]) + self._intern(stat, args[1])
        if self._parent_name() == "operad.check_equivariance":
            self.stats["operad.check_equivariance"].add("expr_nodes", nodes)
        if str(result) == "FuelExhausted":
            stat.add("exhausted_s", dur)
        elif result is not RAISED:
            stat.add("conclusive", 1)

    def _probe_comb_normal_form(self, stat, frame, dur, args, kwargs, result):
        self._intern(stat, args[0])

    def _intern(self, stat: Stat, c) -> int:
        """Count c's compound subterms (CApp, Bullet), and those of them
        already seen in the run, into stat; returns c's node count."""
        comb = self._lib["comb"]
        table = self._subterms
        seen = total = 0

        def go(u):
            nonlocal seen, total
            if isinstance(u, comb.CApp):
                kf, nf = go(u.fn)
                ka, na = go(u.arg)
                key = ("a", kf, ka)
                size = 1 + nf + na
            elif isinstance(u, comb.Bullet):
                ka, na = go(u.arg)
                key = ("b", ka)
                size = 1 + na
            else:
                return u, 1
            total += 1
            ident = table.get(key)
            if ident is None:
                ident = table[key] = len(table)
            else:
                seen += 1
            return ident, size

        _, size = go(c)
        stat.add("subterms", total)
        stat.add("repeat_subterms", seen)
        return size

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Raw totals per span name (deterministic counts plus seconds)."""
        return {
            name: {"calls": st.calls, "s": st.s, "self_s": st.self_s, **st.counts}
            for name, st in self.stats.items()
        }

    def write_spans(self, path: Path) -> None:
        """One JSON header line, then each column's raw bytes, gzipped."""
        columns = [
            ("parent", self.parent),
            ("name", self.name),
            ("op", self.op),
            ("start", self.start),
            ("end", self.end),
        ]
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [[col, arr.typecode] for col, arr in columns],
            "clock": "seconds since the tracer was created",
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                fh.write(arr.tobytes())


def load_spans(path: Path) -> tuple[dict, dict[str, array.array]]:
    """Read a file written by `Tracer.write_spans`."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for col, code in header["columns"]:
            arr = array.array(code)
            arr.frombytes(fh.read(arr.itemsize * header["count"]))
            cols[col] = arr
    return header, cols


def layer_metrics(totals: dict[str, dict[str, float]], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: counts and seconds per operation, and shares."""

    def get(span: str, key: str) -> float:
        return totals[span].get(key, 0)

    def per_op(span: str, key: str) -> float:
        return get(span, key) / ops

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    per_op_fields = {
        "braids.handle_reduce": ("calls", "s", "letters_in", "letters_out"),
        "braids.braid_is_trivial": ("calls",),
        "braids.cable": ("calls", "s", "letters_out"),
        "terms.check_discipline": ("calls", "s", "nodes"),
        "terms.beta_step_at": ("calls", "s"),
        "normalize.normalize": ("calls", "s", "nodes_in", "nodes_out"),
        "normalize.canon_braids": ("s",),
        "normalize.eta_contract": ("s",),
        "normalize.lam_equal": ("calls", "s", "self_s"),
        "normalize.canonical_equal": ("s",),
        "comb.comb_equal": ("calls", "s"),
        "comb.comb_normal_form": ("calls", "s"),
        "comb.to_lambda": ("s",),
        "comb.sample_closed": ("calls", "s"),
        "operad.check_equivariance": ("calls", "s", "self_s", "expr_nodes"),
    }
    for span, fields in per_op_fields.items():
        for key in fields:
            unit = "s/op" if key in ("s", "self_s") else "1/op"
            name = "operad.expr_nodes" if key == "expr_nodes" else f"{span}.{key}"
            out[name] = (per_op(span, key), unit)
    out["braids.braid_is_trivial.fast_reject_share"] = (
        share(get("braids.braid_is_trivial", "fast_rejects"), get("braids.braid_is_trivial", "calls")),
        "share",
    )
    out["normalize.repeat_input_share"] = (
        share(get("normalize.normalize", "repeat_inputs"), get("normalize.normalize", "calls")),
        "share",
    )
    out["comb.instance_yield"] = (
        share(get("comb.comb_equal", "conclusive"), get("comb.comb_equal", "calls")),
        "share",
    )
    out["comb.exhausted_instance_s"] = (per_op("comb.comb_equal", "exhausted_s"), "s/op")
    comb_spans = ("comb.comb_equal", "comb.comb_normal_form")
    out["comb.repeat_subterm_share"] = (
        share(
            sum(get(span, "repeat_subterms") for span in comb_spans),
            sum(get(span, "subterms") for span in comb_spans),
        ),
        "share",
    )
    return out
