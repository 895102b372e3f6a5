"""In-memory spans around calls into relfix's public functions.

The tracer replaces each traced function, method or constructor with a
wrapper, in its defining module and in every other module that re-imported
the same object (for example `relfix.nu.enumerate_hylo` or
`relfix.cli.render`).  Each call becomes a span with a parent id; the span
of the benchmark operation that caused it is the root, so spans of one
operation share its id.  Self time is a span's duration minus the time its
child spans cover.  Spans stay in memory and are written out by `dump`.
"""
from __future__ import annotations

import importlib
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter

from relfix.errors import BudgetExceeded

# Spans kept for the trace file; calls past the cap still count in the totals.
SPAN_CAP = 200_000


def _stages(tr, name, args, result, exc, dur):
    if exc is None:
        tr.counts[name + ".stages"] += result.stage


def _repeat(tr, name, args, result, exc, dur):
    op, mask = args[0], args[1]
    seen = tr.asked.setdefault(op, set())
    if mask in seen:
        tr.counts[name + ".repeats"] += 1
    else:
        seen.add(mask)


def _hylo(tr, name, args, result, exc, dur):
    if exc is None:
        tr.counts[name + ".solutions"] += len(result)
    elif isinstance(exc, BudgetExceeded):
        tr.counts[name + ".refused"] += 1
        tr.counts[name + ".refused_s"] += dur


def _fixed_points(tr, name, args, result, exc, dur):
    if exc is None:
        tr.counts[name + ".fixed_points"] += len(result)


def _prefixes(tr, name, args, result, exc, dur):
    if exc is None:
        tr.counts[name + ".prefixes"] += len(result)
    elif isinstance(exc, BudgetExceeded):
        tr.counts[name + ".refused"] += 1


def _pixels(tr, name, args, result, exc, dur):
    if exc is None:
        tr.counts[name + ".pixels"] += len(result)


def _bytes(tr, name, args, result, exc, dur):
    if exc is None:
        tr.counts[name + ".bytes"] += len(result.encode("utf-8"))


# (module, attribute path, metric name, extra counts).  Several attributes
# may share one metric name; their calls and times are summed.
TARGETS = [
    ("relfix.lattice", "safety_check", "lattice.safety_check", _stages),
    ("relfix.lattice", "galois_check", "lattice.galois_check", None),
    ("relfix.lattice", "MonotoneOp.mu_post_mask", "lattice.mu_post_mask", _repeat),
    ("relfix.lattice", "MonotoneOp.nu_pre_mask", "lattice.nu_pre_mask", _repeat),
    ("relfix.lattice", "MonotoneOp.from_transition_system",
     "lattice.from_transition_system", None),
    ("relfix.sigterm", "CongruenceClosure.__init__", "sigterm.CongruenceClosure", None),
    ("relfix.sigterm", "CongruenceClosure.equal", "sigterm.CongruenceClosure.equal", None),
    ("relfix.sigterm", "parse_term", "sigterm.parse_term", None),
    ("relfix.mu", "mu_equal", "mu.mu_equal", None),
    ("relfix.mu", "mu_hom_count", "mu.mu_hom_count", None),
    ("relfix.finstruct", "enumerate_hylo", "finstruct.enumerate_hylo", _hylo),
    ("relfix.nu", "classify_cartesian", "nu.classify_cartesian", None),
    ("relfix.nu", "cartesian_subcoalgebras", "nu.cartesian_subcoalgebras", _fixed_points),
    ("relfix.nu", "count_coalg_homs_to_nu", "nu.count_coalg_homs_to_nu", None),
    ("relfix.nu", "enum_nu_prefixes", "nu.enum_nu_prefixes", _prefixes),
    ("relfix.nu", "is_a_guided", "nu.is_a_guided", None),
    ("relfix.fractal", "render", "fractal.render", _pixels),
    ("relfix.fractal", "carpet_member", "fractal.carpet_member", None),
    ("relfix.fractal", "write_pgm", "fractal.write_pgm", None),
    ("relfix.jsonio", "load_coalgebra", "jsonio.load", None),
    ("relfix.jsonio", "load_algebra", "jsonio.load", None),
    ("relfix.jsonio", "load_transition_system", "jsonio.load", None),
    ("relfix.jsonio", "load_prefix", "jsonio.load", None),
    ("relfix.jsonio", "load_signature", "jsonio.load", None),
    ("relfix.jsonio", "load_problem", "jsonio.load", None),
    ("relfix.jsonio", "canonical_dumps", "jsonio.canonical_dumps", _bytes),
    ("relfix.cli", "main", "cli.main", None),
]

# Counted but not spanned: the innermost lattice step, called millions of
# times on `sweep`.  `.bits` sums the popcount of the masks it is given.
BITS_TARGET = ("relfix.lattice", "MonotoneOp.apply_mask", "lattice.apply_mask")


class Tracer:
    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.active = False
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.family_self_s = defaultdict(float)  # (metric, op family) -> s
        self.counts = defaultdict(float)
        self.asked = weakref.WeakKeyDictionary()  # operator -> start masks seen
        self.spans: list[tuple] = []  # (id, parent, root, name, start, dur)
        self.dropped = 0
        self.op_labels: dict[int, str] = {}
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._family = None
        self._root = 0
        self._undo: list[tuple] = []

    # --- spans ------------------------------------------------------------

    def _open(self):
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([sid, 0.0])
        return sid, parent

    def _close(self, name, sid, parent, start, end):
        _, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        own = dur - child
        self.calls[name] += 1
        self.self_s[name] += own
        self.family_self_s[(name, self._family)] += own
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, self._root if parent else sid, name, start, dur))
        else:
            self.dropped += 1
        return dur

    def run_op(self, op, execute):
        """Run one benchmark operation as the root span of its calls."""
        sid, parent = self._open()
        self._root = sid
        self._family = op.family
        if len(self.spans) < SPAN_CAP:
            self.op_labels[sid] = f"{op.family}/{op.label}"
        self.active = True
        start = perf_counter()
        try:
            return execute(op)
        finally:
            end = perf_counter()
            self.active = False
            self._close("op." + op.family, sid, parent, start, end)

    def _wrap(self, name, fn, extra):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                dur = tracer._close(name, sid, parent, start, perf_counter())
                if extra is not None:
                    extra(tracer, name, args, None, exc, dur)
                raise
            dur = tracer._close(name, sid, parent, start, perf_counter())
            if extra is not None:
                extra(tracer, name, args, result, None, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_bits(self, name, fn):
        tracer = self

        def counted(op, mask):
            if tracer.active:
                tracer.calls[name] += 1
                tracer.counts[name + ".bits"] += mask.bit_count()
            return fn(op, mask)

        return counted

    # --- installing -------------------------------------------------------

    def _modules(self):
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name.startswith("relfix") or mod in self.extra_modules):
                yield mod

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for mod_name, path, name, extra in TARGETS:
            self._patch(mod_name, path, lambda fn: self._wrap(name, fn, extra))
        mod_name, path, name = BITS_TARGET
        self._patch(mod_name, path, lambda fn: self._count_bits(name, fn))

    def _patch(self, mod_name, path, make):
        owner = importlib.import_module(mod_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        if cls_path:
            # methods are looked up on the class: one replacement covers every caller
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(make(raw.__func__)))
            else:
                self._set(owner, attr, make(raw))
            return
        wrapped = make(raw)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._set(mod, key, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- output -----------------------------------------------------------

    def dump(self, path, header: dict) -> None:
        """Write the header, the span table and the per-family self times."""
        families = defaultdict(dict)
        for (name, family), s in self.family_self_s.items():
            families[family][name] = s
        doc = dict(header)
        doc["span_fields"] = ["id", "parent", "op", "name", "start_s", "dur_s"]
        doc["spans_dropped"] = self.dropped
        doc["ops"] = self.op_labels
        doc["self_s_by_family"] = families
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True)[:-1])
            fh.write(', "spans": [\n')
            for i, (sid, parent, root, name, start, dur) in enumerate(self.spans):
                sep = ",\n" if i else ""
                fh.write(f'{sep}[{sid}, {parent}, {root}, "{name}", {start:.9f}, {dur:.9f}]')
            fh.write("\n]}\n")
