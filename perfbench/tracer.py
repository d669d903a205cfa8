"""Spans around the calls that cross branchkit's module boundaries.

The tracer never edits the package: for the length of a traced run it
replaces the names each caller module looks up (``branching.skew_expand``,
``verify.oracle_decomposition``, ``oracle.weight_multiplicities``,
``cli.lr.load_cache_lines`` and so on) with timing wrappers, and puts the
originals back afterwards.  Layers are the package's modules, and a span's
name starts with its layer.  Helpers from ``partitions`` are not wrapped, so
their time counts toward the caller's self time; so do the cheap
``characters`` helpers ``oracle`` calls unwrapped (the group constructors,
``is_dominant`` and ``dominant_rep``).

A span records its name, start, end and parent.  Spans live in memory while
the run lasts and ``write_spans`` writes them out at the end.  A span's self
time is its busy time minus the busy time of its child spans.  A call from a
layer into the same layer opens no span unless the wrapper is ``nested``.

Leaf calls, which reach no other wrapped name, come by the hundred thousand
from the formula loops (``skew_expand`` and ``lr_coeff`` memo lookups).  They are folded as they happen into one span per parent and name,
which keeps the first start, the last end, the busy time (the sum of the
calls' durations) and the number of calls.  Every other span has one call
and a busy time equal to its duration.
"""

from __future__ import annotations

import gzip
import types
from array import array
from time import perf_counter

LAYERS = ("lr", "branching", "characters", "oracle", "verify", "cli")

# formula helpers that branch_decompose evaluates once per candidate label
SUM_HELPERS = ("diagonal_gl_sum", "diagonal_onsp_sum", "direct_sum_gl_sum",
               "direct_sum_onsp_sum", "polarization_sum", "bilinear_sum")

FREUDENTHAL = "characters.weight_multiplicities"
_FOLD = 1 << 12  # folded-span key: parent * _FOLD + name id


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # parent * _FOLD + name id -> [first start, last end, busy, calls]
        self._folded: dict[int, list] = {}
        self._stack: list[int] = []
        self._layers: list[str] = []
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object, object]] = []
        self.origin = perf_counter()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _miss_counter(self, name, memo, on_miss):
        counts, key = self.counts, name + ".misses"

        def after(before, result):
            if memo() > before:
                counts[key] = counts.get(key, 0) + 1
                if on_miss is not None:
                    on_miss(result)

        return after

    def wrap(self, fn, name: str, *, nested: bool = False, leaf: bool = False,
             memo=None, on_miss=None):
        """A traced stand-in for ``fn`` that records spans named ``name``.

        ``leaf`` folds the calls into one span per parent; only mark a name
        a leaf if nothing it calls is wrapped.  ``memo`` returns a cache
        size; a call that grows it is a miss, counted as ``<name>.misses``,
        and ``on_miss(result)`` runs on it.
        """
        nid = self._name_id(name)
        layer = _layer(name)
        stack, layers = self._stack, self._layers
        after = self._miss_counter(name, memo, on_miss) if memo else None

        if leaf:
            folded = self._folded

            def traced_leaf(*args, **kwargs):
                if not nested and layers and layers[-1] == layer:
                    return fn(*args, **kwargs)
                before = memo() if after is not None else 0
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    key = (stack[-1] if stack else -1) * _FOLD + nid
                    rec = folded.get(key)
                    if rec is None:
                        folded[key] = [t0, t1, t1 - t0, 1]
                    else:
                        rec[1] = t1
                        rec[2] += t1 - t0
                        rec[3] += 1
                if after is not None:
                    after(before, result)
                return result

            traced_leaf.__wrapped__ = fn
            return traced_leaf

        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            if not nested and layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            before = memo() if after is not None else 0
            stack.append(idx)
            layers.append(layer)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                layers.pop()
            if after is not None:
                after(before, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn, key: str, inside: str):
        """Count calls of ``fn`` made directly under a span named ``inside``,
        and how many of them returned nonzero; opens no span."""
        inside_id = self._name_id(inside)
        stack, names, counts = self._stack, self.span_name, self.counts
        calls_key, nonzero_key = key + ".calls", key + ".nonzero"

        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            if stack and names[stack[-1]] == inside_id:
                counts[calls_key] = counts.get(calls_key, 0) + 1
                if result:
                    counts[nonzero_key] = counts.get(nonzero_key, 0) + 1
            return result

        counting.__wrapped__ = fn
        return counting

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr), replacement))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        """Put the original names back; ``repatch`` installs the wrappers
        again."""
        for owner, attr, original, _ in reversed(self._patched):
            setattr(owner, attr, original)

    def repatch(self) -> None:
        for owner, attr, _, replacement in self._patched:
            setattr(owner, attr, replacement)

    # -- installation ------------------------------------------------------

    def install(self, bk: types.SimpleNamespace, entries: dict) -> dict:
        """Wrap every cross-module name the package looks up; ``bk`` holds
        the imported branchkit modules by name.  ``entries`` maps span names
        to the entry points a workload calls; the wrapped map is returned."""
        lr, branching, characters = bk.lr, bk.branching, bk.characters
        oracle, verify, cli = bk.oracle, bk.verify, bk.cli

        def lr_span(fn, name):
            return self.wrap(fn, name, leaf=True, memo=lr.cache_size)

        for attr in ("skew_expand", "lr_coeff"):
            self.patch(branching, attr,
                       lr_span(getattr(branching, attr), "lr." + attr))
        self.patch(verify, "lr_coeff", lr_span(verify.lr_coeff, "lr.lr_coeff"))
        # verify imports lr_count_direct from the lr module at call time
        self.patch(lr, "lr_count_direct",
                   lr_span(lr.lr_count_direct, "lr.lr_count_direct"))
        # cli reaches lr through the module object: hand it a wrapped view
        cli_lr = types.SimpleNamespace(**vars(lr))
        cli_lr.lr_coeff = lr_span(lr.lr_coeff, "lr.lr_coeff")
        cli_lr.load_cache_lines = lr_span(lr.load_cache_lines,
                                          "lr.load_cache_lines")
        self.patch(cli, "lr", cli_lr)

        for attr in ("branch_decompose", "bilinear_sum", "diagonal_gl_sum",
                     "littlewood_restriction"):
            self.patch(verify, attr,
                       self.wrap(getattr(verify, attr), "branching." + attr))
        for attr in ("branch_decompose", "branching_multiplicity", "query",
                     "stable_range_violations", "decompose_range_violations"):
            self.patch(cli, attr,
                       self.wrap(getattr(cli, attr), "branching." + attr))
        for attr in SUM_HELPERS:
            self.patch(branching, attr, self.counted(
                getattr(branching, attr), "branching.sum",
                "branching.branch_decompose"))

        self.patch(verify, "oracle_decomposition", self.wrap(
            verify.oracle_decomposition, "oracle.oracle_decomposition",
            memo=lambda: len(oracle._ORACLE_CACHE)))
        self.patch(verify, "duality_dim_check", self.wrap(
            verify.duality_dim_check, "oracle.duality_dim_check"))
        self.patch(oracle, "decompose_tensor", self.wrap(
            oracle.decompose_tensor, "oracle.decompose_tensor", nested=True))

        for attr in ("decompose_character", "full_weight_support",
                     "restrict_character"):
            self.patch(oracle, attr,
                       self.wrap(getattr(oracle, attr), "characters." + attr))
        self.patch(oracle, "dim_of_weight", self.wrap(
            oracle.dim_of_weight, "characters.dim_of_weight", leaf=True))
        for owner in (oracle, characters):
            self.patch(owner, "weight_multiplicities", self.wrap(
                owner.weight_multiplicities, FREUDENTHAL, nested=True,
                leaf=True, memo=lambda: len(characters._FREUD_CACHE),
                on_miss=lambda res: self.count("characters.weights",
                                               len(res))))

        for attr in ("_load_cache", "_save_cache"):
            self.patch(cli, attr,
                       self.wrap(getattr(cli, attr), "cli." + attr, nested=True))

        return {name: self.wrap(fn, name, memo=lr.cache_size
                                if _layer(name) == "lr" else None)
                for name, fn in entries.items()}

    # -- results -----------------------------------------------------------

    def spans(self) -> list[tuple[int, int, float, float, float, int]]:
        """Every span as (name id, parent, start, end, busy, calls)."""
        out = [(nid, p, s, e, e - s, 1) for nid, p, s, e in zip(
            self.span_name, self.span_parent, self.span_start, self.span_end)]
        for key, (s, e, busy, calls) in self._folded.items():
            parent, nid = divmod(key, _FOLD)
            out.append((nid, parent, s, e, busy, calls))
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded so far."""
        names = self.names
        layer_of = [_layer(n) for n in names]
        spans = self.spans()
        own = [busy for _, _, _, _, busy, _ in spans]
        for nid, p, _, _, busy, _ in spans:
            if p >= 0:
                own[p] -= busy
        self_s = dict.fromkeys(LAYERS, 0.0)
        entries = dict.fromkeys(LAYERS, 0)
        total = [0.0] * len(names)
        own_by_name = [0.0] * len(names)
        calls = [0] * len(names)
        formula_s = oracle_s = 0.0
        for i, (nid, p, _, _, busy, n) in enumerate(spans):
            layer = layer_of[nid]
            self_s[layer] += own[i]
            total[nid] += busy
            own_by_name[nid] += own[i]
            calls[nid] += n
            parent_layer = layer_of[spans[p][0]] if p >= 0 else None
            if parent_layer != layer:
                entries[layer] += n
            if parent_layer == "verify":
                if layer in ("branching", "lr"):
                    formula_s += busy
                elif layer == "oracle":
                    oracle_s += busy

        def by_name(values, name, default=0):
            nid = self._ids.get(name)
            return default if nid is None else values[nid]

        def ratio(num, den) -> float:
            return num / den if den else 0.0

        c = self.counts
        lr_misses = sum(v for k, v in c.items()
                        if k.startswith("lr.") and k.endswith(".misses"))
        od_calls = by_name(calls, "oracle.oracle_decomposition")
        sum_calls = c.get("branching.sum.calls", 0)
        out = {
            "lr.calls": entries["lr"],
            "lr.self_s": self_s["lr"],
            "lr.skew_misses": lr_misses,
            "lr.memo_hit_ratio": ratio(entries["lr"] - lr_misses,
                                       entries["lr"]),
            "branching.self_s": self_s["branching"],
            "branching.decompose_s":
                by_name(total, "branching.branch_decompose", 0.0),
            "branching.sum_calls": sum_calls,
            "branching.sum_nonzero_ratio":
                ratio(c.get("branching.sum.nonzero", 0), sum_calls),
            "characters.self_s": self_s["characters"],
            "characters.freudenthal_calls": by_name(calls, FREUDENTHAL),
            "characters.freudenthal_misses": c.get(FREUDENTHAL + ".misses", 0),
            "characters.freudenthal_s": by_name(total, FREUDENTHAL, 0.0),
            "characters.weights_computed": c.get("characters.weights", 0),
            "characters.support_s":
                by_name(total, "characters.full_weight_support", 0.0),
            "characters.decompose_s":
                by_name(total, "characters.decompose_character", 0.0),
            "oracle.self_s": self_s["oracle"],
            "oracle.calls": entries["oracle"],
            "oracle.memo_hit_ratio": ratio(
                od_calls - c.get("oracle.oracle_decomposition.misses", 0),
                od_calls),
            "oracle.tensor_calls": by_name(calls, "oracle.decompose_tensor"),
            "oracle.tensor_s": by_name(total, "oracle.decompose_tensor", 0.0),
            "verify.formula_s": formula_s,
            "verify.oracle_s": oracle_s,
            "cli.cache_load_s": by_name(total, "cli._load_cache", 0.0),
            "cli.cache_save_s": by_name(total, "cli._save_cache", 0.0),
            "cli.self_s": by_name(own_by_name, "cli.main", 0.0),
            "trace.spans": len(spans),
        }
        for nid, name in enumerate(names):
            if name.startswith("verify.grid."):
                out[name + "_s"] = total[nid]
        return out

    def write_spans(self, path) -> None:
        """All spans as gzipped TSV; times in seconds from the tracer's
        creation."""
        origin, names = self.origin, self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\tbusy_s\tcalls\n")
            for i, (nid, p, s, e, busy, n) in enumerate(self.spans()):
                fh.write(f"{i}\t{p}\t{names[nid]}\t{s - origin:.9f}\t"
                         f"{e - origin:.9f}\t{busy:.9f}\t{n}\n")
