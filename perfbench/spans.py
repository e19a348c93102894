"""Spans around the calls into each layer of the package, recorded from
outside it by patching module and class attributes.

A span is (name, start, end, parent, repetition id).  Spans live in flat
arrays while the search runs and are written out when it ends; self times
and per-layer metrics are computed from them afterwards.  The evaluator's
own ``interp.evaluate`` is never wrapped: it recurses, so only the
top-level calls into it (``universal.evaluate``, ``ait.evaluate`` and
``Session.try_expression``) are spans.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("omega", "universal", "sexpr", "bits", "interp", "dyadic", "kraft", "ait")
ROOT = "harness.search"

RUN_OUTCOMES = ("halted", "still-running", "out-of-data", "parse-error",
                "partial-consumption")
EVAL_OUTCOMES = ("value", "out-of-time", "out-of-data")

# Registered budgets are folded into the step count after each evaluation,
# or in batches when no evaluation follows (a LispU run that ends in its
# prefix); the newest budget may still be running, so a batch keeps it.
_BUDGET_BATCH = 4096


class Tracer:
    def __init__(self, rep: int = 0):
        self.rep = rep
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._budgets: list = []
        self._capture_budget = False

    # -- recording -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, done=None):
        """*fn* inside a span; ``done(result, exc)`` sees each outcome."""
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if done is not None:
                    done(None, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if done is not None:
                done(result, None)
            return result

        return traced

    def root(self, fn, *args):
        """Call *fn* inside the root span that every layer's spans sit under."""
        return self.wrap(ROOT, fn)(*args)

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_attr(self, owner, attr: str, name: str, done=None) -> None:
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr), done))

    def _traced_init(self, module, attr: str, name: str) -> None:
        """Replace a class by a subclass whose construction is a span."""
        base = getattr(module, attr)
        body = {"__init__": self.wrap(name, base.__init__)}
        if hasattr(base, "__slots__"):
            body["__slots__"] = ()
        self._patch(module, attr, type(base.__name__, (base,), body))

    def _session_class(self, base):
        tracer = self
        traced_try = self.wrap("interp.eval", base.try_expression, self._try_done)

        class TracedSession(base):
            __init__ = tracer.wrap("interp.session", base.__init__)

            def try_expression(self, *args, **kwargs):
                tracer._capture_budget = True
                return traced_try(self, *args, **kwargs)

        return TracedSession

    def _budget_class(self, base, capture_only: bool):
        """A Budget that registers itself so its steps can be read later.

        Budgets a caller makes (LispU.run, the elegance evaluator) always
        register.  Inside interp only the budget that a host-side try makes
        for its own run does: nested tries spend into their parent.
        """
        tracer = self

        class TracedBudget(base):
            __slots__ = ()

            def __init__(self, limit=None):
                base.__init__(self, limit)
                if capture_only:
                    if not tracer._capture_budget or limit is None:
                        return
                    tracer._capture_budget = False
                budgets = tracer._budgets
                budgets.append(self)
                if len(budgets) > _BUDGET_BATCH:
                    tracer._fold_budgets(keep=1)

        return TracedBudget

    def _counting_enumerator(self, fn):
        counts = self.counts

        def enumerate_bits(*args):
            n = 0
            try:
                for bits in fn(*args):
                    n += 1
                    yield bits
            finally:
                counts["bits.enumerated"] += n

        return enumerate_bits

    def install(self, sd) -> None:
        """Wrap the entry points of every layer."""
        universal, interp, ait, kraft = sd.universal, sd.interp, sd.ait, sd.kraft

        self._wrap_attr(sd.omega, "omega_lower_bound", "omega.omega_lower_bound")

        for cls in (universal.LispU, universal.ToyDoubling):
            self._wrap_attr(cls, "run", "universal.run", self._run_done)
        for module in (universal, sd.omega, ait):
            for attr in ("all_bitstrings", "bitstrings_up_to"):
                if hasattr(module, attr):
                    self._patch(module, attr, self._counting_enumerator(getattr(module, attr)))

        self._wrap_attr(universal, "parse_implicit", "sexpr.parse")
        self._wrap_attr(universal, "read_prefix_text", "sexpr.prefix")
        self._wrap_attr(interp, "size_chars", "sexpr.size")
        self._wrap_attr(ait, "size_chars", "sexpr.size")

        self._traced_init(universal, "BitStream", "bits.stream")
        self._traced_init(interp, "BitStream", "bits.stream")

        self._wrap_attr(universal, "evaluate", "interp.eval", self._eval_done)
        self._wrap_attr(ait, "evaluate", "interp.eval", self._eval_done)
        session = self._session_class(interp.Session)
        self._patch(universal, "Session", session)
        self._patch(ait, "Session", session)
        self._patch(universal, "Budget", self._budget_class(universal.Budget, False))
        self._patch(ait, "Budget", self._budget_class(ait.Budget, False))
        self._patch(interp, "Budget", self._budget_class(interp.Budget, True))

        self._wrap_attr(sd.dyadic.Dyadic, "__add__", "dyadic.add")

        self._wrap_attr(kraft.Allocator, "request", "kraft.request", self._request_done)
        self._wrap_attr(kraft, "build_computer", "kraft.build")
        self._wrap_attr(kraft.KraftMachine, "run", "kraft.run")
        self._traced_init(kraft, "KraftMachine", "kraft.machine")

        self._wrap_attr(ait.ExpressionSpace, "of_size", "ait.enum", self._enum_done)
        self._wrap_attr(ait, "elegant_search", "ait.elegant_search")
        self._wrap_attr(ait, "berry_searcher", "ait.berry_searcher")
        self._wrap_attr(ait, "run_theory", "ait.run_theory", self._theory_done)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._fold_budgets(keep=0)

    # -- counting hooks ------------------------------------------------------------

    def _run_done(self, result, exc):
        if result is not None:
            key = result.reason if result.status == "invalid" else result.status
            self.counts[f"universal.outcome.{key}"] += 1

    def _eval_done(self, result, exc):
        if exc is None:
            key = "value"
        elif type(exc).__name__ == "OutOfData":
            key = "out-of-data"
        else:
            key = "out-of-time"
        self.counts[f"interp.outcome.{key}"] += 1
        self._fold_budgets(keep=0)

    def _try_done(self, result, exc):
        self._capture_budget = False
        if result is not None:
            status, payload, _ = result
            self.counts[f"interp.outcome.{'value' if status == 'success' else payload}"] += 1
        self._fold_budgets(keep=0)

    def _request_done(self, result, exc):
        if exc is not None and type(exc).__name__ == "Exhausted":
            self.counts["kraft.exhausted"] += 1

    def _enum_done(self, result, exc):
        if result is not None:
            self.counts["ait.exprs"] += len(result)

    def _theory_done(self, result, exc):
        if result is not None:
            self.counts["ait.theorems"] += len(result.theorems)

    def _fold_budgets(self, keep: int) -> None:
        budgets = self._budgets
        cut = len(budgets) - keep
        self.counts["interp.steps"] += sum(b.used for b in budgets[:cut])
        del budgets[:cut]

    # -- results ---------------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {"rep": self.rep, "names": self.names, "spans": len(self.name),
                  "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(out)

    def metrics(self) -> dict:
        """Per-layer counts, inclusive times and self times, from the spans."""
        n = len(self.name)
        names = self.names
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for p, d in zip(self.parent, dur):
            if p >= 0:
                covered[p] += d

        calls = Counter()
        inclusive = Counter()
        self_time = Counter()
        for nid, d, c in zip(self.name, dur, covered):
            calls[nid] += 1
            inclusive[nid] += d
            self_time[names[nid].split(".", 1)[0]] += d - c

        def count(name):
            return calls[self._ids[name]] if name in self._ids else 0

        def total(name):
            return inclusive[self._ids[name]] if name in self._ids else 0.0

        def children_of(parent_name, child_names):
            if parent_name not in self._ids:
                return 0
            pid = self._ids[parent_name]
            wanted = {self._ids[c] for c in child_names if c in self._ids}
            name = self.name
            return sum(1 for nid, p in zip(name, self.parent)
                       if nid in wanted and p >= 0 and name[p] == pid)

        c = self.counts
        runs = count("universal.run")
        steps = c["interp.steps"]
        eval_s = total("interp.eval")
        m = {
            "omega.calls": count("omega.omega_lower_bound"),
            "omega.candidates": children_of("omega.omega_lower_bound",
                                            ("universal.run", "kraft.run")),
            "universal.runs": runs,
            "universal.run_s": total("universal.run"),
            "universal.halted_ratio": c["universal.outcome.halted"] / runs if runs else 0.0,
            "sexpr.parse_calls": count("sexpr.parse"),
            "sexpr.parse_s": total("sexpr.parse"),
            "sexpr.prefix_reads": count("sexpr.prefix"),
            "sexpr.prefix_s": total("sexpr.prefix"),
            "sexpr.size_calls": count("sexpr.size"),
            "sexpr.size_s": total("sexpr.size"),
            "bits.streams": count("bits.stream"),
            "bits.stream_s": total("bits.stream"),
            "bits.enumerated": c["bits.enumerated"],
            "interp.evals": count("interp.eval"),
            "interp.eval_s": eval_s,
            "interp.steps": steps,
            "interp.steps_per_s": steps / eval_s if eval_s else 0.0,
            "interp.sessions": count("interp.session"),
            "interp.session_s": total("interp.session"),
            "dyadic.adds": count("dyadic.add"),
            "dyadic.add_s": total("dyadic.add"),
            "kraft.requests": count("kraft.request"),
            "kraft.request_s": total("kraft.request"),
            "kraft.exhausted": c["kraft.exhausted"],
            "kraft.build_s": total("kraft.build"),
            "kraft.runs": count("kraft.run"),
            "kraft.run_s": total("kraft.run"),
            "ait.exprs": c["ait.exprs"],
            "ait.enum_s": total("ait.enum"),
            "ait.searcher_rounds": children_of("ait.berry_searcher", ("interp.eval",)),
            "ait.theorems": c["ait.theorems"],
            "harness.self_s": self_time["harness"],
            "trace.search_s": total(ROOT),
            "trace.spans": n,
        }
        for outcome in RUN_OUTCOMES:
            m[f"universal.outcome.{outcome}"] = c[f"universal.outcome.{outcome}"]
        for outcome in EVAL_OUTCOMES:
            m[f"interp.outcome.{outcome}"] = c[f"interp.outcome.{outcome}"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_time[layer]
        return m
