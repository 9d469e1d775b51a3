"""Span tracing from outside the program: wrap each layer's public entry.

The benchmark never edits ``src/``. A traced op instead installs thin
wrappers around the public functions each layer exposes on the user path
(one :class:`Target` per boundary), records one :class:`Span` per call,
and removes the wrappers again before the next untraced op. Spans live in
memory; :meth:`Tracer.write_jsonl` writes them out when the run ends.

A wrapper replaces the original object everywhere a ``repro`` module
holds a reference to it (``from x import f`` copies the name), and on
the class for methods, so calls reach it however the caller spelled
them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "STRUCTURAL_SPANS",
    "Span",
    "Target",
    "TARGETS",
    "Tracer",
    "self_times",
    "unattributed",
]


@dataclass
class Span:
    """One call across a layer boundary."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Any
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "attrs": self.attrs,
        }


def _physical_attrs(result: Any) -> Dict[str, Any]:
    m = result.metrics
    return {
        "implementation": result.implementation,
        "prefix_rows": m.prefix_rows,
        "candidates": m.candidate_pairs,
        "output_pairs": m.output_pairs,
        "verify_candidates": m.verify_candidates,
        "verify_bitmap_pruned": m.verify_bitmap_pruned,
        "verify_position_pruned": m.verify_position_pruned,
        "verify_merges_run": m.verify_merges_run,
    }


def _parallel_attrs(result: Any) -> Dict[str, Any]:
    report = result.parallel
    return {
        "mode": report.mode,
        "workers": report.workers,
        "shards": report.n_shards,
        "shard_busy_s": report.serial_shard_seconds,
    }


def _join_attrs(result: Any) -> Dict[str, Any]:
    return {
        "result_pairs": len(result.pairs),
        "udf_calls": result.metrics.similarity_comparisons,
    }


def _prepared_attrs(result: Any) -> Dict[str, Any]:
    return {"rows": result.num_elements}


@dataclass(frozen=True)
class Target:
    """One wrapped boundary: ``module`` + dotted ``attr`` → span ``name``.

    ``outermost`` wrappers record only when no span of the same name is
    open (``PlanNode.execute`` recurses into child nodes). ``attrs``
    turns the call's return value into span attributes.
    """

    module: str
    attr: str
    name: str
    outermost: bool = False
    attrs: Optional[Callable[[Any], Dict[str, Any]]] = None


_KERNEL = "ssjoin.kernel"

#: Every boundary the traced run wraps, in the order they are installed.
TARGETS: Tuple[Target, ...] = (
    Target("repro.joins.jaccard_join", "jaccard_resemblance_join", "joins", attrs=_join_attrs),
    Target("repro.joins.edit_join", "edit_similarity_join", "joins", attrs=_join_attrs),
    Target("repro.joins.jaccard_join", "resolve_weights", "tokenize.weights"),
    Target("repro.core.prepared", "PreparedRelation.from_strings", "prepared.build",
           attrs=_prepared_attrs),
    Target("repro.core.optimizer", "CostModel.estimate_all", "optimizer.plan"),
    # The element ordering is planning input: the auto path builds it
    # before ``choose_implementation`` and the kernels reuse it.
    Target("repro.core.ordering", "frequency_ordering", "optimizer.plan"),
    Target("repro.core.encoded", "EncodingCache.encode_pair", "encoded.encode"),
    Target("repro.core.physical", "execute_physical", "physical", attrs=_physical_attrs),
    Target("repro.core.basic", "basic_ssjoin", _KERNEL),
    Target("repro.core.prefix_filter", "prefix_filtered_ssjoin", _KERNEL),
    Target("repro.core.inline", "inline_ssjoin", _KERNEL),
    Target("repro.core.index", "index_probe_ssjoin", _KERNEL),
    Target("repro.core.encoded_prefix", "encoded_prefix_ssjoin", _KERNEL),
    Target("repro.core.encoded_index", "encoded_index_probe_ssjoin", _KERNEL),
    Target("repro.relational.plan", "PlanNode.execute", "relational.execute", outermost=True),
    Target("repro.relational.sql.parser", "parse", "sql.parse"),
    Target("repro.relational.sql.compiler", "compile_statement", "sql.compile"),
    Target("repro.parallel.executor", "parallel_ssjoin", "parallel", attrs=_parallel_attrs),
    Target("repro.storage.store", "StoredTable.prepared", "storage.load"),
    Target("repro.storage.store", "StoredTable.encoded", "storage.load"),
)

#: Spans recorded only to give nested spans a parent and to read the
#: chosen plan and counters; their own self time (physical dispatch:
#: ordering, canonical sort, result wrapping) is claimed by no layer.
STRUCTURAL_SPANS = frozenset({"physical"})


class Tracer:
    """Collects spans for the ops it is told about; installs wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._op: Any = None
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op: Any) -> Span:
        """Open the root span of one op (the benchmark's own call)."""
        self._op = op
        return self._open("op")

    def end_op(self, root: Span) -> None:
        self._close(root)
        self._op = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span stack out of order: {popped.name} != {span.name}")

    def _wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer._op is None or (
                target.outermost and any(s.name == target.name for s in tracer._stack)
            ):
                return fn(*args, **kwargs)
            span = tracer._open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if target.attrs is not None:
                span.attrs.update(target.attrs(result))
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Put a wrapper in front of every target; uninstall first to redo."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            owner_name, _, leaf = target.attr.rpartition(".")
            module = importlib.import_module(target.module)
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[leaf]
                if isinstance(raw, classmethod):
                    replacement: Any = classmethod(self._wrap(target, raw.__func__))
                else:
                    replacement = self._wrap(target, raw)
                self._restore.append((owner, leaf, raw))
                setattr(owner, leaf, replacement)
                continue
            original = getattr(module, leaf)
            wrapper = self._wrap(target, original)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "") or ""
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original object, newest replacement first."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


# -- arithmetic over finished spans --------------------------------------------


def _children(spans: List[Span]) -> Dict[Optional[int], List[Span]]:
    out: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        out.setdefault(span.parent, []).append(span)
    return out


def self_times(spans: List[Span]) -> Iterator[Tuple[Span, float]]:
    """Each span with its self time: duration minus its direct children.

    Spans come from one thread and nest properly, so the children of a
    span are disjoint and their union is the sum of their durations.
    """
    kids = _children(spans)
    for span in spans:
        covered = sum(c.duration for c in kids.get(span.span_id, ()))
        yield span, span.duration - covered


def unattributed(spans: List[Span], root: Span) -> float:
    """Time inside *root* that no layer claims.

    That is the root's own self time (op wall minus the top-level layer
    spans) plus the self time of structural spans beneath it.
    """
    total = 0.0
    for span, own in self_times(spans):
        if span is root or span.name in STRUCTURAL_SPANS:
            total += own
    return total
