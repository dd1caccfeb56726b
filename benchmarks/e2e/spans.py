"""Call-site spans for the traced benchmark run.

The benchmark never edits ``src/``.  A traced repetition instead swaps
the public call sites listed in :data:`CALL_SITES` for thin wrappers
that record one span per call — name, start, end, parent span and
repetition id — and restores the originals afterwards.  Spans stay in
memory; :meth:`SpanRecorder.export_jsonl` writes them out at exit.

A wrapper only sees calls made in this process, so a pooled run's worker
processes are invisible to it: the traced repetition of a pooled
workload runs with one worker.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

#: ``(module, class or None, attribute, span name)`` for every wrapped
#: call site.  A function bound under the same name in two modules is
#: wrapped in both, so calls through either binding are seen.
CALL_SITES = (
    ("repro.simulator.montecarlo", None, "_run_injection_chunk", "montecarlo.chunk"),
    ("repro.rs.batch", "BatchRSCodec", "encode_batch", "rs.batch.encode"),
    ("repro.rs.batch", "BatchRSCodec", "syndromes_batch", "rs.batch.syndromes"),
    ("repro.rs.batch", "BatchRSCodec", "decode_batch", "rs.batch.decode"),
    ("repro.rs.codec", "RSCode", "encode", "rs.codec.encode"),
    ("repro.rs.codec", "RSCode", "decode", "rs.codec.decode"),
    ("repro.rs.codec", None, "compute_syndromes", "rs.codec.syndromes"),
    ("repro.rs.codec", None, "berlekamp_massey", "rs.berlekamp"),
    ("repro.rs.codec", None, "chien_search", "rs.forney.chien"),
    ("repro.rs.codec", None, "forney_magnitudes", "rs.forney.magnitudes"),
    ("repro.simulator.systems", "SimplexSystem", "apply_event", "systems.apply_event"),
    ("repro.simulator.systems", "DuplexSystem", "apply_event", "systems.apply_event"),
    ("repro.simulator.montecarlo", None, "recover_erasures", "arbiter.recover_erasures"),
    ("repro.simulator.arbiter", None, "recover_erasures", "arbiter.recover_erasures"),
    ("repro.simulator.montecarlo", None, "decide_from_decodes", "arbiter.decide"),
    ("repro.simulator.arbiter", None, "decide_from_decodes", "arbiter.decide"),
    ("repro.simulator.montecarlo", None, "expand_arrivals", "patterns.expand_arrivals"),
    ("repro.runtime.supervisor", "ChunkSupervisor", "run", "runtime.supervisor"),
    ("repro.runtime.checkpoint", "CheckpointJournal", "__init__", "journal.open"),
    ("repro.runtime.checkpoint", "CheckpointJournal", "record_chunk", "journal.record_chunk"),
    ("repro.runtime.checkpoint", "CheckpointJournal", "completed", "journal.completed"),
    ("repro.memory.base", None, "build_chain", "markov.build_chain"),
    ("repro.markov.solvers", None, "uniformization_propagate", "markov.uniformization"),
    ("repro.memory.ber", None, "simplex_ber", "memory.closed_form"),
    ("repro.memory.ber", None, "duplex_ber", "memory.closed_form"),
)

#: Span names in first-listed order.
SPAN_NAMES = tuple(dict.fromkeys(site[3] for site in CALL_SITES))


def _chain_size(chain) -> Dict[str, int]:
    return {"states": chain.num_states, "transitions": int(chain.rate_matrix.nnz)}


#: Attributes recorded from a call's return value, by span name.
RESULT_ATTRS: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    "markov.build_chain": _chain_size,
}

# Fields of a span record.  A record is a tuple of atoms, stored when the
# call ends, so the garbage collector stops scanning it: hundreds of
# thousands of records must not slow the traced program down.
NAME, START, END, PARENT, REP, ERROR, ATTRS = range(7)


class SpanRecorder:
    """Records spans from wrapped call sites while :meth:`installed`."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.rep = 0
        self._stack: List[int] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans = self.spans
        stack = self._stack
        result_attrs = RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserves the id the call's children refer to
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = perf_counter()
                stack.pop()
                attrs = None
                if result_attrs is not None and not error:
                    attrs = result_attrs(result)
                spans[index] = (name, start, end, parent, self.rep, error, attrs)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every call site for the duration of the block."""
        patched = []
        try:
            for module_name, class_name, attr, name in CALL_SITES:
                owner: Any = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, name))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def rep_spans(self, rep: int) -> List[int]:
        """Indices of the spans recorded during repetition ``rep``."""
        return [i for i, s in enumerate(self.spans) if s[REP] == rep]

    def layer_times(self, rep: int) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, errors, busy and self seconds, summed attrs.

        ``busy_s`` sums the spans that have no ancestor of the same name,
        so a recursive call is not counted twice.  ``self_s`` is each
        span's duration minus the time its direct children cover.
        """
        spans = self.spans
        indices = self.rep_spans(rep)
        child_time: Dict[int, float] = {}
        for i in indices:
            s = spans[i]
            if s[PARENT] >= 0:
                child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "errors": 0, "busy_s": 0.0, "self_s": 0.0}
            for name in SPAN_NAMES
        }
        for i in indices:
            s = spans[i]
            entry = out[s[NAME]]
            duration = s[END] - s[START]
            entry["calls"] += 1
            entry["errors"] += int(s[ERROR])
            entry["self_s"] += duration - child_time.get(i, 0.0)
            if not self._has_ancestor_named(i, s[NAME]):
                entry["busy_s"] += duration
            for key, value in (s[ATTRS] or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def export_jsonl(self, path: Path) -> None:
        """Write one JSON object per span (``id`` is the line index)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                record: Dict[str, Optional[Any]] = {
                    "id": i,
                    "name": s[NAME],
                    "start": s[START],
                    "end": s[END],
                    "parent": s[PARENT] if s[PARENT] >= 0 else None,
                    "rep": s[REP],
                    "error": s[ERROR],
                }
                if s[ATTRS]:
                    record.update(s[ATTRS])
                fh.write(json.dumps(record) + "\n")
