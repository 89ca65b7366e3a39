"""Span tracing of bonnat from outside the program.

`Tracer.install` replaces, in the namespaces where the callers look them
up, the functions that `cli`, `model.train` and `evaluate` call, with
wrappers that record one span per call: name, start, end, parent span and
the operation (one CLI command) the span belongs to. Spans are kept in
flat arrays while the run lasts and written out once at the end. Self
time is a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np


def traced_targets():
    """(span name, owner, attribute) for every wrapped call site.

    A function imported by name into another module is patched in the
    importing module, because that is where its callers resolve it.
    """
    from bonnat import checkpoint, cli, corpus, evaluate, loss, model

    return [
        ("corpus.generate", corpus, "generate_task"),
        ("ngram.count", loss, "count_ngrams"),
        ("probmodel.expected_bag", loss, "expected_bag"),
        ("probmodel.count_gradient", loss, "expected_count_gradient"),
        ("loss.ce", model, "cross_entropy"),
        ("loss.ce", evaluate, "cross_entropy"),
        ("loss.bon", model, "bon_loss"),
        ("loss.bon", evaluate, "bon_loss"),
        ("model.forward", model.NatModel, "_forward_cache"),
        ("model.backward", model.NatModel, "backward"),
        ("model.length_predictor", model.LengthPredictor, "loss_and_grads"),
        ("model.adam", model.Adam, "step"),
        ("model.decode", evaluate, "decode"),
        ("model.train", cli, "train"),
        ("evaluate.bleu", evaluate, "bleu"),
        ("evaluate.correlation_study", evaluate, "correlation_study"),
        ("evaluate.removed_token_report", evaluate, "removed_token_report"),
        ("evaluate.length_bucket_bleu", evaluate, "length_bucket_bleu"),
        ("checkpoint.save", checkpoint, "save"),
        ("checkpoint.load", checkpoint, "load"),
    ]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0
        self._patched: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            if not stack:  # a root span starts a new operation
                self._op = self._ops
                self._ops += 1
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for name, owner, attr in traced_targets():
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self, ops: int | None = None) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds), over the first `ops`
        operations if given, else over all."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        if ops is not None:
            # spans are recorded in start order, so an operation's spans
            # all come before those of the next one
            keep = int(np.searchsorted(np.frombuffer(self.op, dtype=np.int32), ops))
            name_id, parent, dur = name_id[:keep], parent[:keep], dur[:keep]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(name_id, minlength=len(self.names))
        total = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(total[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
