"""In-memory span tracer that wraps module attributes from outside cspdec.

A span is a name, a start, an end and the span that was open when it began
(its parent).  Spans are kept in flat arrays while the traced code runs and
analysed afterwards; nothing under ``src/cspdec`` is changed.  A wrapper is
installed on the module attribute the program actually looks up (for example
``engine.run_chain``, not ``diffusion.run_chain``) and removed again when the
traced pass ends.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NO_ROLE, DRAFT, TARGET = 0, 1, 2


class Tracer:
    """Records nested spans of wrapped calls in one thread.

    ``roles`` maps ``id(obj)`` to DRAFT or TARGET; a wrapper installed with
    ``role_arg=True`` tags its span with the role of its first argument
    (a denoiser or a backbone), so draft and target chains can be told apart.
    """

    def __init__(self, roles: dict[int, int]):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.role = array("b")
        self._stack = [-1]
        self._roles = roles

    def _wrap(self, fn, name: str, role_arg: bool):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends, roles = (
            self.name_id, self.parent, self.start, self.end, self.role
        )
        stack = self._stack
        role_of = self._roles.get

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            roles.append(role_of(id(args[0]), NO_ROLE) if role_arg else NO_ROLE)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap each ``(owner, attr, span_name, role_arg)`` for the block.

        Attributes an owner does not define are skipped, so the spans that
        belong to them are simply absent.
        """
        saved = []
        try:
            for owner, attr, name, role_arg in targets:
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, role_arg))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def save(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            role=np.frombuffer(self.role, dtype=np.int8),
        )


class Spans:
    """Array view of a finished trace with durations, self times and roots."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.float64).copy()
        self.role = np.frombuffer(tracer.role, dtype=np.int8).copy()
        n = self.name_id.size
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=n
        )
        # Spans of one thread nest, so children never overlap each other.
        self.self_time = self.duration - covered
        root = list(range(n))
        for i, p in enumerate(self.parent.tolist()):  # a parent precedes its children
            if p >= 0:
                root[i] = root[p]
        self.root = np.array(root, dtype=np.int64)

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def under(self, root_names: tuple[str, ...]) -> np.ndarray:
        """Spans whose outermost ancestor (or themselves) is one of ``root_names``."""
        return self.mask(*root_names)[self.root]

    def children(self, parent_mask: np.ndarray) -> dict[int, np.ndarray]:
        """Child span indices, in start order, of every span in ``parent_mask``."""
        idx = np.flatnonzero(parent_mask[np.maximum(self.parent, 0)] & (self.parent >= 0))
        groups: dict[int, list[int]] = {}
        for i, p in zip(idx.tolist(), self.parent[idx].tolist()):
            groups.setdefault(p, []).append(i)
        return {p: np.array(c) for p, c in groups.items()}
