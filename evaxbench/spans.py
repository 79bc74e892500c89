"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: :meth:`Tracer.traced`
swaps public functions and methods of ``repro`` for wrappers that open
a span around the original, and :meth:`Tracer.span` times a call the
benchmark makes itself.  Nothing inside ``src/repro`` is edited, and
every patch is undone when the traced pass ends, so untraced passes in
the same process run the unmodified program.

A span is ``(name, start, end, parent, run id)``.  Spans nest strictly
(the program is single-threaded in the traced process), so a span's
self time is its duration minus the summed durations of its direct
children.
"""

import json
import time
from array import array
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Span store plus the patch table that feeds it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack = []

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def _close(self, idx):
        self.end[idx] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Time a block the benchmark runs itself."""
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        nid = self._nid(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def traced(self, patch_table):
        """One traced pass: replace each ``owner.attr`` of ``patch_table``
        (``(owner, attr, span name)`` triples, owner a class or module)
        by a span-recording wrapper, give the pass's spans a fresh run
        id, and restore the originals afterwards."""
        self.run_id += 1
        originals = []
        try:
            for owner, attr, name in patch_table:
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self.run_id
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        name = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        run = np.asarray(self.run, dtype=np.int64)
        return name, start, end, parent, run

    def totals(self, runs=None):
        """Per span name: ``{"self": s, "total": s, "count": n}`` over
        the spans of ``runs`` (all runs when ``None``)."""
        name, start, end, parent, run = self.arrays()
        if not len(start):
            return {}
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        selfdur = dur - child
        keep = np.ones(len(dur), dtype=bool) if runs is None \
            else np.isin(run, list(runs))
        out = {}
        for nid, label in enumerate(self.names):
            mask = keep & (name == nid)
            count = int(mask.sum())
            if count:
                out[label] = {"self": float(selfdur[mask].sum()),
                              "total": float(dur[mask].sum()),
                              "count": count}
        return out

    def child_total(self, parent_name, child_names, runs=None):
        """Summed duration of spans named in ``child_names`` whose direct
        parent is a ``parent_name`` span."""
        name, start, end, parent, run = self.arrays()
        if parent_name not in self._name_ids:
            return 0.0
        pid = self._name_ids[parent_name]
        cids = [self._name_ids[c] for c in child_names if c in self._name_ids]
        has_parent = parent >= 0
        under = np.zeros(len(start), dtype=bool)
        under[has_parent] = name[parent[has_parent]] == pid
        mask = under & np.isin(name, cids)
        if runs is not None:
            mask &= np.isin(run, list(runs))
        return float((end - start)[mask].sum())

    def write(self, path):
        """Write every span as compressed arrays plus the name table."""
        name, start, end, parent, run = self.arrays()
        np.savez_compressed(path, name=name, start=start, end=end,
                            parent=parent, run=run,
                            names=np.array(json.dumps(self.names)))
