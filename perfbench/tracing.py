"""Traced mode: spans around the calls into each mctsynth module.

The spans are recorded from the benchmark's side only.  ``cli`` and
``costs`` import their collaborators by name, so every binding through
which a public function is reached gets its own wrapper: each function
that ``mctsynth.cli`` or ``mctsynth.costs`` imports from another
mctsynth module, ``mctsynth.decomp.peres_pairing`` (which
``lower_circuit`` calls internally), ``mctsynth.qasmio.save``/``load``,
and ``mctsynth.cli.main`` itself as the root of every job.
``mctsynth.verify.apply`` (the dense engine) is counted, not timed.
The oracles that ``cli`` builds are replaced by counting oracles whose
time is taken out of the enclosing verifier span.

Spans are timed on the process CPU clock, the clock the job times use.
A span's self time is its duration minus the durations of its child
spans and of the oracle calls made inside it.  ``ir`` is never wrapped:
its cost lands in the self time of whichever module called it.
"""

from __future__ import annotations

import inspect
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import process_time as clock

# layer of each wrapped function; anything else imported by cli or
# costs is timed under its module's name
LAYER = {
    "build_cnx": "ladder.build",
    "build_workspace_toffoli": "ladder.build",
    "build_workspace_c3x": "ladder.build",
    "build_cycle_cnx": "cycle.build",
    "build_cycle_cnx_auto": "cycle.build",
    "build_two_cycle_cnx": "cycle.build",
    "lower_circuit": "decomp.lower",
    "peres_pairing": "decomp.pairing",
    "cost_report": "costs.report",
    "report_text": "costs.report",
    "make_table": "costs.table",
    "render_table_text": "costs.table",
    "render_table_csv": "costs.table",
}
TRACED_MODULES = ("ladder", "cycle", "decomp", "costs", "verify")


@dataclass
class Span:
    layer: str
    start: float
    parent: int
    job: int
    end: float = 0.0
    inner: float = 0.0  # time in counted oracle calls made inside this span

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    oracle_s: float = 0.0
    job: int = 0
    _open: list[int] = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, layer, after=None):
        """``fn`` inside a span.  ``layer`` is a name or a function of
        the call's arguments; ``after(result, *args)`` runs outside the
        span to count what the call produced."""

        def traced(*args, **kwargs):
            name = layer(*args) if callable(layer) else layer
            self.spans.append(Span(name, 0.0, self._open[-1] if self._open else -1, self.job))
            idx = len(self.spans) - 1
            self._open.append(idx)
            span = self.spans[idx]
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._open.pop()
            if after is not None:
                after(result, *args)
            return result

        return traced

    def counting_oracle(self, factory):
        """Wrap an oracle factory so the oracles it returns count their
        calls and report their time."""

        def make(*args, **kwargs):
            oracle = factory(*args, **kwargs)

            def counted(bits):
                t0 = clock()
                try:
                    return oracle(bits)
                finally:
                    dt = clock() - t0
                    self.oracle_s += dt
                    self.counts["verify.inputs"] += 1
                    if self._open:
                        self.spans[self._open[-1]].inner += dt

            return counted

        return make

    # -- installing ----------------------------------------------------------

    def _patch(self, module, name, wrapper) -> None:
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def install(self, modules: dict) -> None:
        """Patch the bindings of a freshly imported mctsynth;
        ``modules`` maps short names to module objects."""
        verify = modules["verify"]

        def engine(circuit, *_args, **_kwargs):
            return "verify.classical" if verify.is_classical(circuit) else "verify.sparse"

        def lowered(result, *_args):
            self.counts["decomp.gates_out"] += len(result.gates)

        def paired(plan, *_args):
            self.counts["decomp.paired"] += 2 * len(plan.pairs)
            self.counts["decomp.toffolis"] += 2 * len(plan.pairs) + len(plan.unpaired)

        def saved(_result, _circuit, path, *_args):
            self.counts["qasmio.bytes"] += os.path.getsize(path)

        def loaded(_result, path):
            self.counts["qasmio.bytes"] += os.path.getsize(path)

        original_apply = verify.apply

        def dense(*args, **kwargs):
            self.counts["verify.dense_calls"] += 1
            return original_apply(*args, **kwargs)

        hooks = {"lower_circuit": lowered, "peres_pairing": paired}
        for owner in ("cli", "costs"):
            mod = modules[owner]
            for name, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn):
                    continue
                home = fn.__module__.rsplit(".", 1)[-1]
                if home == owner or home not in TRACED_MODULES:
                    continue
                if name.startswith("oracle_"):
                    self._patch(mod, name, self.counting_oracle(fn))
                elif name == "check_equivalence":
                    self._patch(mod, name, self.wrap(fn, engine))
                else:
                    self._patch(mod, name, self.wrap(fn, LAYER.get(name, home), hooks.get(name)))
        decomp = modules["decomp"]
        self._patch(decomp, "peres_pairing", self.wrap(decomp.peres_pairing,
                                                       "decomp.pairing", paired))
        qasmio = modules["qasmio"]
        self._patch(qasmio, "save", self.wrap(qasmio.save, "qasmio.save", saved))
        self._patch(qasmio, "load", self.wrap(qasmio.load, "qasmio.load", loaded))
        self._patch(verify, "apply", dense)
        cli = modules["cli"]
        self._patch(cli, "main", self.wrap(cli.main, "cli"))

    def uninstall(self) -> None:
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [s.seconds - s.inner for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def self_by_job(self) -> dict[int, float]:
        total: dict[int, float] = defaultdict(float)
        for span, t in zip(self.spans, self.self_times()):
            total[span.job] += t
        return dict(total)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals over every traced job, as (value, unit)."""
        by_layer: dict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, self.self_times()):
            by_layer[span.layer] += t
        verify_s = sum(s.seconds for s in self.spans if s.layer.startswith("verify."))
        inputs = self.counts["verify.inputs"]
        toffolis = self.counts["decomp.toffolis"]
        seconds = {
            "cli.self_s": "cli",
            "ladder.build_s": "ladder.build",
            "cycle.build_s": "cycle.build",
            "decomp.lower_s": "decomp.lower",
            "decomp.pairing_s": "decomp.pairing",
            "costs.report_s": "costs.report",
            "costs.table_s": "costs.table",
            "verify.classical_s": "verify.classical",
            "verify.sparse_s": "verify.sparse",
            "qasmio.save_s": "qasmio.save",
            "qasmio.load_s": "qasmio.load",
        }
        out = {name: (by_layer[layer], "s") for name, layer in seconds.items()}
        out.update({
            "verify.oracle_s": (self.oracle_s, "s"),
            "verify.inputs": (inputs, "count"),
            "verify.inputs_per_s": (inputs / verify_s if verify_s else 0.0, "1/s"),
            "verify.dense_calls": (self.counts["verify.dense_calls"], "count"),
            "decomp.gates_out": (self.counts["decomp.gates_out"], "count"),
            "decomp.paired_share": (self.counts["decomp.paired"] / toffolis if toffolis else 0.0,
                                    "share"),
            "qasmio.bytes": (self.counts["qasmio.bytes"], "bytes"),
        })
        return out
