"""Traced run: in-process replay of CLI invocations with layer spans, and
direct timings of each layer's public functions on the workload inputs.

Spans are recorded by wrapping, for the duration of a replay, the names the
CLI and the layer modules call across module boundaries.  They are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from heraldsim import analysis, cli, mc
from heraldsim.config import ExperimentConfig
from heraldsim.detect import (NUMBER_RESOLVING, THRESHOLD, decompose_s1, herald,
                              sixfold_probability)
from heraldsim.dsl import parse, validate
from heraldsim.elements import apply_circuit, measurement_rotation
from heraldsim.fock import substitute_modes
from heraldsim.mc import precompute_outcome_tables, run_experiment
from heraldsim.source import dephased_source, n_pair_state

# (owner, attribute, span name): the calls one layer makes into another
SPAN_TARGETS = (
    (cli, "parse", "dsl.parse"),
    (cli, "validate", "dsl.validate"),
    (ExperimentConfig, "circuit", "config.circuit"),
    (ExperimentConfig, "digest", "config.digest"),
    (cli, "n_pair_state", "source.n_pair_state"),
    (cli, "apply_circuit", "elements.apply_circuit"),
    (cli, "herald", "detect.herald"),
    (cli, "decompose_s1", "detect.decompose_s1"),
    (cli, "four_pair_correction", "analysis.four_pair_correction"),
    (cli, "precompute_outcome_tables", "mc.precompute_outcome_tables"),
    (cli, "run_experiment", "mc.run_experiment"),
    (analysis, "n_pair_state", "source.n_pair_state"),
    (analysis, "apply_circuit", "elements.apply_circuit"),
    (analysis, "herald", "detect.herald"),
    (mc, "apply_circuit", "elements.apply_circuit"),
    (mc, "substitute_modes", "fock.substitute_modes"),
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.invocation = -1

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.invocation)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every span target that exists in this version of the code."""
        saved = []
        for owner, attr, name in SPAN_TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self) -> dict[str, dict]:
        """Calls, total and self time per span name."""
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            entry = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += s.end - s.start
            entry["self_s"] += own
        return out

    def to_json(self) -> list[dict]:
        return [dict(dataclasses.asdict(s), self_s=own)
                for s, own in zip(self.spans, self.self_times())]


def replay(argv: list[str], tracer: Tracer | None = None
           ) -> tuple[int, float, bytes]:
    """Run `heraldsim.cli.main(argv)` in this process; returns the exit
    code, wall time and captured standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            tracer.invocation += 1
            with tracer.patched(), tracer.span(f"cli.{argv[0]}"):
                code = cli.main(argv)
        wall = time.perf_counter() - start
    if code != 0:
        print(err.getvalue(), file=sys.stderr, end="")
    return code, wall, out.getvalue().encode()


def _median_time(fn, repeats: int) -> tuple[float, object]:
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _table_bytes(table) -> int:
    total = 0
    for value in vars(table).values():
        for item in (value if isinstance(value, tuple) else (value,)):
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return total


def layer_probes(config_paths: list[Path], import_probe, smoke: bool = False
                 ) -> dict[str, float]:
    """Time each layer's public functions on the workload's own configs.

    The physics probes use the first config; Monte Carlo probes use the first
    config with threshold triggers.  `import_probe()` returns the wall time
    of a fresh interpreter importing the CLI.
    """
    m: dict[str, float] = {}
    m["cli.import_s"] = statistics.median(import_probe() for _ in range(3))

    texts = [p.read_text(encoding="utf-8") for p in config_paths]
    m["dsl.parse_s"], configs = _median_time(
        lambda: [parse(t) for t in texts], 5)
    m["dsl.validate_s"], _ = _median_time(
        lambda: [validate(c) for c in configs], 5)
    m["config.circuit_s"], circuits = _median_time(
        lambda: [c.circuit() for c in configs], 5)
    m["config.digest_s"], _ = _median_time(
        lambda: [c.digest() for c in configs], 5)

    config, circuit = configs[0], circuits[0]
    triggers = config.trigger_detectors()
    arms = config.output_arms()[:2]
    states = {}
    for n in (3, 4, 5):
        m[f"source.n_pair_state.n{n}_s"], state = _median_time(
            lambda: n_pair_state(n), 5)
        m[f"source.terms.n{n}"] = len(state.terms)
        m[f"elements.apply_circuit.n{n}_s"], states[n] = _median_time(
            lambda: apply_circuit(state, circuit), 3 if n < 5 else 1)
        m[f"elements.out_terms.n{n}"] = len(states[n].terms)
    m["source.dephased_source_s"], mixed = _median_time(
        lambda: dephased_source(config.source, config.noise), 5)
    m["source.branches"] = len(mixed.branches)

    def rotate():
        out = states[3]
        for arm in arms:
            out = substitute_modes(
                out, measurement_rotation(arm, "DA").extended(out.occupied_modes()))
        return out
    m["fock.substitute_modes.rotation_s"], rotated = _median_time(rotate, 3)
    m["fock.terms_out"] = len(rotated.terms)

    threshold = [dataclasses.replace(d, kind=THRESHOLD) for d in triggers]
    pnr = [dataclasses.replace(d, kind=NUMBER_RESOLVING) for d in triggers]
    for n, repeats in ((3, 3), (4, 1), (5, 1)):
        m[f"detect.herald.n{n}_s"], _ = _median_time(
            lambda: herald(states[n], threshold, output_arms=arms), repeats)
    m["detect.herald_pnr.n3_s"], _ = _median_time(
        lambda: herald(states[3], pnr, output_arms=arms), 3)
    m["detect.sixfold_probability.n3_s"], _ = _median_time(
        lambda: sixfold_probability(states[3], threshold,
                                    config.output_detectors(), ("DA", "DA"),
                                    output_arms=arms), 1)
    m["detect.decompose_s1.n3_s"], _ = _median_time(
        lambda: decompose_s1(states[3], trigger_modes=tuple(d.mode for d in triggers),
                             output_arms=arms), 5)
    m["analysis.four_pair_correction_s"], _ = _median_time(
        lambda: analysis.four_pair_correction(
            config.source, config.beam_splitter_R(), config.mean_trigger_eta()), 1)

    mc_config = dataclasses.replace(
        config, detectors=tuple(dataclasses.replace(d, kind=THRESHOLD)
                                for d in config.detectors))
    m["mc.tables_s"], tables = _median_time(
        lambda: precompute_outcome_tables(mc_config), 1)
    m["mc.branches"] = len(tables[0].branch_weights)
    m["mc.patterns"] = 1 << len(mc_config.detectors)
    m["mc.table_bytes"] = sum(_table_bytes(t) for t in tables)
    pulses = 20_000 if smoke else 2_000_000
    sample_s, _ = _median_time(lambda: run_experiment(
        dataclasses.replace(mc_config, pulses=pulses), tables=tables), 1)
    m["mc.sample_pulses_per_s"] = pulses * len(tables) / sample_s
    m["mc.aggregate_s"], _ = _median_time(lambda: run_experiment(
        dataclasses.replace(mc_config, pulses=1_000_000_000), tables=tables,
        aggregate=True), 5)
    return m
