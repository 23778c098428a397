"""Spans and counters around freelac's public functions, installed from outside.

Every wrapper replaces a name at the module where its caller looks it up:
``freelac.counting`` imports ``multiply`` from ``freelac.words``, so the
counter sits on ``freelac.counting.multiply``, not on ``freelac.words``.
Nothing under ``src/`` changes, and ``Tracer.uninstall`` restores every
original.  Hot word operations get counters only, no span per call, which
bounds the tracing overhead.

Spans carry a name, start, end, parent and run id.  They stay in memory and
the benchmark writes them out when it ends.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    run: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.run = ""
        self.run_counts = self.counts[self.run]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin_run(self, run: str) -> None:
        self.run = run
        self.run_counts = self.counts[run]

    def count(self, name: str, k: int = 1) -> None:
        self.run_counts[name] += k

    def span(self, module, attr: str, name: str, on_result: Optional[Callable] = None) -> None:
        """Record a span around every call of ``module.attr``."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result, *args, **kwargs)
            return result

        self.patch(module, attr, wrapper)

    def counter(self, module, attr: str, name: str) -> None:
        """Count calls of ``module.attr``."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            self.run_counts[name] += 1
            return original(*args, **kwargs)

        self.patch(module, attr, wrapper)

    def patch(self, module, attr: str, wrapper) -> None:
        """Replace ``module.attr`` by ``wrapper`` until ``uninstall``."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run}
                for s in self.spans
            ],
            "counts": {run: dict(c) for run, c in self.counts.items() if c},
        }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of all seven freelac modules."""
    # certificates is traced where cli looks its functions up
    from freelac import builder, cli, counting, primes, spectral, words

    def on_factor(t, result, *args, **kwargs):
        t.count("builder.factors")
        t.count("builder.dfs_nodes", result.nodes_searched)
        t.count("builder.settled", int(result.feasible or result.search_exhausted))

    def on_pn(t, result, subset, s, *args, **kwargs):
        t.count("builder.pn_vectors", builder.epsilon_vector_count(len(subset.exponents), s))

    def on_z(t, cert, elements, s, *args, **kwargs):
        t.count("counting.z_tuples_examined", cert.tuples_examined)
        t.count("counting.z_useful", math.perm(cert.ground_size, s))

    def on_transform(t, report, f, *args, **kwargs):
        t.count("spectral.transform_terms", f.p * len(f.values))

    def on_write(t, result, path, *args, **kwargs):
        t.count("certificates.bytes", os.path.getsize(path))

    leinert = cli.leinert_violation

    def leinert_products(*args, **kwargs):
        # multiply calls made while the DFS runs; a span per call would cost too much
        before = tracer.run_counts["words.multiply_calls"]
        try:
            return leinert(*args, **kwargs)
        finally:
            after = tracer.run_counts["words.multiply_calls"]
            tracer.count("counting.leinert_products", after - before)

    tracer.span(cli, "main", "cli.main")
    tracer.span(cli, "build_family", "builder.build_family")
    tracer.span(builder, "build_factor_set", "builder.build_factor_set", on_factor)
    tracer.span(builder, "strata_extend", "builder.strata_extend")
    tracer.span(cli, "verify_pn_bruteforce", "builder.verify_pn_bruteforce", on_pn)
    tracer.span(cli, "z_value", "counting.z_value", on_z)
    tracer.patch(cli, "leinert_violation", leinert_products)
    tracer.span(cli, "leinert_violation", "counting.leinert_violation")
    tracer.span(cli, "extract_quasi_independent", "counting.extract_quasi_independent")
    tracer.span(spectral, "transform", "spectral.transform", on_transform)
    tracer.span(cli, "transform", "spectral.transform", on_transform)
    tracer.span(spectral, "holder_check", "spectral.holder_check")
    tracer.span(spectral, "sidon_qi_check", "spectral.sidon_qi_check")
    tracer.span(cli, "read_certificate", "certificates.read_certificate")
    tracer.span(cli, "write_certificate", "certificates.write_certificate", on_write)

    tracer.counter(counting, "multiply", "words.multiply_calls")
    tracer.counter(words, "reduce_raw", "words.reduce_raw_calls")
    tracer.counter(counting, "canonical_key", "words.canonical_key_calls")
    tracer.counter(cli, "canonical_key", "words.canonical_key_calls")
    tracer.counter(counting, "alternating_product", "words.alternating_product_calls")
    for module in (primes, builder, spectral):
        tracer.counter(module, "is_prime", "primes.is_prime_calls")


# Per-layer metrics of one workload pass: name -> unit.
PASS_METRICS = {
    "builder.dfs_nodes": "count",
    "builder.nodes_per_s": "1/s",
    "builder.strata_extend_calls": "count",
    "builder.strata_extend_s": "s",
    "builder.settled_ratio": "ratio",
    "builder.verify_pn_s": "s",
    "builder.pn_vectors": "count",
    "builder.pn_vectors_per_s": "1/s",
    "counting.z_value_s": "s",
    "counting.z_tuples_examined": "count",
    "counting.z_tuples_per_s": "1/s",
    "counting.z_useful_ratio": "ratio",
    "counting.leinert_s": "s",
    "counting.leinert_products": "count",
    "counting.qi_s": "s",
    "words.multiply_calls": "count",
    "words.reduce_raw_calls": "count",
    "words.canonical_key_calls": "count",
    "words.alternating_product_calls": "count",
    "spectral.transform_s": "s",
    "spectral.transform_terms": "count",
    "spectral.terms_per_s": "1/s",
    "spectral.holder_s": "s",
    "spectral.sidon_qi_s": "s",
    "certificates.read_s": "s",
    "certificates.write_s": "s",
    "certificates.bytes": "count",
    "primes.is_prime_calls": "count",
    "cli.self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer, run: str) -> dict[str, float]:
    """Per-layer figures of one traced pass; a layer the pass never reaches reads 0."""
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child_time: dict[int, float] = defaultdict(float)
    cli_spans = []
    for i, s in enumerate(tracer.spans):
        if s.run != run:
            continue
        busy[s.name] += s.end - s.start
        calls[s.name] += 1
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
        if s.name == "cli.main":
            cli_spans.append(i)
    c = tracer.counts[run]
    cli_self = sum(
        tracer.spans[i].end - tracer.spans[i].start - child_time[i] for i in cli_spans
    )
    return {
        "builder.dfs_nodes": c["builder.dfs_nodes"],
        "builder.nodes_per_s": _ratio(c["builder.dfs_nodes"], busy["builder.build_factor_set"]),
        "builder.strata_extend_calls": calls["builder.strata_extend"],
        "builder.strata_extend_s": busy["builder.strata_extend"],
        "builder.settled_ratio": _ratio(c["builder.settled"], c["builder.factors"]),
        "builder.verify_pn_s": busy["builder.verify_pn_bruteforce"],
        "builder.pn_vectors": c["builder.pn_vectors"],
        "builder.pn_vectors_per_s": _ratio(
            c["builder.pn_vectors"], busy["builder.verify_pn_bruteforce"]
        ),
        "counting.z_value_s": busy["counting.z_value"],
        "counting.z_tuples_examined": c["counting.z_tuples_examined"],
        "counting.z_tuples_per_s": _ratio(
            c["counting.z_tuples_examined"], busy["counting.z_value"]
        ),
        "counting.z_useful_ratio": _ratio(c["counting.z_useful"], c["counting.z_tuples_examined"]),
        "counting.leinert_s": busy["counting.leinert_violation"],
        "counting.leinert_products": c["counting.leinert_products"],
        "counting.qi_s": busy["counting.extract_quasi_independent"],
        "words.multiply_calls": c["words.multiply_calls"],
        "words.reduce_raw_calls": c["words.reduce_raw_calls"],
        "words.canonical_key_calls": c["words.canonical_key_calls"],
        "words.alternating_product_calls": c["words.alternating_product_calls"],
        "spectral.transform_s": busy["spectral.transform"],
        "spectral.transform_terms": c["spectral.transform_terms"],
        "spectral.terms_per_s": _ratio(c["spectral.transform_terms"], busy["spectral.transform"]),
        "spectral.holder_s": busy["spectral.holder_check"],
        "spectral.sidon_qi_s": busy["spectral.sidon_qi_check"],
        "certificates.read_s": busy["certificates.read_certificate"],
        "certificates.write_s": busy["certificates.write_certificate"],
        "certificates.bytes": c["certificates.bytes"],
        "primes.is_prime_calls": c["primes.is_prime_calls"],
        "cli.self_s": cli_self,
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes; a count keeps a value some pass really had."""
    return {
        name: (statistics.median_low if unit == "count" else statistics.median)(
            p[name] for p in per_pass
        )
        for name, unit in PASS_METRICS.items()
    }
